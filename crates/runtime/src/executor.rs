//! The parallel loop executor.
//!
//! Execution follows the paper's three phases. Phase A runs the transformed function
//! sequentially from its entry to the parallelized loop's header; Phase B dispatches loop
//! iterations across workers; Phase C resumes sequentially from the earliest iteration's
//! exit. All three phases execute lowered bytecode (see [`crate::parallel_image`]) on the
//! run's engine: no fuel, no statistics, no per-op cost charging — this is the production
//! dispatch loop, not the instrumented engine.
//!
//! Phase B's machinery, end to end:
//!
//! * the [`ParallelImage`] is lowered once per program (not per run) and shared immutably by
//!   every worker; iteration code carries pre-resolved signal-lane indices and sentinel
//!   back-edge/exit targets, so workers dispatch straight-line code;
//! * workers come from the process-wide persistent [`WorkerPool`] — no OS threads are
//!   spawned per run — and are only *activated* once iteration 0's prologue decides the
//!   loop actually continues: a zero-trip (Phase A/C-only) loop never wakes a single helper
//!   and runs purely sequentially on the calling thread;
//! * Phase B is one protocol. Workers never outnumber hardware threads
//!   ([`ParallelExecutor::effective_workers`]), and each claims the next iteration from one
//!   shared counter once it is ready: a worker takes iteration `i` only after iteration
//!   `i-1`'s prologue has released the control lane and iteration `i - window` has fully
//!   completed (the completion ring that makes the windowed [`SignalLanes`] reuse safe);
//!   workers with nothing to claim sit in the adaptive spin→yield→park backoff. With one
//!   effective worker there is nothing to claim against: iterations run in order on the
//!   calling thread with no claim atomics at all;
//! * one `Engine` per run — the resolved dispatch tier's handler tables plus any native
//!   code — is built on the submitting thread and shared by reference with every helper;
//! * cross-iteration dependences synchronize through cache-line-padded, windowed
//!   [`SignalLanes`] instead of a dense false-sharing counter array;
//! * allocations proved iteration-private are served from each worker's
//!   [`crate::sharded::PrivateArena`]; the words skipped in shared memory are re-reserved
//!   after the loop so every shared address stays bitwise-identical to a sequential run.

use crate::engine::Engine;
use crate::lanes::{PaddedCounter, SignalLanes};
use crate::parallel_image::{
    FlatEnd, FlatError, IterEnd, IterError, IterSync, LoopImage, ParallelImage,
};
use crate::pool::{
    detect_hardware_threads, lock, panic_message, AdaptiveWait, Sleepers, WorkerPool,
};
use crate::sharded::{SharedMemory, WorkerMemory};
use crate::telemetry::{TelemetryMode, TelemetryReport, TelemetryRun, WorkerCtx, WorkerTail};
use crate::threaded::DispatchTier;
use helix_ir::interp::ExecError;
use helix_ir::{DepId, ExecImage, Memory, Value};
use helix_plan::TransformedProgram;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default safety cap on the number of loop iterations dispatched.
pub const DEFAULT_MAX_ITERATIONS: u64 = 10_000_000;

/// Default deadlock budget of a blocked `Wait`, in yield-equivalent backoff units.
pub const DEFAULT_SPIN_BUDGET: u64 = 200_000_000;

/// Errors raised by the parallel executor.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// The underlying engine faulted.
    Exec(ExecError),
    /// The executor gave up waiting for a signal (likely a missing `Signal` on some path).
    /// The report pinpoints the blocked `Wait` in the lowered iteration bytecode: its owning
    /// sequential segment and the segment's flat pc range, so shrunk fuzz repros localize
    /// without re-deriving any analysis.
    Deadlock {
        /// The dependence being waited for.
        dep: DepId,
        /// The iteration that was waiting.
        iteration: u64,
        /// Index of the signal lane the dependence maps to.
        lane: usize,
        /// The last lane counter value observed before giving up (the waiter needed it to
        /// reach `iteration`).
        last_observed: u64,
        /// Index (in the plan's segment list) of the sequential segment that owns the
        /// blocked `Wait`.
        segment: usize,
        /// pc of the blocked `Wait` in the iteration bytecode ([`LoopImage::code`]).
        wait_pc: u32,
        /// The owning segment's `[first, last]` pc range in the iteration bytecode.
        segment_pc_range: (u32, u32),
        /// The telemetry tail: each worker's last events (which lane it was waiting on,
        /// the last counter it observed, the last signals it published). Empty when the
        /// run was not traced — enable telemetry on the repro to fill it in.
        tail: Vec<WorkerTail>,
    },
    /// The loop never terminated within the iteration budget.
    IterationBudgetExceeded,
    /// A worker thread panicked during the run. The panic payload is preserved (not
    /// re-raised): the run is cancelled, the pool poisons itself and respawns its helper
    /// cohort on the next submit, and the caller — a CLI invocation or a served daemon
    /// job — decides what the panic means. Long-lived servers keep serving.
    WorkerPanicked {
        /// Which worker the panic escaped from (0 is the submitting thread).
        worker: usize,
        /// The panic payload rendered as text.
        message: String,
        /// The telemetry tail: each worker's last events before the panic. Empty when
        /// the run was not traced.
        tail: Vec<WorkerTail>,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "execution error: {e}"),
            RuntimeError::Deadlock {
                dep,
                iteration,
                lane,
                last_observed,
                segment,
                wait_pc,
                segment_pc_range,
                tail,
            } => {
                write!(
                    f,
                    "deadlock waiting for {dep} in iteration {iteration}: signal lane {lane} \
                     last observed at {last_observed}, needed {iteration} (segment {segment}, \
                     wait at pc {wait_pc}, segment pc range {}..={})",
                    segment_pc_range.0, segment_pc_range.1
                )?;
                if !tail.is_empty() {
                    write!(f, "; last events per worker:")?;
                    for t in tail {
                        write!(f, " {t}")?;
                    }
                }
                Ok(())
            }
            RuntimeError::IterationBudgetExceeded => write!(f, "iteration budget exceeded"),
            RuntimeError::WorkerPanicked {
                worker,
                message,
                tail,
            } => {
                write!(
                    f,
                    "worker {worker} panicked during a parallel run: {message}"
                )?;
                if !tail.is_empty() {
                    write!(f, "; last events per worker:")?;
                    for t in tail {
                        write!(f, " {t}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}

impl From<FlatError> for RuntimeError {
    fn from(e: FlatError) -> Self {
        match e {
            FlatError::Exec(e) => RuntimeError::Exec(e),
            FlatError::BudgetExceeded => RuntimeError::IterationBudgetExceeded,
        }
    }
}

/// Everything one parallel run produced (see [`ParallelExecutor::run_parallel_out`]).
#[derive(Debug)]
pub struct RunOutput {
    /// The function's return value, or how the run failed.
    pub result: Result<Option<Value>, RuntimeError>,
    /// The run's telemetry report (`None` when telemetry is disabled).
    pub report: Option<TelemetryReport>,
    /// The run's final memory, captured only when
    /// [`ParallelExecutor::capture_memory`] is set and the run succeeded. The service's
    /// differential check compares this bitwise between cold and warm runs.
    pub memory: Option<Memory>,
}

/// How the parallelized loop ended.
enum LoopExit {
    /// Control left the loop through an exit edge: resume Phase C at `block` with `regs`.
    Edge { block: u32, regs: Vec<Value> },
    /// A `Ret` inside the loop body ended the whole function with this value.
    Returned(Option<Value>),
}

/// The shared state of one Phase B: lanes, ordering counters, exit bookkeeping.
struct RunShared<'a> {
    loop_image: &'a LoopImage,
    /// Padded signal lanes, one ring row per synchronized dependence.
    lanes: SignalLanes,
    /// The park pad of lane (`Wait`) waiters: signal publication wakes it.
    sleepers: Sleepers,
    /// The park pad of idle claimers: woken on per-iteration progress, exit and error.
    claim_sleepers: Sleepers,
    /// Highest iteration whose prologue predecessor chain is complete (iteration `i` may
    /// start once `control >= i`).
    control: PaddedCounter,
    /// Next unclaimed iteration.
    next_claim: PaddedCounter,
    /// Lowest iteration that took a loop exit (`u64::MAX` while the loop runs).
    exited_at: PaddedCounter,
    /// Completion ring: slot `i % window` holds `i + 1` once iteration `i` fully completed.
    /// Gates claiming of iteration `i + window`, bounding lane-ring reuse.
    done_ring: Box<[PaddedCounter]>,
    /// In-flight window size (power of two, matches the lanes' ring width).
    window: u64,
    /// The exit taken by the *earliest* exiting iteration (sequential semantics pick the
    /// first iteration that leaves the loop, not the first worker to reach an exit).
    exit_state: Mutex<Option<(u64, LoopExit)>>,
    /// The earliest-iteration worker error, if any.
    error: Mutex<Option<(u64, RuntimeError)>>,
    /// Register file at loop entry; every iteration starts from this snapshot.
    snapshot: Vec<Value>,
    /// Words served from private arenas, re-reserved in shared memory after the loop.
    private_words: AtomicU64,
    /// The run's budgets and fault injection (`max_iterations`, `spin_budget`, `panic_at`).
    executor: ParallelExecutor,
}

impl<'a> RunShared<'a> {
    fn new(loop_image: &'a LoopImage, snapshot: Vec<Value>, executor: &ParallelExecutor) -> Self {
        let window = (executor.threads * 2).next_power_of_two().max(8);
        Self {
            loop_image,
            lanes: SignalLanes::new(loop_image.num_lanes(), window),
            sleepers: Sleepers::new(),
            claim_sleepers: Sleepers::new(),
            control: PaddedCounter::new(),
            next_claim: PaddedCounter::new(),
            exited_at: PaddedCounter(AtomicU64::new(u64::MAX)),
            done_ring: (0..window).map(|_| PaddedCounter::new()).collect(),
            window: window as u64,
            exit_state: Mutex::new(None),
            error: Mutex::new(None),
            snapshot,
            private_words: AtomicU64::new(0),
            executor: *executor,
        }
    }

    /// Ends the loop at `iteration`: stores `value` in `slot` unless an earlier iteration
    /// already did, and wakes every waiter so it sees `exited_at`.
    fn record<V>(&self, slot: &Mutex<Option<(u64, V)>>, iteration: u64, value: V) {
        self.exited_at.0.fetch_min(iteration, Ordering::AcqRel);
        let mut slot = lock(slot);
        if slot
            .as_ref()
            .is_none_or(|(recorded, _)| *recorded > iteration)
        {
            *slot = Some((iteration, value));
        }
        drop(slot);
        self.sleepers.wake_all();
        self.claim_sleepers.wake_all();
    }

    /// Records `exit` for `iteration`, keeping the lowest-iteration exit seen so far.
    fn record_exit(&self, iteration: u64, exit: LoopExit) {
        self.record(&self.exit_state, iteration, exit);
    }

    /// Records a worker error, keeping the earliest-iteration one.
    fn record_error(&self, iteration: u64, error: RuntimeError) {
        self.record(&self.error, iteration, error);
    }

    /// Records a panic that escaped `worker` as the run's iteration-0 error: that wins
    /// the earliest-error race and zeroes `exited_at`, so every other worker drains
    /// promptly instead of spinning out its deadlock budget on control that will never
    /// be released.
    fn record_panic(&self, worker: usize, message: String) {
        self.record_error(
            0,
            RuntimeError::WorkerPanicked {
                worker,
                message,
                tail: Vec::new(),
            },
        );
    }

    /// Phase B's verdict once every worker has left: how the loop ended and the words
    /// served from private arenas. Sequential semantics pick whichever loop end comes
    /// first in *iteration* order: a fault in a speculative iteration past an
    /// already-recorded exit is work sequential execution never performs and must not mask
    /// the legitimate result. An error at or before the earliest exit is real (sequential
    /// execution reaches it first).
    fn into_outcome(self) -> Result<(LoopExit, u64), RuntimeError> {
        let exit = self
            .exit_state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((err_iter, err)) = self
            .error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            let exit_iter = exit.as_ref().map_or(u64::MAX, |(i, _)| *i);
            if err_iter <= exit_iter {
                return Err(err);
            }
        }
        match exit {
            Some((_, exit)) => Ok((exit, self.private_words.into_inner())),
            None => Err(RuntimeError::IterationBudgetExceeded),
        }
    }
}

/// Converts an iteration-runner error into the precise runtime error, resolving the
/// blocked `Wait`'s segment through the image's side tables.
fn convert_iter_error(loop_image: &LoopImage, iteration: u64, e: IterError) -> RuntimeError {
    match e {
        IterError::Exec(e) => RuntimeError::Exec(e),
        IterError::Deadlock { lane, pc, observed } => {
            let (dep, segment, segment_pc_range) = match loop_image.lane_at(pc) {
                Some(info) => (info.dep, info.segment, info.pc_range()),
                None => (DepId::new(lane), 0, (pc, pc)),
            };
            RuntimeError::Deadlock {
                dep,
                iteration,
                lane: lane as usize,
                last_observed: observed,
                segment,
                wait_pc: pc,
                segment_pc_range,
                tail: Vec::new(),
            }
        }
    }
}

/// One worker's state for running the iterations it owns: everything Phase B needs that
/// is the same whether iterations were claimed from the shared counter or simply counted
/// up by the single worker.
///
/// The per-iteration telemetry counts (claims, iterations, private-arena words) accumulate
/// here, in the worker's own registers, and are flushed to its telemetry slot exactly
/// once, on whichever path the worker leaves its loop — `Drop` covers them all, including
/// the error and deadlock returns. A memory RMW per iteration on the hot claim loop is
/// measurable on short iteration bodies; a bulk add on exit is free.
struct IterRunner<'a> {
    engine: &'a Engine<'a>,
    loop_image: &'a LoopImage,
    /// Register file at loop entry; every iteration starts from this snapshot.
    snapshot: &'a [Value],
    sync: IterSync<'a>,
    regs: Vec<Value>,
    panic_at: Option<u64>,
    telem: Option<WorkerCtx<'a>>,
    claims: u64,
    iterations: u64,
    arena_words: u64,
}

impl Drop for IterRunner<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.telem {
            t.add_iter_counts(self.claims, self.iterations, self.arena_words);
        }
    }
}

impl<'a> IterRunner<'a> {
    fn new(
        engine: &'a Engine<'a>,
        loop_image: &'a LoopImage,
        snapshot: &'a [Value],
        sync: IterSync<'a>,
        panic_at: Option<u64>,
        telem: Option<WorkerCtx<'a>>,
    ) -> Self {
        IterRunner {
            engine,
            loop_image,
            snapshot,
            sync,
            regs: snapshot.to_vec(),
            panic_at,
            telem,
            claims: 0,
            iterations: 0,
            arena_words: 0,
        }
    }

    /// Runs iteration `i`, which this worker owns: restore-set registers go back to the
    /// loop-entry snapshot, privatized induction variables are recomputed, the arena
    /// starts fresh, and the dispatch is bracketed by the telemetry hooks.
    fn run(
        &mut self,
        i: u64,
        mem: &mut WorkerMemory<'_>,
        on_control: &mut dyn FnMut(),
    ) -> Result<IterEnd, IterError> {
        let telem = self.telem;
        self.claims += 1;
        if let Some(t) = telem {
            t.on_claim(i);
        }
        if self.panic_at == Some(i) {
            panic!("injected fault: worker panic at iteration {i}");
        }
        for &r in &self.loop_image.restore_regs {
            self.regs[r as usize] = self.snapshot[r as usize];
        }
        for (reg, step) in &self.loop_image.induction_vars {
            let r = *reg as usize;
            if r < self.regs.len() {
                let base = self.snapshot[r].as_int();
                self.regs[r] = Value::Int(base + *step * i as i64);
            }
        }
        mem.reset_arena();
        let iter_start = telem.map(|t| t.on_iter_start(i));
        let outcome = self
            .engine
            .iterate(i, &mut self.regs, mem, &self.sync, on_control);
        self.iterations += 1;
        if let (Some(t), Some(t0)) = (telem, iter_start) {
            t.on_iter_finish(i, t0);
        }
        outcome
    }

    /// Moves the words `mem` served privately since the last drain into this worker's
    /// telemetry count and returns them.
    fn drain_private_words(&mut self, mem: &mut WorkerMemory<'_>) -> u64 {
        let words = mem.drain_private_words();
        self.arena_words += words;
        words
    }
}

/// One worker's Phase B under the claim protocol: claim ready iterations and run them
/// until the loop ends. `on_first_control` fires whenever an iteration of *this worker*
/// releases control (the executor's pool-activation hook; helpers pass a no-op).
fn phase_b_worker(
    shared: &RunShared<'_>,
    engine: &Engine<'_>,
    mem: &mut WorkerMemory<'_>,
    on_first_control: &mut dyn FnMut(),
    telem: Option<WorkerCtx<'_>>,
) {
    let mask = shared.window - 1;
    let sync = IterSync::new(
        &shared.lanes,
        &shared.sleepers,
        &shared.exited_at.0,
        shared.executor.spin_budget,
        telem,
    );
    let mut runner = IterRunner::new(
        engine,
        shared.loop_image,
        &shared.snapshot,
        sync,
        shared.executor.panic_at,
        telem,
    );
    let mut idle = AdaptiveWait::new(&shared.claim_sleepers);
    loop {
        let i = shared.next_claim.0.load(Ordering::Acquire);
        if shared.exited_at.0.load(Ordering::Acquire) <= i {
            return;
        }
        if i > shared.executor.max_iterations {
            shared.record_error(i, RuntimeError::IterationBudgetExceeded);
            return;
        }
        let ready = shared.control.0.load(Ordering::Acquire) >= i
            && shared.done_ring[(i & mask) as usize]
                .0
                .load(Ordering::Acquire)
                >= (i + 1).saturating_sub(shared.window);
        if !ready {
            idle.wait();
            continue;
        }
        if shared
            .next_claim
            .0
            .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        idle.reset();

        let mut released = false;
        let mut on_control = |iteration: u64| {
            // A plain release store suffices: each iteration releases control exactly once,
            // and iteration i+1's releaser claimed only after observing iteration i's
            // release, so writes to the counter are totally ordered and monotone.
            shared.control.0.store(iteration + 1, Ordering::Release);
            shared.claim_sleepers.wake_all();
            on_first_control();
        };
        let mut control_hook = || {
            if !released {
                released = true;
                on_control(i);
            }
        };
        let outcome = runner.run(i, mem, &mut control_hook);
        if !matches!(outcome, Ok(IterEnd::Cancelled) | Err(_)) {
            // Counting this iteration's private words is exact: exit edges originate only
            // in prologues (Step 1), and control for iteration i+1 is released only after
            // iteration i's prologue decided to continue — so a completed iteration is
            // never speculative work past the loop's end (and `Returned` exits skip the
            // reserve entirely).
            let words = runner.drain_private_words(mem);
            shared.private_words.fetch_add(words, Ordering::Relaxed);
        }
        match outcome {
            Ok(IterEnd::Completed) => {
                if !released {
                    // The iteration never entered the body (prologue-only path): the back
                    // edge itself proves the next prologue may start.
                    on_control(i);
                }
                shared.done_ring[(i & mask) as usize]
                    .0
                    .store(i + 1, Ordering::Release);
                shared.claim_sleepers.wake_all();
            }
            Ok(IterEnd::Exit { block }) => {
                let regs = std::mem::take(&mut runner.regs);
                shared.record_exit(i, LoopExit::Edge { block, regs });
                return;
            }
            Ok(IterEnd::Returned(v)) => {
                shared.record_exit(i, LoopExit::Returned(v));
                return;
            }
            Ok(IterEnd::Cancelled) => {
                // An earlier iteration exited while this one was blocked; its work is moot.
                return;
            }
            Err(e) => {
                let err = convert_iter_error(shared.loop_image, i, e);
                shared.record_error(i, err);
                return;
            }
        }
    }
}

/// Executes a HELIX-transformed program with real worker threads.
#[derive(Clone, Copy, Debug)]
pub struct ParallelExecutor {
    /// Number of worker threads ("cores"). The calling thread acts as one of them; helpers
    /// come from the persistent [`WorkerPool`].
    pub threads: usize,
    /// Safety cap on the number of loop iterations dispatched.
    pub max_iterations: u64,
    /// Deadlock budget of a blocked `Wait`, in yield-equivalent backoff units.
    pub spin_budget: u64,
    /// What the run records (see [`TelemetryMode`]); disabled by default. Reports come
    /// back in [`RunOutput::report`].
    pub telemetry: TelemetryMode,
    /// Which dispatch engine runs the bytecode (see [`DispatchTier`]). The default,
    /// [`DispatchTier::Auto`], is the JIT wherever it runs.
    pub dispatch_tier: DispatchTier,
    /// Hardware thread count, snapshotted once at construction. Every decision derived
    /// from the machine's topology — worker clamping and the clamp diagnostic — reads this
    /// snapshot, so a cgroup resize mid-run can never make them disagree with each other.
    /// Overriding it is how the fuzzing oracle and the protocol tests run N time-sliced
    /// workers on a host with fewer hardware threads.
    pub hardware: usize,
    /// Fault injection for robustness tests: the worker that claims this iteration
    /// panics before running it. The panic surfaces as
    /// [`RuntimeError::WorkerPanicked`], never as a process abort.
    pub panic_at: Option<u64>,
    /// Capture the run's final memory into [`RunOutput::memory`] (the `*_out` entry
    /// points); off by default. Every worker count captures the same way:
    /// [`SharedMemory::snapshot`] copies the live prefix (globals + allocated heap) out of
    /// the run's shared memory, so the capture holds the same [`Memory::live_words`] a
    /// sequential run would.
    pub capture_memory: bool,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self {
            threads: 4,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            spin_budget: DEFAULT_SPIN_BUDGET,
            telemetry: TelemetryMode::Disabled,
            dispatch_tier: DispatchTier::Auto,
            hardware: detect_hardware_threads(),
            panic_at: None,
            capture_memory: false,
        }
    }
}

impl ParallelExecutor {
    /// Creates an executor with `threads` workers and default budgets.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Overrides the deadlock spin budget.
    pub fn with_spin_budget(mut self, spins: u64) -> Self {
        self.spin_budget = spins.max(1);
        self
    }

    /// Overrides the loop iteration budget.
    pub fn with_max_iterations(mut self, iterations: u64) -> Self {
        self.max_iterations = iterations.max(1);
        self
    }

    /// Sets the telemetry mode of subsequent runs (see [`TelemetryMode`]).
    pub fn with_telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Pins the dispatch engine (see [`DispatchTier`]). [`DispatchTier::Auto`] is the
    /// default.
    pub fn with_dispatch_tier(mut self, tier: DispatchTier) -> Self {
        self.dispatch_tier = tier;
        self
    }

    /// Injects a fault: the worker that claims `iteration` panics before running it (see
    /// [`ParallelExecutor::panic_at`]). For robustness tests and the service's
    /// fault-injection smoke requests.
    pub fn with_injected_panic(mut self, iteration: u64) -> Self {
        self.panic_at = Some(iteration);
        self
    }

    /// Captures the run's final memory into [`RunOutput::memory`] (see
    /// [`ParallelExecutor::capture_memory`]).
    pub fn with_capture_memory(mut self, capture: bool) -> Self {
        self.capture_memory = capture;
        self
    }

    /// The tier this executor will actually dispatch with ([`DispatchTier::resolved`]).
    pub fn resolved_tier(&self) -> DispatchTier {
        self.dispatch_tier.resolved()
    }

    /// Runs the parallel clone of `program` from its entry with `args`, executing the
    /// parallelized loop's iterations across worker threads, and returns the function's
    /// return value. Lowers the program on every call; callers executing the same program
    /// repeatedly should lower once with [`ParallelImage::lower`] and use
    /// [`ParallelExecutor::run_parallel`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the engine faults, a signal never arrives, or the loop
    /// exceeds the iteration budget.
    pub fn run(
        &self,
        program: &TransformedProgram,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        let pimg = ParallelImage::lower(program);
        self.run_parallel(&pimg, args)
    }

    /// Runs a pre-lowered [`ParallelImage`]: the zero-per-run-lowering fast path.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the engine faults, a signal never arrives, or the loop
    /// exceeds the iteration budget.
    pub fn run_parallel(
        &self,
        pimg: &ParallelImage,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        self.run_lowered(&pimg.exec, &pimg.loop_image, args)
    }

    /// The worker count the machine can actually run concurrently: workers beyond the
    /// hardware thread count cannot execute concurrently, so every extra worker would only
    /// add claim traffic to the thread that has the CPU. This is the measured-cost feedback
    /// loop applied to the runtime itself — the calibrated cross-thread signal latency on a
    /// fully oversubscribed machine is effectively infinite, and the correct response is to
    /// run the cheap in-order path. Callers that want N time-sliced workers on a smaller
    /// host regardless (the fuzzing oracle, the protocol tests) override the
    /// [`ParallelExecutor::hardware`] snapshot.
    ///
    /// Public so callers (the benchmark, diagnostics) can see which requested thread
    /// counts collapse to the same effective configuration on this machine.
    pub fn effective_workers(&self) -> usize {
        self.threads.min(self.hardware.max(1))
    }

    /// Why [`ParallelExecutor::effective_workers`] is what it is, as a one-line
    /// diagnostic: the requested count fit the topology, or it was clamped to the
    /// hardware. Reported alongside `effective_workers` so a collapsed measurement
    /// explains itself.
    pub fn clamp_reason(&self) -> String {
        // The same snapshot `effective_workers` clamps with: the diagnostic can never
        // describe a different machine than the clamp acted on.
        let hardware = self.hardware;
        if self.threads <= hardware {
            format!(
                "{} worker(s) fit {} hardware thread(s)",
                self.threads, hardware
            )
        } else {
            format!(
                "clamped {} -> {}: only {} hardware thread(s) available",
                self.threads,
                self.effective_workers(),
                hardware
            )
        }
    }

    /// [`ParallelExecutor::run_parallel`] with the full output: result, telemetry
    /// report, and — when [`ParallelExecutor::capture_memory`] is set — the run's final
    /// memory.
    pub fn run_parallel_out(&self, pimg: &ParallelImage, args: &[Value]) -> RunOutput {
        self.run_lowered_out(&pimg.exec, &pimg.loop_image, args)
    }

    pub(crate) fn run_lowered(
        &self,
        image: &ExecImage,
        loop_image: &LoopImage,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        self.run_lowered_out(image, loop_image, args).result
    }

    fn run_lowered_out(
        &self,
        image: &ExecImage,
        loop_image: &LoopImage,
        args: &[Value],
    ) -> RunOutput {
        let workers = self.effective_workers();
        let telem = TelemetryRun::for_run(self.telemetry, loop_image, workers);
        // The whole run is a panic boundary: any panic that reaches the submitting
        // thread — a Phase A/C fault, the single-worker path, or a primary-worker panic
        // — becomes a recoverable `WorkerPanicked` instead of unwinding the caller.
        // (The pooled path additionally catches panics per worker, so helpers drain
        // promptly and the pool poisons itself; see `run_pooled_on`.)
        let run = catch_unwind(AssertUnwindSafe(|| {
            if workers == 1 {
                self.run_single(image, loop_image, args, telem.as_ref())
            } else {
                let clamped = ParallelExecutor {
                    threads: workers,
                    ..*self
                };
                clamped.run_pooled_on(
                    WorkerPool::global(),
                    image,
                    loop_image,
                    args,
                    telem.as_ref(),
                )
            }
        }));
        let (mut result, memory) = match run {
            Ok(Ok((value, memory))) => (Ok(value), memory),
            Ok(Err(e)) => (Err(e), None),
            Err(payload) => (
                Err(RuntimeError::WorkerPanicked {
                    worker: 0,
                    message: panic_message(payload.as_ref()),
                    tail: Vec::new(),
                }),
                None,
            ),
        };
        let report = telem.map(TelemetryRun::report);
        match (&mut result, &report) {
            // Satellite diagnosis: a traced failure carries every worker's last events.
            (Err(RuntimeError::Deadlock { tail, .. }), Some(rep))
            | (Err(RuntimeError::WorkerPanicked { tail, .. }), Some(rep)) => {
                *tail = rep.deadlock_tail(8);
            }
            _ => {}
        }
        RunOutput {
            result,
            report,
            memory,
        }
    }

    /// The paper's three phases over one [`WorkerMemory`], the submitting thread's: Phase
    /// A runs sequentially from the function's entry to the loop header, `phase_b` — handed
    /// the loop-entry register snapshot — runs the loop and reports how it ended plus how
    /// many words its workers served from private arenas, and Phase C resumes sequentially
    /// from the earliest iteration's exit after re-reserving those words, so every shared
    /// address allocated later matches a sequential run of the loop.
    fn run_phases<'m>(
        &self,
        engine: &Engine<'_>,
        image: &ExecImage,
        loop_image: &LoopImage,
        args: &[Value],
        mem: &mut WorkerMemory<'m>,
        phase_b: impl FnOnce(&mut WorkerMemory<'m>, Vec<Value>) -> Result<(LoopExit, u64), RuntimeError>,
    ) -> Result<Option<Value>, RuntimeError> {
        let fi = image.func(loop_image.func);
        let mut regs = vec![Value::default(); fi.num_regs.max(args.len())];
        for (slot, a) in regs.iter_mut().zip(args.iter()).take(fi.num_params) {
            *slot = *a;
        }
        let phase_a = engine.run_from(
            fi.entry_block,
            Some(loop_image.header),
            &mut regs,
            mem,
            self.max_iterations,
        )?;
        if let FlatEnd::Returned(v) = phase_a {
            // The loop was never reached.
            return Ok(v);
        }
        let (block, mut regs) = match phase_b(mem, regs)? {
            (LoopExit::Edge { block, regs }, private_words) => {
                if private_words > 0 {
                    mem.alloc(private_words as usize).map_err(ExecError::from)?;
                }
                (block, regs)
            }
            (LoopExit::Returned(v), _) => return Ok(v),
        };
        match engine.run_from(block, None, &mut regs, mem, self.max_iterations)? {
            FlatEnd::Returned(v) => Ok(v),
            FlatEnd::ReachedStop => unreachable!("phase C has no stop block"),
        }
    }

    /// Single-worker execution: the whole run happens on the calling thread — no pool, no
    /// claim protocol — over the same [`SharedMemory`] a multi-worker run uses, captured
    /// the same way.
    fn run_single(
        &self,
        image: &ExecImage,
        loop_image: &LoopImage,
        args: &[Value],
        telem_run: Option<&TelemetryRun>,
    ) -> Result<(Option<Value>, Option<Memory>), RuntimeError> {
        let memory = SharedMemory::from_memory(&image.initial_memory);
        let engine = Engine::for_loop(self.resolved_tier(), image, loop_image);
        let mut mem = WorkerMemory::new(&memory);
        // Phase B, single worker: iterations run in order on the calling thread with no
        // claim counters, no completion ring and no parks. Lane counters are still
        // maintained so a missing `Signal` is detected — instantly (zero spin budget),
        // because with no other worker an unsatisfied `Wait` can never become satisfied.
        let phase_b = |mem: &mut WorkerMemory<'_>, snapshot: Vec<Value>| {
            let lanes = SignalLanes::new(loop_image.num_lanes(), 1);
            let sleepers = Sleepers::new();
            let exited_at = AtomicU64::new(u64::MAX);
            // A single worker "claims" every iteration in order, so traced runs keep the
            // claims-are-a-permutation invariant at one thread too.
            let telem = telem_run.map(|r| r.ctx(0));
            let sync = IterSync::new(&lanes, &sleepers, &exited_at, 0, telem);
            let mut runner =
                IterRunner::new(&engine, loop_image, &snapshot, sync, self.panic_at, telem);
            let mut iteration = 0u64;
            let exit = loop {
                if iteration > self.max_iterations {
                    return Err(RuntimeError::IterationBudgetExceeded);
                }
                // An injected panic in `run` is caught by `run_lowered_out`'s boundary.
                match runner.run(iteration, mem, &mut || {}) {
                    Ok(IterEnd::Completed) => iteration += 1,
                    Ok(IterEnd::Exit { block }) => {
                        let regs = std::mem::take(&mut runner.regs);
                        break LoopExit::Edge { block, regs };
                    }
                    Ok(IterEnd::Returned(v)) => break LoopExit::Returned(v),
                    Ok(IterEnd::Cancelled) => {
                        unreachable!("a single worker never observes a foreign exit")
                    }
                    Err(e) => return Err(convert_iter_error(loop_image, iteration, e)),
                }
            };
            Ok((exit, runner.drain_private_words(mem)))
        };
        let value = self.run_phases(&engine, image, loop_image, args, &mut mem, phase_b)?;
        let captured = self
            .capture_memory
            .then(|| memory.snapshot(&image.initial_memory));
        Ok((value, captured))
    }

    /// Multi-worker execution over lock-free shared memory with `self.threads` workers (the
    /// caller clamps; see [`ParallelExecutor::effective_workers`]): the calling thread is
    /// worker 0, helpers are activated lazily from `pool` (tests pass a private pool to
    /// observe activation behaviour). `telem`, when present, must hold at least
    /// `self.threads` worker slots.
    pub(crate) fn run_pooled_on(
        &self,
        pool: &WorkerPool,
        image: &ExecImage,
        loop_image: &LoopImage,
        args: &[Value],
        telem: Option<&TelemetryRun>,
    ) -> Result<(Option<Value>, Option<Memory>), RuntimeError> {
        let memory = SharedMemory::from_memory(&image.initial_memory);
        // Built once, here; helpers dispatch through the same tables and native code.
        let engine = Engine::for_loop(self.resolved_tier(), image, loop_image);
        let mut mem = WorkerMemory::new(&memory);
        let value = self.run_phases(
            &engine,
            image,
            loop_image,
            args,
            &mut mem,
            |mem, snapshot| {
                let shared = RunShared::new(loop_image, snapshot, self);
                let helpers = self.threads - 1;
                let job = |worker: usize| {
                    // Helper panic boundary: record the cancellation *before* re-raising
                    // into the pool's own catch, so every other worker drains promptly.
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        let mut mem = WorkerMemory::new(&memory);
                        // Helpers run with pool indices 1..=helpers; slot 0 is the caller.
                        let telem = telem.map(|r| r.ctx(worker));
                        phase_b_worker(&shared, &engine, &mut mem, &mut || {}, telem);
                    }));
                    if let Err(payload) = run {
                        shared.record_panic(worker, panic_message(payload.as_ref()));
                        // Re-raise into the pool's catch: the pool poisons itself and
                        // respawns its helper cohort on the next submit.
                        resume_unwind(payload);
                    }
                };
                // Helpers are activated the first time worker 0 releases control — a loop
                // that exits from iteration 0's prologue never wakes them (the zero-iteration
                // short-circuit).
                let mut ticket = None;
                let mut activate = || {
                    if ticket.is_none() && helpers > 0 {
                        ticket = Some(pool.submit(helpers, &job));
                    }
                };
                // Primary panic boundary: a panic on the submitting thread mid-Phase-B must
                // record the cancellation before the ticket join below, or the helpers would
                // wait forever on control the primary can no longer release.
                let primary = catch_unwind(AssertUnwindSafe(|| {
                    let telem = telem.map(|r| r.ctx(0));
                    phase_b_worker(&shared, &engine, mem, &mut activate, telem);
                }));
                if let Err(payload) = primary {
                    shared.record_panic(0, panic_message(payload.as_ref()));
                }
                if let Some(Err(p)) = ticket.map(|t| t.wait()) {
                    // The helper's own boundary already recorded the structured error before
                    // re-raising; this fallback covers a panic that somehow escaped outside
                    // it (record_error keeps the earliest, so a duplicate is a no-op).
                    shared.record_panic(p.worker, p.message);
                }
                shared.into_outcome()
            },
        )?;
        let captured = self
            .capture_memory
            .then(|| memory.snapshot(&image.initial_memory));
        Ok((value, captured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::LoopNestingGraph;
    use helix_core::{transform, Helix, HelixConfig};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, FuncId, Machine, Operand};
    use helix_profiler::profile_program_image;

    /// Builds a module whose main contains one parallelizable accumulator loop over an array,
    /// analyzes it, transforms the hottest plan and returns everything needed to execute it.
    fn build_accumulator(n: i64) -> (helix_ir::Module, FuncId, TransformedProgram) {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let arr = mb.add_global("arr", 1 + n as usize);
        let mut fb = FunctionBuilder::new("main", 0);
        // Fill the array with i*5 + 1.
        let init = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
        let a = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(init.induction_var),
        );
        let v = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(init.induction_var),
            Operand::int(5),
        );
        let v1 = fb.binary_to_new(BinOp::Add, Operand::Var(v), Operand::int(1));
        fb.store(Operand::Var(a), 0, Operand::Var(v1));
        fb.br(init.latch);
        fb.switch_to(init.exit);
        // Accumulate with extra per-iteration work.
        let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
        let addr = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(lh.induction_var),
        );
        let elt = fb.new_var();
        fb.load(elt, Operand::Var(addr), 0);
        let mixed = fb.binary_to_new(BinOp::Mul, Operand::Var(elt), Operand::int(3));
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(mixed));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let out = fb.new_var();
        fb.load(out, Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();

        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        // Transform the accumulator loop (the one with a data-transferring segment).
        let plan = output
            .plans
            .values()
            .find(|p| {
                p.segments
                    .iter()
                    .any(|s| s.transfers_data && s.synchronized)
            })
            .expect("accumulator plan")
            .clone();
        let transformed = transform::apply(&module, &plan);
        (module, main, transformed)
    }

    #[test]
    fn parallel_result_matches_sequential_result() {
        let (module, main, transformed) = build_accumulator(64);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        for threads in [1, 2, 4, 6] {
            let executor = ParallelExecutor::new(threads);
            let got = executor
                .run(&transformed, &[])
                .unwrap_or_else(|e| panic!("{threads} threads failed: {e}"))
                .unwrap()
                .as_int();
            assert_eq!(got, expected, "mismatch with {threads} threads");
        }
    }

    #[test]
    fn dispatch_tiers_agree_at_every_thread_count() {
        // The direct-threaded and JIT tiers must be observationally identical to the
        // tree machine: same result, at every worker count — the `hardware` override
        // keeps the full claim protocol alive on any host. (On targets without JIT
        // support the `Jit` leg degrades to threaded — still a valid leg.)
        let (module, main, transformed) = build_accumulator(96);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        let pimg = ParallelImage::lower(&transformed);
        for threads in [1, 2, 4, 6] {
            for tier in [
                DispatchTier::Threaded,
                DispatchTier::Jit,
                DispatchTier::Auto,
            ] {
                let mut executor = ParallelExecutor::new(threads).with_dispatch_tier(tier);
                executor.hardware = threads;
                let got = executor
                    .run_parallel(&pimg, &[])
                    .unwrap_or_else(|e| panic!("{threads}t/{tier}: {e}"))
                    .unwrap()
                    .as_int();
                assert_eq!(got, expected, "{threads} threads, {tier} tier");
            }
        }
    }

    #[test]
    fn auto_runs_and_profiling_runs_resolve_by_the_tier_rule() {
        // Read-side of the env lock: the rule below must not see `HELIX_DISABLE_JIT`
        // flip between its reads.
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let rule = if crate::jit::jit_supported() {
            DispatchTier::Jit
        } else {
            DispatchTier::Threaded
        };
        let executor = ParallelExecutor::new(2);
        assert_eq!(executor.dispatch_tier, DispatchTier::Auto);
        assert_eq!(executor.resolved_tier(), rule);
        assert_eq!(crate::observe::PROFILE_TIER.resolved(), rule);
        // Pins are kept; the retired switch tier runs on the threaded tier.
        for (pin, tier) in [
            (DispatchTier::Threaded, DispatchTier::Threaded),
            (DispatchTier::Jit, DispatchTier::Jit),
            (DispatchTier::Switch, DispatchTier::Threaded),
        ] {
            assert_eq!(
                ParallelExecutor::new(2)
                    .with_dispatch_tier(pin)
                    .resolved_tier(),
                tier
            );
        }
    }

    #[test]
    fn repeated_runs_are_deterministic_despite_threading() {
        let (_module, _main, transformed) = build_accumulator(48);
        let executor = ParallelExecutor::new(4);
        let pimg = ParallelImage::lower(&transformed);
        let first = executor.run_parallel(&pimg, &[]).unwrap().unwrap().as_int();
        for _ in 0..5 {
            let again = executor.run_parallel(&pimg, &[]).unwrap().unwrap().as_int();
            assert_eq!(again, first, "pool reuse must stay deterministic");
        }
    }

    #[test]
    fn executor_handles_zero_trip_loops() {
        let (_module, _main, transformed) = build_accumulator(64);
        // Check that a single-thread executor also works, which exercises the same exit path
        // on the first prologue evaluation for iteration == n.
        let executor = ParallelExecutor::new(1);
        assert!(executor.run(&transformed, &[]).unwrap().is_some());
    }

    #[test]
    fn budgets_are_configurable() {
        let default = ParallelExecutor::new(3);
        assert_eq!(default.threads, 3);
        assert_eq!(default.spin_budget, DEFAULT_SPIN_BUDGET);
        assert_eq!(default.max_iterations, DEFAULT_MAX_ITERATIONS);
        assert_eq!(default.telemetry, TelemetryMode::Disabled);
        let tuned = default
            .with_spin_budget(1234)
            .with_max_iterations(99)
            .with_telemetry(TelemetryMode::Sampled(8));
        assert_eq!(tuned.spin_budget, 1234);
        assert_eq!(tuned.max_iterations, 99);
        assert_eq!(tuned.telemetry, TelemetryMode::Sampled(8));
        // Zero budgets and worker counts clamp to one.
        let floor = ParallelExecutor::new(0)
            .with_spin_budget(0)
            .with_max_iterations(0);
        assert_eq!(
            (floor.threads, floor.spin_budget, floor.max_iterations),
            (1, 1, 1)
        );
    }

    #[test]
    fn tiny_iteration_budget_aborts_the_run() {
        let (_module, _main, transformed) = build_accumulator(64);
        let executor = ParallelExecutor::new(2).with_max_iterations(3);
        match executor.run(&transformed, &[]) {
            Err(RuntimeError::IterationBudgetExceeded) => {}
            other => panic!("expected IterationBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_reports_segment_and_pc_range() {
        // Build a transformed program whose plan demands a synchronized segment, then corrupt
        // the clone by deleting every Signal instruction: iteration 1's Wait can never be
        // satisfied and must produce a precise deadlock report localized to its segment.
        let (_module, _main, mut transformed) = build_accumulator(32);
        let func = transformed.parallel_func;
        let f = transformed.module.function_mut(func);
        for block in &mut f.blocks {
            block
                .instrs
                .retain(|i| !matches!(i, helix_ir::Instr::Signal { .. }));
        }
        let executor = ParallelExecutor::new(2).with_spin_budget(50_000);
        match executor.run(&transformed, &[]) {
            Err(RuntimeError::Deadlock {
                dep,
                iteration,
                lane,
                last_observed,
                segment,
                wait_pc,
                segment_pc_range,
                tail,
            }) => {
                assert!(iteration >= 1, "iteration 0 never waits");
                assert!(last_observed < iteration);
                assert!(segment < transformed.plan.segments.len());
                assert_eq!(transformed.plan.segments[segment].dep, dep);
                assert!(
                    segment_pc_range.0 <= wait_pc && wait_pc <= segment_pc_range.1.max(wait_pc)
                );
                assert!(tail.is_empty(), "untraced runs carry no telemetry tail");
                let msg = RuntimeError::Deadlock {
                    dep,
                    iteration,
                    lane,
                    last_observed,
                    segment,
                    wait_pc,
                    segment_pc_range,
                    tail,
                }
                .to_string();
                assert!(msg.contains("segment"), "diagnostic lacks segment: {msg}");
                assert!(msg.contains("pc"), "diagnostic lacks pc info: {msg}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn traced_deadlocks_carry_the_event_tail() {
        // Same corrupted program as above, but run with telemetry: the deadlock report
        // must carry each worker's last events, including the blocked wait itself.
        let (_module, _main, mut transformed) = build_accumulator(32);
        let func = transformed.parallel_func;
        let f = transformed.module.function_mut(func);
        for block in &mut f.blocks {
            block
                .instrs
                .retain(|i| !matches!(i, helix_ir::Instr::Signal { .. }));
        }
        let executor = ParallelExecutor::new(2)
            .with_spin_budget(50_000)
            .with_telemetry(TelemetryMode::Full);
        let out = executor.run_parallel_out(&ParallelImage::lower(&transformed), &[]);
        assert!(out.report.is_some(), "traced runs produce a report");
        match out.result {
            Err(RuntimeError::Deadlock { tail, .. }) => {
                assert!(!tail.is_empty(), "traced deadlock must carry worker tails");
                let has_wait = tail.iter().any(|t| {
                    t.events
                        .iter()
                        .any(|e| matches!(e.kind, crate::telemetry::EventKind::WaitBegin))
                });
                assert!(
                    has_wait,
                    "some worker tail shows the blocked wait: {tail:?}"
                );
                let msg = RuntimeError::Deadlock {
                    dep: DepId::new(0),
                    iteration: 1,
                    lane: 0,
                    last_observed: 0,
                    segment: 0,
                    wait_pc: 0,
                    segment_pc_range: (0, 0),
                    tail,
                }
                .to_string();
                assert!(
                    msg.contains("last events per worker"),
                    "tail missing from diagnostic: {msg}"
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    /// Builds a program whose loop trip count is the function's parameter, so the same
    /// transformed program can be profiled with iterations and then run with zero.
    fn build_param_trip() -> TransformedProgram {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::int(3));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let out = fb.new_var();
        fb.load(out, Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[Value::Int(16)]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let plan = output.plans.values().next().expect("loop plan").clone();
        transform::apply(&module, &plan)
    }

    #[test]
    fn injected_panic_surfaces_as_structured_error_and_next_run_succeeds() {
        // The prerequisite bugfix of the service work: a worker panic during a parallel
        // run must come back as `RuntimeError::WorkerPanicked` (payload preserved, no
        // process abort), and the *next* run on the same executor — same process-wide
        // pool — must succeed on a transparently respawned helper cohort. The `hardware`
        // override keeps the full multi-worker claim protocol alive on a 1-CPU host.
        let (_module, _main, transformed) = build_accumulator(64);
        let pimg = ParallelImage::lower(&transformed);
        let expected = ParallelExecutor::new(1)
            .run_parallel(&pimg, &[])
            .unwrap()
            .unwrap()
            .as_int();
        for threads in [1, 2, 4] {
            // Fault injection fires at claim time, ahead of dispatch, so every tier —
            // including JIT-patched tables, where the panic unwinds across only
            // interpreter frames, never native ones — must surface and recover alike.
            for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
                let mut executor = ParallelExecutor::new(threads).with_dispatch_tier(tier);
                executor.hardware = threads;
                let faulty = executor.with_injected_panic(7);
                match faulty.run_parallel(&pimg, &[]) {
                    Err(RuntimeError::WorkerPanicked {
                        worker, message, ..
                    }) => {
                        assert!(worker < threads, "worker index in range ({worker})");
                        assert!(
                            message.contains("injected fault"),
                            "payload preserved: {message}"
                        );
                    }
                    other => panic!("{threads}t/{tier}: expected WorkerPanicked, got {other:?}"),
                }
                // Recovery: the same executor (minus the fault) runs to completion.
                let got = executor
                    .run_parallel(&pimg, &[])
                    .unwrap_or_else(|e| panic!("{threads}t/{tier} post-panic run failed: {e}"))
                    .unwrap()
                    .as_int();
                assert_eq!(got, expected, "{threads}t/{tier} post-panic result");
            }
        }
    }

    #[test]
    fn jit_tier_degrades_to_threaded_when_disabled() {
        // `HELIX_DISABLE_JIT=1` must turn both a pinned `Jit` tier and an `Auto`
        // resolution into plain threaded execution — correct results, no panic. The env
        // flag is read on every `jit_supported()` call, so flipping it mid-process works.
        let (module, main, transformed) = build_accumulator(48);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        let pimg = ParallelImage::lower(&transformed);
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::env::set_var("HELIX_DISABLE_JIT", "1");
        assert!(!crate::jit::jit_supported());
        for tier in [DispatchTier::Jit, DispatchTier::Auto] {
            let mut executor = ParallelExecutor::new(2).with_dispatch_tier(tier);
            executor.hardware = 2;
            assert_ne!(executor.resolved_tier(), DispatchTier::Auto);
            let got = executor
                .run_parallel(&pimg, &[])
                .unwrap_or_else(|e| panic!("{tier} with JIT disabled: {e}"))
                .unwrap()
                .as_int();
            assert_eq!(got, expected, "{tier} with JIT disabled");
        }
        std::env::remove_var("HELIX_DISABLE_JIT");
    }

    #[test]
    fn captured_memory_is_deterministic_across_runs() {
        let (_module, _main, transformed) = build_accumulator(48);
        let pimg = ParallelImage::lower(&transformed);
        let mut executor = ParallelExecutor::new(2).with_capture_memory(true);
        executor.hardware = 2;
        let first = executor.run_parallel_out(&pimg, &[]);
        let second = executor.run_parallel_out(&pimg, &[]);
        let a = first.memory.expect("captured");
        let b = second.memory.expect("captured");
        assert_eq!(first.result.unwrap(), second.result.unwrap());
        assert_eq!(a.heap_base(), b.heap_base());
        assert_eq!(a.heap_used(), b.heap_used());
        assert_eq!(
            a.words(),
            b.words(),
            "memory diverged between identical runs"
        );
        // Capture off → no snapshot.
        let off = ParallelExecutor::new(2).run_parallel_out(&pimg, &[]);
        assert!(off.memory.is_none());
    }

    #[test]
    fn two_worker_capture_holds_the_one_worker_live_words() {
        // Both captures walk the pages of the run's shared memory, filled by one worker or
        // by two: they must describe the same program state. `scratch_fold` re-reserves
        // privatized words, so its heap bookkeeping is checked too.
        let (_module, _main, accumulator) = build_accumulator(64);
        let mut programs = vec![("accumulator", accumulator)];
        for name in ["pointer_chase", "scratch_fold"] {
            let (module, main) = helix_workloads::corpus::load(name).unwrap();
            let prepared = Helix::new(HelixConfig::default())
                .prepare(&module, main, &[], 100_000_000)
                .unwrap();
            programs.push((name, prepared.transformed.expect("a loop to parallelize")));
        }
        for (name, transformed) in programs {
            let pimg = ParallelImage::lower(&transformed);
            let capture = |threads: usize| {
                let mut executor = ParallelExecutor::new(threads).with_capture_memory(true);
                executor.hardware = threads;
                let out = executor.run_parallel_out(&pimg, &[]);
                (out.result.unwrap(), out.memory.expect("captured"))
            };
            let (one, solo) = capture(1);
            let (two, team) = capture(2);
            assert_eq!(one, two, "{name}: result");
            assert_eq!(solo.heap_base(), team.heap_base(), "{name}: heap base");
            assert_eq!(solo.heap_used(), team.heap_used(), "{name}: heap used");
            assert_eq!(solo.live_words(), team.live_words(), "{name}: live words");
        }
    }

    #[test]
    fn hardware_snapshot_drives_clamp_and_its_diagnostic() {
        // The clamp and its explanation must read the same snapshot: override it and
        // both move together, regardless of what the machine reports right now.
        let mut executor = ParallelExecutor::new(8);
        executor.hardware = 2;
        assert_eq!(executor.effective_workers(), 2);
        assert!(
            executor.clamp_reason().contains("2 hardware thread(s)"),
            "diagnostic uses the snapshot: {}",
            executor.clamp_reason()
        );
        executor.hardware = 16;
        assert_eq!(executor.effective_workers(), 8);
        assert!(
            executor
                .clamp_reason()
                .contains("fit 16 hardware thread(s)"),
            "diagnostic uses the snapshot: {}",
            executor.clamp_reason()
        );
        // The snapshot is the only thing that lifts the clamp: there is no third
        // "pinned" state, so the diagnostic is always one of the two sentences above.
        executor.hardware = 8;
        assert_eq!(executor.effective_workers(), 8);
        assert_eq!(
            executor.clamp_reason(),
            "8 worker(s) fit 8 hardware thread(s)"
        );
        executor.hardware = 7;
        assert_eq!(executor.effective_workers(), 7);
        assert_eq!(
            executor.clamp_reason(),
            "clamped 8 -> 7: only 7 hardware thread(s) available"
        );
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn jit_run_maps_executable_memory_once_not_once_per_worker() {
        use crate::jit::exec_mem::MAPPINGS;
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(crate::jit::jit_supported());
        let (_module, _main, transformed) = build_accumulator(64);
        let pimg = ParallelImage::lower(&transformed);
        let executor = ParallelExecutor::new(4).with_dispatch_tier(DispatchTier::Jit);
        let pool = WorkerPool::new();
        let before = MAPPINGS.with(|n| n.get());
        executor
            .run_pooled_on(&pool, &pimg.exec, &pimg.loop_image, &[], None)
            .unwrap();
        let on_submitter = MAPPINGS.with(|n| n.get()) - before;
        assert_eq!(
            on_submitter, 1,
            "one mapping holds every chunk of the run: iteration stream and flat code"
        );
        // The same three pool threads that just ran the loop report how many mappings
        // each of them has ever made.
        assert_eq!(pool.spawned_helpers(), 3);
        let on_helpers = AtomicU64::new(0);
        let probe = |_ix: usize| {
            on_helpers.fetch_add(MAPPINGS.with(|n| n.get()) as u64, Ordering::SeqCst);
        };
        pool.submit(3, &probe).wait().unwrap();
        assert_eq!(
            on_helpers.load(Ordering::SeqCst),
            0,
            "helpers share the submitter's engine instead of compiling their own"
        );
    }

    #[test]
    fn zero_trip_loops_never_wake_the_pool() {
        let transformed = build_param_trip();
        let pimg = ParallelImage::lower(&transformed);
        let executor = ParallelExecutor::new(4);
        let pool = WorkerPool::new();
        // Zero iterations: Phase A runs into the header, iteration 0's prologue exits
        // immediately, and no helper must ever be spawned or woken.
        let got = executor
            .run_pooled_on(&pool, &pimg.exec, &pimg.loop_image, &[Value::Int(0)], None)
            .unwrap()
            .0
            .unwrap()
            .as_int();
        assert_eq!(got, 0);
        assert_eq!(
            pool.spawned_helpers(),
            0,
            "a zero-iteration loop must short-circuit to sequential execution"
        );
        // With iterations to dispatch the same pool does get activated.
        let got = executor
            .run_pooled_on(&pool, &pimg.exec, &pimg.loop_image, &[Value::Int(12)], None)
            .unwrap()
            .0
            .unwrap()
            .as_int();
        assert_eq!(got, 36);
        assert_eq!(pool.spawned_helpers(), 3);
    }

    #[test]
    fn privatized_scratch_allocations_run_in_the_arena() {
        // A loop allocating a private scratch buffer per iteration: privatization must
        // apply, the parallel results must match sequential execution at every thread
        // count, and shared heap bookkeeping must stay bitwise-identical (checked through
        // the returned pointer-derived value).
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(40), 1);
        let p = fb.new_var();
        fb.alloc(p, Operand::int(3));
        fb.store(Operand::Var(p), 0, Operand::Var(lh.induction_var));
        let sq = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(lh.induction_var),
            Operand::Var(lh.induction_var),
        );
        fb.store(Operand::Var(p), 1, Operand::Var(sq));
        let a = fb.new_var();
        fb.load(a, Operand::Var(p), 0);
        let b = fb.new_var();
        fb.load(b, Operand::Var(p), 1);
        let sum = fb.binary_to_new(BinOp::Add, Operand::Var(a), Operand::Var(b));
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(sum));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        // After the loop, allocate shared memory and fold its address into the result:
        // catches any divergence in the shared bump pointer caused by privatization.
        let q = fb.new_var();
        fb.alloc(q, Operand::int(2));
        let r = fb.new_var();
        fb.load(r, Operand::Global(acc), 0);
        let out = fb.binary_to_new(BinOp::Add, Operand::Var(r), Operand::Var(q));
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();

        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let plan = output
            .plans
            .values()
            .find(|p| !p.private_allocs.is_empty())
            .expect("the scratch allocation must be privatized")
            .clone();
        let transformed = transform::apply(&module, &plan);
        assert!(!transformed.private_allocs.is_empty());
        let pimg = ParallelImage::lower(&transformed);
        assert!(pimg.loop_image.private_words_per_iter >= 3);

        // The parity target is a sequential run of the *clone* (the transform itself adds a
        // frame global, shifting the original module's heap base by design): privatization
        // must leave every shared address the clone can observe — including the post-loop
        // allocation folded into the result — bitwise-identical.
        let mut machine = Machine::new(&transformed.module);
        let expected = machine
            .call(transformed.parallel_func, &[])
            .unwrap()
            .unwrap()
            .as_int();
        let mut original = Machine::new(&module);
        let base = original.call(main, &[]).unwrap().unwrap().as_int();
        assert_eq!(
            expected - base,
            1,
            "clone differs only by the frame global's word"
        );
        for threads in [1, 2, 4] {
            let got = ParallelExecutor::new(threads)
                .run_parallel(&pimg, &[])
                .unwrap_or_else(|e| panic!("{threads} threads failed: {e}"))
                .unwrap()
                .as_int();
            assert_eq!(got, expected, "mismatch with {threads} threads");
        }
    }

    #[test]
    fn spec_benchmark_runs_in_parallel_with_matching_checksum() {
        // End-to-end: take a SPEC stand-in, pick its hottest selected loop, transform it and
        // execute with real threads; the program checksum must match sequential execution.
        let bench = helix_workloads::all_benchmarks()[0]; // gzip stand-in
        let (module, main) = bench.build();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let Some(plan) = output.selected_plans().into_iter().max_by(|a, b| {
            let ka = profile.loop_profile((a.func, a.loop_id)).cycles;
            let kb = profile.loop_profile((b.func, b.loop_id)).cycles;
            ka.cmp(&kb)
        }) else {
            // Nothing selected for this benchmark under the default config: nothing to check.
            return;
        };
        // Only main-level loops are executable by the single-invocation executor.
        if plan.func != main {
            return;
        }
        let transformed = transform::apply(&module, plan);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        let got = ParallelExecutor::new(4)
            .run(&transformed, &[])
            .expect("parallel execution succeeds")
            .unwrap()
            .as_int();
        assert_eq!(got, expected);
    }
}
