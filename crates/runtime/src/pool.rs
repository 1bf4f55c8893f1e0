//! The persistent worker pool of the parallel runtime.
//!
//! The first-generation executor called `std::thread::scope` on every `execute`, paying an
//! OS thread spawn + join per worker per run — hundreds of microseconds that dwarfed the
//! loops being parallelized (and the paper's whole point is that per-invocation overhead
//! decides whether cyclic multithreading wins). [`WorkerPool`] spawns each helper thread
//! once, process-wide, and reuses it across every `execute` call:
//!
//! * helpers park on a condition variable between jobs (no busy idle),
//! * a job is published with `WorkerPool::submit`, which hands back a `JobTicket` whose
//!   `JobTicket::wait`/`Drop` joins the job — the borrow-safety point that lets jobs
//!   capture non-`'static` state (the submitting call cannot return before every helper has
//!   left the closure),
//! * there is deliberately **no work stealing**: HELIX workers self-schedule iterations from
//!   one shared counter, so the pool only needs to run N copies of the same closure.
//!
//! [`AdaptiveWait`] is the wait strategy used by workers at synchronization points: a
//! bounded spin (cheap when the producer is one segment away), then `yield_now` (lets the
//! producer run when something else holds its core), then a timed `parking_lot` park on a
//! shared [`Sleepers`] pad that producers poke only when someone is actually parked — one
//! relaxed load on the signal fast path.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A job body: executed once per participating worker with the worker's index
/// (`1..=helpers`; index 0 is the submitting thread, which runs outside the pool).
type JobFn = Arc<dyn Fn(usize) + Send + Sync>;

/// A panic that escaped a worker's job closure, with its payload preserved.
///
/// The pool catches helper panics (the helper thread itself survives), records the first
/// one here, and hands it to the submitter through `JobTicket::wait` instead of
/// re-panicking with a fixed string. The executor converts it into
/// `RuntimeError::WorkerPanicked`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Pool worker index the panic escaped from (`1..=helpers`; `0` is the submitter).
    pub worker: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads verbatim, anything
    /// else a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

/// Renders a caught panic payload as text without re-raising it.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct Job {
    f: JobFn,
    /// Helpers wanted; helpers with a claimed slot run the closure, the rest keep parking.
    helpers: usize,
    /// Helpers that have claimed a slot so far.
    started: usize,
    /// Helpers still inside the closure (or yet to start).
    active: usize,
    /// First panic that escaped a helper's closure (surfaced through the ticket).
    panic: Option<WorkerPanic>,
}

#[derive(Default)]
struct PoolState {
    job: Option<Job>,
    /// Monotonic job counter; helpers wait for `epoch` to move past the one they last saw.
    epoch: u64,
    spawned: usize,
    /// Helper cohort id. Helpers capture it at spawn and exit when it moves on: after a
    /// panic the pool is poisoned and the next submit retires the whole cohort (bumping
    /// this) and spawns a fresh one, so a panicking job can't leak corrupted thread state
    /// into later runs.
    generation: u64,
    /// Set when a job panicked; cleared by the respawn on the next submit.
    poisoned: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Helpers park here between jobs.
    work: Condvar,
    /// Submitters park here while a job drains.
    done: Condvar,
}

/// A persistent, work-stealing-free worker pool (see the module docs).
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// Creates an empty pool; helper threads are spawned lazily on first use.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState::default()),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }

    /// The process-wide pool shared by every [`crate::ParallelExecutor`]. Threads are
    /// spawned on demand up to the largest helper count any run has requested, and live for
    /// the rest of the process.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// Number of helper threads currently spawned (for tests and diagnostics).
    pub fn spawned_helpers(&self) -> usize {
        self.inner.state.lock().spawned
    }

    /// Helper-cohort generation: bumped each time a panic forces a respawn (for tests and
    /// diagnostics — `generation() > 0` means the pool has recovered from at least one
    /// worker panic).
    pub fn generation(&self) -> u64 {
        self.inner.state.lock().generation
    }

    /// Publishes `f` to `helpers` pool threads and returns a ticket that joins them.
    ///
    /// The closure runs once per helper with indices `1..=helpers`. The caller usually
    /// participates as worker `0` by invoking the same logic on its own thread after
    /// submitting. The job may borrow stack state of the caller: the returned ticket's
    /// lifetime ties the job to that state, and [`JobTicket::wait`] (called explicitly or by
    /// `Drop`) blocks until every helper has left the closure.
    ///
    /// Concurrent submissions queue: a submitter blocks until the in-flight job has fully
    /// drained (helpers are a shared resource; two simultaneous `execute` calls serialize
    /// their Phase B helper usage, each still correct on its own state).
    ///
    /// Crate-private on purpose: the returned ticket joins on `Drop`, but a leaked ticket
    /// (`mem::forget`) would let pool threads keep running a closure whose borrowed stack
    /// state has been freed. Inside the crate the executor's structured use (ticket waited
    /// or dropped on every path, never forgotten) keeps this sound; a public version would
    /// need a closure-scoped API.
    pub(crate) fn submit<'scope>(
        &'scope self,
        helpers: usize,
        f: &'scope (dyn Fn(usize) + Send + Sync),
    ) -> JobTicket<'scope> {
        // SAFETY: the ticket returned borrows `self` and `f` for `'scope`, and its
        // `wait`/`Drop` blocks until every helper has exited the closure, so the pool never
        // uses `f` after `'scope` ends. The transmute only erases the reference lifetime.
        let f_static: &'static (dyn Fn(usize) + Send + Sync) = unsafe {
            std::mem::transmute::<
                &'scope (dyn Fn(usize) + Send + Sync),
                &'static (dyn Fn(usize) + Send + Sync),
            >(f)
        };
        let f: JobFn = Arc::new(move |ix: usize| f_static(ix));
        let mut state = self.inner.state.lock();
        while state.job.is_some() {
            self.inner.done.wait(&mut state);
        }
        if state.poisoned {
            // A previous job panicked: retire the whole helper cohort (each parked helper
            // wakes on the notify below, sees the generation moved on, and exits) and
            // spawn a fresh one for this job. Submitters never observe the poisoning —
            // recovery is this transparent respawn.
            state.generation += 1;
            state.spawned = 0;
            state.poisoned = false;
        }
        // Grow the pool to the requested helper count.
        while state.spawned < helpers {
            state.spawned += 1;
            let inner = Arc::clone(&self.inner);
            let generation = state.generation;
            std::thread::Builder::new()
                .name(format!("helix-worker-{}", state.spawned))
                .spawn(move || helper_loop(&inner, generation))
                .expect("spawn helix worker thread");
        }
        state.job = Some(Job {
            f,
            helpers,
            started: 0,
            active: helpers,
            panic: None,
        });
        state.epoch += 1;
        drop(state);
        self.inner.work.notify_all();
        JobTicket {
            pool: self,
            joined: false,
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

/// Joins a submitted job: proof that every helper has left the job closure.
pub(crate) struct JobTicket<'scope> {
    pool: &'scope WorkerPool,
    joined: bool,
}

impl JobTicket<'_> {
    /// Blocks until every helper has finished the job.
    ///
    /// A panic that escaped a helper's closure is returned as [`WorkerPanic`] (payload
    /// preserved), never re-raised: the submitter decides what a worker panic means. The
    /// pool is left poisoned; the next [`WorkerPool::submit`] respawns the helper cohort.
    pub(crate) fn wait(mut self) -> Result<(), WorkerPanic> {
        match self.join() {
            None => Ok(()),
            Some(panic) => Err(panic),
        }
    }

    fn join(&mut self) -> Option<WorkerPanic> {
        if self.joined {
            return None;
        }
        self.joined = true;
        let inner = &self.pool.inner;
        let mut state = inner.state.lock();
        while let Some(job) = &state.job {
            if job.active == 0 {
                let job = state.job.take().expect("job present");
                if job.panic.is_some() {
                    state.poisoned = true;
                }
                drop(state);
                // Notify *after* the slot is cleared (and the poison flag set): a queued
                // submitter woken here must observe a free slot, or it re-parks and the
                // next wake-up comes only from another take — clearing before notifying
                // is what guarantees a panicking job can never wedge the queue.
                inner.done.notify_all();
                return job.panic;
            }
            inner.done.wait(&mut state);
        }
        None
    }
}

impl Drop for JobTicket<'_> {
    fn drop(&mut self) {
        // A panic surfacing during unwind (or an explicitly ignored ticket) is dropped
        // here; the poison flag still forces the respawn on the next submit.
        let _ = self.join();
    }
}

fn helper_loop(inner: &PoolInner, generation: u64) {
    let mut seen_epoch = 0u64;
    loop {
        // Claim a slot in a fresh job, or park until one appears. Exit once the pool has
        // moved on to a newer helper cohort (post-panic respawn retired this one).
        let (f, index) = {
            let mut state = inner.state.lock();
            loop {
                if state.generation != generation {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    if let Some(job) = &mut state.job {
                        if job.started < job.helpers {
                            job.started += 1;
                            break (Arc::clone(&job.f), job.started);
                        }
                    }
                }
                inner.work.wait(&mut state);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(index)));
        drop(f);
        let mut state = inner.state.lock();
        if let Some(job) = &mut state.job {
            job.active -= 1;
            if let Err(payload) = result {
                let panic = WorkerPanic {
                    worker: index,
                    message: panic_message(payload.as_ref()),
                };
                job.panic.get_or_insert(panic);
            }
            if job.active == 0 {
                inner.done.notify_all();
            }
        }
    }
}

/// The machine's hardware thread count, queried in one place.
///
/// Every consumer (executor worker clamp, its diagnostic, calibration) snapshots this once
/// and threads the value through, so a mid-run cgroup resize can never make two decisions
/// disagree about the same machine.
pub fn detect_hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The shared sleep pad workers park on when a synchronization wait outlasts its spin
/// budget. Producers call [`Sleepers::wake_all`] after publishing progress; the call is one
/// relaxed load unless someone is actually parked.
#[derive(Default)]
pub struct Sleepers {
    count: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Sleepers {
    /// Creates an empty pad.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks the current thread for at most `timeout` or until [`Sleepers::wake_all`].
    /// The timeout bounds the cost of a lost wakeup; callers always re-check their
    /// condition after waking.
    pub fn sleep(&self, timeout: Duration) {
        self.count.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock();
        self.cv.wait_for(&mut guard, timeout);
        drop(guard);
        self.count.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked worker if any are parked (one relaxed load otherwise).
    #[inline]
    pub fn wake_all(&self) {
        if self.count.load(Ordering::SeqCst) != 0 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
    }
}

/// Budget units charged per microsecond parked: calibrated so deadlock budgets expressed in
/// yield-spins on the previous executor (~100ns each) detect lost signals in comparable
/// wall-clock time whether the waiter spins or parks.
const PARK_COST_PER_US: u64 = 10;

/// What one wait site actually did, by backoff stage. Telemetry folds these into the
/// per-segment run/wait/spin/park breakdown; the counters cost one plain increment per
/// backoff round and are kept even when telemetry is disabled (the rounds themselves
/// dwarf an add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Spin-loop rounds taken.
    pub spins: u64,
    /// `yield_now` rounds taken.
    pub yields: u64,
    /// Timed parks taken.
    pub parks: u64,
    /// Total microseconds requested across parks (an upper bound on time parked; a
    /// wake-up can end a park early).
    pub park_us: u64,
}

/// Bounded spin → yield → timed park, shared by every wait site of the runtime.
///
/// There is one backoff shape. The executor never runs more workers than hardware threads
/// (`ParallelExecutor::effective_workers`), so the producer a waiter is blocked on is
/// running concurrently and the expected wait is short: spin and yield generously before
/// parking, because burning a core buys latency.
pub struct AdaptiveWait<'a> {
    sleepers: &'a Sleepers,
    park: Duration,
    rounds: u32,
    charged: u64,
    stats: WaitStats,
}

impl<'a> AdaptiveWait<'a> {
    /// Backoff rounds below this one spin.
    pub const SPIN_LIMIT: u32 = 512;
    /// Backoff rounds below this one (and at or past [`Self::SPIN_LIMIT`]) yield; later
    /// rounds park.
    pub const YIELD_LIMIT: u32 = 4096;
    /// Timeout of the first park; doubles per park up to [`Self::PARK_MAX`].
    pub const PARK_INITIAL: Duration = Duration::from_micros(200);
    /// Longest single park.
    pub const PARK_MAX: Duration = Duration::from_micros(800);

    /// Creates a fresh strategy (used once per logical wait).
    pub fn new(sleepers: &'a Sleepers) -> Self {
        Self {
            sleepers,
            park: Self::PARK_INITIAL,
            rounds: 0,
            charged: 0,
            stats: WaitStats::default(),
        }
    }

    /// Backs off one step. Returns the cumulative cost waited so far in yield-equivalent
    /// units (the caller charges it against its deadlock budget).
    #[inline]
    pub fn wait(&mut self) -> u64 {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds < Self::SPIN_LIMIT {
            std::hint::spin_loop();
            self.charged += 1;
            self.stats.spins += 1;
        } else if self.rounds < Self::YIELD_LIMIT {
            std::thread::yield_now();
            self.charged += 1;
            self.stats.yields += 1;
        } else {
            self.sleepers.sleep(self.park);
            self.charged += PARK_COST_PER_US * self.park.as_micros().max(1) as u64;
            self.stats.parks += 1;
            self.stats.park_us += self.park.as_micros() as u64;
            self.park = (self.park * 2).min(Self::PARK_MAX);
        }
        self.charged
    }

    /// The per-stage breakdown of everything this strategy did since its last
    /// [`AdaptiveWait::reset`].
    #[inline]
    pub fn stats(&self) -> WaitStats {
        self.stats
    }

    /// Restarts the backoff after progress was observed.
    #[inline]
    pub fn reset(&mut self) {
        self.rounds = 0;
        self.charged = 0;
        self.park = Self::PARK_INITIAL;
        self.stats = WaitStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_helpers_and_is_reused() {
        let pool = WorkerPool::new();
        let hits = AtomicU64::new(0);
        for round in 1..=3u64 {
            let f = |ix: usize| {
                assert!((1..=2).contains(&ix));
                hits.fetch_add(ix as u64, Ordering::SeqCst);
            };
            let ticket = pool.submit(2, &f);
            ticket.wait().unwrap();
            assert_eq!(hits.load(Ordering::SeqCst), 3 * round);
            assert_eq!(pool.spawned_helpers(), 2, "helpers persist across jobs");
        }
    }

    #[test]
    fn pool_grows_to_the_largest_request() {
        let pool = WorkerPool::new();
        let f = |_ix: usize| {};
        pool.submit(1, &f).wait().unwrap();
        assert_eq!(pool.spawned_helpers(), 1);
        pool.submit(3, &f).wait().unwrap();
        assert_eq!(pool.spawned_helpers(), 3);
        // A smaller job reuses the existing threads without spawning more.
        pool.submit(2, &f).wait().unwrap();
        assert_eq!(pool.spawned_helpers(), 3);
    }

    #[test]
    fn panicking_job_returns_payload_and_pool_respawns() {
        let pool = WorkerPool::new();
        let boom = |ix: usize| {
            if ix == 1 {
                panic!("intentional test panic");
            }
        };
        let err = pool.submit(2, &boom).wait().expect_err("panic surfaced");
        assert_eq!(err.worker, 1);
        assert_eq!(err.message, "intentional test panic");
        assert_eq!(
            pool.generation(),
            0,
            "respawn is deferred to the next submit"
        );

        // The next job on the same pool succeeds on a fresh helper cohort.
        let hits = AtomicU64::new(0);
        let ok = |_ix: usize| {
            hits.fetch_add(1, Ordering::SeqCst);
        };
        pool.submit(2, &ok).wait().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(pool.generation(), 1, "cohort retired after the panic");
        assert_eq!(pool.spawned_helpers(), 2);
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let pool = WorkerPool::new();
        let boom = |_ix: usize| std::panic::panic_any(42u32);
        let err = pool.submit(1, &boom).wait().expect_err("panic surfaced");
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn panicking_job_does_not_wedge_queued_submitters() {
        // A submitter queued behind a panicking job must still get the slot: the ticket
        // clears the job before notifying `done`, so the panic can't wedge the queue.
        let pool = Arc::new(WorkerPool::new());
        let release = Arc::new(AtomicU64::new(0));
        let queued_done = Arc::new(AtomicU64::new(0));

        let p = Arc::clone(&pool);
        let r = Arc::clone(&release);
        let qd = Arc::clone(&queued_done);
        let queued = std::thread::spawn(move || {
            // Wait until the panicking job is in flight, then queue behind it.
            while r.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let f = |_ix: usize| {};
            p.submit(1, &f).wait().unwrap();
            qd.store(1, Ordering::SeqCst);
        });

        let r = Arc::clone(&release);
        let boom = move |_ix: usize| {
            r.store(1, Ordering::SeqCst);
            // Give the queued submitter time to actually park on `done`.
            std::thread::sleep(Duration::from_millis(20));
            panic!("queued-submitter test panic");
        };
        let err = pool.submit(1, &boom).wait().expect_err("panic surfaced");
        assert_eq!(err.message, "queued-submitter test panic");
        queued.join().unwrap();
        assert_eq!(queued_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn ticket_drop_joins_borrowed_state() {
        let pool = WorkerPool::new();
        let mut local = [0u64; 4];
        {
            let slots: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            let f = |ix: usize| slots[ix].store(ix as u64 * 10, Ordering::SeqCst);
            let _ticket = pool.submit(3, &f);
            // `_ticket` drops here, joining the helpers before `slots` is freed.
        }
        local[0] = 1;
        assert_eq!(local[0], 1);
    }

    #[test]
    fn sleepers_wake_parked_threads() {
        let sleepers = Arc::new(Sleepers::new());
        let woke = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&sleepers);
            let w = Arc::clone(&woke);
            handles.push(std::thread::spawn(move || {
                s.sleep(Duration::from_secs(5));
                w.fetch_add(1, Ordering::SeqCst);
            }));
        }
        while sleepers.count.load(Ordering::SeqCst) != 2 {
            std::thread::yield_now();
        }
        sleepers.wake_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woke.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn adaptive_wait_counts_rounds() {
        let sleepers = Sleepers::new();
        let mut wait = AdaptiveWait::new(&sleepers);
        assert_eq!(wait.wait(), 1);
        assert_eq!(wait.wait(), 2);
        assert_eq!(wait.stats().spins, 2);
        wait.reset();
        assert_eq!(wait.wait(), 1);
        assert_eq!(wait.stats().spins, 1);
    }

    #[test]
    fn adaptive_wait_stats_split_by_stage() {
        let sleepers = Sleepers::new();
        let mut wait = AdaptiveWait::new(&sleepers);
        // Rounds 1..SPIN_LIMIT spin, SPIN_LIMIT..YIELD_LIMIT yield, then parks.
        for _ in 0..AdaptiveWait::YIELD_LIMIT {
            wait.wait();
        }
        let stats = wait.stats();
        assert_eq!(stats.spins, u64::from(AdaptiveWait::SPIN_LIMIT) - 1);
        assert_eq!(
            stats.yields,
            u64::from(AdaptiveWait::YIELD_LIMIT - AdaptiveWait::SPIN_LIMIT)
        );
        assert_eq!(stats.parks, 1);
        assert_eq!(
            stats.park_us,
            AdaptiveWait::PARK_INITIAL.as_micros() as u64,
            "first park is the initial timeout"
        );
        wait.reset();
        assert_eq!(wait.stats(), WaitStats::default());
    }
}
