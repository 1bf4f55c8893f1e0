//! Runtime telemetry: per-worker event rings and stall accounting for parallel runs.
//!
//! The paper's whole argument is that loop selection can *predict* where synchronization
//! time goes; this module is the other half of that claim — it *measures* where the cycles
//! actually went, per segment, per lane, per worker, on the run that just happened. The
//! design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** With [`TelemetryMode::Disabled`]
//!    (the default) no [`TelemetryRun`] is allocated and every hook is one `Option`
//!    discriminant test on the cold side of a wait/signal/claim — never in the straight-line
//!    op dispatch.
//! 2. **No shared-state writes when enabled.** Each worker records into its own
//!    cache-line-aligned [`WorkerSlot`]; there are *no atomics* in the recording path.
//!    Soundness comes from ownership in time: worker `w` is the only thread that ever
//!    writes slot `w`, and the aggregation pass reads the slots only after the pool's
//!    job-ticket join — the same happens-before barrier the run's results already rely on.
//! 3. **Bounded memory.** Events go into a fixed-capacity ring per worker
//!    ([`EVENT_RING_CAP`]); when a run overflows it the oldest events are overwritten and
//!    the report says how many were dropped. Counters are never dropped.
//!
//! Two recording granularities share the machinery: *counters* (claims, iterations,
//! run/wait nanoseconds, spin/yield/park rounds, signals, arena words) and *events*
//! (timestamped [`Event`] records). Under [`TelemetryMode::Full`] everything is exact;
//! under [`TelemetryMode::Sampled`] both events and the fast-path per-lane attribution
//! (signals published, waits satisfied by their first poll) follow the sampling period,
//! while claims, iterations and everything a *blocking* wait records stay exact. Blocking
//! waits record unconditionally in every mode, because stalls are precisely what the
//! telemetry exists to see (and a blocked worker has nothing better to do than write two
//! events). The [`EventKind::WaitBegin`]/[`EventKind::WaitEnd`] balance invariant holds in
//! every mode.
//!
//! The aggregation pass ([`TelemetryRun::report`]) folds the rings and counters into a
//! [`TelemetryReport`]: per-worker summaries (the occupancy timeline), per-lane contention
//! counters keyed by the owning segment, observed per-segment costs (the mean
//! `WaitEnd → Signal` span, pairing events within one worker's ring), and the deadlock tail
//! ([`TelemetryReport::deadlock_tail`]) that [`crate::RuntimeError::Deadlock`] attaches so
//! repros are self-diagnosing.

use crate::parallel_image::{LoopImage, CONTROL_DEP};
use crate::pool::WaitStats;
use helix_ir::{DepId, Op};
use std::cell::UnsafeCell;
use std::time::Instant;

/// Capacity of each worker's event ring. Overflow overwrites the oldest events and is
/// reported as `events_dropped`; counters keep accumulating regardless.
pub const EVENT_RING_CAP: usize = 4096;

/// Lane field value of events that do not target a signal lane.
pub const NO_LANE: u32 = u32::MAX;

/// How much the runtime records during a parallel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Record nothing; every hook is a single branch.
    #[default]
    Disabled,
    /// Counters for every iteration; events only for iterations whose number is a multiple
    /// of the period (plus every *blocking* wait). The low-overhead production mode. The
    /// period is rounded up to a power of two so the per-iteration sampling check is a
    /// single mask-and-compare instead of a division.
    Sampled(u32),
    /// Counters and events for every iteration.
    Full,
}

impl TelemetryMode {
    /// Maps a configuration sample period to a mode: `0` disabled, `1` full, `n` sampled.
    pub fn from_sample_period(period: u32) -> TelemetryMode {
        match period {
            0 => TelemetryMode::Disabled,
            1 => TelemetryMode::Full,
            n => TelemetryMode::Sampled(n),
        }
    }

    /// `true` unless the mode is [`TelemetryMode::Disabled`].
    pub fn enabled(&self) -> bool {
        !matches!(self, TelemetryMode::Disabled)
    }
}

/// What happened at one instant of one worker's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The worker claimed the iteration.
    Claim,
    /// The iteration's bytecode started executing.
    IterStart,
    /// The iteration's bytecode finished (completed, exited, returned, or was cancelled).
    IterFinish,
    /// A `Wait` on a signal lane did not pass its first poll (or a sampled fast-path
    /// `Wait` began); `lane`/`pc` identify the wait site.
    WaitBegin,
    /// The matching end of a [`EventKind::WaitBegin`]; `arg` holds the last lane counter
    /// value observed.
    WaitEnd,
    /// The worker published a signal on `lane`.
    Signal,
    /// The worker's first timed park inside the current blocking wait.
    Park,
}

impl EventKind {
    /// Stable lowercase name (JSON exports, trace names).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Claim => "claim",
            EventKind::IterStart => "iter-start",
            EventKind::IterFinish => "iter-finish",
            EventKind::WaitBegin => "wait-begin",
            EventKind::WaitEnd => "wait-end",
            EventKind::Signal => "signal",
            EventKind::Park => "park",
        }
    }
}

/// One timestamped record in a worker's ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the run's telemetry epoch (just before Phase A).
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The iteration the worker was executing.
    pub iteration: u64,
    /// Logical signal lane for wait/signal events, [`NO_LANE`] otherwise.
    pub lane: u32,
    /// pc of the op in [`LoopImage::code`] for wait/signal events, `0` otherwise.
    pub pc: u32,
    /// Kind-specific payload (the observed lane counter for [`EventKind::WaitEnd`]).
    pub arg: u64,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} it{}", self.kind.name(), self.iteration)?;
        if self.lane != NO_LANE {
            write!(f, " lane{}", self.lane)?;
        }
        if matches!(self.kind, EventKind::WaitEnd) {
            write!(f, " saw{}", self.arg)?;
        }
        Ok(())
    }
}

/// Counters one worker accumulates over a whole run (never dropped; exact except where a
/// field's doc says it follows the sampling period).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Iterations claimed (or started in order, on the single-worker path).
    pub claims: u64,
    /// Iteration bodies executed to any end (including cancelled/failed partial ones).
    pub iterations: u64,
    /// Iterations whose events were recorded (equals `iterations` under full mode).
    pub sampled_iterations: u64,
    /// Nanoseconds spent inside *sampled* iteration bodies (includes time blocked in
    /// waits). Under full mode this is total iteration time; under sampling, scale by
    /// `iterations / sampled_iterations` for an estimate (what
    /// [`TelemetryReport::occupancy`](crate::telemetry::TelemetryReport::occupancy) does).
    pub run_ns: u64,
    /// Nanoseconds spent inside blocking lane waits.
    pub wait_ns: u64,
    /// Spin rounds across all blocking waits.
    pub spins: u64,
    /// `yield_now` rounds across all blocking waits.
    pub yields: u64,
    /// Timed parks across all blocking waits.
    pub parks: u64,
    /// Microseconds requested across those parks.
    pub park_us: u64,
    /// Lane signals published (sampled iterations only under [`TelemetryMode::Sampled`];
    /// multiply by the period for an estimate).
    pub signals: u64,
    /// Words served from this worker's private arena.
    pub arena_words: u64,
}

/// Per-logical-lane counters one worker accumulates (summed per lane in the report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneCounters {
    /// Waits that blocked (failed their first poll). Always exact.
    pub waits: u64,
    /// Waits satisfied by their first poll (sampled iterations only under
    /// [`TelemetryMode::Sampled`]).
    pub fast_hits: u64,
    /// Nanoseconds spent blocked on this lane.
    pub wait_ns: u64,
    /// Spin rounds while blocked on this lane.
    pub spins: u64,
    /// `yield_now` rounds while blocked on this lane.
    pub yields: u64,
    /// Timed parks while blocked on this lane.
    pub parks: u64,
    /// Microseconds requested across those parks.
    pub park_us: u64,
    /// Signals published on this lane.
    pub signals: u64,
}

impl LaneCounters {
    fn add_wait(&mut self, ns: u64, stats: WaitStats) {
        self.waits += 1;
        self.wait_ns += ns;
        self.spins += stats.spins;
        self.yields += stats.yields;
        self.parks += stats.parks;
        self.park_us += stats.park_us;
    }
}

/// Everything one worker records: counters, per-lane counters, and the event ring.
#[derive(Debug)]
struct WorkerData {
    counters: WorkerCounters,
    lanes: Vec<LaneCounters>,
    ring: Vec<Event>,
    /// Total events written (ring length once it saturates; `written - CAP` were dropped).
    written: u64,
}

/// One worker's recording slot, padded to its own cache line so two workers' counters
/// never false-share.
#[repr(align(128))]
struct WorkerSlot(UnsafeCell<WorkerData>);

// SAFETY: slot `w` is written only by the worker holding index `w` (the executor hands
// each worker a `WorkerCtx` with a distinct index), and read only after the worker-pool
// job join — the same barrier that publishes the run's results. There is never a
// concurrent reader or a second writer.
unsafe impl Sync for WorkerSlot {}

/// Telemetry state of one parallel run: the mode, the epoch, one [`WorkerSlot`] per
/// worker, and the image side tables needed to attribute pcs to lanes and segments.
pub struct TelemetryRun {
    mode: TelemetryMode,
    start: Instant,
    /// `iteration & mask == 0` decides event sampling: `0` under full mode (every
    /// iteration passes), `period.next_power_of_two() - 1` under sampling.
    sample_mask: u64,
    workers: Vec<WorkerSlot>,
    /// Logical lane of each pc in [`LoopImage::code`] ([`NO_LANE`] for non-sync ops).
    lane_of_pc: Vec<u32>,
    /// `(dep, segment, pc_range)` of each logical lane, cloned from the image.
    lane_meta: Vec<(DepId, usize, (u32, u32))>,
}

impl TelemetryRun {
    /// Creates the recording state for a run with `workers` workers, or `None` when the
    /// mode is disabled.
    pub fn for_run(mode: TelemetryMode, image: &LoopImage, workers: usize) -> Option<TelemetryRun> {
        if !mode.enabled() {
            return None;
        }
        let num_lanes = image.num_lanes();
        let lane_of_pc = image
            .code
            .iter()
            .map(|op| match op {
                Op::Wait { dep } | Op::Signal { dep }
                    if *dep != CONTROL_DEP && (*dep as usize) < num_lanes =>
                {
                    *dep
                }
                _ => NO_LANE,
            })
            .collect();
        let lane_meta = image
            .lanes
            .iter()
            .map(|l| (l.dep, l.segment, l.pc_range()))
            .collect();
        let sample_mask = match mode {
            TelemetryMode::Sampled(p) => u64::from(p.max(1)).next_power_of_two() - 1,
            TelemetryMode::Full | TelemetryMode::Disabled => 0,
        };
        Some(TelemetryRun {
            mode,
            start: Instant::now(),
            sample_mask,
            workers: (0..workers.max(1))
                .map(|_| {
                    WorkerSlot(UnsafeCell::new(WorkerData {
                        counters: WorkerCounters::default(),
                        lanes: vec![LaneCounters::default(); num_lanes],
                        ring: Vec::with_capacity(EVENT_RING_CAP.min(1024)),
                        written: 0,
                    }))
                })
                .collect(),
            lane_of_pc,
            lane_meta,
        })
    }

    /// The recording mode.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// The recording handle of worker `worker` (must be a distinct index per thread, and
    /// used only on that worker's thread).
    pub fn ctx(&self, worker: usize) -> WorkerCtx<'_> {
        debug_assert!(worker < self.workers.len());
        WorkerCtx {
            run: self,
            data: self.workers[worker].0.get(),
        }
    }

    /// Folds the per-worker rings and counters into the aggregated report. Consumes the
    /// run state; call only after every worker has left the run (the pool join).
    pub fn report(self) -> TelemetryReport {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let mut lanes: Vec<LaneReport> = self
            .lane_meta
            .iter()
            .enumerate()
            .map(|(ix, (dep, segment, pc_range))| LaneReport {
                lane: ix,
                dep: *dep,
                segment: *segment,
                pc_range: *pc_range,
                counters: LaneCounters::default(),
            })
            .collect();
        let workers: Vec<WorkerReport> = self
            .workers
            .into_iter()
            .enumerate()
            .map(|(ix, slot)| {
                let data = slot.0.into_inner();
                for (lane, c) in data.lanes.iter().enumerate() {
                    let l = &mut lanes[lane].counters;
                    l.waits += c.waits;
                    l.fast_hits += c.fast_hits;
                    l.wait_ns += c.wait_ns;
                    l.spins += c.spins;
                    l.yields += c.yields;
                    l.parks += c.parks;
                    l.park_us += c.park_us;
                    l.signals += c.signals;
                }
                let dropped = data.written.saturating_sub(data.ring.len() as u64);
                let mut events = data.ring;
                if dropped > 0 && !events.is_empty() {
                    // The ring wrapped: the oldest surviving event sits at the write cursor.
                    events.rotate_left((data.written % EVENT_RING_CAP as u64) as usize);
                }
                WorkerReport {
                    worker: ix,
                    counters: data.counters,
                    events_dropped: dropped,
                    events,
                }
            })
            .collect();
        TelemetryReport {
            mode: self.mode,
            wall_ns,
            workers,
            lanes,
        }
    }
}

/// A worker's recording handle: the run state plus a raw pointer to this worker's slot.
/// `Copy` so the executor can thread it through closures freely. The cached pointer (not
/// a slot index — the hooks run five times per iteration, and a bounds-checked `Vec`
/// index per hook is measurable on short iteration bodies) makes this `!Send`: a ctx is
/// created on the worker's own thread, which is also the only thread allowed to write the
/// slot.
#[derive(Clone, Copy)]
pub struct WorkerCtx<'a> {
    run: &'a TelemetryRun,
    data: *mut WorkerData,
}

impl WorkerCtx<'_> {
    #[inline(always)]
    fn slot(&self) -> *mut WorkerData {
        self.data
    }

    /// Nanoseconds since the run's telemetry epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.run.start.elapsed().as_nanos() as u64
    }

    /// Does `iteration` record events (not just counters)? One AND + compare — this runs
    /// up to four times per iteration, so it must not contain a division.
    #[inline(always)]
    pub fn sampled(&self, iteration: u64) -> bool {
        iteration & self.run.sample_mask == 0
    }

    /// Logical lane of the sync op at `pc` ([`NO_LANE`] for non-sync pcs).
    #[inline]
    pub fn lane_of(&self, pc: u32) -> u32 {
        self.run
            .lane_of_pc
            .get(pc as usize)
            .copied()
            .unwrap_or(NO_LANE)
    }

    #[inline]
    fn push(&self, kind: EventKind, iteration: u64, lane: u32, pc: u32, arg: u64) {
        let t_ns = self.now_ns();
        // SAFETY: see `WorkerSlot` — this worker is the slot's only writer.
        let d = unsafe { &mut *self.slot() };
        let ev = Event {
            t_ns,
            kind,
            iteration,
            lane,
            pc,
            arg,
        };
        if d.ring.len() < EVENT_RING_CAP {
            d.ring.push(ev);
        } else {
            d.ring[(d.written % EVENT_RING_CAP as u64) as usize] = ev;
        }
        d.written += 1;
    }

    /// The worker claimed `iteration`. Records the sampled event only: the claim/iteration
    /// *counts* are accumulated in the worker's registers and flushed in bulk through
    /// [`WorkerCtx::add_iter_counts`] on loop exit, keeping the hot claim loop free of
    /// per-iteration memory traffic.
    #[inline(always)]
    pub fn on_claim(&self, iteration: u64) {
        if self.sampled(iteration) {
            self.push(EventKind::Claim, iteration, NO_LANE, 0, 0);
        }
    }

    /// The iteration's bytecode is about to run; returns the start timestamp the caller
    /// hands back to [`WorkerCtx::on_iter_finish`]. Unsampled iterations skip the clock
    /// read entirely (two `Instant::now` calls per iteration would dominate short
    /// iteration bodies — the whole point of the sampled mode) and return `u64::MAX`.
    #[inline(always)]
    pub fn on_iter_start(&self, iteration: u64) -> u64 {
        if !self.sampled(iteration) {
            return u64::MAX;
        }
        self.push(EventKind::IterStart, iteration, NO_LANE, 0, 0);
        self.now_ns()
    }

    /// The iteration's bytecode finished (however it ended). `run_ns` accumulates over
    /// *sampled* iterations only; [`TelemetryReport::occupancy`] scales it back up by the
    /// sampling ratio (exact under full mode, where every iteration is sampled). Like
    /// [`WorkerCtx::on_claim`], the iteration *count* is flushed in bulk, not here.
    #[inline(always)]
    pub fn on_iter_finish(&self, iteration: u64, start_ns: u64) {
        if start_ns == u64::MAX {
            return;
        }
        let elapsed = self.now_ns().saturating_sub(start_ns);
        // SAFETY: see `WorkerSlot`.
        let d = unsafe { &mut *self.slot() };
        d.counters.run_ns += elapsed;
        d.counters.sampled_iterations += 1;
        self.push(EventKind::IterFinish, iteration, NO_LANE, 0, elapsed);
    }

    /// Flushes a worker loop's locally accumulated claim/iteration/arena counts into the
    /// slot. Called once per worker exit path (the executor wraps the counts in a guard
    /// whose `Drop` calls this), so the counts stay exact in every mode without an RMW per
    /// iteration on the hot claim loop.
    pub fn add_iter_counts(&self, claims: u64, iterations: u64, arena_words: u64) {
        // SAFETY: see `WorkerSlot`.
        let d = unsafe { &mut *self.slot() };
        d.counters.claims += claims;
        d.counters.iterations += iterations;
        d.counters.arena_words += arena_words;
    }

    /// The worker published a lane signal from the op at `pc`. Recorded (counter and
    /// event) on sampled iterations only: the signal fast path is two instructions of real
    /// work, so even one always-on counter increment per signal is measurable on short
    /// iteration bodies. Under full mode the counts are exact; under sampling, multiply by
    /// the period for an estimate.
    #[inline(always)]
    pub fn on_signal(&self, iteration: u64, pc: u32) {
        if !self.sampled(iteration) {
            return;
        }
        let lane = self.lane_of(pc);
        // SAFETY: see `WorkerSlot`.
        let d = unsafe { &mut *self.slot() };
        d.counters.signals += 1;
        if (lane as usize) < d.lanes.len() {
            d.lanes[lane as usize].signals += 1;
        }
        self.push(EventKind::Signal, iteration, lane, pc, 0);
    }

    /// A `Wait` passed its first poll. Like [`WorkerCtx::on_signal`], recorded on sampled
    /// iterations only — blocking waits (the stalls telemetry exists for) are the path
    /// that records unconditionally, via [`WorkerCtx::on_wait_begin`]/
    /// [`WorkerCtx::on_wait_end`].
    #[inline(always)]
    pub fn on_wait_fast(&self, iteration: u64, pc: u32) {
        if !self.sampled(iteration) {
            return;
        }
        let lane = self.lane_of(pc);
        // SAFETY: see `WorkerSlot`.
        let d = unsafe { &mut *self.slot() };
        if (lane as usize) < d.lanes.len() {
            d.lanes[lane as usize].fast_hits += 1;
        }
        self.push(EventKind::WaitBegin, iteration, lane, pc, 0);
        self.push(EventKind::WaitEnd, iteration, lane, pc, iteration);
    }

    /// A `Wait` failed its first poll and is about to block. Always records the event
    /// (stalls are the signal telemetry exists for); returns the begin timestamp.
    #[inline]
    pub fn on_wait_begin(&self, iteration: u64, pc: u32) -> u64 {
        self.push(EventKind::WaitBegin, iteration, self.lane_of(pc), pc, 0);
        self.now_ns()
    }

    /// The first timed park inside the current blocking wait.
    #[inline]
    pub fn on_park(&self, iteration: u64, pc: u32) {
        self.push(EventKind::Park, iteration, self.lane_of(pc), pc, 0);
    }

    /// The matching end of [`WorkerCtx::on_wait_begin`] — also on the cancelled and
    /// deadlocked exits, so begin/end stay balanced on every path. `observed` is the last
    /// lane counter value seen; `stats` is the backoff breakdown of this wait.
    #[inline]
    pub fn on_wait_end(
        &self,
        iteration: u64,
        pc: u32,
        begin_ns: u64,
        observed: u64,
        stats: WaitStats,
    ) {
        let lane = self.lane_of(pc);
        let elapsed = self.now_ns().saturating_sub(begin_ns);
        // SAFETY: see `WorkerSlot`.
        let d = unsafe { &mut *self.slot() };
        d.counters.wait_ns += elapsed;
        d.counters.spins += stats.spins;
        d.counters.yields += stats.yields;
        d.counters.parks += stats.parks;
        d.counters.park_us += stats.park_us;
        if (lane as usize) < d.lanes.len() {
            d.lanes[lane as usize].add_wait(elapsed, stats);
        }
        self.push(EventKind::WaitEnd, iteration, lane, pc, observed);
    }
}

/// One worker's aggregated view in the report.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index (0 is the submitting/primary thread).
    pub worker: usize,
    /// The run-long counters.
    pub counters: WorkerCounters,
    /// Events overwritten because the ring filled.
    pub events_dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<Event>,
}

/// One logical lane's aggregated view (counters summed over workers).
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// Logical lane index.
    pub lane: usize,
    /// The dependence the lane synchronizes.
    pub dep: DepId,
    /// Index of the owning segment in the plan's segment list.
    pub segment: usize,
    /// The segment's `[first, last]` pc span in [`LoopImage::code`].
    pub pc_range: (u32, u32),
    /// Summed contention counters.
    pub counters: LaneCounters,
}

/// Mean observed cost of one segment, from pairing `WaitEnd → Signal` spans inside each
/// worker's ring (both ends of a pair come from the same worker and iteration, so no
/// cross-ring clock reasoning is needed).
#[derive(Clone, Copy, Debug)]
pub struct ObservedSegmentCost {
    /// Logical lane index.
    pub lane: usize,
    /// The dependence the lane synchronizes.
    pub dep: DepId,
    /// Index of the owning segment in the plan's segment list.
    pub segment: usize,
    /// `WaitEnd → Signal` pairs found.
    pub samples: u64,
    /// Mean nanoseconds from passing the segment's `Wait` to publishing its `Signal`
    /// (the observed analogue of [`LoopImage::segment_span_cycles`]).
    pub mean_body_ns: f64,
    /// Mean nanoseconds blocked per *blocking* wait on this lane (0 when none blocked).
    pub mean_wait_ns: f64,
}

/// The aggregated result of one traced run.
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// The mode the run recorded under.
    pub mode: TelemetryMode,
    /// Wall nanoseconds from just before Phase A to the aggregation (the whole run, not
    /// just Phase B).
    pub wall_ns: u64,
    /// One entry per worker.
    pub workers: Vec<WorkerReport>,
    /// One entry per logical signal lane.
    pub lanes: Vec<LaneReport>,
}

/// The last events of one worker when a run deadlocked, attached to
/// [`crate::RuntimeError::Deadlock`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerTail {
    /// Worker index.
    pub worker: usize,
    /// The worker's newest events, oldest first.
    pub events: Vec<Event>,
}

impl std::fmt::Display for WorkerTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}[", self.worker)?;
        for (ix, ev) in self.events.iter().enumerate() {
            if ix > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ev}")?;
        }
        write!(f, "]")
    }
}

impl TelemetryReport {
    /// Iterations executed across all workers.
    pub fn total_iterations(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.iterations).sum()
    }

    /// Per-worker occupancy: the fraction of the run's wall time the worker spent inside
    /// iteration bytecode (run time includes blocked waits; subtract the wait share for
    /// useful-work occupancy). Under sampled mode, the sampled run time is scaled by the
    /// sampling ratio — exact under full mode, an estimate otherwise.
    pub fn occupancy(&self) -> Vec<f64> {
        let wall = self.wall_ns.max(1) as f64;
        self.workers
            .iter()
            .map(|w| {
                let c = &w.counters;
                let scale = if c.sampled_iterations > 0 {
                    c.iterations as f64 / c.sampled_iterations as f64
                } else {
                    1.0
                };
                (c.run_ns as f64 * scale / wall).min(1.0)
            })
            .collect()
    }

    /// Observed per-segment costs (see [`ObservedSegmentCost`]). Lanes with no paired
    /// samples are omitted.
    pub fn observed_segment_costs(&self) -> Vec<ObservedSegmentCost> {
        let n = self.lanes.len();
        let mut body = vec![(0u64, 0u64); n]; // (sum_ns, samples)
        for w in &self.workers {
            // Last WaitEnd per lane, pending a Signal on the same lane and iteration.
            let mut pending: Vec<Option<(u64, u64)>> = vec![None; n]; // (t_ns, iteration)
            for ev in &w.events {
                let lane = ev.lane as usize;
                if lane >= n {
                    continue;
                }
                match ev.kind {
                    EventKind::WaitEnd => pending[lane] = Some((ev.t_ns, ev.iteration)),
                    EventKind::Signal => {
                        if let Some((t0, iter)) = pending[lane].take() {
                            if iter == ev.iteration && ev.t_ns >= t0 {
                                body[lane].0 += ev.t_ns - t0;
                                body[lane].1 += 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        self.lanes
            .iter()
            .filter(|l| body[l.lane].1 > 0)
            .map(|l| {
                let (sum, samples) = body[l.lane];
                ObservedSegmentCost {
                    lane: l.lane,
                    dep: l.dep,
                    segment: l.segment,
                    samples,
                    mean_body_ns: sum as f64 / samples as f64,
                    mean_wait_ns: if l.counters.waits > 0 {
                        l.counters.wait_ns as f64 / l.counters.waits as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }

    /// The last `n` events of every worker, for self-diagnosing deadlock reports.
    pub fn deadlock_tail(&self, n: usize) -> Vec<WorkerTail> {
        self.workers
            .iter()
            .map(|w| WorkerTail {
                worker: w.worker,
                events: w.events[w.events.len().saturating_sub(n)..].to_vec(),
            })
            .collect()
    }

    /// The human text report: worker occupancy table, then per-lane stall accounting.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let mode = match self.mode {
            TelemetryMode::Disabled => "disabled".to_string(),
            TelemetryMode::Sampled(p) => format!("sampled 1/{p}"),
            TelemetryMode::Full => "full".to_string(),
        };
        let _ = writeln!(
            s,
            "telemetry ({mode}): {} workers, wall {:.3} ms",
            self.workers.len(),
            self.wall_ns as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "  {:<7} {:>7} {:>7} {:>10} {:>10} {:>6} {:>22} {:>8} {:>7}",
            "worker",
            "claims",
            "iters",
            "run ms",
            "wait ms",
            "occ%",
            "spin/yield/park",
            "signals",
            "events"
        );
        for (w, occ) in self.workers.iter().zip(self.occupancy()) {
            let c = &w.counters;
            let events = if w.events_dropped > 0 {
                format!("{}(-{})", w.events.len(), w.events_dropped)
            } else {
                format!("{}", w.events.len())
            };
            let _ = writeln!(
                s,
                "  {:<7} {:>7} {:>7} {:>10.3} {:>10.3} {:>6.1} {:>22} {:>8} {:>7}",
                w.worker,
                c.claims,
                c.iterations,
                c.run_ns as f64 / 1e6,
                c.wait_ns as f64 / 1e6,
                occ * 100.0,
                format!("{}/{}/{}", c.spins, c.yields, c.parks),
                c.signals,
                events
            );
        }
        if !self.lanes.is_empty() {
            let _ = writeln!(
                s,
                "  {:<5} {:<8} {:>8} {:>7} {:>7} {:>10} {:>6} {:>8}",
                "lane", "dep", "segment", "waits", "fast", "wait ms", "parks", "signals"
            );
            for l in &self.lanes {
                let c = &l.counters;
                let _ = writeln!(
                    s,
                    "  {:<5} {:<8} {:>8} {:>7} {:>7} {:>10.3} {:>6} {:>8}",
                    l.lane,
                    l.dep.to_string(),
                    l.segment,
                    c.waits,
                    c.fast_hits,
                    c.wait_ns as f64 / 1e6,
                    c.parks,
                    c.signals
                );
            }
        }
        s
    }
}
