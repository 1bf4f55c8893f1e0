//! The artifacts produced by the HELIX transformation for one loop.

use helix_analysis::{DataDependence, LoopId};
use helix_ir::{BlockId, DepId, FuncId, InstrRef, VarId};
use std::collections::BTreeSet;

/// One *sequential segment*: the region of a loop iteration that must execute in iteration
/// order to satisfy one synchronized loop-carried data dependence (or a merged group of them).
///
/// A segment is delimited by `Wait(d)` operations placed before every occurrence of the
/// dependence endpoints and `Signal(d)` operations placed at the earliest points where neither
/// endpoint can be reached any more in the current iteration (HELIX Step 4).
#[derive(Clone, Debug, PartialEq)]
pub struct SequentialSegment {
    /// The synchronization identifier used by `Wait`/`Signal`.
    pub dep: DepId,
    /// The loop-carried dependences this segment synchronizes (after Step 6 merging, a segment
    /// may cover several).
    pub dependences: Vec<DataDependence>,
    /// Instructions before which a `Wait(dep)` is required.
    pub wait_points: Vec<InstrRef>,
    /// Instructions before which a `Signal(dep)` is required (a signal point at index
    /// `usize::MAX` of a block means "at the end of the block, before the terminator").
    pub signal_points: Vec<InstrRef>,
    /// The instructions that belong to the segment (the code that executes in iteration
    /// order).
    pub instrs: BTreeSet<InstrRef>,
    /// Estimated cycles spent per iteration inside the segment.
    pub cycles_per_iteration: f64,
    /// `true` when the dependence actually forwards a computed value between cores (a memory
    /// RAW or a demoted loop-boundary variable), as opposed to pure ordering.
    pub transfers_data: bool,
    /// `false` when the privatization analysis proved every dependence of the segment
    /// runs between iteration-private accesses: it then needs no `Wait`/`Signal` at all.
    pub synchronized: bool,
    /// Fraction of the signal latency hidden by helper-thread prefetching for this segment
    /// (0.0 = no prefetching, 1.0 = fully prefetched), set by Step 8 / Figure 6.
    pub prefetched_fraction: f64,
}

impl SequentialSegment {
    /// The effective per-signal latency for this segment given the platform latencies.
    pub fn effective_signal_latency(&self, unprefetched: u64, prefetched: u64) -> f64 {
        let hidden = self.prefetched_fraction.clamp(0.0, 1.0);
        let span = unprefetched.saturating_sub(prefetched) as f64;
        unprefetched as f64 - hidden * span
    }

    /// Number of static `Wait` operations this segment inserts.
    pub fn num_waits(&self) -> usize {
        self.wait_points.len()
    }

    /// Number of static `Signal` operations this segment inserts.
    pub fn num_signals(&self) -> usize {
        self.signal_points.len()
    }
}

/// The complete parallelization plan for one loop.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelizedLoop {
    /// The function containing the loop.
    pub func: FuncId,
    /// The loop within the function's loop forest.
    pub loop_id: LoopId,
    /// The loop header.
    pub header: BlockId,
    /// Step 1: blocks forming the prologue (exits may only originate here; executed in
    /// iteration order).
    pub prologue_blocks: BTreeSet<BlockId>,
    /// Step 1: blocks forming the body.
    pub body_blocks: BTreeSet<BlockId>,
    /// Steps 2–6: the sequential segments.
    pub segments: Vec<SequentialSegment>,
    /// Step 7: registers demoted to memory because they are live across loop/iteration
    /// boundaries (live-ins, live-outs and iteration live-ins).
    pub boundary_live_vars: BTreeSet<VarId>,
    /// Basic induction variables `(register, per-iteration step)`. They are excluded from
    /// synchronization (Step 2) because each core recomputes them locally from the iteration
    /// number and their value at loop entry; the parallel runtime uses exactly this list to
    /// privatize them.
    pub induction_vars: Vec<(VarId, i64)>,
    /// `Alloc` instructions the privatization analysis proved iteration-private (see
    /// [`crate::privatize`]): the parallel runtime serves them from a per-worker bump arena
    /// instead of the shared memory. Empty when privatization does not apply to this
    /// loop. Instruction references are relative to the *original* function; Step 7 remaps
    /// them into the parallel clone.
    pub private_allocs: BTreeSet<InstrRef>,
    /// Loads/stores the privatization analysis proved to access only privatized storage —
    /// the only sites whose addresses may legitimately fall in the private tier; every
    /// other access keeps sequential fault semantics for out-of-range addresses. Original
    /// function coordinates, remapped by Step 7 like [`ParallelizedLoop::private_allocs`].
    pub private_accesses: BTreeSet<InstrRef>,
    /// Estimated bytes of data forwarded between cores per iteration (`Bytes_i` in
    /// Equation 1).
    pub bytes_per_iteration: f64,
    /// Signals per iteration before Step 6 (naive insertion).
    pub signals_before_minimization: u64,
    /// Signals per iteration after Step 6.
    pub signals_after_minimization: u64,
    /// Average cycles per iteration spent in the prologue (sequential-control time).
    pub prologue_cycles_per_iter: f64,
    /// Average cycles per iteration spent in the whole loop (prologue + body).
    pub total_cycles_per_iter: f64,
    /// Average cycles per iteration spent inside synchronized sequential segments
    /// (sequential-data time).
    pub sequential_cycles_per_iter: f64,
    /// Static code size of one iteration thread, in bytes (the Table 1 "maximum code"
    /// metric; instructions are costed at a nominal 4 bytes each).
    pub code_size_bytes: u64,
}

impl ParallelizedLoop {
    /// Cycles per iteration that can run in parallel (body time outside sequential segments
    /// and outside the prologue).
    pub fn parallel_cycles_per_iter(&self) -> f64 {
        (self.total_cycles_per_iter
            - self.sequential_cycles_per_iter
            - self.prologue_cycles_per_iter)
            .max(0.0)
    }

    /// Fraction of an iteration spent in code that must run sequentially (prologue plus
    /// synchronized segments).
    pub fn sequential_fraction(&self) -> f64 {
        if self.total_cycles_per_iter <= 0.0 {
            return 0.0;
        }
        ((self.sequential_cycles_per_iter + self.prologue_cycles_per_iter)
            / self.total_cycles_per_iter)
            .clamp(0.0, 1.0)
    }

    /// Number of segments still synchronized after Step 6.
    pub fn synchronized_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.synchronized).count()
    }

    /// Fraction of signals removed by Step 6 relative to naive insertion (Table 1's
    /// "signals removed" column), in `[0, 1]`.
    pub fn signals_removed_fraction(&self) -> f64 {
        if self.signals_before_minimization == 0 {
            return 0.0;
        }
        1.0 - self.signals_after_minimization as f64 / self.signals_before_minimization as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(prefetched: f64) -> SequentialSegment {
        SequentialSegment {
            dep: DepId::new(0),
            dependences: Vec::new(),
            wait_points: vec![InstrRef::new(BlockId::new(1), 0)],
            signal_points: vec![InstrRef::new(BlockId::new(1), 3)],
            instrs: BTreeSet::new(),
            cycles_per_iteration: 10.0,
            transfers_data: false,
            synchronized: true,
            prefetched_fraction: prefetched,
        }
    }

    #[test]
    fn effective_latency_interpolates() {
        assert_eq!(segment(0.0).effective_signal_latency(110, 4), 110.0);
        assert_eq!(segment(1.0).effective_signal_latency(110, 4), 4.0);
        let half = segment(0.5).effective_signal_latency(110, 4);
        assert!(half > 4.0 && half < 110.0);
        // Out-of-range fractions are clamped.
        assert_eq!(segment(7.0).effective_signal_latency(110, 4), 4.0);
        assert_eq!(segment(0.0).num_waits(), 1);
        assert_eq!(segment(0.0).num_signals(), 1);
    }

    fn plan() -> ParallelizedLoop {
        ParallelizedLoop {
            func: FuncId::new(0),
            loop_id: LoopId(0),
            header: BlockId::new(1),
            prologue_blocks: BTreeSet::new(),
            body_blocks: BTreeSet::new(),
            segments: vec![segment(0.0)],
            boundary_live_vars: BTreeSet::new(),
            induction_vars: vec![(VarId::new(1), 1)],
            private_allocs: BTreeSet::new(),
            private_accesses: BTreeSet::new(),
            bytes_per_iteration: 8.0,
            signals_before_minimization: 10,
            signals_after_minimization: 2,
            prologue_cycles_per_iter: 5.0,
            total_cycles_per_iter: 100.0,
            sequential_cycles_per_iter: 15.0,
            code_size_bytes: 4096,
        }
    }

    #[test]
    fn plan_derived_metrics() {
        let p = plan();
        assert_eq!(p.parallel_cycles_per_iter(), 80.0);
        assert!((p.sequential_fraction() - 0.2).abs() < 1e-9);
        assert_eq!(p.synchronized_segments(), 1);
        assert!((p.signals_removed_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn degenerate_plans_do_not_divide_by_zero() {
        let mut p = plan();
        p.total_cycles_per_iter = 0.0;
        p.signals_before_minimization = 0;
        assert_eq!(p.sequential_fraction(), 0.0);
        assert_eq!(p.signals_removed_fraction(), 0.0);
        assert_eq!(p.parallel_cycles_per_iter(), 0.0);
    }
}
