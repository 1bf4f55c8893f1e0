//! HELIX transformation configuration.

/// Configuration of the HELIX transformation and of the speedup model.
///
/// The defaults correspond to the paper's evaluation platform, an Intel Core i7-980X:
/// six cores, 110-cycle unprefetched signal latency (a pull through the shared L3), 4-cycle
/// fully-prefetched signal latency (an L1 hit thanks to the SMT helper thread), and 110 cycles
/// to transfer one CPU word between cores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HelixConfig {
    /// Number of cores devoted to a parallelized loop (`N` in the paper).
    pub cores: usize,
    /// Latency, in cycles, of a signal that is not prefetched (110 on the testbed).
    pub signal_latency_unprefetched: u64,
    /// Latency, in cycles, of a fully prefetched signal (4 on the testbed — an L1 hit).
    pub signal_latency_prefetched: u64,
    /// Latency, in cycles, assumed for an *unprefetched* signal during loop selection. The
    /// paper studies mis-estimation of this value in Figures 12 and 13; the calibrated
    /// pipeline overwrites it with the latency measured on the actual machine.
    pub selection_signal_latency: u64,
    /// Latency, in cycles, assumed for a *fully prefetched* signal during loop selection.
    /// Keeping it distinct from [`HelixConfig::selection_signal_latency`] lets the selection
    /// model price prefetch-heavy plans differently from prefetch-starved ones (the two used
    /// to be conflated, making the modes indistinguishable to selection).
    pub selection_signal_latency_prefetched: u64,
    /// Cycles to transfer one CPU word between cores (`M` in Equation 1).
    pub word_transfer_latency: u64,
    /// Bytes per CPU word (`CPU_word` in Equation 1).
    pub word_bytes: u64,
    /// Per-invocation loop configuration overhead in cycles (`Conf_i`): initializing thread
    /// memory buffers and dispatching the parallel threads.
    pub config_overhead: u64,
    /// Step 6: remove redundant signals (redundant `Wait`s, segment merging).
    pub enable_signal_minimization: bool,
    /// Step 8: couple iteration threads with SMT helper threads that prefetch signals.
    pub enable_helper_threads: bool,
    /// Step 8's code-scheduling algorithm (Figure 6) that balances signal prefetching.
    pub enable_prefetch_balancing: bool,
    /// **Test-only fault injection.** Re-enables the pre-fix Step 6 behaviour where merging
    /// two sequential segments took the *union* of their Wait/Signal points instead of
    /// recomputing them over the merged dependence endpoints. A unioned signal can fire
    /// before another merged dependence's endpoint, releasing the successor iteration on a
    /// stale carried value — the soundness bug the differential suite caught on
    /// `pointer_chase`/`mcf`. Used by the fuzzing oracle and shrinker tests to prove that an
    /// injected fault is detected and minimized; never enable outside tests.
    pub unsound_union_merged_sync_points: bool,
}

impl HelixConfig {
    /// The configuration of the paper's evaluation: six cores, measured latencies.
    pub const fn i7_980x() -> Self {
        Self {
            cores: 6,
            signal_latency_unprefetched: 110,
            signal_latency_prefetched: 4,
            selection_signal_latency: 4,
            selection_signal_latency_prefetched: 4,
            word_transfer_latency: 110,
            word_bytes: 8,
            config_overhead: 400,
            enable_signal_minimization: true,
            enable_helper_threads: true,
            enable_prefetch_balancing: true,
            unsound_union_merged_sync_points: false,
        }
    }

    /// **Test-only.** Re-injects the pre-fix segment-merge bug (union of Wait/Signal points
    /// instead of recomputation); see
    /// [`HelixConfig::unsound_union_merged_sync_points`].
    pub fn with_unsound_union_merge(mut self) -> Self {
        self.unsound_union_merged_sync_points = true;
        self
    }

    /// Same platform with a different core count (the paper reports 2, 4 and 6 cores).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Overrides the signal latency assumed during loop selection (Figures 12 and 13).
    /// Sets both the unprefetched and the prefetched assumption to the same value — the
    /// paper's single-number misestimation study; use
    /// [`HelixConfig::with_selection_latencies`] to keep them distinct.
    pub fn with_selection_latency(mut self, cycles: u64) -> Self {
        self.selection_signal_latency = cycles;
        self.selection_signal_latency_prefetched = cycles;
        self
    }

    /// Overrides the selection-time signal latencies separately: `unprefetched` is what a
    /// signal costs when the helper thread missed it, `prefetched` when it was pulled into
    /// the L1 ahead of the `Wait`. Calibration feeds measured values for both.
    pub fn with_selection_latencies(mut self, unprefetched: u64, prefetched: u64) -> Self {
        self.selection_signal_latency = unprefetched;
        self.selection_signal_latency_prefetched = prefetched;
        self
    }

    /// Disables Step 6 (used by the Figure 10 ablation).
    pub fn without_signal_minimization(mut self) -> Self {
        self.enable_signal_minimization = false;
        self
    }

    /// Disables Step 8 (used by the Figure 10 ablation).
    pub fn without_helper_threads(mut self) -> Self {
        self.enable_helper_threads = false;
        self
    }

    /// Disables the Figure 6 balancing scheduler (used by the Figure 10 ablation).
    pub fn without_prefetch_balancing(mut self) -> Self {
        self.enable_prefetch_balancing = false;
        self
    }
}

impl Default for HelixConfig {
    fn default() -> Self {
        Self::i7_980x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = HelixConfig::default();
        assert_eq!(c.cores, 6);
        assert_eq!(c.signal_latency_unprefetched, 110);
        assert_eq!(c.signal_latency_prefetched, 4);
        assert_eq!(c.word_transfer_latency, 110);
        assert!(c.enable_signal_minimization && c.enable_helper_threads);
    }

    #[test]
    fn builders_toggle_steps() {
        let c = HelixConfig::i7_980x()
            .with_cores(4)
            .without_signal_minimization()
            .without_helper_threads()
            .without_prefetch_balancing()
            .with_selection_latency(110);
        assert_eq!(c.cores, 4);
        assert!(!c.enable_signal_minimization);
        assert!(!c.enable_helper_threads);
        assert!(!c.enable_prefetch_balancing);
        assert_eq!(c.selection_signal_latency, 110);
        assert_eq!(
            c.selection_signal_latency_prefetched, 110,
            "the single-number override conflates both, like the paper's study"
        );
    }

    #[test]
    fn selection_latencies_can_differ() {
        let c = HelixConfig::i7_980x().with_selection_latencies(300, 7);
        assert_eq!(c.selection_signal_latency, 300);
        assert_eq!(c.selection_signal_latency_prefetched, 7);
        // The defaults keep the paper's conflated value.
        let d = HelixConfig::default();
        assert_eq!(
            d.selection_signal_latency,
            d.selection_signal_latency_prefetched
        );
    }

    #[test]
    fn fault_injection_is_off_by_default() {
        assert!(!HelixConfig::default().unsound_union_merged_sync_points);
        assert!(
            HelixConfig::default()
                .with_unsound_union_merge()
                .unsound_union_merged_sync_points
        );
    }
}
