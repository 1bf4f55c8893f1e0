//! The discrete-event DOACROSS timing simulation.

use helix_core::{HelixConfig, HelixOutput, ParallelizedLoop, PrefetchMode, SpeedupModel};
use helix_profiler::{LoopKey, ProgramProfile};
use std::collections::BTreeMap;

/// Simulation configuration: the platform description plus the prefetching mode under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// The platform/transformation configuration (core count, latencies, ablation switches).
    pub helix: HelixConfig,
    /// The signal-prefetching mode to simulate (Section 3.3).
    pub mode: PrefetchMode,
}

impl SimConfig {
    /// Full HELIX on the paper's six-core platform.
    pub fn helix_6_cores() -> Self {
        Self {
            helix: HelixConfig::i7_980x(),
            mode: PrefetchMode::Helix,
        }
    }

    /// Same platform with another core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.helix.cores = cores;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::helix_6_cores()
    }
}

/// Timing result for one parallelized loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopSimResult {
    /// Cycles the loop took in the sequential profiling run.
    pub sequential_cycles: f64,
    /// Simulated cycles of the parallelized loop (including configuration overhead).
    pub parallel_cycles: f64,
    /// Simulated loop speedup.
    pub speedup: f64,
    /// Signals sent while executing the loop.
    pub signals_sent: f64,
    /// Words of data forwarded between cores.
    pub words_transferred: f64,
}

/// Whole-program simulation result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramSimResult {
    /// Cycles of the sequential run.
    pub sequential_cycles: f64,
    /// Simulated cycles of the HELIX-parallelized run.
    pub parallel_cycles: f64,
    /// Whole-program speedup (the Figure 9 quantity).
    pub speedup: f64,
    /// Per-loop results for the selected loops.
    pub loops: BTreeMap<LoopKey, LoopSimResult>,
}

/// Simulates one parallelized loop.
///
/// The loop executes `iterations` iterations per invocation (averaged from the profile),
/// `invocations` times. Each iteration consists of a sequential prologue, then its
/// synchronized sequential segments separated by parallel gaps, then trailing parallel code.
pub fn simulate_loop(
    plan: &ParallelizedLoop,
    profile: &helix_profiler::LoopProfile,
    config: &SimConfig,
) -> LoopSimResult {
    let n = config.helix.cores.max(1);
    let invocations = profile.invocations.max(1);
    let total_iterations = profile.iterations;
    let iters_per_invocation = (total_iterations as f64 / invocations as f64).round() as u64;
    let sequential_cycles = profile.cycles as f64;
    if total_iterations == 0 || plan.total_cycles_per_iter <= 0.0 {
        return LoopSimResult {
            sequential_cycles,
            parallel_cycles: sequential_cycles,
            speedup: 1.0,
            signals_sent: 0.0,
            words_transferred: 0.0,
        };
    }

    // Per-iteration structure. Without helper threads no signal is prefetched, whatever
    // the mode.
    let prologue = plan.prologue_cycles_per_iter;
    let mode = if config.helix.enable_helper_threads {
        config.mode
    } else {
        PrefetchMode::None
    };
    let model = SpeedupModel::new(config.helix);
    let segments: Vec<(f64, f64)> = plan
        .segments
        .iter()
        .filter(|s| s.synchronized)
        .map(|s| {
            (
                s.cycles_per_iteration,
                model.signal_latency(mode, s.prefetched_fraction),
            )
        })
        .collect();
    let seg_cycles: f64 = segments.iter().map(|(c, _)| *c).sum();
    let parallel_per_iter = (plan.total_cycles_per_iter - prologue - seg_cycles).max(0.0);
    // Parallel code is split evenly into the gaps before each segment plus a trailing chunk.
    let chunks = segments.len() + 1;
    let gap = parallel_per_iter / chunks as f64;

    let mut signals_sent = 0.0;
    let mut words_transferred = 0.0;
    let mut parallel_cycles_total = 0.0;

    for _ in 0..invocations {
        // Thread start/stop signals and configuration for this invocation.
        signals_sent += 2.0 * (n as f64 - 1.0);
        let mut core_free = vec![0.0f64; n];
        let mut prev_prologue_done = 0.0f64;
        // Completion time of the previous iteration for each segment index.
        let mut prev_segment_exit: Vec<f64> = vec![0.0; segments.len()];
        let mut last_end = 0.0f64;

        let startup = config.helix.config_overhead as f64;
        for iter in 0..iters_per_invocation {
            let core = (iter as usize) % n;
            // The prologue runs in iteration order; the core must also be free.
            let start = core_free[core].max(prev_prologue_done).max(startup);
            let mut t = start + prologue;
            prev_prologue_done = t;
            signals_sent += 1.0; // the control signal that releases the next prologue
            for (k, (seg_len, latency)) in segments.iter().enumerate() {
                // Parallel gap before the segment.
                t += gap;
                // Wait for the predecessor iteration's signal for this segment.
                let signal_ready = if iter == 0 {
                    0.0
                } else {
                    prev_segment_exit[k] + latency
                };
                t = t.max(signal_ready);
                t += seg_len;
                prev_segment_exit[k] = t;
                signals_sent += 1.0;
            }
            // Trailing parallel code.
            t += gap;
            core_free[core] = t;
            last_end = last_end.max(t);
        }
        words_transferred += (plan.bytes_per_iteration * iters_per_invocation as f64
            / config.helix.word_bytes as f64)
            .ceil();
        // Data transfers ride on the shared cache; charge them at the end of the invocation.
        let transfer_cycles =
            words_transferred * config.helix.word_transfer_latency as f64 / invocations as f64;
        parallel_cycles_total += last_end + transfer_cycles;
    }

    let speedup = if parallel_cycles_total > 0.0 {
        sequential_cycles / parallel_cycles_total
    } else {
        1.0
    };
    LoopSimResult {
        sequential_cycles,
        parallel_cycles: parallel_cycles_total,
        speedup,
        signals_sent,
        words_transferred,
    }
}

/// Simulates the whole program: the selected loops run parallelized, everything else runs at
/// its sequential speed.
pub fn simulate_program(
    output: &HelixOutput,
    profile: &ProgramProfile,
    config: &SimConfig,
) -> ProgramSimResult {
    simulate_program_with_selection(output, profile, config, None)
}

/// Same as [`simulate_program`] but with an explicit loop selection (used by the fixed-level
/// and latency-misestimation studies).
pub fn simulate_program_with_selection(
    output: &HelixOutput,
    profile: &ProgramProfile,
    config: &SimConfig,
    selection: Option<&std::collections::BTreeSet<LoopKey>>,
) -> ProgramSimResult {
    let sequential_cycles = profile.total_cycles as f64;
    let selected: Vec<LoopKey> = match selection {
        Some(s) => s.iter().copied().collect(),
        None => output.selection.selected.iter().copied().collect(),
    };
    let mut loops = BTreeMap::new();
    let mut saved = 0.0;
    for key in selected {
        let Some(plan) = output.plans.get(&key) else {
            continue;
        };
        let lp = profile.loop_profile(key);
        let result = simulate_loop(plan, &lp, config);
        // A loop whose parallel version is slower still runs in parallel if it was selected;
        // the mis-selection penalty is exactly what Figure 12 demonstrates.
        saved += result.sequential_cycles - result.parallel_cycles;
        loops.insert(key, result);
    }
    let parallel_cycles = (sequential_cycles - saved).max(1.0);
    ProgramSimResult {
        sequential_cycles,
        parallel_cycles,
        speedup: sequential_cycles / parallel_cycles,
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::LoopNestingGraph;
    use helix_core::Helix;
    use helix_ir::Module;
    use helix_profiler::profile_program_image;
    use helix_workloads::all_benchmarks;

    fn analyze_art() -> (Module, HelixOutput, ProgramProfile) {
        let bench = all_benchmarks()[3]; // art: the most parallel-friendly benchmark
        let (module, main) = bench.build();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        (module, output, profile)
    }

    #[test]
    fn art_speeds_up_and_scales_with_cores() {
        let (_m, output, profile) = analyze_art();
        let s2 = simulate_program(&output, &profile, &SimConfig::helix_6_cores().with_cores(2));
        let s4 = simulate_program(&output, &profile, &SimConfig::helix_6_cores().with_cores(4));
        let s6 = simulate_program(&output, &profile, &SimConfig::helix_6_cores());
        assert!(
            s6.speedup > 1.2,
            "art must speed up on 6 cores, got {}",
            s6.speedup
        );
        assert!(s6.speedup >= s4.speedup);
        assert!(s4.speedup >= s2.speedup);
        assert!(s6.speedup <= 6.0, "cannot exceed the core count");
        assert_eq!(s6.loops.len(), output.selection.len());
        assert!(s6.loops.values().all(|l| l.signals_sent > 0.0));
    }

    #[test]
    fn prefetching_modes_are_ordered() {
        let (_m, output, profile) = analyze_art();
        let base = SimConfig::helix_6_cores();
        let none = simulate_program(
            &output,
            &profile,
            &SimConfig {
                mode: PrefetchMode::None,
                ..base
            },
        );
        let matched = simulate_program(
            &output,
            &profile,
            &SimConfig {
                mode: PrefetchMode::Matched,
                ..base
            },
        );
        let helix = simulate_program(&output, &profile, &base);
        let ideal = simulate_program(
            &output,
            &profile,
            &SimConfig {
                mode: PrefetchMode::Ideal,
                ..base
            },
        );
        assert!(helix.speedup >= none.speedup, "prefetching must not hurt");
        assert!(ideal.speedup >= helix.speedup);
        assert!(helix.speedup >= matched.speedup - 1e-9);
        assert!(matched.speedup >= none.speedup - 1e-9);
    }

    #[test]
    fn disabling_helper_threads_reduces_speedup() {
        let (_m, output, profile) = analyze_art();
        let full = simulate_program(&output, &profile, &SimConfig::helix_6_cores());
        let mut no8 = SimConfig::helix_6_cores();
        no8.helix = no8.helix.without_helper_threads();
        let ablated = simulate_program(&output, &profile, &no8);
        assert!(full.speedup >= ablated.speedup);
    }

    #[test]
    fn loop_with_zero_iterations_is_neutral() {
        let (_m, output, _profile) = analyze_art();
        let plan = output.plans.values().next().unwrap();
        let empty = helix_profiler::LoopProfile::default();
        let r = simulate_loop(plan, &empty, &SimConfig::default());
        assert_eq!(r.speedup, 1.0);
        assert_eq!(r.signals_sent, 0.0);
    }

    #[test]
    fn simulation_roughly_agrees_with_the_analytic_model() {
        // Section 3.4: the model's estimate should track the simulated ("measured") speedup.
        let (_m, output, profile) = analyze_art();
        let sim = simulate_program(&output, &profile, &SimConfig::helix_6_cores());
        let model = output.estimated_speedup(PrefetchMode::Helix);
        let rel_err = (sim.speedup - model).abs() / sim.speedup;
        assert!(
            rel_err < 0.35,
            "model ({model:.2}) and simulation ({:.2}) diverge by {:.0}%",
            sim.speedup,
            rel_err * 100.0
        );
    }
}
