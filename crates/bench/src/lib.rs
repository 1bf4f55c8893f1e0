//! # helix-bench
//!
//! Experiment harnesses that regenerate every table and figure of the HELIX paper's
//! evaluation (Section 3) on the synthetic SPEC CPU2000 stand-ins:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig9_speedups` | Figure 9 — whole-program speedups on 2/4/6 cores |
//! | `table1_characteristics` | Table 1 — characteristics of the parallelized loops |
//! | `fig10_ablation` | Figure 10 — disabling Step 6 / Step 8 / balancing |
//! | `prefetch_limit_study` | Section 3.3 — HELIX vs. matched vs. ideal prefetching |
//! | `model_validation` | Section 3.4 — analytic model vs. simulated speedups |
//! | `fig11_time_breakdown` | Figure 11 — time breakdown at fixed nesting levels vs. HELIX |
//! | `fig12_latency_misestimate` | Figure 12 — under/over-estimated signal latency |
//! | `fig13_nesting_levels` | Figure 13 — nesting-level distribution vs. signal latency |
//!
//! These binaries model the paper's figures; the repository's measured numbers come from the
//! one benchmark in `benchmarks/` (see `benchmarks/README.md` and `BENCHMARK.json`).

use helix_analysis::LoopNestingGraph;
use helix_core::{Helix, HelixConfig, HelixOutput};
use helix_ir::{FuncId, Module};
use helix_profiler::{profile_program, ProgramProfile};
use helix_workloads::SpecBenchmark;

/// Everything the experiment binaries need for one benchmark under one configuration.
pub struct BenchmarkAnalysis {
    /// The benchmark's name (e.g. `"art"`).
    pub name: &'static str,
    /// The paper's published six-core speedup for the real SPEC program.
    pub paper_speedup: f64,
    /// The synthetic module.
    pub module: Module,
    /// The entry function.
    pub main: FuncId,
    /// The sequential profile (training run).
    pub profile: ProgramProfile,
    /// The HELIX analysis output.
    pub output: HelixOutput,
}

/// Builds, profiles and analyzes one benchmark under `config`.
///
/// # Panics
///
/// Panics if the synthetic benchmark fails to build or run — that is a bug in the workload
/// generator, not an experiment outcome.
pub fn analyze_benchmark(bench: &SpecBenchmark, config: HelixConfig) -> BenchmarkAnalysis {
    let (module, main) = bench.build();
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program(&module, &nesting, main, &[])
        .unwrap_or_else(|e| panic!("benchmark {} failed to run: {e}", bench.name));
    let output = Helix::new(config).analyze(&module, &profile);
    BenchmarkAnalysis {
        name: bench.name,
        paper_speedup: bench.paper_speedup_6_cores,
        module,
        main,
        profile,
        output,
    }
}

/// Geometric mean of a slice of positive values (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.25]) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn analyze_benchmark_produces_candidates() {
        let bench = helix_workloads::all_benchmarks()[3];
        let analysis = analyze_benchmark(&bench, HelixConfig::i7_980x());
        assert_eq!(analysis.name, "art");
        assert!(analysis.output.plans.len() >= 3);
        assert!(analysis.profile.total_cycles > 0);
    }
}
