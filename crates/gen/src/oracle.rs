//! The differential fuzzing oracle.
//!
//! [`differential_check`] runs one module through every redundant path the system has and
//! reports the first observable disagreement as a [`Divergence`]:
//!
//! 1. the verifier (generator bugs surface here, not downstream),
//! 2. the frontend round-trip: `parse(print(m)) == m` and printing is a fixpoint,
//! 3. the tree-walking interpreter vs. the flat-bytecode engine: return value, [`ExecStats`],
//!    and final memory, all compared *bitwise* (floats by bit pattern, so an agreeing NaN is
//!    agreement and `-0.0` vs `0.0` is a divergence),
//! 4. the two profilers: identical [`helix_profiler`] `ProgramProfile`s,
//! 5. the HELIX analysis: a structural soundness check that no synchronized segment signals
//!    before the last endpoint of a dependence it synchronizes (the PR 2 signal-merge bug's
//!    signature) or without waiting on its dependence first in the same block (an iteration
//!    that skipped the segment would release its successor past an older iteration), both
//!    caught without needing a lucky thread interleaving,
//! 6. the real-thread parallel executor at each requested thread count (repeated, to give
//!    races more than one chance to fire): result must equal the sequential bytecode result.
//!
//! The oracle is deliberately *pure*: it never prints, never writes files, and returns a
//! structured report, so the CLI, the property tests and the shrinker can all reuse it. The
//! shrinker in particular calls it hundreds of times with candidate modules.

use helix_core::{transform, Helix, HelixConfig, HelixOutput};
use helix_ir::{
    verify_module, ExecImage, ExecStats, FuncId, ImageMachine, Machine, Memory, Module, Value,
};
use helix_profiler::{profile_program, profile_program_image};
use helix_runtime::{EventKind, ParallelExecutor, ParallelImage, TelemetryMode, TelemetryReport};
use std::fmt;

/// What the oracle checks and how hard it tries.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Thread counts for the parallel stage.
    pub threads: Vec<usize>,
    /// How many times each thread count is run (races need more than one chance).
    pub repeats: usize,
    /// Fuel limit for each sequential engine run.
    pub fuel: u64,
    /// Check `parse(print(m)) == m` and the printing fixpoint.
    pub check_roundtrip: bool,
    /// Check profiler agreement between the two engines.
    pub check_profiles: bool,
    /// Check the structural signal-placement soundness property on every plan.
    pub check_signal_placement: bool,
    /// Run the parallel executor stage.
    pub check_parallel: bool,
    /// The executor of the parallel stage: its budgets, telemetry mode and dispatch tier
    /// apply to every run; its worker count is replaced by each of
    /// [`OracleConfig::threads`]. The sequential reference engines (the tree `Machine` and
    /// `ImageMachine`) are tier-independent, so sweeping the same seed range once per
    /// pinned tier is a threaded-vs-jit differential test by transitivity. A traced executor (the only kind that gets a
    /// report) additionally validates the event streams each run produces.
    pub executor: ParallelExecutor,
    /// HELIX configuration used for analysis.
    pub helix: HelixConfig,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            threads: vec![1, 2, 4, 6],
            repeats: 2,
            fuel: 50_000_000,
            check_roundtrip: true,
            check_profiles: true,
            check_signal_placement: true,
            check_parallel: true,
            // A tighter spin budget than production: a genuine lost-signal deadlock should
            // fail the seed in milliseconds, not minutes.
            executor: ParallelExecutor::new(1).with_spin_budget(20_000_000),
            helix: HelixConfig::i7_980x(),
        }
    }
}

/// The first disagreement the oracle observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Which stage disagreed.
    pub kind: DivergenceKind,
    /// Human-readable description with both sides of the disagreement.
    pub detail: String,
    /// Parallel executions performed, the diverging one included (0 when an earlier stage
    /// diverged).
    pub parallel_runs: usize,
}

/// The oracle stages that can report a divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The module does not verify (a generator or shrinker bug).
    Verify,
    /// `parse(print(m))` failed or produced a different module.
    Roundtrip,
    /// The engines returned different values.
    EngineResult,
    /// The engines returned identical values but different [`ExecStats`].
    EngineStats,
    /// The engines left different final memory.
    EngineMemory,
    /// One engine faulted and the other did not (or they faulted differently).
    EngineError,
    /// The two profilers produced different profiles.
    Profile,
    /// A synchronized segment signals before one of its dependence endpoints.
    SignalPlacement,
    /// A parallel run returned a different value than the sequential bytecode run.
    ParallelResult,
    /// A parallel run failed (deadlock, budget, fault) where the sequential run succeeded.
    ParallelError,
    /// A traced parallel run produced a malformed telemetry stream (unbalanced waits,
    /// duplicate or non-contiguous iteration claims, counter/event disagreement).
    Telemetry,
}

impl DivergenceKind {
    /// Is this a divergence of the parallel stage (the seed reached the parallel executor)?
    pub fn is_parallel(self) -> bool {
        matches!(
            self,
            DivergenceKind::ParallelResult
                | DivergenceKind::ParallelError
                | DivergenceKind::Telemetry
        )
    }

    /// Short machine-friendly name (used in repro filenames and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::Verify => "verify",
            DivergenceKind::Roundtrip => "roundtrip",
            DivergenceKind::EngineResult => "engine-result",
            DivergenceKind::EngineStats => "engine-stats",
            DivergenceKind::EngineMemory => "engine-memory",
            DivergenceKind::EngineError => "engine-error",
            DivergenceKind::Profile => "profile",
            DivergenceKind::SignalPlacement => "signal-placement",
            DivergenceKind::ParallelResult => "parallel-result",
            DivergenceKind::ParallelError => "parallel-error",
            DivergenceKind::Telemetry => "telemetry",
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.name(), self.detail)
    }
}

/// Summary of a passing oracle run.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// The sequential result (`None` for void, which generated programs never are).
    pub result: Option<Value>,
    /// Sequential bytecode-engine statistics.
    pub stats: ExecStats,
    /// Both engines faulted identically (fuel exhaustion on a hostile module, say); the
    /// remaining stages were skipped because there is no baseline to compare against.
    pub errored: bool,
    /// Number of parallel executions performed.
    pub parallel_runs: usize,
    /// The parallel stage was skipped (no selected plan for the entry, pre-existing sync
    /// instructions, or disabled in the configuration).
    pub parallel_skipped: bool,
}

fn diverged(kind: DivergenceKind, detail: impl Into<String>) -> Divergence {
    Divergence {
        kind,
        detail: detail.into(),
        parallel_runs: 0,
    }
}

/// Bitwise value equality: floats compare by bit pattern.
pub fn values_bitwise_eq(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(Value::Int(x)), Some(Value::Int(y))) => x == y,
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// Bitwise memory equality over the live prefix; returns the first differing address.
pub fn memories_bitwise_diff(a: &Memory, b: &Memory) -> Option<i64> {
    if a.heap_base() != b.heap_base() || a.heap_used() != b.heap_used() {
        return Some(-1);
    }
    let end = a.heap_base() + a.heap_used() as i64;
    (1..end).find(|&addr| {
        let va = a.load(addr).unwrap_or_default();
        let vb = b.load(addr).unwrap_or_default();
        !values_bitwise_eq(Some(va), Some(vb))
    })
}

fn show(v: &Option<Value>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "(void)".to_string(),
    }
}

/// Scans every plan of an analysis output for a synchronized segment with a signal point
/// that
///
/// * can fire before one of its own dependence endpoints in the same block — the structural
///   signature of the PR 2 signal-merge soundness bug, or
/// * is not preceded in its block by a wait point of the segment with no other signal point
///   in between — an iteration could then signal while its predecessor is still inside the
///   segment, and release its successor into it.
///
/// Returns one description per violation.
pub fn signal_placement_violations(module: &Module, output: &HelixOutput) -> Vec<String> {
    let mut violations = Vec::new();
    for (key, plan) in &output.plans {
        let function = module.function(key.0);
        for seg in plan.segments.iter().filter(|s| s.synchronized) {
            for sig in &seg.signal_points {
                // A point's `Wait`s are emitted before its `Signal`s, so a wait at the
                // signal's own index counts; a signal at the wait's index comes after it.
                let last_wait = seg
                    .wait_points
                    .iter()
                    .filter(|w| w.block == sig.block && w.index <= sig.index)
                    .map(|w| w.index)
                    .max();
                let signalled_since = |w: usize| {
                    seg.signal_points
                        .iter()
                        .any(|s| s.block == sig.block && w <= s.index && s.index < sig.index)
                };
                if last_wait.is_none_or(signalled_since) {
                    violations.push(format!(
                        "{}/{}: segment {:?} signals at {} without waiting on it first",
                        function.name, key.1, seg.dep, sig
                    ));
                }
                for dep in &seg.dependences {
                    for endpoint in [dep.src, dep.dst] {
                        if endpoint.block == sig.block && endpoint.index >= sig.index {
                            violations.push(format!(
                                "{}/{}: segment {:?} signals at {} before its endpoint {}",
                                function.name, key.1, seg.dep, sig, endpoint
                            ));
                        }
                    }
                }
            }
        }
    }
    violations
}

/// Structural well-formedness checks on a telemetry report from a completed (non-faulting)
/// traced run. Returns one description per violation:
///
/// * every worker's event stream keeps Wait begin/end balanced — the wait depth never goes
///   negative, and ends the stream at zero when no events were dropped;
/// * under [`TelemetryMode::Full`] with no ring drops, the recorded iteration claims across
///   all workers form a permutation of `0..n` (no iteration claimed twice, none skipped);
/// * the per-worker iteration counter totals agree with the claim counters.
pub fn telemetry_violations(report: &TelemetryReport) -> Vec<String> {
    let mut violations = Vec::new();
    let lossless = report.workers.iter().all(|w| w.events_dropped == 0);
    for w in &report.workers {
        let mut depth = 0i64;
        for e in &w.events {
            match e.kind {
                EventKind::WaitBegin => depth += 1,
                EventKind::WaitEnd => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                violations.push(format!(
                    "worker {}: wait-end without matching wait-begin at {e}",
                    w.worker
                ));
                depth = 0;
            }
        }
        if w.events_dropped == 0 && depth != 0 {
            violations.push(format!(
                "worker {}: {depth} wait-begin(s) never ended in a lossless stream",
                w.worker
            ));
        }
        if w.counters.iterations > w.counters.claims {
            violations.push(format!(
                "worker {}: finished {} iterations but only claimed {}",
                w.worker, w.counters.iterations, w.counters.claims
            ));
        }
    }
    if report.mode == TelemetryMode::Full && lossless {
        let mut claimed: Vec<u64> = report
            .workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| e.kind == EventKind::Claim)
            .map(|e| e.iteration)
            .collect();
        claimed.sort_unstable();
        for pair in claimed.windows(2) {
            if pair[0] == pair[1] {
                violations.push(format!("iteration {} claimed twice", pair[0]));
            }
        }
        claimed.dedup();
        // Claims are handed out in order, so a lossless full trace of a completed run
        // covers a contiguous prefix 0..n (the final claim may exit before running).
        if let Some(&max) = claimed.last() {
            if claimed.len() as u64 != max + 1 || claimed[0] != 0 {
                violations.push(format!(
                    "claims are not contiguous from 0: {} distinct claims, max {max}",
                    claimed.len()
                ));
            }
        }
    }
    violations
}

/// Runs the full differential oracle on `module` starting from `entry` (with no arguments:
/// generated programs are closed).
///
/// # Errors
///
/// Returns the first [`Divergence`] observed; `Ok` means every enabled stage agreed.
pub fn differential_check(
    module: &Module,
    entry: FuncId,
    config: &OracleConfig,
) -> Result<OracleReport, Divergence> {
    // Stage 1: verifier.
    verify_module(module).map_err(|e| diverged(DivergenceKind::Verify, e.to_string()))?;

    // Stage 2: frontend round-trip.
    if config.check_roundtrip {
        let printed = helix_ir::printer::format_module(module);
        let parsed = helix_frontend::parse_module(&printed)
            .map_err(|e| diverged(DivergenceKind::Roundtrip, format!("does not re-parse: {e}")))?;
        if &parsed != module {
            return Err(diverged(
                DivergenceKind::Roundtrip,
                "parse(print(m)) != m".to_string(),
            ));
        }
        let reprinted = helix_ir::printer::format_module(&parsed);
        if reprinted != printed {
            return Err(diverged(
                DivergenceKind::Roundtrip,
                "printing is not a fixpoint of parse∘print".to_string(),
            ));
        }
    }

    // Stage 3: tree walker vs. bytecode engine.
    let image = ExecImage::lower(module);
    let mut tree = Machine::new(module);
    tree.set_fuel(config.fuel);
    let mut flat = ImageMachine::new(&image);
    flat.set_fuel(config.fuel);
    let tree_outcome = tree.call(entry, &[]);
    let flat_outcome = flat.call(entry, &[]);
    let result = match (tree_outcome, flat_outcome) {
        (Err(a), Err(b)) if a == b => {
            // Identical faults: nothing further to compare against.
            return Ok(OracleReport {
                errored: true,
                stats: flat.stats(),
                parallel_skipped: true,
                ..OracleReport::default()
            });
        }
        (Err(a), Err(b)) => {
            return Err(diverged(
                DivergenceKind::EngineError,
                format!("engines fault differently: tree={a} image={b}"),
            ));
        }
        (Err(a), Ok(b)) => {
            return Err(diverged(
                DivergenceKind::EngineError,
                format!("tree faults ({a}) but image returns {}", show(&b)),
            ));
        }
        (Ok(a), Err(b)) => {
            return Err(diverged(
                DivergenceKind::EngineError,
                format!("image faults ({b}) but tree returns {}", show(&a)),
            ));
        }
        (Ok(a), Ok(b)) => {
            if !values_bitwise_eq(a, b) {
                return Err(diverged(
                    DivergenceKind::EngineResult,
                    format!("tree={} image={}", show(&a), show(&b)),
                ));
            }
            b
        }
    };
    if tree.stats() != flat.stats() {
        return Err(diverged(
            DivergenceKind::EngineStats,
            format!("tree={:?} image={:?}", tree.stats(), flat.stats()),
        ));
    }
    if let Some(addr) = memories_bitwise_diff(tree.memory(), flat.memory()) {
        return Err(diverged(
            DivergenceKind::EngineMemory,
            format!("final memory differs at address {addr}"),
        ));
    }
    let stats = flat.stats();

    // Stage 4: profiler agreement.
    let nesting = helix_analysis::LoopNestingGraph::new(module);
    let image_profile = profile_program_image(module, &nesting, entry, &[]).map_err(|e| {
        diverged(
            DivergenceKind::Profile,
            format!("image profiler faults: {e}"),
        )
    })?;
    if config.check_profiles {
        let tree_profile = profile_program(module, &nesting, entry, &[]).map_err(|e| {
            diverged(
                DivergenceKind::Profile,
                format!("tree profiler faults: {e}"),
            )
        })?;
        if tree_profile != image_profile {
            return Err(diverged(
                DivergenceKind::Profile,
                "profiles differ between engines".to_string(),
            ));
        }
    }

    // Stage 5: HELIX analysis + structural signal-placement soundness.
    let helix = Helix::new(config.helix);
    let output = helix.analyze(module, &image_profile);
    if config.check_signal_placement {
        let violations = signal_placement_violations(module, &output);
        if let Some(first) = violations.first() {
            return Err(diverged(
                DivergenceKind::SignalPlacement,
                format!("{first} ({} violations total)", violations.len()),
            ));
        }
    }

    // Stage 6: the real-thread parallel executor against the sequential bytecode result.
    let has_sync = module
        .functions
        .iter()
        .any(|f| f.instr_refs().any(|(_, i)| i.is_sync()));
    let mut parallel_runs = 0;
    let mut parallel_skipped = true;
    if config.check_parallel && !has_sync {
        // The fallback to an unselected candidate matters here: Wait/Signal placement must be
        // sound for every plan, profitable or not, and the fallback roughly triples the
        // fraction of seeds that exercise the real-thread executor.
        if let Some((plan, _selected)) = output.hottest_plan(entry, &image_profile) {
            parallel_skipped = false;
            let transformed = transform::apply(module, plan);
            // Lower once; every run below dispatches the same immutable image (the
            // steady-state entry point the CLI and benchmarks use).
            let parallel_image = ParallelImage::lower(&transformed);
            for &threads in &config.threads {
                for _ in 0..config.repeats.max(1) {
                    parallel_runs += 1;
                    // Overriding the hardware snapshot forces the full multi-worker claim
                    // protocol even on machines with fewer hardware threads than workers
                    // (time-sliced there): the oracle exists to hammer the concurrent
                    // path, not to run fast.
                    let executor = ParallelExecutor {
                        threads: threads.max(1),
                        hardware: threads,
                        ..config.executor
                    };
                    let run = executor.run_parallel_out(&parallel_image, &[]);
                    match run.result {
                        Ok(got) => {
                            if !values_bitwise_eq(got, result) {
                                return Err(Divergence {
                                    parallel_runs,
                                    ..diverged(
                                        DivergenceKind::ParallelResult,
                                        format!(
                                            "{} threads: sequential={} parallel={}",
                                            threads,
                                            show(&result),
                                            show(&got)
                                        ),
                                    )
                                });
                            }
                            if let Some(report) = &run.report {
                                let violations = telemetry_violations(report);
                                if let Some(first) = violations.first() {
                                    let total = violations.len();
                                    let detail = format!(
                                        "{threads} threads: {first} ({total} violations total)"
                                    );
                                    return Err(Divergence {
                                        parallel_runs,
                                        ..diverged(DivergenceKind::Telemetry, detail)
                                    });
                                }
                            }
                        }
                        Err(e) => {
                            return Err(Divergence {
                                parallel_runs,
                                ..diverged(
                                    DivergenceKind::ParallelError,
                                    format!("{threads} threads: {e}"),
                                )
                            });
                        }
                    }
                }
            }
        }
    }

    Ok(OracleReport {
        result,
        stats,
        errored: false,
        parallel_runs,
        parallel_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use crate::generate::generate;

    #[test]
    fn clean_generated_programs_pass_the_oracle() {
        let gen_config = GenConfig::fuzz();
        let oracle = OracleConfig {
            threads: vec![2],
            repeats: 1,
            ..OracleConfig::default()
        };
        let mut parallel_exercised = 0;
        for seed in 0..12 {
            let gp = generate(seed, &gen_config);
            let report = differential_check(&gp.module, gp.main, &oracle)
                .unwrap_or_else(|d| panic!("seed {seed} diverged: {d}\n{:?}", gp));
            assert!(!report.errored, "seed {seed} should run to completion");
            if !report.parallel_skipped {
                parallel_exercised += 1;
            }
        }
        assert!(
            parallel_exercised > 0,
            "the sweep should exercise the parallel stage at least once"
        );
    }

    #[test]
    fn sync_noise_modules_skip_the_parallel_stage() {
        let gen_config = GenConfig::roundtrip();
        let oracle = OracleConfig {
            threads: vec![2],
            repeats: 1,
            ..OracleConfig::default()
        };
        for seed in 0..10 {
            let gp = generate(seed, &gen_config);
            let has_sync = gp
                .module
                .functions
                .iter()
                .any(|f| f.instr_refs().any(|(_, i)| i.is_sync()));
            let report = differential_check(&gp.module, gp.main, &oracle)
                .unwrap_or_else(|d| panic!("seed {seed} diverged: {d}\n{:?}", gp));
            if has_sync {
                assert!(report.parallel_skipped, "seed {seed} has pre-existing sync");
            }
        }
    }

    #[test]
    fn the_oracle_detects_an_engine_result_mismatch() {
        // A hand-built sanity check that the comparison machinery actually fires: compare a
        // module against itself but with a corrupted entry id — the verifier stage rejects.
        let gp = generate(3, &GenConfig::fuzz());
        let mut broken = gp.module.clone();
        // Branch to a missing block in main: the verifier must catch it.
        let main_fn = broken.function_mut(gp.main);
        let entry = main_fn.entry;
        main_fn.block_mut(entry).instrs.push(helix_ir::Instr::Br {
            target: helix_ir::BlockId::new(9999),
        });
        let err = differential_check(&broken, gp.main, &OracleConfig::default()).unwrap_err();
        assert_eq!(err.kind, DivergenceKind::Verify);
    }

    #[test]
    fn the_unsound_union_merge_flag_is_caught_structurally() {
        // Under the injected fault, some seed in a modest sweep must trip the structural
        // signal-placement check — without ever needing a racy parallel run.
        let gen_config = GenConfig::pointer_heavy();
        let oracle = OracleConfig {
            check_parallel: false,
            helix: HelixConfig::i7_980x().with_unsound_union_merge(),
            ..OracleConfig::default()
        };
        let mut caught = 0;
        for seed in 0..40 {
            let gp = generate(seed, &gen_config);
            match differential_check(&gp.module, gp.main, &oracle) {
                Err(d) if d.kind == DivergenceKind::SignalPlacement => caught += 1,
                Err(d) => panic!("seed {seed}: unexpected divergence {d}"),
                Ok(_) => {}
            }
        }
        assert!(
            caught > 0,
            "the injected signal-merge fault must be detected on some seed"
        );
    }
}
