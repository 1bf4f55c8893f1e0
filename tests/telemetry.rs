//! Runtime-telemetry validation with the requested worker count forced (the `hardware`
//! override) whatever the host.
//!
//! Telemetry must be an *observer*: enabling it cannot change results, and the event
//! streams it produces must be structurally well-formed — every worker's `WaitBegin`/
//! `WaitEnd` events balance, and under full tracing with no ring drops the recorded
//! iteration claims across all workers form a contiguous permutation (no iteration runs
//! twice, none is skipped). The fuzz-oracle test drives generated programs through the
//! whole stack with telemetry on and demands zero divergences at 1/2/4/6 threads.

use helix::analysis::LoopNestingGraph;
use helix::core::{transform, Helix, HelixConfig, TransformedProgram};
use helix::gen::{differential_check, generate, telemetry_violations, GenConfig, OracleConfig};
use helix::ir::builder::{FunctionBuilder, ModuleBuilder};
use helix::ir::{BinOp, Machine, Operand};
use helix::profiler::profile_program_image;
use helix::runtime::{DispatchTier, EventKind, ParallelExecutor, ParallelImage, TelemetryMode};

/// Builds an accumulator whose loop carries a synchronized dependence (same shape as
/// `parallel_stress.rs`): every iteration loads, mixes and stores one global cell.
fn accumulator(n: i64) -> (helix::ir::Module, helix::ir::FuncId, TransformedProgram) {
    let mut mb = ModuleBuilder::new("m");
    let acc = mb.add_global("acc", 1);
    let mut fb = FunctionBuilder::new("main", 0);
    let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
    let mixed = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(lh.induction_var),
        Operand::int(2654435761),
    );
    let x = fb.binary_to_new(BinOp::Xor, Operand::Var(mixed), Operand::int(0x9e37));
    let cur = fb.new_var();
    fb.load(cur, Operand::Global(acc), 0);
    let nextv = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(x));
    fb.store(Operand::Global(acc), 0, Operand::Var(nextv));
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
    let plan = output
        .plans
        .values()
        .find(|p| p.synchronized_segments() > 0)
        .expect("synchronized plan")
        .clone();
    let transformed = transform::apply(&module, &plan);
    (module, main, transformed)
}

#[test]
fn full_traces_are_well_formed_at_every_thread_count() {
    // Small enough that every worker's event ring stays lossless, so the structural
    // checks (balanced waits, claim permutation) apply with full force.
    let (module, main, transformed) = accumulator(256);
    let mut seq = Machine::new(&module);
    let expected = seq.call(main, &[]).unwrap();
    let pimg = ParallelImage::lower(&transformed);

    for threads in [1usize, 2, 4, 6] {
        let mut executor = ParallelExecutor::new(threads).with_telemetry(TelemetryMode::Full);
        executor.hardware = threads;
        let run = executor.run_parallel_out(&pimg, &[]);
        let got = run
            .result
            .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        assert_eq!(got, expected, "telemetry changed the result at {threads}t");
        let report = run.report.expect("telemetry enabled, report expected");
        assert_eq!(report.workers.len(), executor.effective_workers());

        for w in &report.workers {
            assert_eq!(
                w.events_dropped, 0,
                "{threads}t worker {}: 256 iterations must fit the ring",
                w.worker
            );
        }
        let violations = telemetry_violations(&report);
        assert!(
            violations.is_empty(),
            "{threads}t: malformed stream: {violations:?}"
        );

        // The claim permutation, asserted directly: every loop iteration 0..n appears
        // exactly once across all workers (the executor may legally claim a few
        // iterations past the exit; those cancel and never run).
        let mut claims: Vec<u64> = report
            .workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| e.kind == EventKind::Claim)
            .map(|e| e.iteration)
            .collect();
        claims.sort_unstable();
        claims.dedup();
        let n = report.total_iterations();
        assert!(n >= 256, "{threads}t: {n} iterations ran, expected >= 256");
        assert!(
            claims.len() as u64 >= n,
            "{threads}t: {} distinct claims for {n} iterations",
            claims.len()
        );
        for (ix, &it) in claims.iter().enumerate() {
            assert_eq!(it, ix as u64, "{threads}t: claim stream has a hole");
        }
    }
}

#[test]
fn dispatch_tiers_produce_identical_telemetry() {
    // Telemetry must be dispatch-tier-agnostic: the JIT's patched tables drive the exact
    // same hooks as the plain threaded ones. With the worker count forced the
    // structural invariants (balanced waits, claim permutation) must hold in both tiers,
    // and with one worker — where the schedule is deterministic — the counters must be
    // *identical*, not merely well-formed.
    let (module, main, transformed) = accumulator(256);
    let mut seq = Machine::new(&module);
    let expected = seq.call(main, &[]).unwrap();
    let pimg = ParallelImage::lower(&transformed);

    for threads in [1usize, 2, 4] {
        let run_with = |tier: DispatchTier| {
            let mut executor = ParallelExecutor::new(threads)
                .with_telemetry(TelemetryMode::Full)
                .with_dispatch_tier(tier);
            executor.hardware = threads;
            let run = executor.run_parallel_out(&pimg, &[]);
            let got = run
                .result
                .unwrap_or_else(|e| panic!("{threads}t/{tier}: {e}"));
            assert_eq!(
                got, expected,
                "{tier} tier changed the result at {threads}t"
            );
            run.report.expect("telemetry enabled, report expected")
        };
        let threaded = run_with(DispatchTier::Threaded);
        let jit = run_with(DispatchTier::Jit);

        for (tier, report) in [("threaded", &threaded), ("jit", &jit)] {
            let violations = telemetry_violations(report);
            assert!(
                violations.is_empty(),
                "{threads}t/{tier}: unbalanced or malformed stream: {violations:?}"
            );
            assert!(
                report.total_iterations() >= 256,
                "{threads}t/{tier}: only {} iterations recorded",
                report.total_iterations()
            );
        }

        if threads == 1 {
            // Single worker, in-order schedule: every counter the tiers produce must
            // match exactly — claims, executed bodies, sampled bodies, recorded events.
            let totals = |r: &helix::runtime::TelemetryReport| {
                let w = &r.workers[0];
                (
                    w.counters.claims,
                    w.counters.iterations,
                    w.counters.sampled_iterations,
                    w.events.len(),
                    w.events_dropped,
                )
            };
            assert_eq!(
                totals(&threaded),
                totals(&jit),
                "1t: tiers disagree on deterministic counters"
            );
            // And the event streams agree kind-for-kind and iteration-for-iteration
            // (timestamps naturally differ).
            let kinds = |r: &helix::runtime::TelemetryReport| {
                r.workers[0]
                    .events
                    .iter()
                    .map(|e| (e.kind, e.iteration))
                    .collect::<Vec<_>>()
            };
            assert_eq!(kinds(&threaded), kinds(&jit), "1t: event streams diverge");
        }
    }
}

#[test]
fn sampled_mode_keeps_counters_exact_with_fewer_events() {
    let (_module, _main, transformed) = accumulator(512);
    let pimg = ParallelImage::lower(&transformed);
    let run_with = |mode: TelemetryMode| {
        let mut executor = ParallelExecutor::new(4).with_telemetry(mode);
        executor.hardware = 4;
        let run = executor.run_parallel_out(&pimg, &[]);
        run.result.unwrap();
        run.report.expect("report")
    };
    let full = run_with(TelemetryMode::Full);
    let sampled = run_with(TelemetryMode::Sampled(64));

    // Counters are exact in both modes: every iteration is counted whether or not its
    // events were sampled.
    assert_eq!(full.total_iterations(), sampled.total_iterations());
    let total = |r: &helix::runtime::TelemetryReport| {
        r.workers.iter().map(|w| w.counters.claims).sum::<u64>()
    };
    assert_eq!(total(&full), total(&sampled));

    // Sampling records strictly fewer events, and stays structurally sound.
    let events = |r: &helix::runtime::TelemetryReport| {
        r.workers
            .iter()
            .map(|w| w.events.len() as u64 + w.events_dropped)
            .sum::<u64>()
    };
    assert!(
        events(&sampled) < events(&full),
        "sampled({}) vs full({})",
        events(&sampled),
        events(&full)
    );
    let violations = telemetry_violations(&sampled);
    assert!(
        violations.is_empty(),
        "sampled stream malformed: {violations:?}"
    );
}

#[test]
fn disabled_telemetry_produces_no_report() {
    let (_module, _main, transformed) = accumulator(64);
    let mut executor = ParallelExecutor::new(2);
    executor.hardware = 2;
    let run = executor.run_parallel_out(&ParallelImage::lower(&transformed), &[]);
    run.result.unwrap();
    assert!(
        run.report.is_none(),
        "disabled telemetry must not aggregate"
    );
}

#[test]
fn oracle_with_telemetry_sees_zero_divergences_across_thread_counts() {
    // Satellite check: enabling telemetry inside the differential oracle (which forces
    // the requested worker count) must cause 0 divergences over a seed sweep at 1/2/4/6
    // threads — and the oracle now also validates each traced run's event streams.
    let gen_config = GenConfig::fuzz();
    let oracle = OracleConfig {
        threads: vec![1, 2, 4, 6],
        repeats: 1,
        executor: OracleConfig::default()
            .executor
            .with_telemetry(TelemetryMode::Full),
        ..OracleConfig::default()
    };
    let mut exercised = 0;
    for seed in 0..10 {
        let gp = generate(seed, &gen_config);
        let report = differential_check(&gp.module, gp.main, &oracle)
            .unwrap_or_else(|d| panic!("seed {seed} diverged under telemetry: {d}"));
        if !report.parallel_skipped {
            exercised += 1;
        }
    }
    assert!(
        exercised > 0,
        "the sweep should exercise the traced parallel stage at least once"
    );
}
