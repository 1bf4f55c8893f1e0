//! Differential tests between the two execution engines.
//!
//! The flat-bytecode engine (`helix_ir::exec` over a lowered `ExecImage`) must be
//! observationally identical to the reference tree-walking interpreter (`helix_ir::interp`):
//! same return values, same [`ExecStats`] (instruction counts, cycles, loads/stores/calls,
//! block counts), same final memory state (starting from an initial memory that holds only
//! the null word and the globals), and — because the analysis pipeline consumes
//! profiles — the same [`ProgramProfile`] when both engines run under their profilers.
//!
//! Every checked-in corpus program and every synthetic workload kernel goes through both
//! engines here; any divergence is a lowering or dispatch bug.

use helix::analysis::LoopNestingGraph;
use helix::ir::{ExecImage, ExecStats, ImageMachine, Machine, Memory, Module, Value};
use helix::profiler::{profile_program, profile_program_image};

/// Runs `main` on both engines and asserts identical observable behaviour; returns both
/// engines' outcomes for further checks.
fn assert_engines_agree(
    name: &str,
    module: &Module,
    main: helix::ir::FuncId,
    args: &[Value],
) -> (Option<Value>, ExecStats) {
    let image = ExecImage::lower(module);
    assert_eq!(
        image.initial_memory.words().len() as i64,
        image.initial_memory.heap_base(),
        "{name}: initial memory holds more than the null word and the globals"
    );
    let mut tree = Machine::new(module);
    let mut flat = ImageMachine::new(&image);
    let tree_result = tree
        .call(main, args)
        .unwrap_or_else(|e| panic!("{name}: tree-walk engine failed: {e}"));
    let flat_result = flat
        .call(main, args)
        .unwrap_or_else(|e| panic!("{name}: bytecode engine failed: {e}"));
    assert_eq!(tree_result, flat_result, "{name}: return values differ");
    assert_eq!(tree.stats(), flat.stats(), "{name}: ExecStats differ");
    let tree_memory: &Memory = tree.memory();
    assert_eq!(tree_memory, flat.memory(), "{name}: final memory differs");
    (flat_result, flat.stats())
}

#[test]
fn every_corpus_program_is_identical_on_both_engines() {
    let programs = helix::workloads::load_corpus().expect("corpus loads");
    assert!(programs.len() >= 6, "corpus went missing");
    for (name, module, main) in &programs {
        let (result, stats) = assert_engines_agree(name, module, *main, &[]);
        assert!(result.is_some(), "{name}: corpus programs return a value");
        assert!(stats.instrs > 0, "{name}: nothing executed");
    }
}

#[test]
fn every_workload_kernel_is_identical_on_both_engines() {
    for bench in helix::workloads::all_benchmarks() {
        let (module, main) = bench.build();
        let (result, stats) = assert_engines_agree(bench.name, &module, main, &[]);
        assert!(
            result.is_some(),
            "{}: workloads return a checksum",
            bench.name
        );
        assert!(stats.blocks > 0);
    }
}

#[test]
fn corpus_profiles_are_identical_on_both_engines() {
    for (name, module, main) in helix::workloads::load_corpus().expect("corpus loads") {
        let nesting = LoopNestingGraph::new(&module);
        let tree = profile_program(&module, &nesting, main, &[])
            .unwrap_or_else(|e| panic!("{name}: tree profiler failed: {e}"));
        let flat = profile_program_image(&module, &nesting, main, &[])
            .unwrap_or_else(|e| panic!("{name}: image profiler failed: {e}"));
        assert_eq!(tree, flat, "{name}: profiles differ between engines");
    }
}

#[test]
fn workload_profiles_are_identical_on_both_engines() {
    for bench in helix::workloads::all_benchmarks() {
        let (module, main) = bench.build();
        let nesting = LoopNestingGraph::new(&module);
        let tree = profile_program(&module, &nesting, main, &[]).unwrap();
        let flat = profile_program_image(&module, &nesting, main, &[]).unwrap();
        assert_eq!(tree, flat, "{}: profiles differ", bench.name);
    }
}

#[test]
fn fuel_exhaustion_points_are_identical() {
    // Truncated runs must stop at exactly the same dynamic instruction on both engines.
    let (module, main) = helix::workloads::all_benchmarks()[0].build();
    let image = ExecImage::lower(&module);
    for fuel in [0u64, 1, 100, 10_000] {
        let mut tree = Machine::new(&module);
        tree.set_fuel(fuel);
        let mut flat = ImageMachine::new(&image);
        flat.set_fuel(fuel);
        assert_eq!(
            tree.call(main, &[]),
            flat.call(main, &[]),
            "fuel {fuel}: outcomes differ"
        );
        assert_eq!(tree.stats(), flat.stats(), "fuel {fuel}: stats differ");
        assert_eq!(tree.memory(), flat.memory(), "fuel {fuel}: memory differs");
    }
}

#[test]
fn regression_repros_converge_on_main_and_still_exercise_the_merge_path() {
    // The auto-shrunk repros under corpus/regressions/ pin the PR 2 Step-6 signal-merge
    // soundness bug. On the fixed pipeline they must (a) agree between both engines,
    // (b) produce the sequential result on real threads at every thread count, and
    // (c) still trip the structural signal-placement check when the pre-fix behaviour is
    // re-injected — if a refactor ever makes a repro stop exercising the merge path, this
    // fails and the repro must be regenerated with `helix fuzz --inject-fault`.
    use helix::core::HelixConfig;
    use helix::gen::{differential_check, signal_placement_violations, OracleConfig};
    use helix::profiler::profile_program_image;

    let repros = helix::workloads::load_regressions().expect("regressions load");
    assert!(
        repros.len() >= 2,
        "expected at least two checked-in regression repros, found {}",
        repros.len()
    );
    for (name, module, main) in &repros {
        // (a) + (b): the full differential oracle on the production configuration.
        let report = differential_check(module, *main, &OracleConfig::default())
            .unwrap_or_else(|d| panic!("{name}: diverges on the fixed pipeline: {d}"));
        assert!(!report.errored, "{name}: repros must run to completion");
        assert!(
            !report.parallel_skipped,
            "{name}: repros must exercise the parallel executor"
        );
        // (c): the injected fault must still produce the unsound placement.
        let nesting = helix::analysis::LoopNestingGraph::new(module);
        let profile = profile_program_image(module, &nesting, *main, &[]).expect("profiles");
        let unsound = helix::core::Helix::new(HelixConfig::i7_980x().with_unsound_union_merge())
            .analyze(module, &profile);
        assert!(
            !signal_placement_violations(module, &unsound).is_empty(),
            "{name}: no longer exercises the signal-merge path; regenerate it"
        );
        // And the fixed pipeline must place every signal after its endpoints.
        let sound = helix::core::Helix::new(HelixConfig::i7_980x()).analyze(module, &profile);
        assert!(
            signal_placement_violations(module, &sound).is_empty(),
            "{name}: the fixed pipeline itself violates signal placement"
        );
    }
}

#[test]
fn parallel_execution_matches_the_bytecode_sequential_result() {
    // `helix run --parallel` correctness over the corpus: for every corpus program whose
    // entry function gets a selected plan, the parallel image-engine execution must produce
    // the sequential result.
    use helix::core::{transform, Helix, HelixConfig};
    use helix::runtime::ParallelExecutor;
    for (name, module, main) in helix::workloads::load_corpus().expect("corpus loads") {
        let helix_driver = Helix::new(HelixConfig::i7_980x());
        let (profile, output) = helix_driver
            .profile_and_analyze(&module, main, &[], helix::ir::interp::DEFAULT_FUEL)
            .unwrap_or_else(|e| panic!("{name}: profiling failed: {e}"));
        let Some(plan) = output
            .selected_plans()
            .into_iter()
            .filter(|p| p.func == main)
            .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
        else {
            continue;
        };
        let transformed = transform::apply(&module, plan);
        let image = ExecImage::lower(&module);
        let mut machine = ImageMachine::new(&image);
        let expected = machine.call(main, &[]).unwrap();
        for threads in [1, 2, 4, 6] {
            let got = ParallelExecutor::new(threads)
                .run(&transformed, &[])
                .unwrap_or_else(|e| panic!("{name}: parallel run ({threads} threads): {e}"));
            assert_eq!(
                expected, got,
                "{name}: parallel diverged on {threads} threads"
            );
        }
    }
}

/// A counted loop whose even trips fold a 40-op chain into `@acc` inside a sequential
/// segment and whose odd trips skip it, after `hash_ops` ops of parallel hashing per trip.
fn conditional_rmw_hir(trips: u32, hash_ops: u32) -> String {
    let mut text = String::from(
        "module conditional_rmw\nglobal @g0 \"acc\" [1 words]\nfunc main(0 params, 9 vars) {\n\
         bb0: (entry)\n  %v0 = const 0\n  br bb1\nbb1:\n",
    );
    text += &format!("  %v1 = cmp.lt %v0, {trips}\n  condbr %v1, bb2, bb5\nbb2:\n");
    text += "  %v2 = mul %v0, 2654435761\n";
    for k in 0..hash_ops / 2 {
        text += &format!(
            "  %v2 = mul %v2, {}\n  %v2 = xor %v2, {}\n",
            31 + 2 * k,
            40503 + k
        );
    }
    text += "  %v3 = and %v0, 1\n  %v4 = cmp.eq %v3, 0\n  condbr %v4, bb3, bb4\nbb3:\n";
    text += "  %v7 = load [@g0 + 0]\n";
    for k in 0..20 {
        text += &format!("  %v7 = mul %v7, {}\n  %v7 = add %v7, %v2\n", 3 + 2 * k);
    }
    text += "  store [@g0 + 0], %v7\n  br bb4\nbb4:\n  %v0 = add %v0, 1\n  br bb1\n";
    text += "bb5:\n  %v7 = load [@g0 + 0]\n  ret %v7\n}\n";
    text
}

#[test]
fn a_trip_that_skips_its_segment_still_waits_before_it_signals() {
    // The odd trips never reach the segment's endpoints, yet they signal its dependence.
    // Without a `Wait` before that signal, odd trip i released trip i+1 into the segment
    // while trip i-1 was still inside it, and two workers interleaved their read-modify-
    // writes of `@acc`: wrong in most 2-worker runs. The closing pass makes every signal
    // wait on its predecessor first; the run must then match the sequential result.
    use helix::core::{transform, Helix, HelixConfig};
    use helix::runtime::{ParallelExecutor, ParallelImage};
    let module = helix::frontend::parse_and_verify(&conditional_rmw_hir(1000, 100))
        .expect("the witness parses");
    let main = module.function_by_name("main").expect("has main");
    let expected = ImageMachine::new(&ExecImage::lower(&module))
        .call(main, &[])
        .unwrap();
    let (profile, output) = Helix::new(HelixConfig::i7_980x())
        .profile_and_analyze(&module, main, &[], helix::ir::interp::DEFAULT_FUEL)
        .expect("profiles");
    let (plan, selected) = output.hottest_plan(main, &profile).expect("has a plan");
    assert!(selected, "the hashing loop pays off");
    let image = ParallelImage::lower(&transform::apply(&module, plan));
    let executor = ParallelExecutor {
        hardware: 2,
        ..ParallelExecutor::new(2)
    };
    for run in 0..40 {
        let got = executor.run_parallel_out(&image, &[]).result.expect("runs");
        assert_eq!(expected, got, "run {run}: 2 workers diverged");
    }
}

#[test]
fn generated_profiles_are_identical_on_both_engines() {
    // Engine and profile stages only: no analysis, no threads, so the sweep is deterministic.
    // The bytecode profiler counts blocks, not ops; over every generated shape (nested and
    // interprocedural loops, recursion, in-loop returns) it must still report exactly the
    // tree-walking profiler's per-instruction counts and cycles, and exactly the cycles the
    // engine charged.
    use helix::gen::{generate, GenConfig};
    use helix::profiler::ImageProfiler;

    for (preset, config) in [
        ("small", GenConfig::small()),
        ("fuzz", GenConfig::fuzz()),
        ("pointer_heavy", GenConfig::pointer_heavy()),
    ] {
        for seed in 0..200 {
            let g = generate(seed, &config);
            let nesting = LoopNestingGraph::new(&g.module);
            let tree = profile_program(&g.module, &nesting, g.main, &[]);
            let image = ExecImage::lower(&g.module);
            let mut machine = ImageMachine::new(&image);
            let mut profiler = ImageProfiler::new(&image, &nesting);
            let ran = machine.call_observed(g.main, &[], &mut profiler);
            let tree = match (tree, ran) {
                (Ok(tree), Ok(_)) => tree,
                // Every caller discards the profile of a run that faulted.
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{preset}/{seed}: the engines fault differently");
                    continue;
                }
                (tree, ran) => panic!(
                    "{preset}/{seed}: one engine faults: {:?} vs {:?}",
                    tree.err(),
                    ran.err()
                ),
            };
            let flat = profiler.finish();
            assert_eq!(
                flat.total_cycles,
                machine.stats().cycles,
                "{preset}/{seed}: profile total differs from the engine's cycles"
            );
            assert_eq!(
                tree, flat,
                "{preset}/{seed}: profiles differ between engines"
            );
        }
    }
}
