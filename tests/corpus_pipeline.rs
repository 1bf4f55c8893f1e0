//! End-to-end pipeline tests over the checked-in `.hir` corpus: every file enters through
//! the frontend and flows through profiling, HELIX analysis, timing simulation, and (for a
//! representative program) the transformation + real-thread parallel executor.

use helix::analysis::LoopNestingGraph;
use helix::core::{transform, Helix, HelixConfig};
use helix::ir::Machine;
use helix::profiler::profile_program;
use helix::runtime::ParallelExecutor;
use helix::simulator::{simulate_program, SimConfig};

#[test]
fn every_corpus_program_flows_through_the_whole_pipeline() {
    let programs = helix::workloads::load_corpus().expect("corpus loads");
    assert!(programs.len() >= 6);
    for (name, module, main) in programs {
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program(&module, &nesting, main, &[])
            .unwrap_or_else(|e| panic!("{name} fails to profile: {e}"));
        assert!(profile.total_cycles > 0, "{name}: empty profile");
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        assert!(
            !output.plans.is_empty(),
            "{name}: no candidate loops reached the analysis"
        );
        let sim = simulate_program(&output, &profile, &SimConfig::helix_6_cores());
        assert!(sim.speedup > 0.0, "{name}: nonsensical speedup");
        assert!(
            sim.speedup <= 6.0 + 1e-9,
            "{name}: speedup {} beyond the core count",
            sim.speedup
        );
    }
}

#[test]
fn corpus_wins_and_losses_match_their_design() {
    let speedup_of = |name: &str| {
        let (module, main) = helix::workloads::corpus::load(name).expect("loads");
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program(&module, &nesting, main, &[]).expect("runs");
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        simulate_program(&output, &profile, &SimConfig::helix_6_cores()).speedup
    };
    // The DOALL-heavy scenarios must profit from HELIX...
    assert!(speedup_of("sum_reduction") > 1.5);
    assert!(speedup_of("stencil") > 1.5);
    assert!(speedup_of("array_transform") > 1.2);
    // ...while the hostile irregular-branch scenario demonstrates the Figure 12
    // mis-selection phenomenon (documented in the corpus file itself).
    assert!(speedup_of("irregular_branch") < 1.0);
}

#[test]
fn transformed_corpus_reduction_runs_correctly_in_parallel() {
    let (module, main) = helix::workloads::corpus::load("sum_reduction").expect("loads");
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program(&module, &nesting, main, &[]).expect("runs");
    let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
    let mut machine = Machine::new(&module);
    let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
    let plan = output
        .selected_plans()
        .into_iter()
        .filter(|p| p.func == main)
        .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
        .expect("the reduction loop is selected");
    let transformed = transform::apply(&module, plan);
    helix::ir::verify_module(&transformed.module).expect("transformed module verifies");
    let got = ParallelExecutor::new(4)
        .run(&transformed, &[])
        .expect("parallel execution succeeds")
        .unwrap()
        .as_int();
    assert_eq!(expected, got, "parallel execution diverged");
}

#[test]
fn interprocedural_corpus_program_populates_the_nesting_graph() {
    let (module, main) = helix::workloads::corpus::load("nested_helper").expect("loads");
    let nesting = LoopNestingGraph::new(&module);
    assert!(
        nesting.len() >= 2,
        "caller and callee loops must both be candidates"
    );
    let profile = profile_program(&module, &nesting, main, &[]).expect("runs");
    // The helper's inner loop must have executed under the outer loop.
    assert!(
        !profile.dynamic_edges.is_empty(),
        "the dynamic nesting graph must connect caller loop to callee loop"
    );
}

/// A measured-like configuration: the shape `CalibrationProfile::helix_config` produces on
/// a host where a cross-thread signal costs a scheduler handoff (hundreds to thousands of
/// model cycles) and no helper-thread prefetching exists. Pinned to fixed numbers so the
/// test is machine-independent.
fn measured_like_config() -> HelixConfig {
    let mut config = HelixConfig::i7_980x()
        .without_helper_threads()
        .without_prefetch_balancing()
        .with_selection_latencies(1500, 30);
    config.signal_latency_unprefetched = 1500;
    config.signal_latency_prefetched = 30;
    config.word_transfer_latency = 1500;
    config.config_overhead = 4000;
    config
}

#[test]
fn nest_flip_selection_flips_between_paper_and_measured_costs() {
    let (module, main) = helix::workloads::corpus::load("nest_flip").expect("loads");
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program(&module, &nesting, main, &[]).expect("runs");

    let paper = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
    let measured_helix = Helix::new(measured_like_config());
    let measured = measured_helix.analyze(&module, &profile);

    // Paper-constant pricing keeps the hot signal-bound accumulator A; measured pricing
    // drops it (24576 signal pairs at a measured cross-thread latency drown its savings)
    // and keeps only the heavy-iteration loop B.
    assert!(!paper.selection.is_empty() && !measured.selection.is_empty());
    assert_ne!(
        paper.selection.selected, measured.selection.selected,
        "the witness must select differently under the two pricings"
    );
    assert!(
        measured
            .selection
            .selected
            .is_subset(&paper.selection.selected),
        "measured pricing must drop the signal-bound loop, not invent new ones"
    );
    // The loop that flipped off is the *hottest* paper-selected loop — the one the bench
    // would have parallelized under paper constants.
    let hottest_paper = *paper
        .selection
        .selected
        .iter()
        .max_by_key(|k| profile.loop_profile(**k).cycles)
        .unwrap();
    assert!(
        !measured.selection.is_selected(hottest_paper),
        "the hot signal-bound loop must flip off under measured pricing"
    );

    // The explain report shows the flip: its paper column is the paper selection, and its
    // calibrated-lowered column (the candidate plans re-priced from their lowered runtime
    // images) agrees with the measured choice.
    let loops =
        helix::simulator::explain(&module, main, &[], &profile, &paper, &measured_helix, 1.0);
    let column = |pick: fn(&helix::simulator::LoopExplanation) -> bool| {
        loops
            .iter()
            .filter(|l| pick(l))
            .map(|l| l.key)
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(column(|l| l.paper.selected), paper.selection.selected);
    assert!(loops.iter().any(|l| l.paper.selected != l.lowered.selected));
    assert_eq!(column(|l| l.lowered.selected), measured.selection.selected);

    // Under measured costs the measured choice must simulate faster than the paper choice
    // — the whole point of recalibrating.
    let sim_config = helix::simulator::SimConfig {
        helix: measured_like_config(),
        mode: helix::core::PrefetchMode::None,
    };
    let with_paper_choice = helix::simulator::simulate_program_with_selection(
        &measured,
        &profile,
        &sim_config,
        Some(&paper.selection.selected),
    );
    let with_measured_choice = helix::simulator::simulate_program(&measured, &profile, &sim_config);
    assert!(
        with_measured_choice.speedup > with_paper_choice.speedup,
        "measured choice ({:.3}x) must beat the paper choice ({:.3}x) under measured costs",
        with_measured_choice.speedup,
        with_paper_choice.speedup
    );
}

/// Every fused superinstruction form the runtime keeps (today only the RMW) must fire on
/// some plan: a form no program reaches is dead code in the threaded decoder and its
/// handlers. Lowers every candidate plan (selected or not) of the corpus
/// programs and the SPEC stand-ins, and counts each form through
/// `LoopImage::fusion_summary`.
#[test]
fn every_fused_form_fires_on_some_plan() {
    use helix::runtime::ParallelImage;
    use std::collections::BTreeMap;

    let mut programs = helix::workloads::load_corpus().expect("corpus loads");
    for bench in helix::workloads::all_benchmarks() {
        let (module, main) = bench.build();
        programs.push((format!("spec/{}", bench.name), module, main));
    }
    let helix_driver = Helix::new(HelixConfig::i7_980x());
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut plans = 0;
    for (name, module, main) in &programs {
        let (_profile, output) = helix_driver
            .profile_and_analyze(module, *main, &[], helix::ir::interp::DEFAULT_FUEL)
            .unwrap_or_else(|e| panic!("{name}: profiling failed: {e}"));
        for plan in output.plans.values() {
            let image = ParallelImage::lower(&transform::apply(module, plan));
            plans += 1;
            let summary = image.loop_image.fusion_summary();
            let fields = summary.split(" / ").next().expect("summary has counts");
            let words: Vec<&str> = fields.split_whitespace().collect();
            for pair in words.chunks(2) {
                let n: u64 = pair[1].parse().expect("count after each form name");
                *counts.entry(pair[0].to_string()).or_default() += n;
            }
        }
    }
    assert!(plans >= 100, "only {plans} plans lowered");
    let never: Vec<&String> = counts
        .iter()
        .filter(|(_, n)| **n == 0)
        .map(|(k, _)| k)
        .collect();
    assert!(
        never.is_empty(),
        "fused forms no plan reaches: {never:?} (counts over {plans} plans: {counts:?})"
    );
}

#[test]
fn fixed_programs_keep_their_loop_and_segment_counts() {
    // Per program: candidate loops, selected loops, and over every candidate plan the
    // synchronized segments, their wait points and their signal points. Recorded when the
    // closing pass put a wait before every signal and Theorem 1 stopped releasing segments
    // (mcf, gzip, vpr, crafty, parser, gap, vortex, bzip2 and twolf each keep one more
    // segment; no selection changed); later changes must leave them as is.
    let expected: [(&str, [usize; 5]); 25] = [
        ("array_transform", [2, 1, 2, 4, 4]),
        ("art", [7, 3, 7, 14, 14]),
        ("blend_mix", [1, 1, 1, 2, 2]),
        ("hash_sweep", [1, 1, 1, 2, 2]),
        ("irregular_branch", [2, 1, 2, 4, 4]),
        ("mcf", [7, 3, 8, 18, 16]),
        ("nest_flip", [3, 2, 3, 6, 5]),
        ("nested_helper", [2, 0, 2, 4, 4]),
        ("pointer_chase", [2, 2, 2, 4, 3]),
        ("scratch_fold", [1, 1, 1, 2, 2]),
        ("stencil", [3, 1, 3, 6, 6]),
        ("sum_reduction", [1, 1, 1, 2, 2]),
        ("spec/gzip", [6, 3, 7, 16, 15]),
        ("spec/vpr", [7, 1, 8, 18, 17]),
        ("spec/mesa", [5, 3, 5, 10, 10]),
        ("spec/art", [7, 3, 7, 14, 14]),
        ("spec/mcf", [7, 3, 8, 18, 16]),
        ("spec/equake", [5, 3, 5, 10, 10]),
        ("spec/crafty", [6, 3, 7, 16, 15]),
        ("spec/ammp", [6, 5, 6, 12, 12]),
        ("spec/parser", [7, 3, 8, 18, 16]),
        ("spec/gap", [7, 4, 8, 18, 16]),
        ("spec/vortex", [7, 2, 8, 18, 17]),
        ("spec/bzip2", [6, 3, 7, 16, 15]),
        ("spec/twolf", [7, 4, 8, 18, 16]),
    ];
    let mut programs = helix::workloads::load_corpus().expect("corpus loads");
    for bench in helix::workloads::all_benchmarks() {
        let (module, main) = bench.build();
        programs.push((format!("spec/{}", bench.name), module, main));
    }
    let helix_driver = Helix::new(HelixConfig::i7_980x());
    let mut got = Vec::new();
    for (name, module, main) in &programs {
        let (_profile, output) = helix_driver
            .profile_and_analyze(module, *main, &[], helix::ir::interp::DEFAULT_FUEL)
            .unwrap_or_else(|e| panic!("{name}: profiling failed: {e}"));
        let synchronized = output
            .plans
            .values()
            .flat_map(|plan| &plan.segments)
            .filter(|s| s.synchronized);
        let mut counts = [output.plans.len(), output.selection.selected.len(), 0, 0, 0];
        for segment in synchronized {
            counts[2] += 1;
            counts[3] += segment.wait_points.len();
            counts[4] += segment.signal_points.len();
        }
        got.push((name.as_str(), counts));
    }
    assert_eq!(got, expected);
}
