//! Property tests over generated programs: the HELIX analyses and the transformation must
//! hold their invariants for arbitrary (well-formed) inputs, and the transformed code must
//! preserve sequential semantics.
//!
//! Inputs come from `helix::gen::generate` — the same seeded structured generator behind
//! `helix fuzz` — over a fixed seed range, so the properties see nested loop hierarchies,
//! pointer chasing, calls with in-loop `ret`, reductions and irregular branching instead of
//! a single hand-rolled loop shape. Every failure names its seed: `generate(seed,
//! &GenConfig::small())` rebuilds the program, and `helix fuzz --seeds 1 --seed-start <seed>
//! --gen-config small` runs it through the differential oracle. The semantic property also
//! shrinks a failing module to a minimal repro before panicking.

use helix::analysis::{Cfg, DomTree, LoopForest, LoopNestingGraph, PointerAnalysis};
use helix::core::{transform, Helix, HelixConfig};
use helix::gen::{generate, shrink_module, GenConfig, ShrinkOptions};
use helix::ir::printer::format_module;
use helix::ir::{verify_module, GlobalId, Machine, Module, Operand};
use helix::profiler::profile_program;

/// Programs each property checks: seeds `1..=CASES` of the `small` preset.
const CASES: u64 = 24;

#[test]
fn generated_programs_verify_and_analyses_hold_invariants() {
    for seed in 1..=CASES {
        let gp = generate(seed, &GenConfig::small());
        verify_module(&gp.module)
            .unwrap_or_else(|e| panic!("seed {seed}: generated module does not verify: {e}"));
        for function in &gp.module.functions {
            let cfg = Cfg::new(function);
            let dom = DomTree::new(function, &cfg);
            // Dominator invariants: the entry dominates every reachable block.
            for block in function.block_ids() {
                if cfg.is_reachable(block) {
                    assert!(
                        dom.dominates(function.entry, block),
                        "seed {seed}: `{}` entry does not dominate {block:?}",
                        function.name
                    );
                }
            }
            let forest = LoopForest::new(function, &cfg, &dom);
            // Loop invariants: headers are members of their loops; children are subsets of
            // parents.
            for l in forest.iter() {
                assert!(
                    l.contains(l.header),
                    "seed {seed}: `{}` loop header outside its loop",
                    function.name
                );
                if let Some(parent) = l.parent {
                    let p = forest.get(parent);
                    assert!(
                        l.blocks.iter().all(|b| p.contains(*b)),
                        "seed {seed}: `{}` child loop leaves its parent",
                        function.name
                    );
                }
            }
        }
        // Pointer analysis terminates and never denies aliasing of identical operands.
        let pa = PointerAnalysis::new(&gp.module);
        let global = Operand::Global(GlobalId::new(0));
        assert!(
            pa.may_alias(gp.main, global, 0, gp.main, global, 0),
            "seed {seed}: a global does not alias itself"
        );
    }
}

#[test]
fn transformation_preserves_sequential_semantics() {
    for seed in 1..=CASES {
        let gp = generate(seed, &GenConfig::small());
        let nesting = LoopNestingGraph::new(&gp.module);
        let profile = profile_program(&gp.module, &nesting, gp.main, &[])
            .unwrap_or_else(|e| panic!("seed {seed}: profiling run fails: {e}"));
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&gp.module, &profile);
        let mut m = Machine::new(&gp.module);
        let expected = m
            .call(gp.main, &[])
            .unwrap_or_else(|e| panic!("seed {seed}: sequential run fails: {e}"));
        // Whatever plans exist for the entry, materializing them must keep the module
        // verifying and the sequential result identical (Wait/Signal are sequential no-ops,
        // demotion is sound).
        for plan in output.plans.values().filter(|p| p.func == gp.main) {
            let t = transform::apply(&gp.module, plan);
            verify_module(&t.module).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: transformed loop {} does not verify: {e}",
                    plan.loop_id
                )
            });
            let mut m2 = Machine::new(&t.module);
            let got = m2.call(t.parallel_func, &[]).unwrap_or_else(|e| {
                panic!("seed {seed}: transformed loop {} fails: {e}", plan.loop_id)
            });
            if got != expected {
                // Minimize before failing: the shrunk text is the actionable repro.
                let loop_id = plan.loop_id;
                let mut still_failing = |candidate: &Module| {
                    let Some(main) = candidate.function_by_name("main") else {
                        return false;
                    };
                    let mut seq = Machine::new(candidate);
                    seq.set_fuel(2_000_000);
                    let Ok(want) = seq.call(main, &[]) else {
                        return false;
                    };
                    let nesting = LoopNestingGraph::new(candidate);
                    let Ok(profile) = profile_program(candidate, &nesting, main, &[]) else {
                        return false;
                    };
                    let output = Helix::new(HelixConfig::i7_980x()).analyze(candidate, &profile);
                    let Some(plan) = output
                        .plans
                        .values()
                        .find(|p| p.func == main && p.loop_id == loop_id)
                    else {
                        return false;
                    };
                    let t = transform::apply(candidate, plan);
                    let mut par = Machine::new(&t.module);
                    par.set_fuel(2_000_000);
                    par.call(t.parallel_func, &[])
                        .map(|v| v != want)
                        .unwrap_or(false)
                };
                let shrunk = shrink_module(
                    &gp.module,
                    "main",
                    &mut still_failing,
                    &ShrinkOptions::default(),
                );
                panic!(
                    "seed {seed}: transformed loop {loop_id} computes {got:?}, expected \
                     {expected:?}\nshrunk repro ({} -> {} instrs):\n{}",
                    shrunk.stats.instrs_before,
                    shrunk.stats.instrs_after,
                    format_module(&shrunk.module)
                );
            }
        }
    }
}
