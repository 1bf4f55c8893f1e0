//! The HELIX driver: analyze a whole program, build a parallelization plan per candidate
//! loop, and select the most profitable loops.

use crate::config::HelixConfig;
use crate::model::{LoopModelInput, PrefetchMode, SpeedupModel};
use crate::normalize::NormalizedLoop;
use crate::optimize::{close_signals, minimize_segments, minimize_signals_with};
use crate::plan::ParallelizedLoop;
use crate::schedule::schedule_prefetching;
use crate::segments::build_segments;
use crate::selection::{DynamicLoopGraph, LoopSelection};
use helix_analysis::{
    Cfg, InductionInfo, Liveness, LoopDdg, LoopNestingGraph, PointerAnalysis, ReachingDefs,
};
use helix_ir::{CostModel, FuncId, Function, Instr, Module, VarId};
use helix_profiler::{LoopKey, ProgramProfile};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The result of running the HELIX analysis over a program.
#[derive(Clone, Debug)]
pub struct HelixOutput {
    /// One plan per candidate loop that executed during profiling.
    pub plans: BTreeMap<LoopKey, ParallelizedLoop>,
    /// Model inputs derived from plan + profile, per candidate loop.
    pub model_inputs: BTreeMap<LoopKey, LoopModelInput>,
    /// Loop-carried fraction of each candidate loop's dependence graph.
    pub loop_carried_fraction: BTreeMap<LoopKey, f64>,
    /// Dynamic nesting depth of each candidate loop.
    pub nesting_depth: BTreeMap<LoopKey, usize>,
    /// The selected loops.
    pub selection: LoopSelection,
    /// The configuration used.
    pub config: HelixConfig,
    /// Total program cycles of the profiling run.
    pub program_cycles: u64,
}

/// A program carried through the whole pipeline in one call — profiled, analyzed, and (when
/// a loop qualified) transformed — keyed for content-addressed caching.
///
/// This is the unit the `helix serve` daemon caches: everything per-program the pipeline
/// computes, so a warm request pays only hash-lookup + execution. Produced by
/// [`Helix::prepare`].
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    /// Content hash of the module's canonical printed form + entry name (see
    /// [`content_hash`]). Two textually different `.hir` files that print canonically
    /// identical share a key.
    pub key: u64,
    /// The training run's profile.
    pub profile: ProgramProfile,
    /// The full analysis output (plans, selection, model inputs).
    pub output: HelixOutput,
    /// The transformed clone of the chosen plan, ready to lower; `None` when no candidate
    /// loop of the entry function exists (the program runs sequentially).
    pub transformed: Option<crate::transform::TransformedProgram>,
    /// Which loop the transform targets.
    pub plan_key: Option<LoopKey>,
}

/// Stable content hash of `module`'s canonical printed form, folded with `entry`.
///
/// The canonical form is [`helix_ir::printer::format_module`] — the same text the
/// round-tripping frontend guarantees `parse(print(m)) == m` for — so formatting,
/// comments and name sugar in the submitted source never split cache entries. FNV-1a,
/// 64-bit: stable across processes and platforms (unlike `DefaultHasher`, which is
/// randomly seeded per process and would make daemon cache keys unreproducible).
pub fn content_hash(module: &Module, entry: &str) -> u64 {
    let canonical = helix_ir::printer::format_module(module);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.bytes().chain([0u8]).chain(entry.bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The HELIX analysis driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct Helix {
    /// The transformation configuration.
    pub config: HelixConfig,
    /// The intra-core cost model used to price instructions and segments. Defaults to the
    /// paper's constants; the calibrated flow substitutes the measured per-class dispatch
    /// costs so Steps 2–6 and the prefetch scheduler price plans in real currency.
    pub cost: CostModel,
}

impl Helix {
    /// Creates a driver with the given configuration and the default (paper) cost model.
    pub fn new(config: HelixConfig) -> Self {
        Self {
            config,
            cost: CostModel::default(),
        }
    }

    /// Replaces the intra-core cost model (the calibrated flow passes measured costs).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// One-stop entry point: lowers `module` to a flat bytecode image, profiles a training
    /// run of `entry` with `args` on the runtime's engine
    /// ([`helix_profiler::profile_image_with_fuel`]), and runs the full analysis on the
    /// resulting profile.
    ///
    /// `fuel` bounds the profiling run's dynamic instruction count
    /// (use [`helix_ir::interp::DEFAULT_FUEL`] when in doubt).
    ///
    /// # Errors
    ///
    /// Returns the engine error if the profiling run faults or exhausts `fuel`.
    pub fn profile_and_analyze(
        &self,
        module: &Module,
        entry: helix_ir::FuncId,
        args: &[helix_ir::Value],
        fuel: u64,
    ) -> Result<(ProgramProfile, HelixOutput), helix_ir::interp::ExecError> {
        let nesting = LoopNestingGraph::new(module);
        let image = helix_ir::ExecImage::lower(module);
        let profile = helix_profiler::profile_image_with_fuel(&image, &nesting, entry, args, fuel)?;
        let output = self.analyze_with(module, &profile, &nesting);
        Ok((profile, output))
    }

    /// Cache-keyed pipeline entry point: profile → analyze → select → transform, one call.
    ///
    /// Picks the hottest *selected* plan of the entry function, falling back to the
    /// hottest candidate plan when selection rejected everything (so callers can still
    /// exercise the parallel runtime), and `None` when the entry has no candidate loop at
    /// all. The returned [`PreparedProgram`] carries the [`content_hash`] key the service
    /// caches it under.
    ///
    /// The profiling run trains on `args`: a cached entry's plan reflects the first-touch
    /// training arguments. That is a *performance* statement only — the transformation is
    /// semantics-preserving for any arguments, so executing a cached image with different
    /// arguments is always correct.
    ///
    /// # Errors
    ///
    /// Returns the engine error if the profiling run faults or exhausts `fuel`.
    pub fn prepare(
        &self,
        module: &Module,
        entry: helix_ir::FuncId,
        args: &[helix_ir::Value],
        fuel: u64,
    ) -> Result<PreparedProgram, helix_ir::interp::ExecError> {
        let key = content_hash(module, &module.function(entry).name);
        let (profile, output) = self.profile_and_analyze(module, entry, args, fuel)?;
        let chosen = output.hottest_plan(entry, &profile);
        let transformed = chosen.map(|(plan, _)| crate::transform::apply(module, plan));
        let plan_key = chosen.map(|(plan, _)| (plan.func, plan.loop_id));
        Ok(PreparedProgram {
            key,
            profile,
            output,
            transformed,
            plan_key,
        })
    }

    /// Runs Steps 1–8 on every profiled candidate loop of `module` and selects the loops to
    /// parallelize using the Section 2.2 algorithm.
    pub fn analyze(&self, module: &Module, profile: &ProgramProfile) -> HelixOutput {
        self.analyze_with(module, profile, &LoopNestingGraph::new(module))
    }

    /// [`Helix::analyze`] with the module's loop nesting graph already built.
    fn analyze_with(
        &self,
        module: &Module,
        profile: &ProgramProfile,
        nesting: &LoopNestingGraph,
    ) -> HelixOutput {
        let pointers = PointerAnalysis::new(module);
        let cost = self.cost;

        let mut plans = BTreeMap::new();
        let mut model_inputs = BTreeMap::new();
        let mut loop_carried_fraction = BTreeMap::new();
        let mut nesting_depth = BTreeMap::new();
        let mut function_facts: HashMap<FuncId, FunctionFacts> = HashMap::new();

        for node in nesting.iter() {
            let key: LoopKey = (node.func, node.loop_id);
            if !profile.executed(key) {
                continue;
            }
            let function = module.function(node.func);
            let facts: &FunctionFacts = function_facts
                .entry(node.func)
                .or_insert_with(|| FunctionFacts::new(function));
            let cfg = &facts.cfg;
            let forest = &nesting.forests[&node.func];
            let norm = NormalizedLoop::compute(function, cfg, forest, node.loop_id);
            let ddg = LoopDdg::compute_with(
                module,
                node.func,
                cfg,
                forest,
                node.loop_id,
                &pointers,
                &facts.reaching,
            );
            let induction = InductionInfo::compute(function, cfg, forest, node.loop_id);

            // Steps 2–4.
            let mut segments = build_segments(
                function,
                cfg,
                forest,
                node.loop_id,
                &norm,
                &ddg,
                &induction,
                &cost,
            );
            // The naive placement is counted closed too: without the closing pass's waits
            // it is not a sound baseline to measure Step 6 against.
            let mut naive = segments.clone();
            close_signals(&mut naive);
            let signals_before: u64 = naive
                .iter()
                .map(|s| (s.wait_points.len() + s.signal_points.len()) as u64)
                .sum();
            // Step 5.
            minimize_segments(function, &mut segments, &cost);
            // Step 6.
            if self.config.enable_signal_minimization {
                minimize_signals_with(
                    function,
                    cfg,
                    forest,
                    node.loop_id,
                    &mut segments,
                    self.config.unsound_union_merged_sync_points,
                );
            }
            // Loop-boundary live variables (live-ins, live-outs, iteration live-ins).
            let natural = forest.get(node.loop_id);
            let mut boundary: BTreeSet<VarId> = BTreeSet::new();
            let defined_in_loop: BTreeSet<VarId> = natural
                .blocks
                .iter()
                .flat_map(|b| function.block(*b).instrs.iter().filter_map(Instr::dst))
                .collect();
            // Live into the header but defined outside: live-in values.
            for v in facts.liveness.live_in(natural.header).iter() {
                let var = VarId::new(v as u32);
                if !defined_in_loop.contains(&var) {
                    boundary.insert(var);
                }
            }
            // Defined inside and live at an exit block: live-out values. Basic induction
            // variables stay in registers: the runtime recomputes them for every iteration,
            // and Phase C resumes with the exiting iteration's registers.
            for exit in &natural.exit_blocks {
                for v in facts.liveness.live_in(*exit).iter() {
                    let var = VarId::new(v as u32);
                    if defined_in_loop.contains(&var) && !induction.is_induction(var) {
                        boundary.insert(var);
                    }
                }
            }
            // Carried by a synchronized register dependence: iteration live-ins.
            for seg in &segments {
                for dep in &seg.dependences {
                    if let Some(v) = dep.var {
                        boundary.insert(v);
                    }
                }
            }

            // Iteration privatization: prove per-iteration allocations thread-private and
            // release the synchronization of dependences that only touch privatized storage.
            let loop_block_set: BTreeSet<helix_ir::BlockId> = norm
                .prologue_blocks
                .iter()
                .chain(norm.body_blocks.iter())
                .copied()
                .collect();
            let privatization =
                crate::privatize::analyze_privatization(function, &loop_block_set, &boundary);
            crate::optimize::release_privatized_segments(&mut segments, &privatization);
            // The closing pass: a `Wait` before every `Signal` of each segment still
            // synchronized, so the model, the `core.*` counts and the transform all see it.
            close_signals(&mut segments);

            let signals_after: u64 = segments
                .iter()
                .filter(|s| s.synchronized)
                .map(|s| (s.wait_points.len() + s.signal_points.len()) as u64)
                .sum();

            // Profile-weighted cycle accounting.
            let lp = profile.loop_profile(key);
            let iterations = lp.iterations.max(1) as f64;
            let prologue_cycles =
                profile.cycles_of_instrs(node.func, &norm.prologue_instrs(function)) as f64;
            let seq_cycles: f64 = segments
                .iter()
                .filter(|s| s.synchronized)
                .map(|s| {
                    let instrs: Vec<helix_ir::InstrRef> = s.instrs.iter().copied().collect();
                    profile.cycles_of_instrs(node.func, &instrs) as f64
                })
                .sum();
            let total_cycles = lp.cycles as f64;
            let prologue_per_iter = prologue_cycles / iterations;
            let seq_per_iter = (seq_cycles / iterations).min(total_cycles / iterations);
            let total_per_iter = total_cycles / iterations;

            // Refresh the per-segment cycle estimates with profile weights.
            for seg in &mut segments {
                let instrs: Vec<helix_ir::InstrRef> = seg.instrs.iter().copied().collect();
                let c = profile.cycles_of_instrs(node.func, &instrs) as f64 / iterations;
                if c > 0.0 {
                    seg.cycles_per_iteration = c;
                }
            }

            // Data transferred between iterations: only RAW dependences whose consumer
            // actually reads a value produced in the previous iteration move data; the paper
            // observes this happens for a small fraction of iterations (Figure 2 argues ~6.25%
            // for a typical two-branch segment). One word per transferring segment, weighted
            // by that probability.
            let transferring = segments
                .iter()
                .filter(|s| s.synchronized && s.transfers_data)
                .count() as f64;
            let bytes_per_iteration = transferring * self.config.word_bytes as f64 * 0.0625;

            let mut plan = ParallelizedLoop {
                func: node.func,
                loop_id: node.loop_id,
                header: node.header,
                prologue_blocks: norm.prologue_blocks.clone(),
                body_blocks: norm.body_blocks.clone(),
                segments,
                boundary_live_vars: boundary,
                induction_vars: induction
                    .induction_vars
                    .values()
                    .map(|iv| (iv.var, iv.step))
                    .collect(),
                private_allocs: privatization.private_allocs.clone(),
                private_accesses: privatization.private_accesses.clone(),
                bytes_per_iteration,
                signals_before_minimization: signals_before,
                signals_after_minimization: signals_after,
                prologue_cycles_per_iter: prologue_per_iter,
                total_cycles_per_iter: total_per_iter,
                sequential_cycles_per_iter: seq_per_iter,
            };

            // Step 8: space the segments for helper-thread prefetching.
            let parallel_per_iter = plan.parallel_cycles_per_iter();
            schedule_prefetching(&mut plan.segments, parallel_per_iter, &self.config);

            loop_carried_fraction.insert(key, ddg.loop_carried_fraction());
            nesting_depth.insert(key, node.depth);
            model_inputs.insert(
                key,
                LoopModelInput::from_plan(&plan, &lp, profile.total_cycles),
            );
            plans.insert(key, plan);
        }

        // Loop selection: saved time computed with the *selection* signal latencies.
        let saved = self.selection_saved_time(&model_inputs);
        let mut graph = DynamicLoopGraph::build(nesting, profile, &saved);
        graph.propagate_max_saved_time();
        let selection = graph.select();

        HelixOutput {
            plans,
            model_inputs,
            loop_carried_fraction,
            nesting_depth,
            selection,
            config: self.config,
            program_cycles: profile.total_cycles,
        }
    }

    /// Saved time `T` per candidate loop under the configuration's *selection* signal
    /// latencies. Unprefetched and prefetched assumptions are distinct
    /// ([`HelixConfig::selection_signal_latency`] /
    /// [`HelixConfig::selection_signal_latency_prefetched`]), and the evaluation mode
    /// matches the helper-thread configuration, so a plan whose segments Step 8 can prefetch
    /// is priced cheaper than a prefetch-starved one — previously both latencies were
    /// conflated and selection could not tell the modes apart.
    pub fn selection_saved_time(
        &self,
        model_inputs: &BTreeMap<LoopKey, LoopModelInput>,
    ) -> BTreeMap<LoopKey, f64> {
        let selection_config = HelixConfig {
            signal_latency_unprefetched: self.config.selection_signal_latency,
            signal_latency_prefetched: self.config.selection_signal_latency_prefetched,
            ..self.config
        };
        let mode = if self.config.enable_helper_threads {
            PrefetchMode::Helix
        } else {
            PrefetchMode::None
        };
        let selection_model = SpeedupModel::new(selection_config);
        model_inputs
            .iter()
            .map(|(k, input)| {
                let out = selection_model.evaluate_loop(input, mode);
                (*k, out.saved_cycles)
            })
            .collect()
    }

    /// Feedback-directed re-selection: re-scores every candidate plan with *measured*
    /// per-segment costs — for instance the cycles each synchronized segment's span
    /// occupies in the lowered `helix_runtime` iteration bytecode, or what a traced run
    /// observed it take — and re-runs the Section 2.2 selection with them.
    ///
    /// `measured` maps each candidate loop to its per-dependence segment costs; loops and
    /// segments missing from the map keep their profile-weighted estimate.
    pub fn reselect_with_segment_costs(
        &self,
        module: &Module,
        profile: &ProgramProfile,
        output: &HelixOutput,
        measured: &BTreeMap<LoopKey, BTreeMap<helix_ir::DepId, f64>>,
    ) -> LoopSelection {
        let nesting = LoopNestingGraph::new(module);
        let mut model_inputs = output.model_inputs.clone();
        for (key, plan) in &output.plans {
            let Some(costs) = measured.get(key) else {
                continue;
            };
            let Some(input) = model_inputs.get_mut(key) else {
                continue;
            };
            // Re-derive the sequential-per-iteration estimate from the lowered spans. The
            // lowered costs and the profile totals are both in CostModel cycles, so the
            // fraction stays commensurate; the span can only shrink relative to the
            // pre-lowering tree estimate when fusion/privatization removed dispatches.
            let measured_seq: f64 = plan
                .segments
                .iter()
                .filter(|s| s.synchronized)
                .map(|s| costs.get(&s.dep).copied().unwrap_or(s.cycles_per_iteration))
                .sum();
            let total = plan.total_cycles_per_iter.max(1e-9);
            let seq = measured_seq
                .min(total - plan.prologue_cycles_per_iter)
                .max(0.0);
            input.sequential_fraction =
                ((seq + plan.prologue_cycles_per_iter) / total).clamp(0.0, 1.0);
        }
        let saved = self.selection_saved_time(&model_inputs);
        let mut graph = DynamicLoopGraph::build(&nesting, profile, &saved);
        graph.propagate_max_saved_time();
        graph.select()
    }
}

/// The data-flow facts [`Helix::analyze`] solves once per function and shares between that
/// function's candidate loops. Everything else it computes (normalization, the dependence
/// graph, induction variables, segments) is per loop.
struct FunctionFacts {
    cfg: Cfg,
    reaching: ReachingDefs,
    liveness: Liveness,
}

impl FunctionFacts {
    fn new(function: &Function) -> Self {
        let cfg = Cfg::new(function);
        let reaching = ReachingDefs::new(function, &cfg);
        let liveness = Liveness::new(function, &cfg);
        Self {
            cfg,
            reaching,
            liveness,
        }
    }
}

impl HelixOutput {
    /// The plan the tools run for `entry`: its hottest selected plan, else its hottest
    /// candidate plan (an unprofitable loop can still be traced, served and fuzzed), ranked
    /// by profiled cycles. The flag is true when the plan was selected. `None` when no
    /// candidate loop of `entry` exists.
    pub fn hottest_plan(
        &self,
        entry: helix_ir::FuncId,
        profile: &ProgramProfile,
    ) -> Option<(&ParallelizedLoop, bool)> {
        let hottest = |selected_only: bool| {
            self.plans
                .iter()
                .filter(|(key, _)| key.0 == entry)
                .filter(|(key, _)| !selected_only || self.selection.is_selected(**key))
                .max_by_key(|(key, _)| profile.loop_profile(**key).cycles)
                .map(|(_, plan)| plan)
        };
        match hottest(true) {
            Some(plan) => Some((plan, true)),
            None => hottest(false).map(|plan| (plan, false)),
        }
    }

    /// The plans of the selected loops.
    pub fn selected_plans(&self) -> Vec<&ParallelizedLoop> {
        self.selection
            .selected
            .iter()
            .filter_map(|k| self.plans.get(k))
            .collect()
    }

    /// The model-estimated whole-program speedup of the current selection under a prefetching
    /// mode (Sections 2.2 and 3.3).
    pub fn estimated_speedup(&self, mode: PrefetchMode) -> f64 {
        let model = SpeedupModel::new(self.config);
        let outputs: Vec<_> = self
            .selection
            .selected
            .iter()
            .filter_map(|k| self.model_inputs.get(k))
            .map(|input| model.evaluate_loop(input, mode))
            .collect();
        model.program_speedup(&outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, FuncId, Operand};
    use helix_profiler::profile_program;

    /// A small program with one hot, mostly-parallel loop (a heavy per-element array
    /// transform) and one cold, heavily sequential loop (global accumulator chain), plus code
    /// outside loops.
    fn program() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("bench");
        let arr = mb.add_global("arr", 4096);
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        // Hot loop: arr[i] = hash(i) over 1024 elements, where hash(i) is a chain of forty
        // multiply/xor rounds — plenty of independent work per iteration, the only loop
        // carried dependence is the field-insensitive output dependence of the store.
        let hot = fb.counted_loop(Operand::int(0), Operand::int(1024), 1);
        let addr = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(hot.induction_var),
        );
        let mut v = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(hot.induction_var),
            Operand::int(2654435761),
        );
        for round in 0..40 {
            let m = fb.binary_to_new(BinOp::Mul, Operand::Var(v), Operand::int(31 + round));
            v = fb.binary_to_new(BinOp::Xor, Operand::Var(m), Operand::int(0x9e37));
        }
        fb.store(Operand::Var(addr), 0, Operand::Var(v));
        fb.br(hot.latch);
        fb.switch_to(hot.exit);
        // Cold loop: 64 iterations of a serial global accumulation.
        let cold = fb.counted_loop(Operand::int(0), Operand::int(64), 1);
        let c = fb.new_var();
        fb.load(c, Operand::Global(acc), 0);
        let c2 = fb.binary_to_new(BinOp::Add, Operand::Var(c), Operand::int(1));
        fb.store(Operand::Global(acc), 0, Operand::Var(c2));
        fb.br(cold.latch);
        fb.switch_to(cold.exit);
        let r = fb.new_var();
        fb.load(r, Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(r)));
        let main = mb.add_function(fb.finish());
        (mb.finish(), main)
    }

    fn analyzed(config: HelixConfig) -> HelixOutput {
        let (module, main) = program();
        let nesting = helix_analysis::LoopNestingGraph::new(&module);
        let profile = profile_program(&module, &nesting, main, &[]).unwrap();
        Helix::new(config).analyze(&module, &profile)
    }

    #[test]
    fn analysis_produces_plans_and_selects_the_hot_loop() {
        let output = analyzed(HelixConfig::default());
        assert_eq!(output.plans.len(), 2, "both loops are candidates");
        assert!(!output.selection.is_empty(), "something must be selected");
        // The hot array loop (1024 iterations) must be among the selected loops.
        let selected_inputs: Vec<&LoopModelInput> = output
            .selection
            .selected
            .iter()
            .map(|k| &output.model_inputs[k])
            .collect();
        assert!(selected_inputs.iter().any(|i| i.iterations >= 1024.0));
    }

    #[test]
    fn estimated_speedup_exceeds_one_and_scales_with_cores() {
        let out6 = analyzed(HelixConfig::default());
        let s6 = out6.estimated_speedup(PrefetchMode::Helix);
        assert!(s6 > 1.0, "six cores must speed up the hot loop, got {s6}");
        let out2 = analyzed(HelixConfig::default().with_cores(2));
        let s2 = out2.estimated_speedup(PrefetchMode::Helix);
        assert!(s6 > s2, "more cores, more speedup ({s6} vs {s2})");
        // Prefetching ordering: ideal >= helix >= none.
        let ideal = out6.estimated_speedup(PrefetchMode::Ideal);
        let none = out6.estimated_speedup(PrefetchMode::None);
        assert!(ideal >= s6);
        assert!(s6 >= none);
    }

    #[test]
    fn ablation_of_step6_and_step8_hurts() {
        let full = analyzed(HelixConfig::default());
        let no_helpers = analyzed(HelixConfig::default().without_helper_threads());
        let s_full = full.estimated_speedup(PrefetchMode::Helix);
        let s_none = no_helpers.estimated_speedup(PrefetchMode::None);
        assert!(s_full >= s_none);
    }

    #[test]
    fn profile_and_analyze_matches_the_two_step_flow() {
        let (module, main) = program();
        let nesting = helix_analysis::LoopNestingGraph::new(&module);
        let profile = profile_program(&module, &nesting, main, &[]).unwrap();
        let helix = Helix::new(HelixConfig::default());
        let two_step = helix.analyze(&module, &profile);
        let (image_profile, one_stop) = helix
            .profile_and_analyze(&module, main, &[], helix_ir::interp::DEFAULT_FUEL)
            .unwrap();
        // The bytecode profiler produces the identical profile, so the analysis agrees.
        assert_eq!(profile, image_profile);
        assert_eq!(two_step.selection.selected, one_stop.selection.selected);
        assert_eq!(two_step.plans.len(), one_stop.plans.len());
        assert_eq!(two_step.program_cycles, one_stop.program_cycles);
    }

    #[test]
    fn distinct_selection_latencies_flip_a_signal_bound_loop() {
        // The hot loop carries ~160 cycles of prefetchable parallel work per iteration
        // around a one-store synchronized segment. With both selection latencies pinned to
        // 300 cycles the modeled signal overhead (two signals per iteration) swamps the
        // per-iteration savings and nothing is selected; pricing the *prefetched* signal
        // separately (6 cycles, what the helper thread actually delivers) makes the same
        // loop profitable. Before the latencies were distinct, these two configurations
        // were indistinguishable to selection.
        let flat = analyzed(HelixConfig::i7_980x().with_selection_latencies(300, 300));
        let split = analyzed(HelixConfig::i7_980x().with_selection_latencies(300, 6));
        assert!(
            flat.selection.is_empty(),
            "a flat 300-cycle signal assumption must reject every loop, selected {:?}",
            flat.selection.selected
        );
        assert!(
            !split.selection.is_empty(),
            "a 6-cycle prefetched assumption must keep the prefetch-covered hot loop"
        );
        assert_ne!(flat.selection.selected, split.selection.selected);
    }

    #[test]
    fn reselect_with_measured_costs_reports_flips() {
        let (module, main) = program();
        let nesting = helix_analysis::LoopNestingGraph::new(&module);
        let profile = profile_program(&module, &nesting, main, &[]).unwrap();
        let helix = Helix::new(HelixConfig::default());
        let output = helix.analyze(&module, &profile);
        // No measured costs: the selection and every saved time stay as they were.
        let unchanged: BTreeMap<LoopKey, BTreeMap<helix_ir::DepId, f64>> = BTreeMap::new();
        let same = helix.reselect_with_segment_costs(&module, &profile, &output, &unchanged);
        assert_eq!(same.selected, output.selection.selected);
        assert_eq!(same.saved_time, output.selection.saved_time);
        assert_eq!(same.saved_time.len(), output.plans.len());
        // Measured costs that declare a selected loop's segments to fill the whole
        // iteration (pure sequential) must deselect it.
        let victim = *output
            .selection
            .selected
            .iter()
            .next()
            .expect("selected loop");
        let plan = &output.plans[&victim];
        let poisoned: BTreeMap<LoopKey, BTreeMap<helix_ir::DepId, f64>> = [(
            victim,
            plan.segments
                .iter()
                .map(|s| (s.dep, plan.total_cycles_per_iter * 2.0))
                .collect(),
        )]
        .into_iter()
        .collect();
        let reselected = helix.reselect_with_segment_costs(&module, &profile, &output, &poisoned);
        assert!(output.selection.is_selected(victim));
        assert!(
            !reselected.is_selected(victim),
            "fully-sequential loop must drop"
        );
    }

    #[test]
    fn prepare_is_cache_keyed_and_transforms_the_hot_loop() {
        let (module, main) = program();
        let helix = Helix::new(HelixConfig::default());
        let prepared = helix
            .prepare(&module, main, &[], helix_ir::interp::DEFAULT_FUEL)
            .unwrap();
        let plan_key = prepared.plan_key.expect("hot loop produces a plan");
        assert_eq!(plan_key.0, main, "plan targets the entry function");
        let transformed = prepared.transformed.as_ref().expect("plan transformed");
        assert_eq!(transformed.plan.loop_id, plan_key.1);
        // The key is deterministic, matches the free function, and separates entries.
        let again = helix
            .prepare(&module, main, &[], helix_ir::interp::DEFAULT_FUEL)
            .unwrap();
        assert_eq!(prepared.key, again.key);
        assert_eq!(prepared.key, content_hash(&module, "main"));
        assert_ne!(
            content_hash(&module, "main"),
            content_hash(&module, "other")
        );
        // The prepared plan is the hottest one selection kept.
        assert!(prepared.output.selection.is_selected(plan_key));
    }

    #[test]
    fn selection_latency_misestimation_changes_behaviour() {
        // With a grossly overestimated signal latency, the serial accumulator loop must not
        // be selected (it would slow down); the overall selection shrinks or stays equal.
        let optimistic = analyzed(HelixConfig::default().with_selection_latency(0));
        let pessimistic = analyzed(HelixConfig::default().with_selection_latency(110));
        assert!(pessimistic.selection.len() <= optimistic.selection.len());
    }
}
