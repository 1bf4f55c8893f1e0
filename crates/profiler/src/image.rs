//! The profiling observer of the runtime's engine.
//!
//! `ImageProfiler` is the lowered counterpart of [`crate::Profiler`]: it observes a run of
//! the lowered program on `helix-runtime`'s engine ([`helix_runtime::run_observed`]) and
//! produces the same [`ProgramProfile`] the tree-walking profiler does — but instead of
//! hashing an [`InstrRef`] per dynamic instruction it counts *block entries* in a dense
//! `[func][block]` array (the engine reports no per-op event at all). Every entry of a block
//! runs the same ops (from its first op up to its first branch or return), so
//! `ImageProfiler::finish` expands the block counts into per-op counts and cycles once,
//! and folds those back to `InstrRef`s.
//!
//! Inclusive cycle attribution (per call site and per active loop) uses entry/exit deltas of
//! the running total instead of touching every pending frame and active loop on every
//! instruction: a frame entered at total `t0` and left at `t1` accumulated exactly `t1 - t0`
//! inclusive cycles. On each block entry, after the loop push/pop, the block's precomputed
//! cycle total is added at once. That is exact, because every delta is taken at a block
//! entry, a call or a return, and no loop of the block's own frame starts or stops between
//! the block's entry and any of its ops. A call op's cycles land before the callee's frame is
//! pushed, so they stay outside the callee's inclusive delta, just as when the sequential
//! machine charges them after the return. The per-event work is O(1) instead of O(stack
//! depth), and the resulting profile is identical (`tests/exec_differential.rs` asserts
//! equality against the tree-walking profiler over the corpus, the workloads and generated
//! programs, errors included).

use crate::profile::{FunctionProfile, LoopKey, LoopProfile, ProgramProfile};
use helix_analysis::{LoopForest, LoopId, LoopNestingGraph};
use helix_ir::interp::{ExecError, DEFAULT_FUEL};
use helix_ir::lower::{cost_table, FuncImage, Op};
use helix_ir::{BlockId, CostModel, ExecImage, FuncId, InstrRef, Module, Value};
use helix_runtime::{run_observed, ImageObserver};
use std::collections::HashMap;

/// One entry of the active-loop stack.
#[derive(Clone, Copy, Debug)]
struct ActiveLoop {
    key: LoopKey,
    /// Index of the call frame the loop belongs to.
    frame: usize,
    /// Running cycle total when the loop was entered (for inclusive-delta attribution).
    cycles_at_entry: u64,
}

/// One call frame.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// The caller and call site, absent for the root invocation.
    callsite: Option<(FuncId, InstrRef)>,
    /// Loop-stack depth when the frame was pushed (restored on return).
    loop_baseline: usize,
    /// Running cycle total when the frame was pushed.
    cycles_at_push: u64,
}

/// What one entry of a block executes: the ops `block_start..end` and their summed cycles.
#[derive(Clone, Copy, Debug)]
struct BlockRun {
    end: u32,
    cycles: u64,
}

/// The profiling observer of an engine run; [`profile_image_with_fuel`] drives it.
#[derive(Debug)]
struct ImageProfiler<'i> {
    image: &'i ExecImage,
    /// Per function, its loop forest (dense, indexed by function id).
    forests: Vec<Option<&'i LoopForest>>,
    /// Per function, the loop whose header each block is (dense, indexed by block id).
    header_of: Vec<Vec<Option<LoopId>>>,
    /// Per function, what one entry of each block runs (dense, indexed by block id).
    runs: Vec<Vec<BlockRun>>,
    /// Dense per-block entry counts, indexed `[func][block]`.
    block_counts: Vec<Vec<u64>>,
    /// Per-function invocation counts.
    invocations: Vec<u64>,
    /// Inclusive callee cycles per call site, flushed when frames pop.
    callsite_cycles: HashMap<FuncId, HashMap<InstrRef, u64>>,
    /// Dense per-loop profiles, indexed `[func][loop]`; a loop ran iff it was invoked.
    loops: Vec<Vec<LoopProfile>>,
    dynamic_edges: std::collections::BTreeSet<(LoopKey, LoopKey)>,
    dynamic_roots: std::collections::BTreeSet<LoopKey>,
    total_cycles: u64,
    outside_cycles: u64,
    /// Running total when the loop stack last became (or started) empty.
    outside_since: u64,
    frames: Vec<Frame>,
    active_loops: Vec<ActiveLoop>,
}

/// The ops one entry of `block` executes and their cycles under `table`. Control leaves a
/// block at its first jump, branch or return, and a synthesized `Trap` aborts before it is
/// charged, so neither it nor anything after it counts.
fn block_run(f: &FuncImage, block: u32, table: &[u64]) -> BlockRun {
    let (start, end) = f.block_range[block as usize];
    let mut run = BlockRun { end, cycles: 0 };
    for pc in start..end {
        let op = &f.code[pc as usize];
        if matches!(op, Op::Trap { .. }) {
            run.end = pc;
            break;
        }
        run.cycles += table[f.cost_class[pc as usize] as usize];
        if matches!(op, Op::Jump { .. } | Op::Branch { .. } | Op::Ret { .. }) {
            run.end = pc + 1;
            break;
        }
    }
    run
}

impl<'i> ImageProfiler<'i> {
    /// Creates a profiler for `image`, borrowing the loop forests of a pre-computed nesting
    /// graph. Block cycles are priced with the cost table [`helix_ir::ImageMachine`] charges.
    fn new(image: &'i ExecImage, nesting: &'i LoopNestingGraph) -> Self {
        let mut forests = vec![None; image.funcs.len()];
        let mut loops = vec![Vec::new(); image.funcs.len()];
        let mut header_of: Vec<Vec<Option<LoopId>>> = image
            .funcs
            .iter()
            .map(|f| vec![None; f.num_blocks()])
            .collect();
        for (func, forest) in &nesting.forests {
            if let Some(slot) = forests.get_mut(func.index()) {
                *slot = Some(forest);
                loops[func.index()] = vec![LoopProfile::default(); forest.len()];
            }
            if let Some(headers) = header_of.get_mut(func.index()) {
                for l in forest.iter() {
                    if let Some(slot) = headers.get_mut(l.header.index()) {
                        *slot = Some(l.id);
                    }
                }
            }
        }
        let table = cost_table(&CostModel::default());
        Self {
            forests,
            header_of,
            runs: image
                .funcs
                .iter()
                .map(|f| {
                    (0..f.num_blocks() as u32)
                        .map(|b| block_run(f, b, &table))
                        .collect()
                })
                .collect(),
            block_counts: image
                .funcs
                .iter()
                .map(|f| vec![0; f.num_blocks()])
                .collect(),
            invocations: vec![0; image.funcs.len()],
            callsite_cycles: HashMap::new(),
            loops,
            dynamic_edges: std::collections::BTreeSet::new(),
            dynamic_roots: std::collections::BTreeSet::new(),
            total_cycles: 0,
            outside_cycles: 0,
            outside_since: 0,
            frames: Vec::new(),
            active_loops: Vec::new(),
            image,
        }
    }

    /// Consumes the profiler and expands the block counts into a [`ProgramProfile`].
    ///
    /// The profile is exact for a run that returned. A run that faulted or ran out of fuel
    /// stopped inside its last block, but that block was counted in full on entry; its profile
    /// would over-count the block's unexecuted tail, so [`profile_image_with_fuel`] returns
    /// the error instead of finishing.
    fn finish(mut self) -> ProgramProfile {
        // Flush attribution for anything still live (an errored run leaves frames and loops
        // on the stack; the tree-walking profiler attributed their cycles eagerly).
        while let Some(frame) = self.frames.pop() {
            if let Some((caller, site)) = frame.callsite {
                *self
                    .callsite_cycles
                    .entry(caller)
                    .or_default()
                    .entry(site)
                    .or_default() += self.total_cycles - frame.cycles_at_push;
            }
        }
        while !self.active_loops.is_empty() {
            self.deactivate_top();
        }
        self.outside_cycles += self.total_cycles - self.outside_since;
        self.outside_since = self.total_cycles;

        let table = cost_table(&CostModel::default());
        let mut functions: HashMap<FuncId, FunctionProfile> = HashMap::new();
        for (idx, block_counts) in self.block_counts.iter().enumerate() {
            let func = FuncId::new(idx as u32);
            let invocations = self.invocations[idx];
            let callsites = self.callsite_cycles.remove(&func).unwrap_or_default();
            let fi = &self.image.funcs[idx];
            let mut fp = FunctionProfile {
                invocations,
                ..FunctionProfile::default()
            };
            for (block, &count) in block_counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let start = fi.block_range[block].0;
                for pc in start..self.runs[idx][block].end {
                    let entry = fp.instrs.entry(fi.pc_to_ref[pc as usize]).or_default();
                    entry.count += count;
                    entry.cycles += count * table[fi.cost_class[pc as usize] as usize];
                }
            }
            if invocations == 0 && fp.instrs.is_empty() && callsites.is_empty() {
                continue;
            }
            fp.callsite_cycles = callsites;
            functions.insert(func, fp);
        }
        // Call sites of functions that never executed an op themselves still need their
        // attribution (not reachable in practice, but keep the fold total).
        for (func, callsites) in self.callsite_cycles.drain() {
            functions.entry(func).or_default().callsite_cycles = callsites;
        }

        let mut loops = HashMap::new();
        for (func, profiles) in self.loops.iter().enumerate() {
            for (lid, profile) in profiles.iter().enumerate() {
                if profile.invocations > 0 {
                    loops.insert((FuncId::new(func as u32), LoopId(lid as u32)), *profile);
                }
            }
        }
        ProgramProfile {
            functions,
            loops,
            dynamic_edges: self.dynamic_edges,
            dynamic_roots: self.dynamic_roots,
            total_cycles: self.total_cycles,
            cycles_outside_loops: self.outside_cycles,
        }
    }

    fn ensure_root_frame(&mut self, func: FuncId) {
        if self.frames.is_empty() {
            self.frames.push(Frame {
                callsite: None,
                loop_baseline: 0,
                cycles_at_push: self.total_cycles,
            });
            self.invocations[func.index()] += 1;
        }
    }

    fn loop_mut(&mut self, (func, lid): LoopKey) -> &mut LoopProfile {
        &mut self.loops[func.index()][lid.index()]
    }

    fn current_frame_index(&self) -> usize {
        self.frames.len().saturating_sub(1)
    }

    /// Pops the top active loop, attributing its inclusive cycle delta.
    fn deactivate_top(&mut self) {
        let Some(top) = self.active_loops.pop() else {
            return;
        };
        self.loop_mut(top.key).cycles += self.total_cycles - top.cycles_at_entry;
        if self.active_loops.is_empty() {
            self.outside_since = self.total_cycles;
        }
    }

    /// Pops loops of the current frame that do not contain `block`.
    fn pop_exited_loops(&mut self, func: FuncId, block: BlockId) {
        let frame = self.current_frame_index();
        while let Some(top) = self.active_loops.last() {
            if top.frame != frame {
                break;
            }
            let (f, lid) = top.key;
            debug_assert_eq!(f, func);
            let still_inside =
                self.forests[f.index()].is_some_and(|forest| forest.get(lid).contains(block));
            if still_inside {
                break;
            }
            self.deactivate_top();
        }
    }
}

impl ImageObserver for ImageProfiler<'_> {
    fn on_block_enter(&mut self, func: FuncId, block: u32) {
        self.ensure_root_frame(func);
        self.pop_exited_loops(func, BlockId::new(block));
        let frame = self.current_frame_index();
        if let Some(lid) = self.header_of[func.index()][block as usize] {
            let key = (func, lid);
            let is_new_iteration_of_top = self
                .active_loops
                .last()
                .map(|t| t.frame == frame && t.key == key)
                .unwrap_or(false);
            if is_new_iteration_of_top {
                // A back edge into the header completes one iteration.
                self.loop_mut(key).iterations += 1;
            } else {
                match self.active_loops.last() {
                    Some(parent) => {
                        self.dynamic_edges.insert((parent.key, key));
                    }
                    None => {
                        self.dynamic_roots.insert(key);
                        self.outside_cycles += self.total_cycles - self.outside_since;
                    }
                }
                self.loop_mut(key).invocations += 1;
                self.active_loops.push(ActiveLoop {
                    key,
                    frame,
                    cycles_at_entry: self.total_cycles,
                });
            }
        }
        let (idx, block) = (func.index(), block as usize);
        self.block_counts[idx][block] += 1;
        self.total_cycles += self.runs[idx][block].cycles;
    }

    fn on_call(&mut self, caller: FuncId, pc: u32, callee: FuncId) {
        self.ensure_root_frame(caller);
        let site = self.image.funcs[caller.index()].pc_to_ref[pc as usize];
        self.frames.push(Frame {
            callsite: Some((caller, site)),
            loop_baseline: self.active_loops.len(),
            cycles_at_push: self.total_cycles,
        });
        self.invocations[callee.index()] += 1;
    }

    fn on_return(&mut self, _func: FuncId) {
        if self.frames.len() > 1 {
            let frame = self.frames.pop().expect("frame stack underflow");
            if let Some((caller, site)) = frame.callsite {
                *self
                    .callsite_cycles
                    .entry(caller)
                    .or_default()
                    .entry(site)
                    .or_default() += self.total_cycles - frame.cycles_at_push;
            }
            while self.active_loops.len() > frame.loop_baseline {
                self.deactivate_top();
            }
        } else {
            // Returning from the root invocation: deactivate all loops.
            while !self.active_loops.is_empty() {
                self.deactivate_top();
            }
        }
    }
}

/// Runs `main` of `image` with `args` on the runtime's engine, observed by the profiler,
/// with a budget of `fuel` executed ops, and returns the profile. Every profile the
/// pipeline, the CLI and the tools use comes from here.
///
/// # Errors
///
/// Returns the engine error if the program faults or exhausts its fuel: the error the
/// sequential machines return for the same run.
pub fn profile_image_with_fuel(
    image: &ExecImage,
    nesting: &LoopNestingGraph,
    main: FuncId,
    args: &[Value],
    fuel: u64,
) -> Result<ProgramProfile, ExecError> {
    let mut profiler = ImageProfiler::new(image, nesting);
    run_observed(image, main, args, fuel, &mut profiler)?;
    Ok(profiler.finish())
}

/// [`profile_image_with_fuel`] with the sequential machines' default fuel.
///
/// # Errors
///
/// Returns the engine error if the program faults or exhausts its fuel.
pub fn profile_image(
    image: &ExecImage,
    nesting: &LoopNestingGraph,
    main: FuncId,
    args: &[Value],
) -> Result<ProgramProfile, ExecError> {
    profile_image_with_fuel(image, nesting, main, args, DEFAULT_FUEL)
}

/// Lowers `module` and profiles it on the runtime's engine — the drop-in, faster
/// replacement for [`crate::profile_program`].
///
/// # Errors
///
/// Returns the engine error if the program faults or exhausts its fuel.
pub fn profile_program_image(
    module: &Module,
    nesting: &LoopNestingGraph,
    main: FuncId,
    args: &[Value],
) -> Result<ProgramProfile, ExecError> {
    profile_image(&ExecImage::lower(module), nesting, main, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile_program;
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, Operand};

    /// The same doubly nested + interprocedural module the tree-walking profiler tests use.
    fn profiled_module() -> (Module, FuncId, LoopNestingGraph) {
        let mut mb = ModuleBuilder::new("prof");
        let helper_id = mb.declare_function("helper", 1);
        let mut helper = FunctionBuilder::new("helper", 1);
        let hn = helper.param(0);
        let acc = helper.new_var();
        helper.const_int(acc, 0);
        let hl = helper.counted_loop(Operand::int(0), Operand::Var(hn), 1);
        helper.binary(
            acc,
            BinOp::Add,
            Operand::Var(acc),
            Operand::Var(hl.induction_var),
        );
        helper.br(hl.latch);
        helper.switch_to(hl.exit);
        helper.ret(Some(Operand::Var(acc)));
        mb.define_function(helper_id, helper.finish());

        let mut main = FunctionBuilder::new("main", 0);
        let s = main.new_var();
        main.const_int(s, 0);
        let outer = main.counted_loop(Operand::int(0), Operand::int(10), 1);
        let inner = main.counted_loop(Operand::int(0), Operand::int(5), 1);
        main.binary(
            s,
            BinOp::Add,
            Operand::Var(s),
            Operand::Var(inner.induction_var),
        );
        main.br(inner.latch);
        main.switch_to(inner.exit);
        let h = main.new_var();
        main.call(Some(h), helper_id, vec![Operand::int(3)]);
        main.binary(s, BinOp::Add, Operand::Var(s), Operand::Var(h));
        main.br(outer.latch);
        main.switch_to(outer.exit);
        main.ret(Some(Operand::Var(s)));
        let main_id = mb.add_function(main.finish());
        let module = mb.finish();
        let nesting = LoopNestingGraph::new(&module);
        (module, main_id, nesting)
    }

    #[test]
    fn image_profile_is_identical_to_tree_walk_profile() {
        let (module, main_id, nesting) = profiled_module();
        let tree = profile_program(&module, &nesting, main_id, &[]).unwrap();
        let flat = profile_program_image(&module, &nesting, main_id, &[]).unwrap();
        assert_eq!(tree, flat);
    }

    #[test]
    fn loop_counts_match_trip_counts() {
        let (module, main_id, nesting) = profiled_module();
        let profile = profile_program_image(&module, &nesting, main_id, &[]).unwrap();
        let main_forest = &nesting.forests[&main_id];
        let outer_key = (main_id, main_forest.top_level()[0]);
        let outer = profile.loop_profile(outer_key);
        assert_eq!(outer.invocations, 1);
        assert_eq!(outer.iterations, 10);
        assert!(profile.total_cycles > outer.cycles);
        assert!(profile.cycles_outside_loops > 0);
    }

    #[test]
    fn interprocedural_nesting_edges_are_recorded() {
        let (module, main_id, nesting) = profiled_module();
        let helper_id = module.function_by_name("helper").unwrap();
        let profile = profile_program_image(&module, &nesting, main_id, &[]).unwrap();
        let outer_key = (main_id, nesting.forests[&main_id].top_level()[0]);
        let helper_key = (helper_id, nesting.forests[&helper_id].top_level()[0]);
        assert!(profile.dynamic_edges.contains(&(outer_key, helper_key)));
        assert!(profile.dynamic_roots.contains(&outer_key));
        assert_eq!(profile.functions[&helper_id].invocations, 10);
    }
}
