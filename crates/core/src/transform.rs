//! Steps 7 and 9: materializing the parallel code.
//!
//! *Step 7* implements inter-thread communication: loop-boundary live variables are demoted to
//! memory (a per-loop *frame* global standing in for the main thread's allocation frame), and
//! the `Wait`/`Signal` operations of every synchronized sequential segment are inserted as real
//! IR instructions (in the paper they compile down to plain loads and stores on the thread
//! memory buffers; here they are pseudo-instructions the parallel runtime and the simulator
//! give blocking semantics to, while the sequential interpreter treats them as no-ops).
//!
//! *Step 9* keeps the original (sequential) function untouched so the program can fall back to
//! it when another parallel loop is already running; the parallel version is a clone.

use crate::plan::ParallelizedLoop;
use helix_analysis::{Cfg, DomTree};
use helix_ir::{BlockId, FuncId, Function, GlobalId, Instr, InstrRef, Module, Operand, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The result of applying the HELIX transformation to one loop of a module.
#[derive(Clone, Debug)]
pub struct TransformedProgram {
    /// The transformed module (original functions plus the parallel clone).
    pub module: Module,
    /// The original function the loop lives in.
    pub original_func: FuncId,
    /// The parallel clone with demoted variables and `Wait`/`Signal` instructions.
    pub parallel_func: FuncId,
    /// The global holding the demoted loop-boundary live variables.
    pub frame_global: GlobalId,
    /// Word offset of each demoted variable inside the frame global.
    pub slot_of: BTreeMap<VarId, i64>,
    /// The plan that was materialized (block ids remain valid in the clone; instruction
    /// indices do not, because new instructions were inserted).
    pub plan: ParallelizedLoop,
    /// [`ParallelizedLoop::private_allocs`] remapped to the clone's instruction indices
    /// (Step 7 inserts loads/stores/sync, shifting every index). The parallel runtime lowers
    /// exactly these sites to per-worker arena allocations.
    pub private_allocs: BTreeSet<InstrRef>,
    /// [`ParallelizedLoop::private_accesses`] remapped to the clone's instruction indices:
    /// the only loads/stores the runtime routes into the private tier.
    pub private_accesses: BTreeSet<InstrRef>,
}

/// Applies Steps 7 and 9 for `plan` to `module`, returning the transformed program.
///
/// The input module is not modified; the returned module contains every original function plus
/// one new function named `<original>__helix_parallel`.
pub fn apply(module: &Module, plan: &ParallelizedLoop) -> TransformedProgram {
    let mut out = module.clone();
    let original = plan.func;
    let original_fn = module.function(original);

    // Frame global: one word per demoted variable.
    let boundary: Vec<VarId> = plan.boundary_live_vars.iter().copied().collect();
    let frame_words = boundary.len().max(1);
    let frame_global = out.add_global(
        format!(
            "{}__helix_frame_l{}",
            original_fn.name,
            plan.loop_id.index()
        ),
        frame_words,
    );
    let slot_of: BTreeMap<VarId, i64> = boundary
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as i64))
        .collect();

    // Build the clone.
    let mut clone = original_fn.clone();
    clone.name = format!("{}__helix_parallel", original_fn.name);

    // Collect the synchronization points of synchronized segments, grouped per block and
    // keyed by original instruction index.
    let mut waits_at: BTreeMap<(u32, usize), Vec<helix_ir::DepId>> = BTreeMap::new();
    let mut signals_at: BTreeMap<(u32, usize), Vec<helix_ir::DepId>> = BTreeMap::new();
    for seg in plan.segments.iter().filter(|s| s.synchronized) {
        for w in &seg.wait_points {
            waits_at
                .entry((w.block.0, w.index))
                .or_default()
                .push(seg.dep);
        }
        for s in &seg.signal_points {
            signals_at
                .entry((s.block.0, s.index))
                .or_default()
                .push(seg.dep);
        }
    }

    let in_loop =
        |b: helix_ir::BlockId| plan.prologue_blocks.contains(&b) || plan.body_blocks.contains(&b);

    // In-loop uses of a demoted variable read the *register* instead of the frame slot when
    // a same-iteration definition dominates the use. The register is freshly written by that
    // definition on every path through every iteration, so the read is race-free — whereas
    // the shared frame slot is overwritten by the next iteration's prologue as soon as this
    // iteration releases control, a write-after-read race between overlapped iterations for
    // any value that is iteration-local (demoted only for exit liveness, like a prologue
    // temporary read by the body). Carried values never have an in-loop dominating
    // definition — their reads see the previous iteration by definition — so they keep the
    // frame load, protected by the segment's `Wait`/`Signal`. The loop header dominates
    // every loop block per iteration too (each iteration enters through it), so a header
    // definition counts.
    let cfg = Cfg::new(original_fn);
    let dominators = DomTree::new(original_fn, &cfg);
    let mut loop_defs: BTreeMap<VarId, Vec<InstrRef>> = BTreeMap::new();
    for block in &original_fn.blocks {
        if !in_loop(block.id) {
            continue;
        }
        for (index, instr) in block.instrs.iter().enumerate() {
            if let Some(d) = instr.dst() {
                if plan.boundary_live_vars.contains(&d) {
                    loop_defs
                        .entry(d)
                        .or_default()
                        .push(InstrRef::new(block.id, index));
                }
            }
        }
    }
    let dominated_use = |v: &VarId, block: BlockId, index: usize| -> bool {
        loop_defs.get(v).is_some_and(|defs| {
            defs.iter().any(|d| {
                if d.block == block {
                    d.index < index
                } else {
                    dominators.dominates(d.block, block)
                }
            })
        })
    };

    // Rewrite every block of the clone: demote boundary variables everywhere in the function,
    // insert Wait/Signal at the recorded (original) indices inside loop blocks. Privatized
    // allocation sites are tracked through the rewrite so the runtime can find them in the
    // clone's (shifted) instruction indices.
    let mut private_allocs: BTreeSet<InstrRef> = BTreeSet::new();
    let mut private_accesses: BTreeSet<InstrRef> = BTreeSet::new();
    let num_blocks = clone.blocks.len();
    for block_index in 0..num_blocks {
        let block_id = clone.blocks[block_index].id;
        let old_instrs = std::mem::take(&mut clone.blocks[block_index].instrs);
        let mut new_instrs: Vec<Instr> = Vec::with_capacity(old_instrs.len() * 2);
        let block_in_loop = in_loop(block_id);
        for (index, mut instr) in old_instrs.into_iter().enumerate() {
            // Synchronization goes before the instruction originally at this index.
            if block_in_loop {
                if let Some(deps) = waits_at.get(&(block_id.0, index)) {
                    for dep in deps {
                        new_instrs.push(Instr::Wait { dep: *dep });
                    }
                }
                if let Some(deps) = signals_at.get(&(block_id.0, index)) {
                    for dep in deps {
                        new_instrs.push(Instr::Signal { dep: *dep });
                    }
                }
            }
            // Demote uses: load each boundary variable into a fresh temporary right before the
            // instruction and rewrite the operand — unless a same-iteration definition
            // dominates the use, in which case the register itself is the race-free,
            // always-fresh source (see above).
            let mut loads: Vec<Instr> = Vec::new();
            {
                let clone_num_vars = &mut clone.num_vars;
                instr.map_operands(|op| {
                    if let Operand::Var(v) = op {
                        if let Some(&slot) = slot_of.get(v) {
                            if block_in_loop && dominated_use(v, block_id, index) {
                                return;
                            }
                            let tmp = VarId::new(*clone_num_vars as u32);
                            *clone_num_vars += 1;
                            loads.push(Instr::Load {
                                dst: tmp,
                                addr: Operand::Global(frame_global),
                                offset: slot,
                            });
                            *op = Operand::Var(tmp);
                        }
                    }
                });
            }
            new_instrs.extend(loads);
            let dst = instr.dst();
            if plan
                .private_allocs
                .contains(&InstrRef::new(block_id, index))
            {
                private_allocs.insert(InstrRef::new(block_id, new_instrs.len()));
            }
            if plan
                .private_accesses
                .contains(&InstrRef::new(block_id, index))
            {
                private_accesses.insert(InstrRef::new(block_id, new_instrs.len()));
            }
            new_instrs.push(instr);
            // Demote defs: store the defined boundary variable to its slot right after.
            if let Some(d) = dst {
                if let Some(&slot) = slot_of.get(&d) {
                    new_instrs.push(Instr::Store {
                        addr: Operand::Global(frame_global),
                        offset: slot,
                        value: Operand::Var(d),
                    });
                }
            }
        }
        clone.blocks[block_index].instrs = new_instrs;
    }

    // Parameters that are boundary variables must populate their slot on function entry.
    let entry = clone.entry;
    let mut entry_stores: Vec<Instr> = Vec::new();
    for p in 0..clone.num_params {
        let v = VarId::new(p as u32);
        if let Some(&slot) = slot_of.get(&v) {
            entry_stores.push(Instr::Store {
                addr: Operand::Global(frame_global),
                offset: slot,
                value: Operand::Var(v),
            });
        }
    }
    if !entry_stores.is_empty() {
        let shift = entry_stores.len();
        let block = &mut clone.blocks[entry.index()];
        for (i, s) in entry_stores.into_iter().enumerate() {
            block.instrs.insert(i, s);
        }
        // Keep tracked privatization sites in the entry block aligned with the inserted
        // stores.
        let shift_ref = |r: InstrRef| {
            if r.block == entry {
                InstrRef::new(r.block, r.index + shift)
            } else {
                r
            }
        };
        private_allocs = private_allocs.into_iter().map(shift_ref).collect();
        private_accesses = private_accesses.into_iter().map(shift_ref).collect();
    }

    let parallel_func = out.add_function(clone);
    TransformedProgram {
        module: out,
        original_func: original,
        parallel_func,
        frame_global,
        slot_of,
        plan: plan.clone(),
        private_allocs,
        private_accesses,
    }
}

impl TransformedProgram {
    /// The parallel clone function.
    pub fn parallel_function(&self) -> &Function {
        self.module.function(self.parallel_func)
    }

    /// Number of `Wait` instructions materialized in the clone.
    pub fn wait_instr_count(&self) -> usize {
        self.parallel_function()
            .instr_refs()
            .filter(|(_, i)| matches!(i, Instr::Wait { .. }))
            .count()
    }

    /// Number of `Signal` instructions materialized in the clone.
    pub fn signal_instr_count(&self) -> usize {
        self.parallel_function()
            .instr_refs()
            .filter(|(_, i)| matches!(i, Instr::Signal { .. }))
            .count()
    }

    /// References of all `Wait`/`Signal` instructions in the clone (for tests and tooling).
    pub fn sync_instrs(&self) -> Vec<InstrRef> {
        self.parallel_function()
            .instr_refs()
            .filter(|(_, i)| i.is_sync())
            .map(|(r, _)| r)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HelixConfig;
    use crate::pipeline::Helix;
    use helix_analysis::LoopNestingGraph;
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{verify_module, BinOp, Machine, Operand, Value};
    use helix_profiler::profile_program;

    /// Builds the running example: a loop accumulating array elements into a global, with the
    /// final value returned, and runs the full pipeline to get a plan for its loop.
    fn transformed() -> (Module, TransformedProgram, FuncId) {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let arr = mb.add_global("arr", 64);
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        // Seed the array with i*3.
        let init = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
        let a0 = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(init.induction_var),
        );
        let v0 = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(init.induction_var),
            Operand::int(3),
        );
        fb.store(Operand::Var(a0), 0, Operand::Var(v0));
        fb.br(init.latch);
        fb.switch_to(init.exit);
        // Accumulate.
        let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
        let addr = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(lh.induction_var),
        );
        let elt = fb.new_var();
        fb.load(elt, Operand::Var(addr), 0);
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(elt));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let result = fb.new_var();
        fb.load(result, Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(result)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();

        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program(&module, &nesting, main, &[Value::Int(16)]).unwrap();
        let helix = Helix::new(HelixConfig::default());
        let output = helix.analyze(&module, &profile);
        // Pick the accumulator loop's plan (the one with a data-transferring segment).
        let plan = output
            .plans
            .values()
            .find(|p| {
                p.segments
                    .iter()
                    .any(|s| s.transfers_data && s.synchronized)
            })
            .expect("the accumulator loop must have a synchronized segment")
            .clone();
        let t = apply(&module, &plan);
        (module, t, main)
    }

    #[test]
    fn clone_verifies_and_contains_sync_instructions() {
        let (_module, t, _main) = transformed();
        verify_module(&t.module).expect("transformed module must verify");
        assert!(t.wait_instr_count() > 0, "waits must be materialized");
        assert!(t.signal_instr_count() > 0, "signals must be materialized");
        assert!(!t.sync_instrs().is_empty());
        // The clone is a new function; the original is untouched (Step 9 fallback).
        assert_ne!(t.parallel_func, t.original_func);
        let orig = t.module.function(t.original_func);
        assert!(orig.instr_refs().all(|(_, i)| !i.is_sync()));
        assert!(t.parallel_function().name.ends_with("__helix_parallel"));
    }

    #[test]
    fn demoted_variables_have_frame_slots() {
        let (_module, t, _main) = transformed();
        assert_eq!(t.slot_of.len(), t.plan.boundary_live_vars.len());
        let frame = t.module.global(t.frame_global);
        assert!(frame.words >= t.slot_of.len().max(1));
        // Every demoted variable is accessed through the frame in the clone.
        if !t.slot_of.is_empty() {
            let touches_frame = t.parallel_function().instr_refs().any(|(_, i)| match i {
                Instr::Load { addr, .. } | Instr::Store { addr, .. } => {
                    *addr == Operand::Global(t.frame_global)
                }
                _ => false,
            });
            assert!(touches_frame);
        }
    }

    #[test]
    fn sequential_execution_of_the_clone_is_equivalent() {
        // Wait/Signal are no-ops sequentially and demotion preserves semantics, so running the
        // parallel clone sequentially must produce the same result as the original.
        let (module, t, main) = transformed();
        let n = Value::Int(16);
        let mut m1 = Machine::new(&module);
        let expected = m1.call(main, &[n]).unwrap().unwrap();
        let mut m2 = Machine::new(&t.module);
        let actual = m2.call(t.parallel_func, &[n]).unwrap().unwrap();
        assert_eq!(expected.as_int(), actual.as_int());
        // And the original inside the transformed module still works too.
        let mut m3 = Machine::new(&t.module);
        let original = m3.call(t.original_func, &[n]).unwrap().unwrap();
        assert_eq!(expected.as_int(), original.as_int());
    }
}
