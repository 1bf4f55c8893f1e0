//! Iteration-privatization analysis: proving per-iteration allocations thread-private.
//!
//! The HELIX runtime keeps program memory in one shared space of atomic cells
//! (`helix_runtime::SharedMemory`), so every load and store of every worker goes through
//! shared memory even when the data is only ever touched by the iteration that allocated it.
//! Giannoula's study of irregular-application synchronization ("Accelerating Irregular
//! Applications via Efficient Synchronization and Data Access Techniques") identifies
//! privatized per-iteration data as one of the two levers that flip such workloads from
//! slowdown to speedup; this pass is that lever at the IR level.
//!
//! [`analyze_privatization`] inspects the candidate loop and proves, conservatively, that
//! every `Alloc` executed inside the loop produces iteration-private storage:
//!
//! * the allocation size is a compile-time constant,
//! * the allocated pointer flows only through copies and pointer arithmetic with constant
//!   offsets (`p + c`), never through calls, returns, stores-as-value, comparisons, selects
//!   or demoted loop-boundary variables — so the address can never be observed by another
//!   iteration, by code after the loop, or by the program's result,
//! * every load/store through a derived pointer provably lands inside the allocation
//!   (`0 <= offset < words`), so re-homing the storage cannot change which values the
//!   iteration reads,
//! * the loop contains no calls (a callee could allocate *shared* memory, and skipping the
//!   private allocations would shift the addresses such a callee returns).
//!
//! When all conditions hold the plan records the allocation sites in
//! [`crate::ParallelizedLoop::private_allocs`]; the parallel runtime lowers them to
//! `PrivateAlloc` ops served from a per-worker bump arena in a disjoint address range, and
//! re-reserves the skipped words in shared memory once the loop completes so every shared
//! address the program can observe stays bitwise-identical to sequential execution.

use helix_ir::{BlockId, Function, Instr, InstrRef, Operand, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The result of the privatization analysis for one candidate loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrivatizationInfo {
    /// The `Alloc` instructions proved iteration-private (empty when privatization does not
    /// apply — the proof is all-or-nothing per loop).
    pub private_allocs: BTreeSet<InstrRef>,
    /// Loads/stores proved to access only private storage (endpoints of dependences that no
    /// longer need synchronization).
    pub private_accesses: BTreeSet<InstrRef>,
    /// Static words allocated privately per iteration (one execution of each site).
    pub words_per_iteration: u64,
    /// Why privatization was rejected, for diagnostics (`None` when it applies or when the
    /// loop has no allocations at all).
    pub rejected: Option<&'static str>,
}

impl PrivatizationInfo {
    /// `true` when at least one allocation was privatized.
    pub fn applies(&self) -> bool {
        !self.private_allocs.is_empty()
    }
}

/// A pointer value derived from one private allocation at a constant offset.
type Derivation = (usize, i64);

/// Runs the analysis over the loop formed by `loop_blocks` of `function`.
///
/// `boundary_vars` are the loop-boundary live variables Step 7 demotes to memory: a pointer
/// that reaches one of them would be written to the shared frame, escaping the iteration.
pub fn analyze_privatization(
    function: &Function,
    loop_blocks: &BTreeSet<BlockId>,
    boundary_vars: &BTreeSet<VarId>,
) -> PrivatizationInfo {
    let mut allocs: Vec<(InstrRef, VarId, i64)> = Vec::new();
    let mut has_call = false;
    for &block in loop_blocks {
        for (index, instr) in function.block(block).instrs.iter().enumerate() {
            match instr {
                Instr::Alloc { dst, words } => {
                    let Operand::ConstInt(w) = words else {
                        return rejected("allocation size is not a constant");
                    };
                    if *w < 0 || *w > (1 << 20) {
                        return rejected("allocation size out of the provable range");
                    }
                    allocs.push((InstrRef::new(block, index), *dst, *w));
                }
                Instr::Call { .. } => has_call = true,
                _ => {}
            }
        }
    }
    if allocs.is_empty() {
        return PrivatizationInfo::default();
    }
    if has_call {
        return rejected("loop contains calls that may allocate shared memory");
    }

    // Flow-insensitive fixpoint: which registers may hold a pointer derived from which
    // allocation, and at which constant offset. Over-approximating derivations is safe: every
    // extra derivation only adds escape/bounds conditions to check.
    let mut derived: BTreeMap<VarId, BTreeSet<Derivation>> = BTreeMap::new();
    for (i, (_, dst, _)) in allocs.iter().enumerate() {
        derived.entry(*dst).or_default().insert((i, 0));
    }
    loop {
        let mut changed = false;
        for &block in loop_blocks {
            for instr in &function.block(block).instrs {
                let new: Option<(VarId, BTreeSet<Derivation>)> = match instr {
                    Instr::Copy {
                        dst,
                        src: Operand::Var(v),
                    } => derived.get(v).map(|d| (*dst, d.clone())),
                    Instr::Binary { dst, op, lhs, rhs }
                        if matches!(op, helix_ir::BinOp::Add | helix_ir::BinOp::Sub) =>
                    {
                        let (base, delta) = match (lhs, rhs) {
                            (Operand::Var(v), Operand::ConstInt(c)) => (Some(v), *c),
                            (Operand::ConstInt(c), Operand::Var(v))
                                if *op == helix_ir::BinOp::Add =>
                            {
                                (Some(v), *c)
                            }
                            _ => (None, 0),
                        };
                        let delta = if *op == helix_ir::BinOp::Sub {
                            -delta
                        } else {
                            delta
                        };
                        base.and_then(|v| derived.get(v)).map(|d| {
                            (
                                instr.dst().unwrap(),
                                d.iter().map(|(i, o)| (*i, o + delta)).collect(),
                            )
                        })
                    }
                    _ => None,
                };
                if let Some((dst, ds)) = new {
                    let entry = derived.entry(dst).or_default();
                    let before = entry.len();
                    entry.extend(ds);
                    changed |= entry.len() != before;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // The routing and sync-release decisions below treat "derived" as a *must* property:
    // a marked access is allowed into the private tier and its dependences lose their
    // synchronization. That is only sound if a derived register can never hold anything
    // but a private derivation, so demand single-assignment shape: every derived register
    // has exactly one definition in the whole function (its derivation) and is not a
    // parameter. A register also written by any other instruction (say a load of a shared
    // pointer) could carry a shared address into a de-synchronized access — reject.
    for (v, _) in derived.iter() {
        if v.index() < function.num_params {
            return rejected("a derived pointer register is a parameter");
        }
        let defs = function
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| i.dst() == Some(*v))
            .count();
        if defs != 1 {
            return rejected("a derived pointer register has multiple definitions");
        }
    }

    // A derived register demoted to the shared frame escapes the iteration.
    if derived.keys().any(|v| boundary_vars.contains(v)) {
        return rejected("a derived pointer is a loop-boundary live variable");
    }
    // A derived register used outside the loop escapes the iteration (flow-insensitively:
    // any textual use outside counts, even if dominated by a redefinition).
    for block in &function.blocks {
        if loop_blocks.contains(&block.id) {
            continue;
        }
        for instr in &block.instrs {
            if instr.uses().iter().any(|u| derived.contains_key(u)) {
                return rejected("a derived pointer is used outside the loop");
            }
        }
    }

    // Check every use of a derived register inside the loop.
    let is_derived =
        |op: &Operand| -> bool { matches!(op, Operand::Var(v) if derived.contains_key(v)) };
    let in_bounds = |v: &VarId, extra: i64| -> bool {
        derived.get(v).is_none_or(|ds| {
            ds.iter()
                .all(|(i, o)| (0..allocs[*i].2).contains(&(o + extra)))
        })
    };
    let mut private_accesses: BTreeSet<InstrRef> = BTreeSet::new();
    for &block in loop_blocks {
        for (index, instr) in function.block(block).instrs.iter().enumerate() {
            let at = InstrRef::new(block, index);
            match instr {
                // The derivation chains themselves (copies and constant pointer arithmetic)
                // were handled by the fixpoint; nothing escapes through them.
                Instr::Copy {
                    src: Operand::Var(_),
                    ..
                } => {}
                Instr::Binary { op, lhs, rhs, .. }
                    if matches!(op, helix_ir::BinOp::Add | helix_ir::BinOp::Sub)
                        && (matches!((lhs, rhs), (Operand::Var(_), Operand::ConstInt(_)))
                            || (*op == helix_ir::BinOp::Add
                                && matches!(
                                    (lhs, rhs),
                                    (Operand::ConstInt(_), Operand::Var(_))
                                ))) => {}
                Instr::Load { addr, offset, .. } => {
                    if let Operand::Var(v) = addr {
                        if derived.contains_key(v) {
                            if !in_bounds(v, *offset) {
                                return rejected("a load may leave its private allocation");
                            }
                            private_accesses.insert(at);
                        }
                    }
                }
                Instr::Store {
                    addr,
                    offset,
                    value,
                } => {
                    if is_derived(value) {
                        return rejected("a derived pointer is stored as a value");
                    }
                    if let Operand::Var(v) = addr {
                        if derived.contains_key(v) {
                            if !in_bounds(v, *offset) {
                                return rejected("a store may leave its private allocation");
                            }
                            private_accesses.insert(at);
                        }
                    }
                }
                Instr::Alloc { words, .. } => {
                    if is_derived(words) {
                        return rejected("a derived pointer sizes another allocation");
                    }
                }
                other => {
                    if other.uses().iter().any(|u| derived.contains_key(u)) {
                        return rejected("a derived pointer escapes through an operation");
                    }
                }
            }
        }
    }

    let words_per_iteration = allocs.iter().map(|(_, _, w)| *w as u64).sum();
    PrivatizationInfo {
        private_allocs: allocs.iter().map(|(r, _, _)| *r).collect(),
        private_accesses,
        words_per_iteration,
        rejected: None,
    }
}

fn rejected(reason: &'static str) -> PrivatizationInfo {
    PrivatizationInfo {
        rejected: Some(reason),
        ..PrivatizationInfo::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, Operand};

    /// Builds a loop whose body allocates a 4-word scratch buffer, writes two fields and
    /// reads them back; `escape` adds a store of the pointer itself into a global.
    fn scratch_loop(escape: bool) -> (helix_ir::Module, BTreeSet<BlockId>) {
        let mut mb = ModuleBuilder::new("m");
        let sink = mb.add_global("sink", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(8), 1);
        let p = fb.new_var();
        fb.alloc(p, Operand::int(4));
        fb.store(Operand::Var(p), 0, Operand::Var(lh.induction_var));
        let q = fb.binary_to_new(BinOp::Add, Operand::Var(p), Operand::int(2));
        fb.store(Operand::Var(q), 1, Operand::int(7));
        let v = fb.new_var();
        fb.load(v, Operand::Var(p), 0);
        if escape {
            fb.store(Operand::Global(sink), 0, Operand::Var(p));
        }
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        fb.ret(Some(Operand::int(0)));
        let main = fb.finish();
        let blocks: BTreeSet<BlockId> = main
            .blocks
            .iter()
            .map(|b| b.id)
            .filter(|b| *b != main.entry && b.index() != main.blocks.len() - 1)
            .collect();
        mb.add_function(main);
        (mb.finish(), blocks)
    }

    #[test]
    fn scratch_allocation_is_privatized() {
        let (module, blocks) = scratch_loop(false);
        let f = module.function(helix_ir::FuncId::new(0));
        let info = analyze_privatization(f, &blocks, &BTreeSet::new());
        assert!(info.applies(), "rejected: {:?}", info.rejected);
        assert_eq!(info.private_allocs.len(), 1);
        assert_eq!(info.words_per_iteration, 4);
        assert!(info.private_accesses.len() >= 3, "loads+stores recorded");
    }

    #[test]
    fn escaping_pointer_rejects_privatization() {
        let (module, blocks) = scratch_loop(true);
        let f = module.function(helix_ir::FuncId::new(0));
        let info = analyze_privatization(f, &blocks, &BTreeSet::new());
        assert!(!info.applies());
        assert_eq!(
            info.rejected,
            Some("a derived pointer is stored as a value")
        );
    }

    #[test]
    fn out_of_bounds_offset_rejects_privatization() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("main", 0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(4), 1);
        let p = fb.new_var();
        fb.alloc(p, Operand::int(2));
        fb.store(Operand::Var(p), 5, Operand::int(1)); // outside the 2-word allocation
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        fb.ret(Some(Operand::int(0)));
        let main = fb.finish();
        let blocks: BTreeSet<BlockId> = main
            .blocks
            .iter()
            .map(|b| b.id)
            .filter(|b| *b != main.entry && b.index() != main.blocks.len() - 1)
            .collect();
        mb.add_function(main);
        let module = mb.finish();
        let f = module.function(helix_ir::FuncId::new(0));
        let info = analyze_privatization(f, &blocks, &BTreeSet::new());
        assert!(!info.applies());
    }

    #[test]
    fn boundary_variable_pointer_rejects_privatization() {
        let (module, blocks) = scratch_loop(false);
        let f = module.function(helix_ir::FuncId::new(0));
        // Find the alloc's destination and declare it loop-boundary live.
        let alloc_dst = f
            .instr_refs()
            .find_map(|(_, i)| match i {
                helix_ir::Instr::Alloc { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        let boundary: BTreeSet<VarId> = [alloc_dst].into_iter().collect();
        let info = analyze_privatization(f, &blocks, &boundary);
        assert!(!info.applies());
    }
}
