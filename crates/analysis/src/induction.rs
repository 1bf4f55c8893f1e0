//! Loop-invariant and induction-variable detection.
//!
//! HELIX Step 2 excludes from synchronization the loop-carried dependences that involve only
//! invariant or induction variables: invariants do not change between iterations, and basic
//! induction variables are locally computable from the iteration number and their value at
//! loop entry, so each core can recompute them privately instead of waiting for the previous
//! iteration.

use crate::cfg::Cfg;
use crate::loops::{LoopForest, LoopId};
use helix_ir::{BinOp, Function, Instr, InstrRef, Operand, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// A basic induction variable: updated exactly once per iteration by a constant step.
#[derive(Clone, Debug, PartialEq)]
pub struct InductionVar {
    /// The register.
    pub var: VarId,
    /// The single update instruction inside the loop.
    pub update: InstrRef,
    /// The per-iteration step (negative for `Sub`).
    pub step: i64,
}

/// Invariants and induction variables of one loop.
#[derive(Clone, Debug, Default)]
pub struct InductionInfo {
    /// Registers whose value does not change within the loop.
    pub invariant_vars: BTreeSet<VarId>,
    /// Instructions (by reference) proven loop-invariant.
    pub invariant_instrs: BTreeSet<InstrRef>,
    /// Basic induction variables keyed by register.
    pub induction_vars: BTreeMap<VarId, InductionVar>,
}

impl InductionInfo {
    /// Computes invariants and basic induction variables for loop `loop_id` of `function`.
    pub fn compute(function: &Function, _cfg: &Cfg, forest: &LoopForest, loop_id: LoopId) -> Self {
        let natural = forest.get(loop_id);
        let loop_instrs: Vec<(InstrRef, &Instr)> = natural
            .blocks
            .iter()
            .flat_map(|&b| {
                let instrs = function.block(b).instrs.iter().enumerate();
                instrs.map(move |(i, instr)| (InstrRef::new(b, i), instr))
            })
            .collect();

        // Collect, per register, the definitions inside the loop.
        let mut defs_in_loop: BTreeMap<VarId, Vec<InstrRef>> = BTreeMap::new();
        for &(at, instr) in &loop_instrs {
            if let Some(d) = instr.dst() {
                defs_in_loop.entry(d).or_default().push(at);
            }
        }

        // 1. Invariant registers: never defined inside the loop, or defined only by invariant
        //    instructions. Iterate to a fixed point; each pass visits, in block order, the
        //    pure loop instructions not yet proven invariant.
        let mut invariant_vars: BTreeSet<VarId> = (0..function.num_vars as u32)
            .map(VarId::new)
            .filter(|v| !defs_in_loop.contains_key(v))
            .collect();
        let mut invariant_instrs: BTreeSet<InstrRef> = BTreeSet::new();
        let mut pending: Vec<(InstrRef, &Instr)> = loop_instrs
            .into_iter()
            .filter(|(_, instr)| instr.is_pure())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            pending.retain(|&(at, instr)| {
                let operands_invariant = instr.operands().iter().all(|op| match op {
                    Operand::Var(v) => invariant_vars.contains(v),
                    _ => true,
                });
                if !operands_invariant {
                    return true;
                }
                // The destination must have this as its only in-loop definition to be an
                // invariant *register* (the instruction itself is invariant regardless).
                invariant_instrs.insert(at);
                changed = true;
                if let Some(d) = instr.dst() {
                    if defs_in_loop.get(&d).map(Vec::len) == Some(1) {
                        invariant_vars.insert(d);
                    }
                }
                false
            });
        }

        // 2. Basic induction variables: exactly one in-loop definition of the form
        //    `v = v + c` or `v = v - c` with a constant (or invariant-constant) step.
        let mut induction_vars = BTreeMap::new();
        for (var, defs) in &defs_in_loop {
            if defs.len() != 1 {
                continue;
            }
            let at = defs[0];
            if let Instr::Binary { dst, op, lhs, rhs } = function.instr(at) {
                if dst != var {
                    continue;
                }
                let step = match (op, lhs, rhs) {
                    (BinOp::Add, Operand::Var(v), Operand::ConstInt(c)) if v == var => Some(*c),
                    (BinOp::Add, Operand::ConstInt(c), Operand::Var(v)) if v == var => Some(*c),
                    (BinOp::Sub, Operand::Var(v), Operand::ConstInt(c)) if v == var => Some(-*c),
                    _ => None,
                };
                if let Some(step) = step {
                    induction_vars.insert(
                        *var,
                        InductionVar {
                            var: *var,
                            update: at,
                            step,
                        },
                    );
                }
            }
        }

        Self {
            invariant_vars,
            invariant_instrs,
            induction_vars,
        }
    }

    /// Returns `true` if `var` is loop-invariant.
    pub fn is_invariant(&self, var: VarId) -> bool {
        self.invariant_vars.contains(&var)
    }

    /// Returns `true` if `var` is a basic induction variable.
    pub fn is_induction(&self, var: VarId) -> bool {
        self.induction_vars.contains_key(&var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominators::DomTree;
    use helix_ir::builder::FunctionBuilder;
    use helix_ir::{Operand, Pred};

    fn analyze(f: &Function) -> (LoopForest, InductionInfo) {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let info = InductionInfo::compute(f, &cfg, &forest, forest.top_level()[0]);
        (forest, info)
    }

    #[test]
    fn induction_and_invariant_classification() {
        // s = 0; for i in 0..n { t = n * 2; s = s + t; }  (i and the counted-loop IV are IVs,
        // n and t are invariant, s is neither)
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let s = b.new_var();
        let t = b.new_var();
        b.const_int(s, 0);
        let lh = b.counted_loop(Operand::int(0), Operand::Var(n), 1);
        b.binary(t, BinOp::Mul, Operand::Var(n), Operand::int(2));
        b.binary(s, BinOp::Add, Operand::Var(s), Operand::Var(t));
        b.br(lh.latch);
        b.switch_to(lh.exit);
        b.ret(Some(Operand::Var(s)));
        let f = b.finish();
        let (_, info) = analyze(&f);

        assert!(info.is_invariant(n));
        assert!(info.is_invariant(t));
        assert!(!info.is_invariant(s));
        assert!(info.is_induction(lh.induction_var));
        assert_eq!(info.induction_vars[&lh.induction_var].step, 1);
        assert!(!info.is_induction(s));
        assert!(!info.invariant_instrs.is_empty());
    }

    #[test]
    fn accumulator_with_nonconstant_step_is_not_induction() {
        // for i in 0..n { s = s + i } -- s steps by a varying amount.
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let s = b.new_var();
        b.const_int(s, 0);
        let lh = b.counted_loop(Operand::int(0), Operand::Var(n), 1);
        b.binary(
            s,
            BinOp::Add,
            Operand::Var(s),
            Operand::Var(lh.induction_var),
        );
        b.br(lh.latch);
        b.switch_to(lh.exit);
        b.ret(Some(Operand::Var(s)));
        let f = b.finish();
        let (_, info) = analyze(&f);
        assert!(!info.is_induction(s));
        assert!(info.is_induction(lh.induction_var));
    }

    #[test]
    fn variable_redefined_twice_is_not_induction() {
        // while (i < n) { i = i + 1; if (c) i = i + 2; }
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let i = b.new_var();
        b.const_int(i, 0);
        let header = b.new_block();
        let body = b.new_block();
        let extra = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(i), Operand::Var(n));
        b.cond_br(Operand::Var(c), body, exit);
        b.switch_to(body);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(1));
        let c2 = b.cmp_to_new(Pred::Gt, Operand::Var(i), Operand::int(5));
        b.cond_br(Operand::Var(c2), extra, latch);
        b.switch_to(extra);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(2));
        b.br(latch);
        b.switch_to(latch);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Var(i)));
        let f = b.finish();
        let (_, info) = analyze(&f);
        assert!(!info.is_induction(i));
        assert!(!info.is_invariant(i));
        assert!(info.is_invariant(n));
    }
}
