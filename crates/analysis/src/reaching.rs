//! Reaching-definitions analysis.
//!
//! Used to build register data dependences: a definition `d` of register `v` reaches a use `u`
//! of `v` if there is a path from `d` to `u` with no intervening redefinition of `v`. HELIX
//! additionally needs to distinguish *intra-iteration* from *loop-carried* register
//! dependences, which [`crate::ddg`] derives by running this analysis with and without the
//! loop's back edges.

use crate::cfg::Cfg;
use crate::dataflow::{solve, BitSet, DataflowResult, Direction, GenKill, Meet};
use helix_ir::{BlockId, Function, InstrRef, VarId};
use std::collections::HashSet;

/// One static definition of a register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Definition {
    /// The defined register.
    pub var: VarId,
    /// The defining instruction.
    pub at: InstrRef,
}

/// Reaching-definitions analysis result for one function.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// All static definitions, indexed by definition id (bit index).
    pub defs: Vec<Definition>,
    /// Definition ids of each register, ascending, indexed by register index.
    defs_of_var: Vec<Vec<usize>>,
    result: DataflowResult,
}

struct Problem<'a> {
    function: &'a Function,
    defs: &'a [Definition],
    defs_of_var: &'a [Vec<usize>],
    /// Definition ids of each block, in instruction order, indexed by block index.
    def_ids_by_block: Vec<Vec<usize>>,
}

impl GenKill for Problem<'_> {
    fn universe(&self) -> usize {
        self.defs.len()
    }
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Union
    }
    fn gen_set(&self, block: BlockId) -> BitSet {
        // The last definition of each variable in the block survives.
        let mut gen = BitSet::new(self.universe());
        let mut seen: HashSet<VarId> = HashSet::new();
        for &d in self.def_ids_by_block[block.index()].iter().rev() {
            if seen.insert(self.defs[d].var) {
                gen.insert(d);
            }
        }
        gen
    }
    fn kill_set(&self, block: BlockId) -> BitSet {
        let mut kill = BitSet::new(self.universe());
        for instr in &self.function.block(block).instrs {
            if let Some(v) = instr.dst() {
                for &d in &self.defs_of_var[v.index()] {
                    kill.insert(d);
                }
            }
        }
        kill
    }
}

impl ReachingDefs {
    /// Runs the analysis on `function`.
    pub fn new(function: &Function, cfg: &Cfg) -> Self {
        let mut defs = Vec::new();
        let mut defs_of_var = vec![Vec::new(); function.num_vars];
        let mut def_ids_by_block = vec![Vec::new(); function.blocks.len()];
        for (at, instr) in function.instr_refs() {
            if let Some(var) = instr.dst() {
                let id = defs.len();
                defs.push(Definition { var, at });
                if defs_of_var.len() <= var.index() {
                    defs_of_var.resize(var.index() + 1, Vec::new());
                }
                defs_of_var[var.index()].push(id);
                def_ids_by_block[at.block.index()].push(id);
            }
        }
        let problem = Problem {
            function,
            defs: &defs,
            defs_of_var: &defs_of_var,
            def_ids_by_block,
        };
        let result = solve(&problem, cfg);
        Self {
            defs,
            defs_of_var,
            result,
        }
    }

    /// Definition ids of register `var`.
    pub fn defs_of(&self, var: VarId) -> &[usize] {
        self.defs_of_var.get(var.index()).map_or(&[], Vec::as_slice)
    }

    /// The set of definition ids reaching the entry of `block`.
    pub fn reaching_in(&self, block: BlockId) -> &BitSet {
        self.result.input_of(block)
    }

    /// The set of definition ids reaching the exit of `block`.
    pub fn reaching_out(&self, block: BlockId) -> &BitSet {
        self.result.output_of(block)
    }

    /// Returns the definitions of `var` that reach the *use site* `at` (accounting for
    /// redefinitions earlier in the same block), in ascending id order.
    pub fn reaching_defs_at(&self, function: &Function, at: InstrRef, var: VarId) -> Vec<usize> {
        let instrs = &function.block(at.block).instrs;
        let before = &instrs[..at.index.min(instrs.len())];
        match before.iter().rposition(|instr| instr.dst() == Some(var)) {
            // The last redefinition before the use in its own block shadows everything else.
            Some(index) => {
                let here = InstrRef::new(at.block, index);
                let def = self
                    .defs_of(var)
                    .iter()
                    .copied()
                    .find(|&d| self.defs[d].at == here)
                    .expect("definition must be registered");
                vec![def]
            }
            None => {
                let reaching = self.reaching_in(at.block);
                self.defs_of(var)
                    .iter()
                    .copied()
                    .filter(|&d| reaching.contains(d))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::FunctionBuilder;
    use helix_ir::{BinOp, Operand, Pred};

    #[test]
    fn defs_reach_across_blocks() {
        // x = 1; if (p) { x = 2 } ; y = x
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let x = b.new_var();
        let y = b.new_var();
        let then_bb = b.new_block();
        let join = b.new_block();
        b.const_int(x, 1);
        let c = b.cmp_to_new(Pred::Gt, Operand::Var(p), Operand::int(0));
        b.cond_br(Operand::Var(c), then_bb, join);
        b.switch_to(then_bb);
        b.const_int(x, 2);
        b.br(join);
        b.switch_to(join);
        b.copy(y, Operand::Var(x));
        b.ret(Some(Operand::Var(y)));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::new(&f, &cfg);

        // Both definitions of x reach the use in the join block.
        let use_ref = InstrRef::new(join, 0);
        let reaching = rd.reaching_defs_at(&f, use_ref, x);
        assert_eq!(reaching.len(), 2);
        assert_eq!(rd.defs_of(x).len(), 2);
        // y has a single def.
        assert_eq!(rd.defs_of(y).len(), 1);
    }

    #[test]
    fn same_block_redefinition_kills_earlier_def() {
        // x = 1; x = 2; y = x  -- only the second def reaches the use.
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.new_var();
        let y = b.new_var();
        b.const_int(x, 1);
        b.const_int(x, 2);
        b.copy(y, Operand::Var(x));
        b.ret(Some(Operand::Var(y)));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::new(&f, &cfg);
        let use_ref = InstrRef::new(f.entry, 2);
        let reaching = rd.reaching_defs_at(&f, use_ref, x);
        assert_eq!(reaching.len(), 1);
        assert_eq!(rd.defs[reaching[0]].at.index, 1);
    }

    #[test]
    fn loop_carried_def_reaches_header() {
        // s = 0; for i in 0..n { s = s + i }  -- the def of s in the body reaches the header.
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
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::new(&f, &cfg);
        // The body definition of s appears in the reaching-in set of the loop header.
        let body_def = rd
            .defs
            .iter()
            .position(|d| d.var == s && d.at.block == lh.body)
            .unwrap();
        assert!(rd.reaching_in(lh.header).contains(body_def));
        // And also the init definition from the entry block.
        let init_def = rd
            .defs
            .iter()
            .position(|d| d.var == s && d.at.block == f.entry)
            .unwrap();
        assert!(rd.reaching_in(lh.header).contains(init_def));
        assert!(rd.reaching_out(lh.body).contains(body_def));
    }
}
