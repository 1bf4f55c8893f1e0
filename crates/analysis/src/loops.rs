//! Natural loop detection and the per-function loop forest.
//!
//! A back edge is a CFG edge `latch -> header` where the header dominates the latch. The
//! natural loop of a back edge is the header plus every block that can reach the latch without
//! passing through the header. Loops sharing a header are merged. Loops form a forest by block
//! containment; [`LoopForest`] exposes parent/children links, nesting depth, exits and
//! preheaders — everything HELIX Steps 1–9 and the loop-selection algorithm need from a single
//! function.

use crate::cfg::Cfg;
use crate::dominators::DomTree;
use helix_ir::{BlockId, Function, InstrRef};
use std::collections::BTreeSet;
use std::fmt;

/// Identifies a loop inside one function's [`LoopForest`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// One natural loop.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// This loop's id within its forest.
    pub id: LoopId,
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Sources of back edges into the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// The enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Loops directly nested inside this one.
    pub children: Vec<LoopId>,
    /// Nesting depth within the function (outermost = 1).
    pub depth: usize,
    /// Blocks inside the loop with a successor outside the loop.
    pub exiting_blocks: Vec<BlockId>,
    /// Blocks outside the loop that are successors of exiting blocks.
    pub exit_blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Returns `true` if `block` belongs to the loop.
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }

    /// Number of blocks in the loop.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// All natural loops of one function, organized as a nesting forest.
#[derive(Clone, Debug)]
pub struct LoopForest {
    /// The loops, indexed by [`LoopId`].
    pub loops: Vec<NaturalLoop>,
    /// Innermost loop containing each block (indexed by block index), if any.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Detects every natural loop of `function`.
    pub fn new(function: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        // 1. Find back edges and group them by header.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
        for block in &function.blocks {
            if !cfg.is_reachable(block.id) {
                continue;
            }
            for succ in block.successors() {
                if dom.dominates(succ, block.id) {
                    match headers.iter().position(|&h| h == succ) {
                        Some(i) => latches_of[i].push(block.id),
                        None => {
                            headers.push(succ);
                            latches_of.push(vec![block.id]);
                        }
                    }
                }
            }
        }

        // 2. For each header, collect the natural loop body by walking predecessors from the
        //    latches until the header is reached.
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (i, &header) in headers.iter().enumerate() {
            let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
            blocks.insert(header);
            let mut stack: Vec<BlockId> = Vec::new();
            for &latch in &latches_of[i] {
                if blocks.insert(latch) {
                    stack.push(latch);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    if cfg.is_reachable(p) && blocks.insert(p) {
                        stack.push(p);
                    }
                }
            }
            let mut exiting_blocks = Vec::new();
            let mut exit_blocks: BTreeSet<BlockId> = BTreeSet::new();
            for &b in &blocks {
                let mut exits_here = false;
                for &s in cfg.succs(b) {
                    if !blocks.contains(&s) {
                        exits_here = true;
                        exit_blocks.insert(s);
                    }
                }
                if exits_here {
                    exiting_blocks.push(b);
                }
            }
            loops.push(NaturalLoop {
                id: LoopId(loops.len() as u32),
                header,
                latches: latches_of[i].clone(),
                blocks,
                parent: None,
                children: Vec::new(),
                depth: 1,
                exiting_blocks,
                exit_blocks: exit_blocks.into_iter().collect(),
            });
        }

        // 3. Build the nesting forest: loop A is the parent of loop B if A contains B's header
        //    and A is the smallest such loop.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..loops.len()).collect();
            idx.sort_by_key(|&i| loops[i].blocks.len());
            idx
        };
        for &child_idx in &order {
            let child_header = loops[child_idx].header;
            let child_len = loops[child_idx].blocks.len();
            let mut best: Option<usize> = None;
            for &cand_idx in &order {
                if cand_idx == child_idx {
                    continue;
                }
                let cand = &loops[cand_idx];
                if cand.blocks.len() <= child_len {
                    continue;
                }
                if cand.blocks.contains(&child_header) {
                    let better = match best {
                        None => true,
                        Some(b) => cand.blocks.len() < loops[b].blocks.len(),
                    };
                    if better {
                        best = Some(cand_idx);
                    }
                }
            }
            if let Some(parent_idx) = best {
                loops[child_idx].parent = Some(LoopId(parent_idx as u32));
                let child_id = loops[child_idx].id;
                loops[parent_idx].children.push(child_id);
            }
        }
        // Depths.
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p.index()].parent;
                if depth > loops.len() + 1 {
                    break;
                }
            }
            loops[i].depth = depth;
        }

        // 4. Innermost loop per block.
        let mut innermost: Vec<Option<LoopId>> = vec![None; function.blocks.len()];
        for l in &loops {
            for &b in &l.blocks {
                let slot = &mut innermost[b.index()];
                match slot {
                    None => *slot = Some(l.id),
                    Some(existing) => {
                        if l.blocks.len() < loops[existing.index()].blocks.len() {
                            *slot = Some(l.id);
                        }
                    }
                }
            }
        }

        Self { loops, innermost }
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Returns `true` when the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Returns the loop with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get(&self, id: LoopId) -> &NaturalLoop {
        &self.loops[id.index()]
    }

    /// Iterates over all loops.
    pub fn iter(&self) -> impl Iterator<Item = &NaturalLoop> {
        self.loops.iter()
    }

    /// The innermost loop containing `block`, if any.
    pub fn innermost_containing(&self, block: BlockId) -> Option<LoopId> {
        self.innermost.get(block.index()).copied().flatten()
    }

    /// Top-level (outermost) loops.
    pub fn top_level(&self) -> Vec<LoopId> {
        self.loops
            .iter()
            .filter(|l| l.parent.is_none())
            .map(|l| l.id)
            .collect()
    }

    /// Returns the instruction references of every instruction inside `id`, in block order.
    pub fn instrs_of(&self, id: LoopId, function: &Function) -> Vec<InstrRef> {
        let l = self.get(id);
        let mut out = Vec::new();
        for &b in &l.blocks {
            for (i, _) in function.block(b).instrs.iter().enumerate() {
                out.push(InstrRef::new(b, i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::FunctionBuilder;
    use helix_ir::{BinOp, Function, Operand, Pred};

    /// Builds a doubly nested counted loop:
    /// `for i in 0..n { for j in 0..n { s += j } }`.
    fn nested_loops() -> Function {
        let mut b = FunctionBuilder::new("nested", 1);
        let n = b.param(0);
        let s = b.new_var();
        b.const_int(s, 0);
        let outer = b.counted_loop(Operand::int(0), Operand::Var(n), 1);
        let inner = b.counted_loop(Operand::int(0), Operand::Var(n), 1);
        b.binary(
            s,
            BinOp::Add,
            Operand::Var(s),
            Operand::Var(inner.induction_var),
        );
        b.br(inner.latch);
        b.switch_to(inner.exit);
        b.br(outer.latch);
        b.switch_to(outer.exit);
        b.ret(Some(Operand::Var(s)));
        b.finish()
    }

    fn forest_of(f: &Function) -> LoopForest {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        LoopForest::new(f, &cfg, &dom)
    }

    #[test]
    fn detects_two_nested_loops() {
        let f = nested_loops();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 2);
        assert!(!forest.is_empty());
        let top = forest.top_level();
        assert_eq!(top.len(), 1);
        let outer = forest.get(top[0]);
        assert_eq!(outer.depth, 1);
        assert_eq!(outer.children.len(), 1);
        let inner = forest.get(outer.children[0]);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.num_blocks() > inner.num_blocks());
        // Every inner block is also an outer block.
        for b in &inner.blocks {
            assert!(outer.contains(*b));
        }
    }

    #[test]
    fn latches_exits_and_innermost() {
        let f = nested_loops();
        let forest = forest_of(&f);
        for l in forest.iter() {
            assert_eq!(l.latches.len(), 1, "counted loops have a single latch");
            assert!(!l.exiting_blocks.is_empty());
            assert!(!l.exit_blocks.is_empty());
            assert!(l.contains(l.header));
            // The exit block is outside the loop.
            for e in &l.exit_blocks {
                assert!(!l.contains(*e));
            }
        }
        let top = forest.top_level();
        let outer = forest.get(top[0]);
        let inner = forest.get(outer.children[0]);
        // The inner header's innermost loop is the inner loop.
        assert_eq!(forest.innermost_containing(inner.header), Some(inner.id));
        // The outer header's innermost loop is the outer loop.
        assert_eq!(forest.innermost_containing(outer.header), Some(outer.id));
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut b = FunctionBuilder::new("straight", 0);
        let v = b.new_var();
        b.const_int(v, 1);
        b.ret(Some(Operand::Var(v)));
        let f = b.finish();
        let forest = forest_of(&f);
        assert!(forest.is_empty());
        assert!(forest.top_level().is_empty());
        assert_eq!(forest.innermost_containing(f.entry), None);
    }

    #[test]
    fn while_loop_with_conditional_body() {
        // while (i < n) { if (i % 2) s += i; i += 1 }
        let mut b = FunctionBuilder::new("cond_body", 1);
        let n = b.param(0);
        let i = b.new_var();
        let s = b.new_var();
        b.const_int(i, 0);
        b.const_int(s, 0);
        let header = b.new_block();
        let body = b.new_block();
        let odd = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(i), Operand::Var(n));
        b.cond_br(Operand::Var(c), body, exit);
        b.switch_to(body);
        let r = b.binary_to_new(BinOp::Rem, Operand::Var(i), Operand::int(2));
        b.cond_br(Operand::Var(r), odd, latch);
        b.switch_to(odd);
        b.binary(s, BinOp::Add, Operand::Var(s), Operand::Var(i));
        b.br(latch);
        b.switch_to(latch);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(1));
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Var(s)));
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 1);
        let l = forest.get(LoopId(0));
        assert_eq!(l.header, header);
        assert_eq!(l.latches, vec![latch]);
        assert_eq!(l.num_blocks(), 4); // header, body, odd, latch
        assert_eq!(l.exit_blocks, vec![exit]);
        // header: cmp + condbr, body: rem + condbr, odd: add + br, latch: add + br.
        assert_eq!(forest.instrs_of(l.id, &f).len(), 8);
    }

    #[test]
    fn loops_sharing_header_are_merged() {
        // A loop with two latches (continue paths) shares one header.
        let mut b = FunctionBuilder::new("two_latches", 1);
        let n = b.param(0);
        let i = b.new_var();
        b.const_int(i, 0);
        let header = b.new_block();
        let body = b.new_block();
        let latch1 = b.new_block();
        let latch2 = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(i), Operand::Var(n));
        b.cond_br(Operand::Var(c), body, exit);
        b.switch_to(body);
        let even = b.binary_to_new(BinOp::And, Operand::Var(i), Operand::int(1));
        b.cond_br(Operand::Var(even), latch1, latch2);
        b.switch_to(latch1);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(1));
        b.br(header);
        b.switch_to(latch2);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(2));
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest.get(LoopId(0)).latches.len(), 2);
    }
}
