//! A generic iterative bit-vector data-flow engine.
//!
//! HELIX relies on several classic data-flow problems: reaching definitions (register
//! dependences), liveness (loop boundary live variables), availability of `Wait` operations
//! (Step 6 redundant-wait elimination), and reachability of dependence endpoints (Step 4
//! signal placement). All of them are instances of the gen/kill framework implemented here.

use crate::cfg::Cfg;
use helix_ir::BlockId;

/// A fixed-size bit set.
#[derive(PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Reuses `self`'s word buffer, so the data-flow passes copy without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl BitSet {
    /// Creates an empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a set with every bit in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// Capacity of the set.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `index`; returns `true` if the bit was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit index out of range");
        let (w, b) = (index / 64, index % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `index`; returns `true` if the bit was previously set.
    pub fn remove(&mut self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        let (w, b) = (index / 64, index % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns `true` if `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        let (w, b) = (index / 64, index % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self &= other`; returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a &= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self -= other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.contains(i))
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Direction of a data-flow problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Information flows from predecessors to successors.
    Forward,
    /// Information flows from successors to predecessors.
    Backward,
}

/// Meet operator of a data-flow problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Meet {
    /// May analyses (union at joins), e.g. reaching definitions and liveness.
    Union,
    /// Must analyses (intersection at joins), e.g. availability.
    Intersection,
}

/// A gen/kill data-flow problem over a fixed universe of facts.
pub trait GenKill {
    /// Number of facts in the universe.
    fn universe(&self) -> usize;
    /// Direction of propagation.
    fn direction(&self) -> Direction;
    /// Meet operator at control-flow joins.
    fn meet(&self) -> Meet;
    /// Facts generated by `block`.
    fn gen_set(&self, block: BlockId) -> BitSet;
    /// Facts killed by `block`.
    fn kill_set(&self, block: BlockId) -> BitSet;
    /// The boundary value (at the entry for forward problems, at the exits for backward ones).
    fn boundary(&self) -> BitSet {
        BitSet::new(self.universe())
    }
}

/// The per-block result of a data-flow analysis.
#[derive(Clone, Debug)]
pub struct DataflowResult {
    /// Facts holding at block entry (forward) / block exit (backward), indexed by block index.
    pub input: Vec<BitSet>,
    /// Facts holding at block exit (forward) / block entry (backward), indexed by block index.
    pub output: Vec<BitSet>,
}

impl DataflowResult {
    /// Facts at the input edge of `block` (entry for forward problems).
    pub fn input_of(&self, block: BlockId) -> &BitSet {
        &self.input[block.index()]
    }

    /// Facts at the output edge of `block` (exit for forward problems).
    pub fn output_of(&self, block: BlockId) -> &BitSet {
        &self.output[block.index()]
    }
}

/// Solves a gen/kill problem by iterating to a fixed point over the CFG.
///
/// Every reachable block's gen and kill sets are computed once, before the first pass; the
/// passes then only apply them.
pub fn solve(problem: &dyn GenKill, cfg: &Cfg) -> DataflowResult {
    let n = cfg.num_blocks();
    let universe = problem.universe();
    let direction = problem.direction();
    let meet = problem.meet();
    let init = match meet {
        Meet::Union => BitSet::new(universe),
        Meet::Intersection => BitSet::full(universe),
    };
    let mut input = vec![init.clone(); n];
    let mut output = vec![init; n];

    // Iteration order: RPO for forward, reverse RPO for backward. Each entry carries the
    // block's neighbours on the input side, whether the boundary value applies to it (the
    // entry/exit blocks, even when they have neighbours, e.g. a loop header whose only
    // predecessors include the entry path), and its gen and kill sets.
    struct Transfer<'c> {
        block: usize,
        neighbors: &'c [BlockId],
        is_boundary: bool,
        gen: BitSet,
        kill: BitSet,
    }
    let transfer = |block: BlockId| {
        let (neighbors, is_boundary) = match direction {
            Direction::Forward => (cfg.preds(block), block == cfg.entry),
            Direction::Backward => (cfg.succs(block), cfg.exits.contains(&block)),
        };
        Transfer {
            block: block.index(),
            neighbors,
            is_boundary,
            gen: problem.gen_set(block),
            kill: problem.kill_set(block),
        }
    };
    let order: Vec<Transfer<'_>> = match direction {
        Direction::Forward => cfg.rpo.iter().map(|&b| transfer(b)).collect(),
        Direction::Backward => cfg.rpo.iter().rev().map(|&b| transfer(b)).collect(),
    };
    let boundary = problem.boundary();
    let meet_with = |acc: &mut BitSet, other: &BitSet| match meet {
        Meet::Union => acc.union_with(other),
        Meet::Intersection => acc.intersect_with(other),
    };

    let mut in_val = BitSet::new(universe);
    let mut out_val = BitSet::new(universe);
    let mut changed = true;
    let mut iterations = 0usize;
    while changed {
        changed = false;
        iterations += 1;
        // Defensive bound: gen/kill problems converge in O(blocks) passes.
        if iterations > n + 10 {
            break;
        }
        for t in &order {
            match t.neighbors.split_first() {
                None => in_val.clone_from(&boundary),
                Some((first, rest)) => {
                    in_val.clone_from(&output[first.index()]);
                    for nb in rest {
                        meet_with(&mut in_val, &output[nb.index()]);
                    }
                }
            }
            if t.is_boundary {
                meet_with(&mut in_val, &boundary);
            }
            out_val.clone_from(&in_val);
            out_val.subtract(&t.kill);
            out_val.union_with(&t.gen);
            if in_val != input[t.block] || out_val != output[t.block] {
                changed = true;
                input[t.block].clone_from(&in_val);
                output[t.block].clone_from(&out_val);
            }
        }
    }
    DataflowResult { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::FunctionBuilder;
    use helix_ir::{Function, Operand, Pred};

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(100);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(99));
        assert_eq!(s.count(), 1);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn bitset_set_operations() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let b: BitSet = [3usize, 4].into_iter().collect();
        let mut u = BitSet::new(5);
        u.union_with(&a);
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        let mut b5 = BitSet::new(4);
        b5.union_with(&b);
        i.intersect_with(&b5);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        let mut d = a.clone();
        d.subtract(&b5);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(BitSet::full(3).count(), 3);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn bitset_out_of_range_insert_panics() {
        BitSet::new(4).insert(4);
    }

    /// A toy forward-may problem: fact `b` = "block b has executed" (gen = {self}).
    struct Reachability {
        n: usize,
    }
    impl GenKill for Reachability {
        fn universe(&self) -> usize {
            self.n
        }
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn meet(&self) -> Meet {
            Meet::Union
        }
        fn gen_set(&self, block: BlockId) -> BitSet {
            let mut s = BitSet::new(self.n);
            s.insert(block.index());
            s
        }
        fn kill_set(&self, _block: BlockId) -> BitSet {
            BitSet::new(self.n)
        }
    }

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", 1);
        let p = b.param(0);
        let l = b.new_block();
        let r = b.new_block();
        let j = b.new_block();
        let c = b.cmp_to_new(Pred::Gt, Operand::Var(p), Operand::int(0));
        b.cond_br(Operand::Var(c), l, r);
        b.switch_to(l);
        b.br(j);
        b.switch_to(r);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn forward_union_problem_converges() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let res = solve(&Reachability { n: 4 }, &cfg);
        // At the join block, both branch blocks may have executed.
        let at_join = res.input_of(BlockId::new(3));
        assert!(at_join.contains(0) && at_join.contains(1) && at_join.contains(2));
        // At the entry, nothing has executed yet.
        assert!(res.input_of(f.entry).is_empty());
    }

    /// A forward-must problem: fact `b` = "block b executed on every path".
    struct MustReach {
        n: usize,
    }
    impl GenKill for MustReach {
        fn universe(&self) -> usize {
            self.n
        }
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn meet(&self) -> Meet {
            Meet::Intersection
        }
        fn gen_set(&self, block: BlockId) -> BitSet {
            let mut s = BitSet::new(self.n);
            s.insert(block.index());
            s
        }
        fn kill_set(&self, _block: BlockId) -> BitSet {
            BitSet::new(self.n)
        }
        fn boundary(&self) -> BitSet {
            BitSet::new(self.n)
        }
    }

    /// Reachability that counts how often the engine asks for each block's gen and kill sets.
    struct Counting {
        n: usize,
        gen_calls: std::cell::RefCell<Vec<usize>>,
        kill_calls: std::cell::RefCell<Vec<usize>>,
    }
    impl GenKill for Counting {
        fn universe(&self) -> usize {
            self.n
        }
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn meet(&self) -> Meet {
            Meet::Union
        }
        fn gen_set(&self, block: BlockId) -> BitSet {
            self.gen_calls.borrow_mut()[block.index()] += 1;
            Reachability { n: self.n }.gen_set(block)
        }
        fn kill_set(&self, block: BlockId) -> BitSet {
            self.kill_calls.borrow_mut()[block.index()] += 1;
            BitSet::new(self.n)
        }
    }

    #[test]
    fn gen_and_kill_are_computed_once_per_block() {
        // A loop needs more than one pass to converge; each pass must reuse the sets.
        let mut b = FunctionBuilder::new("l", 1);
        let n = b.param(0);
        let lh = b.counted_loop(Operand::int(0), Operand::Var(n), 1);
        b.br(lh.latch);
        b.switch_to(lh.exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let blocks = cfg.num_blocks();
        let problem = Counting {
            n: blocks,
            gen_calls: std::cell::RefCell::new(vec![0; blocks]),
            kill_calls: std::cell::RefCell::new(vec![0; blocks]),
        };
        let res = solve(&problem, &cfg);
        // The latch's fact flows around the back edge into the header.
        assert!(res.input_of(lh.header).contains(lh.latch.index()));
        assert_eq!(*problem.gen_calls.borrow(), vec![1; blocks]);
        assert_eq!(*problem.kill_calls.borrow(), vec![1; blocks]);
    }

    #[test]
    fn must_problem_intersects_at_joins() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let res = solve(&MustReach { n: 4 }, &cfg);
        let at_join = res.input_of(BlockId::new(3));
        // Only the entry block is on every path to the join.
        assert!(at_join.contains(0));
        assert!(!at_join.contains(1));
        assert!(!at_join.contains(2));
    }
}
