//! Loop selection (Section 2.2): the dynamic loop nesting graph and the two-phase
//! saved-time propagation algorithm.
//!
//! Each profiled loop gets a *saved time* attribute `T` — the cycles the speedup model says
//! parallelizing that loop alone would save — and a `maxT` attribute, initially equal to `T`.
//! Phase 1 propagates `maxT` bottom-up: if the sum of a loop's subloops' `maxT` exceeds its
//! own, the sum becomes the new `maxT`. Phase 2 walks top-down from the outermost loops and
//! stops at every node whose `maxT` equals its own `T` (and is positive): those are the loops
//! selected for parallelization. Descending further would lose code to parallelize; stopping
//! earlier would lose the larger savings available deeper in the nest.

use helix_analysis::LoopNestingGraph;
use helix_profiler::{LoopKey, ProgramProfile};
use std::collections::{BTreeMap, BTreeSet};

/// One node of the dynamic loop nesting graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DynLoopNode {
    /// The loop.
    pub key: LoopKey,
    /// Children traversed during profiling.
    pub children: Vec<LoopKey>,
    /// Parents traversed during profiling.
    pub parents: Vec<LoopKey>,
    /// Saved time `T` in cycles.
    pub saved_time: f64,
    /// Propagated `maxT` in cycles.
    pub max_saved_time: f64,
}

/// The dynamic loop nesting graph: the subgraph of the static graph whose edges were actually
/// traversed with the training input.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicLoopGraph {
    /// Nodes keyed by loop.
    pub nodes: BTreeMap<LoopKey, DynLoopNode>,
    /// Loops entered while no other loop was active.
    pub roots: Vec<LoopKey>,
}

/// The outcome of loop selection.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopSelection {
    /// The loops chosen for parallelization.
    pub selected: BTreeSet<LoopKey>,
    /// Saved time of every considered loop.
    pub saved_time: BTreeMap<LoopKey, f64>,
    /// Propagated `maxT` of every considered loop.
    pub max_saved_time: BTreeMap<LoopKey, f64>,
}

impl DynamicLoopGraph {
    /// Builds the dynamic graph from the static nesting graph and a program profile.
    ///
    /// `saved_time` provides `T` for each loop (cycles saved by parallelizing it alone, from
    /// the speedup model); loops missing from the map get `T = 0`.
    pub fn build(
        nesting: &LoopNestingGraph,
        profile: &ProgramProfile,
        saved_time: &BTreeMap<LoopKey, f64>,
    ) -> Self {
        let mut nodes: BTreeMap<LoopKey, DynLoopNode> = BTreeMap::new();
        for node in nesting.iter() {
            let key = (node.func, node.loop_id);
            if !profile.executed(key) {
                continue;
            }
            let t = saved_time.get(&key).copied().unwrap_or(0.0).max(0.0);
            nodes.insert(
                key,
                DynLoopNode {
                    key,
                    children: Vec::new(),
                    parents: Vec::new(),
                    saved_time: t,
                    max_saved_time: t,
                },
            );
        }
        for (parent, child) in &profile.dynamic_edges {
            if nodes.contains_key(parent) && nodes.contains_key(child) && parent != child {
                if let Some(p) = nodes.get_mut(parent) {
                    if !p.children.contains(child) {
                        p.children.push(*child);
                    }
                }
                if let Some(c) = nodes.get_mut(child) {
                    if !c.parents.contains(parent) {
                        c.parents.push(*parent);
                    }
                }
            }
        }
        let roots: Vec<LoopKey> = profile
            .dynamic_roots
            .iter()
            .filter(|k| nodes.contains_key(k))
            .copied()
            .collect();
        Self { nodes, roots }
    }

    /// Phase 1: propagate `maxT` bottom-up until a fixed point.
    pub fn propagate_max_saved_time(&mut self) {
        let keys: Vec<LoopKey> = self.nodes.keys().copied().collect();
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > self.nodes.len() + 10 {
                break; // recursion cycles cannot raise the sum forever; bail out defensively
            }
            for key in &keys {
                let child_sum: f64 = self.nodes[key]
                    .children
                    .clone()
                    .iter()
                    .filter_map(|c| self.nodes.get(c))
                    .map(|c| c.max_saved_time)
                    .sum();
                let node = self.nodes.get_mut(key).expect("key exists");
                if child_sum > node.max_saved_time + 1e-9 {
                    node.max_saved_time = child_sum;
                    changed = true;
                }
            }
        }
    }

    /// Phase 2: select loops top-down.
    pub fn select(&self) -> LoopSelection {
        let mut selected: BTreeSet<LoopKey> = BTreeSet::new();
        let mut visited: BTreeSet<LoopKey> = BTreeSet::new();
        let mut stack: Vec<LoopKey> = self.roots.clone();
        // Loops that ran at top level but are not recorded as dynamic roots (e.g. reached via
        // several parents) still deserve consideration: add parentless nodes.
        for (key, node) in &self.nodes {
            if node.parents.is_empty() && !stack.contains(key) {
                stack.push(*key);
            }
        }
        while let Some(key) = stack.pop() {
            if !visited.insert(key) {
                continue;
            }
            let node = &self.nodes[&key];
            if node.max_saved_time <= 0.0 {
                continue; // nothing worth parallelizing below this point
            }
            if (node.max_saved_time - node.saved_time).abs() < 1e-9 && node.saved_time > 0.0 {
                selected.insert(key);
                // Loops nested inside a parallel loop cannot also be selected: stop descending.
                continue;
            }
            for c in &node.children {
                stack.push(*c);
            }
        }
        LoopSelection {
            selected,
            saved_time: self.nodes.iter().map(|(k, n)| (*k, n.saved_time)).collect(),
            max_saved_time: self
                .nodes
                .iter()
                .map(|(k, n)| (*k, n.max_saved_time))
                .collect(),
        }
    }
}

impl LoopSelection {
    /// Returns `true` when `key` was chosen for parallelization.
    pub fn is_selected(&self, key: LoopKey) -> bool {
        self.selected.contains(&key)
    }

    /// Number of selected loops.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Returns `true` when no loop was selected.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::LoopId;
    use helix_ir::FuncId;
    use helix_profiler::LoopProfile;

    /// Builds a synthetic profile + saved-time map over a hand-specified dynamic graph shape,
    /// bypassing real IR (the selection algorithm only looks at the graph and the numbers).
    fn graph_from_edges(
        loops: &[(u32, f64)],
        edges: &[(u32, u32)],
        roots: &[u32],
    ) -> DynamicLoopGraph {
        let key = |i: u32| (FuncId::new(0), LoopId(i));
        let mut nodes = BTreeMap::new();
        for (i, t) in loops {
            nodes.insert(
                key(*i),
                DynLoopNode {
                    key: key(*i),
                    children: Vec::new(),
                    parents: Vec::new(),
                    saved_time: *t,
                    max_saved_time: *t,
                },
            );
        }
        for (p, c) in edges {
            nodes.get_mut(&key(*p)).unwrap().children.push(key(*c));
            nodes.get_mut(&key(*c)).unwrap().parents.push(key(*p));
        }
        DynamicLoopGraph {
            nodes,
            roots: roots.iter().map(|r| key(*r)).collect(),
        }
    }

    fn key(i: u32) -> LoopKey {
        (FuncId::new(0), LoopId(i))
    }

    #[test]
    fn outermost_loop_selected_when_it_saves_the_most() {
        // L0 saves 100; its child L1 saves 40. maxT(L0) stays 100 → select L0 only.
        let mut g = graph_from_edges(&[(0, 100.0), (1, 40.0)], &[(0, 1)], &[0]);
        g.propagate_max_saved_time();
        let sel = g.select();
        assert!(sel.is_selected(key(0)));
        assert!(!sel.is_selected(key(1)));
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn descends_when_children_save_more_combined() {
        // L0 saves 10, children L1 and L2 save 40 + 30 = 70 > 10 → select the children.
        let mut g = graph_from_edges(&[(0, 10.0), (1, 40.0), (2, 30.0)], &[(0, 1), (0, 2)], &[0]);
        g.propagate_max_saved_time();
        assert!((g.nodes[&key(0)].max_saved_time - 70.0).abs() < 1e-9);
        let sel = g.select();
        assert!(!sel.is_selected(key(0)));
        assert!(sel.is_selected(key(1)));
        assert!(sel.is_selected(key(2)));
    }

    #[test]
    fn mixed_nesting_levels_can_be_selected() {
        // Mirrors the paper's 179.art discussion: siblings at the same nesting level can end
        // up on different sides of the decision. L0 has children L1 (T=50, its child L3 T=10)
        // and L2 (T=5, its child L4 T=60). L1 is selected at depth 2, L4 at depth 3.
        let mut g = graph_from_edges(
            &[(0, 20.0), (1, 50.0), (2, 5.0), (3, 10.0), (4, 60.0)],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
            &[0],
        );
        g.propagate_max_saved_time();
        let sel = g.select();
        assert!(sel.is_selected(key(1)));
        assert!(sel.is_selected(key(4)));
        assert!(!sel.is_selected(key(0)));
        assert!(!sel.is_selected(key(2)));
        assert!(!sel.is_selected(key(3)), "nested inside selected L1");
    }

    #[test]
    fn zero_savings_selects_nothing() {
        let mut g = graph_from_edges(&[(0, 0.0), (1, 0.0)], &[(0, 1)], &[0]);
        g.propagate_max_saved_time();
        let sel = g.select();
        assert!(sel.is_empty());
        assert_eq!(sel.len(), 0);
        assert_eq!(sel.saved_time.len(), 2);
    }

    #[test]
    fn multiple_parents_select_node_once() {
        // Two roots both call into loop 2 (the paper's reset_nodes case).
        let mut g = graph_from_edges(&[(0, 5.0), (1, 5.0), (2, 80.0)], &[(0, 2), (1, 2)], &[0, 1]);
        g.propagate_max_saved_time();
        let sel = g.select();
        assert!(sel.is_selected(key(2)));
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn build_filters_unexecuted_loops() {
        // Construct a real nesting graph with two loops but a profile claiming only one ran.
        use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
        use helix_ir::{BinOp, Operand};
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("main", 0);
        let s = fb.new_var();
        fb.const_int(s, 0);
        let l1 = fb.counted_loop(Operand::int(0), Operand::int(4), 1);
        fb.binary(s, BinOp::Add, Operand::Var(s), Operand::int(1));
        fb.br(l1.latch);
        fb.switch_to(l1.exit);
        let l2 = fb.counted_loop(Operand::int(0), Operand::int(0), 1);
        fb.binary(s, BinOp::Add, Operand::Var(s), Operand::int(1));
        fb.br(l2.latch);
        fb.switch_to(l2.exit);
        fb.ret(Some(Operand::Var(s)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();
        let nesting = LoopNestingGraph::new(&module);
        let profile =
            helix_profiler::profile_program(&module, &nesting, main, &[]).expect("program runs");
        // Only the first loop iterates (the second has a zero trip count).
        let executed: Vec<LoopKey> = nesting
            .iter()
            .map(|n| (n.func, n.loop_id))
            .filter(|k| profile.executed(*k))
            .collect();
        assert_eq!(executed.len(), 1);
        let saved: BTreeMap<LoopKey, f64> = executed.iter().map(|k| (*k, 10.0)).collect();
        let mut g = DynamicLoopGraph::build(&nesting, &profile, &saved);
        assert_eq!(g.nodes.len(), 1);
        g.propagate_max_saved_time();
        let sel = g.select();
        assert_eq!(sel.len(), 1);
        let zero_profile = LoopProfile::default();
        assert_eq!(zero_profile.iterations, 0);
    }
}
