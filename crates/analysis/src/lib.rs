//! # helix-analysis
//!
//! Program analyses required by the HELIX transformation (Campanoni et al., CGO 2012):
//!
//! * [`cfg`](mod@cfg) — control-flow-graph utilities (predecessors, successors, reverse postorder).
//! * [`dominators`] — dominator and post-dominator trees (used to find loop back edges and to
//!   compute loop prologues in HELIX Step 1).
//! * [`loops`] — natural loop detection and the per-function loop forest.
//! * [`dataflow`] — a generic iterative bit-vector data-flow engine.
//! * [`liveness`] / [`reaching`] — classic live-variable and reaching-definition analyses,
//!   used to find loop boundary live variables and register dependences.
//! * [`callgraph`] — the program call graph.
//! * [`loop_nesting`] — the program-wide *static loop nesting graph* of Section 2.2.
//! * [`pointer`](mod@pointer) — an Andersen-style, flow-insensitive, interprocedural pointer analysis
//!   standing in for the paper's "practical and accurate low-level pointer analysis" \[17\].
//! * [`ddg`] — the per-loop data dependence graph with loop-carried classification.
//! * [`induction`] — loop-invariant and induction-variable detection (HELIX Step 2 uses these
//!   to avoid synchronizing dependences that do not need it).

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod ddg;
pub mod dominators;
pub mod induction;
pub mod liveness;
pub mod loop_nesting;
pub mod loops;
pub mod pointer;
pub mod reaching;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use dataflow::BitSet;
pub use ddg::{DataDependence, DepKind, LoopDdg};
pub use dominators::{DomTree, PostDomTree};
pub use induction::{InductionInfo, InductionVar};
pub use liveness::Liveness;
pub use loop_nesting::{LoopNestingGraph, LoopNode, LoopNodeId};
pub use loops::{LoopForest, LoopId, NaturalLoop};
pub use pointer::{AbstractObject, PointerAnalysis};
pub use reaching::{Definition, ReachingDefs};
