//! # helix-core
//!
//! The HELIX loop-parallelization transformation and loop-selection algorithm
//! (Campanoni et al., "HELIX: Automatic Parallelization of Irregular Programs for Chip
//! Multiprocessing", CGO 2012).
//!
//! The crate is organized along the paper's Section 2:
//!
//! * [`config`] — the transformation configuration: core count, signal latencies, and the
//!   per-step enable switches used by the Figure 10 ablation.
//! * [`normalize`] — Step 1: split each loop into *prologue* (the minimal code that decides
//!   whether the next iteration runs; the only place exits may originate) and *body*.
//! * [`segments`] — Steps 2–4: select the loop-carried data dependences that need
//!   synchronization (`D_data`), and build one *sequential segment* per dependence with
//!   `Wait`/`Signal` placement points computed by data-flow reasoning.
//! * [`optimize`] — Steps 5–6: shrink sequential segments by excluding independent
//!   instructions, remove redundant `Wait`s and merge segments; its closing pass then puts
//!   a `Wait` before every `Signal`, so no iteration signals past an older one.
//! * [`privatize`] — the iteration-privatization analysis: proves per-iteration allocations
//!   thread-private so the runtime serves them from per-worker bump arenas and drops the
//!   synchronization of dependences confined to privatized storage.
//! * [`schedule`] — Step 8's code-scheduling algorithm (Figure 6) that spaces sequential
//!   segments so helper threads can prefetch signals evenly.
//! * [`transform`] — Steps 7 and 9: demote loop-boundary live variables to memory, insert
//!   `Wait`/`Signal` instructions into a parallel clone of the function, and keep the original
//!   sequential version for fallback dispatch.
//! * [`model`] — the speedup model of Section 2.2 (Amdahl's law with overhead, Equation 1)
//!   and the signal-latency models for no/matched/HELIX/ideal prefetching.
//! * [`selection`] — the dynamic loop nesting graph, the saved-time (`T`) / `maxT`
//!   propagation, and the two-phase loop-selection algorithm.
//! * [`pipeline`] — the driver that runs everything over a whole program and produces the
//!   per-benchmark statistics reported in Table 1.

pub mod config;
pub mod model;
pub mod normalize;
pub mod optimize;
pub mod pipeline;
pub mod plan;
pub mod privatize;
pub mod schedule;
pub mod segments;
pub mod selection;
pub mod transform;

pub use config::HelixConfig;
pub use model::{PrefetchMode, SpeedupModel};
pub use normalize::NormalizedLoop;
pub use pipeline::{content_hash, Helix, HelixOutput, LoopStatistics, PreparedProgram};
pub use plan::{ParallelizedLoop, SequentialSegment};
pub use privatize::{analyze_privatization, PrivatizationInfo};
pub use selection::{DynamicLoopGraph, LoopSelection};
pub use transform::TransformedProgram;
