//! # helix-plan
//!
//! What the HELIX pipeline hands to the parallel runtime, in a crate of its own so that the
//! runtime sits *below* the pipeline (`helix-core` profiles its training run on the runtime's
//! engine through `helix-profiler`):
//!
//! * [`config`] — the transformation configuration: core count, signal latencies, and the
//!   per-step enable switches used by the Figure 10 ablation;
//! * [`plan`] — the parallelization plan of one loop and its sequential segments;
//! * [`transformed`] — the program Steps 7 and 9 produce for one plan, which the runtime
//!   lowers.
//!
//! `helix-core` re-exports all three at their historical paths (`helix_core::config`,
//! `helix_core::plan`, `helix_core::transform::TransformedProgram`).

pub mod config;
pub mod plan;
pub mod transformed;

pub use config::HelixConfig;
pub use plan::{ParallelizedLoop, SequentialSegment};
pub use transformed::TransformedProgram;
