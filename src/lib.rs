//! # helix
//!
//! Facade crate for the HELIX reproduction (Campanoni et al., "HELIX: Automatic
//! Parallelization of Irregular Programs for Chip Multiprocessing", CGO 2012).
//!
//! This crate re-exports the individual subsystem crates under stable module names so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`ir`] — three-address IR, tree-walking interpreter *and* flat-bytecode engine, cost
//!   model, verifier, canonical printer.
//! * [`frontend`] — lexer + parser for the textual `.hir` format.
//! * [`analysis`] — CFG, dominators, loops, liveness, pointer analysis, dependence graphs.
//! * [`runtime`] — real-thread parallel runtime: lowered `ParallelImage` bytecode, padded
//!   signal lanes, persistent worker pool, iteration privatization; its engine also runs
//!   the profiled training run.
//! * [`profiler`] — profilers feeding loop selection: the tree-walking reference and the
//!   dense block profiler of the runtime's engine.
//! * [`core`] — HELIX Steps 1–8: segments, signal minimization, prefetch scheduling,
//!   selection, transformation.
//! * [`simulator`] — cycle-level CMP timing model (the Figure 9 numbers).
//! * [`workloads`] — 13 synthetic SPEC CPU2000 stand-ins + the `.hir` corpus loader.
//! * [`gen`] — seeded structured program generator, differential fuzzing oracle and
//!   auto-shrinker.
//! * [`service`] — `helix serve`: daemon with a content-hash image cache and shared-pool
//!   scheduling.
//!
//! See `README.md` for a quickstart and the crate table, and `docs/` for each subsystem.

pub use helix_analysis as analysis;
pub use helix_core as core;
pub use helix_frontend as frontend;
pub use helix_gen as gen;
pub use helix_ir as ir;
pub use helix_profiler as profiler;
pub use helix_runtime as runtime;
pub use helix_service as service;
pub use helix_simulator as simulator;
pub use helix_workloads as workloads;
