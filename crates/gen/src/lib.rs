//! # helix-gen
//!
//! Structured program generation and differential fuzzing for the HELIX reproduction.
//!
//! HELIX's correctness argument — that sequential segments plus `Wait`/`Signal` placement
//! preserve every loop-carried dependence of an *irregular* program — is exactly the kind of
//! claim hand-written tests under-cover: the PR 2 Step-6 signal-merge soundness bug survived
//! the whole unit suite and surfaced only by chance on two corpus programs. This crate turns
//! that class of bug into a one-command minimized reproduction:
//!
//! * [`generate()`] — a seeded, fully deterministic structured generator emitting
//!   verifier-clean, terminating HIR modules that span the paper's hard cases: nested loop
//!   hierarchies, loop-carried scalar and memory dependences, pointer chasing over generated
//!   heap graphs, reductions, calls (including in-loop `ret` and bounded recursion), and
//!   irregular branching. Shape and size are controlled by [`GenConfig`]. The workspace's
//!   property tests loop over its seeds, so a failing case reproduces from its seed alone.
//! * [`oracle`] — a differential oracle running each module through the frontend round-trip,
//!   both execution engines (results, [`helix_ir::ExecStats`], final memory — compared
//!   bitwise), both profilers, a structural signal-placement soundness check over the HELIX
//!   analysis, and the real-thread parallel executor at several thread counts.
//! * [`shrink`] — a delta-debugging shrinker that minimizes a failing module while
//!   preserving the failure, so every divergence ships as a small `.hir` repro.
//!
//! The `helix fuzz` CLI command drives all of this over seed ranges; see `docs/testing.md`
//! for the overall test matrix.

pub mod config;
pub mod generate;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use config::GenConfig;
pub use generate::{generate, GeneratedProgram};
pub use oracle::{
    differential_check, signal_placement_violations, telemetry_violations, Divergence,
    DivergenceKind, OracleConfig, OracleReport,
};
pub use rng::GenRng;
pub use shrink::{compact_registers, shrink_module, ShrinkOptions, ShrinkOutcome, ShrinkStats};
