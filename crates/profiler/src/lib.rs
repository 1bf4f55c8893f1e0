//! # helix-profiler
//!
//! The profiling interpreter that produces the feedback data HELIX's loop selection consumes
//! (Section 2.2 of the paper):
//!
//! * per-loop invocation and iteration counts (`Invoc_i`, used by Equation 1),
//! * per-loop inclusive cycle counts (the saved-time attribute `T` is derived from these),
//! * per-instruction dynamic execution counts and cycles (used to price sequential segments
//!   and prologues, and Figure 11's time breakdown),
//! * the *dynamic loop nesting graph* edges — which static nesting edges were actually
//!   traversed with the training input.
//!
//! The profiler is an observer attached to the sequential interpreter of `helix-ir`; it does
//! not modify the program, mirroring how the paper instruments code at the IR level.
//!
//! Two implementations produce the same [`ProgramProfile`]:
//!
//! * [`Profiler`] observes the tree-walking interpreter ([`helix_ir::Machine`]) — the
//!   reference implementation;
//! * [`ImageProfiler`] observes the flat-bytecode engine ([`helix_ir::ImageMachine`]) with
//!   dense per-block counters and delta-based inclusive attribution — the fast path used by the
//!   pipeline and the CLI.

pub mod image;
pub mod profile;
pub mod profiler;

pub use image::{profile_image, profile_program_image, ImageProfiler};
pub use profile::{FunctionProfile, InstrProfile, LoopKey, LoopProfile, ProgramProfile};
pub use profiler::{profile_program, Profiler};
