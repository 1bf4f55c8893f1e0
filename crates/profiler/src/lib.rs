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
//! The profiler observes a sequential run; it does not modify the program, mirroring how the
//! paper instruments code at the IR level.
//!
//! Two implementations produce the same [`ProgramProfile`]:
//!
//! * [`Profiler`] observes the tree-walking interpreter ([`helix_ir::Machine`]) — the
//!   reference implementation;
//! * [`profile_image_with_fuel`] runs the lowered program on `helix-runtime`'s engine
//!   ([`helix_runtime::run_observed`]), whose profiling handlers report block entries, calls
//!   and returns, and counts them with dense per-block counters and delta-based inclusive
//!   attribution — the one fast path that the pipeline, the CLI and the tools use.

pub mod image;
pub mod profile;
pub mod profiler;

pub use image::{profile_image, profile_image_with_fuel, profile_program_image};
pub use profile::{FunctionProfile, InstrProfile, LoopKey, LoopProfile, ProgramProfile};
pub use profiler::{profile_program, Profiler};
