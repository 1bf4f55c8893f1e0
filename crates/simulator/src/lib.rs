//! # helix-simulator
//!
//! A cycle-level timing model of HELIX execution on a chip multiprocessor, standing in for the
//! paper's Intel Core i7-980X testbed.
//!
//! The paper measures wall-clock speedups on real hardware. This crate reproduces the *shape*
//! of those measurements with a discrete-event simulation of the HELIX execution model:
//! iterations of a parallelized loop are assigned round-robin to a ring of cores; the prologue
//! of iteration `i+1` may only start once iteration `i`'s prologue has finished; every
//! synchronized sequential segment of iteration `i+1` may only start once iteration `i` has
//! left that segment *and* the signal has crossed the cores (110 cycles unprefetched, 4 cycles
//! when an SMT helper thread prefetched it); everything else overlaps freely.
//!
//! [`simulate_loop`] times one parallelized loop; [`simulate_program`] combines the selected
//! loops of a [`helix_core::HelixOutput`] with the profile's serial portions to produce whole-program
//! speedups (Figure 9), and its ablation switches reproduce Figure 10.
//!
//! [`explain()`] puts the model next to measurement: every candidate loop's selection under
//! the paper's constants and under this machine's calibration, with each segment's model
//! estimate, lowered span and observed span.

pub mod explain;
pub mod sim;

pub use explain::{explain, Decision, LoopExplanation, SegmentExplanation};
pub use sim::{
    simulate_loop, simulate_program, simulate_program_with_selection, LoopSimResult,
    ProgramSimResult, SimConfig,
};
