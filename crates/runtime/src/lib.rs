//! # helix-runtime
//!
//! The real-thread runtime for HELIX-parallelized loops: it both validates that the
//! transformation preserves program semantics when iterations really run concurrently, and
//! is engineered to make them *faster* than the sequential engine — the paper's whole claim.
//!
//! The execution model mirrors the paper's (Section 2, Figure 3): successive iterations of
//! the parallelized loop are claimed by a pool of workers; iteration `i+1`'s prologue starts
//! only after iteration `i`'s prologue has finished *and decided to continue*;
//! `Wait(d)`/`Signal(d)` enforce iteration order for every synchronized sequential segment;
//! loop-boundary live variables travel through shared memory because the transformation
//! demoted them (Step 7).
//!
//! The moving parts, each in its own module:
//!
//! * [`parallel_image`] — a [`helix_plan::TransformedProgram`] lowers **once** into a
//!   [`ParallelImage`]: per-iteration flat bytecode with pre-resolved signal-lane indices,
//!   sentinel back-edge/exit targets and privatized allocation sites, dispatched by a lean
//!   engine with no fuel/statistics/cost accounting;
//! * [`lanes`] — cache-line-padded, windowed [`SignalLanes`] replace the dense counter
//!   array whose adjacent dependences false-shared cache lines (the paper's ring-cache
//!   communication, in software);
//! * [`pool`] — a persistent, work-stealing-free [`WorkerPool`] reused across `execute`
//!   calls (the old executor respawned OS threads per run), with an adaptive
//!   spin → yield → park wait strategy;
//! * [`sharded`] — [`SharedMemory`], one flat space of lock-free word cells with an atomic
//!   bump allocator that every run, at any worker count, reads and writes, plus each
//!   worker's [`PrivateArena`] serving allocations the privatization analysis proved
//!   iteration-private;
//! * `engine` — one run's dispatch tables and JIT code behind `run_flat`/`run_iteration`,
//!   built once on the submitting thread and shared by reference with every helper;
//! * [`observe`] — [`run_observed`] runs a function flat on an engine whose control ops
//!   report block entries, calls and returns to an [`ImageObserver`] and charge fuel: the
//!   profiled training run `helix-profiler` turns into the profile loop selection reads;
//! * [`executor`] — [`ParallelExecutor`] orchestrates the three phases, short-circuits
//!   zero-iteration loops to pure sequential execution, and reports deadlocks with the
//!   owning segment and pc range straight from the image's side tables;
//! * [`telemetry`] — per-worker event rings and stall accounting (off by default at run
//!   time, with a sampled low-overhead mode), aggregated into
//!   per-segment run/wait/spin/park breakdowns, worker occupancy and observed segment
//!   costs that feed back into loop selection (`docs/observability.md`).
//!
//! The crate sits below the pipeline: it reads the pipeline's output through `helix-plan`
//! only, so `helix-profiler` and `helix-core` can profile on its engine.
//!
//! Timing is *not* modeled here — that is `helix-simulator`'s job (which reads the
//! [`ParallelImage`]'s per-segment costs). This crate answers the correctness question —
//! does parallel execution produce the sequential result? — and the performance question —
//! is it actually faster? (the repository's one benchmark, `benchmarks/`, measures it.)

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod calibrate;
mod engine;
pub mod executor;
pub mod jit;
pub mod lanes;
pub mod observe;
pub mod parallel_image;
pub mod pool;
pub mod sharded;
pub mod telemetry;
pub mod threaded;

pub use calibrate::CalibrationProfile;
pub use executor::{ParallelExecutor, RunOutput, RuntimeError};
pub use jit::jit_supported;
pub use lanes::SignalLanes;
pub use observe::{run_observed, ImageObserver};
pub use parallel_image::{LoopImage, ParallelImage, SegmentLane};
pub use pool::{detect_hardware_threads, lock, WaitStats, WorkerPanic, WorkerPool};
pub use sharded::{PrivateArena, SharedMemory, PRIVATE_BASE};
pub use telemetry::{
    Event, EventKind, ObservedSegmentCost, TelemetryMode, TelemetryReport, TelemetryRun, WorkerTail,
};
pub use threaded::DispatchTier;
