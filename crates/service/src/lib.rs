//! # helix-service
//!
//! The `helix serve` daemon: a long-running process that accepts `.hir` jobs over a
//! Unix socket or a length-prefixed stdin/stdout batch protocol, keeps a bounded LRU
//! **content-hash cache** of prepared images (verified + analyzed + transformed +
//! lowered, priced by the startup calibration), and multiplexes many concurrent loop
//! executions over the one process-wide [`helix_runtime::WorkerPool`] with FIFO
//! fairness and per-job deadline/iteration budgets.
//!
//! The three layers, each in its own module:
//!
//! * [`protocol`] — the framed `key=value` wire format shared by both transports;
//! * [`cache`] — the two-level content-hash cache: a raw-text index (identical
//!   resubmission skips even the parse) in front of canonical keys derived from the
//!   module's printed form ([`helix_core::content_hash`]), with LRU eviction that
//!   purges stale raw aliases;
//! * [`server`] — the FIFO job queue, service workers, both transports, and the
//!   execute path that turns pool worker panics into structured `panic` responses
//!   while the daemon keeps serving (the recovery behavior the prerequisite
//!   `helix-runtime` bugfix guarantees);
//! * [`client`] — a small synchronous client used by tests, the benchmark, and scripts.
//!
//! Protocol and operational details are documented in `docs/service.md`.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{raw_hash, CacheStats, ImageCache, ServedImage, ServedPlan};
pub use client::Client;
pub use protocol::{
    read_frame, write_frame, CacheOutcome, Fault, Op, Request, Response, Status, MAX_FRAME,
};
pub use server::{memory_digest, JobStats, ServeConfig, Server};
