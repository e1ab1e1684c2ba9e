//! # ckpt-cluster
//!
//! The system-scale side of the reproduction:
//!
//! * [`model`] — the analytical weak-scaling checkpoint-time model of
//!   Section IV-D / Figure 9: per-process checkpoints of constant size
//!   stream into a shared parallel filesystem of fixed aggregate
//!   bandwidth, while compression time stays constant in the process
//!   count (compression is embarrassingly parallel);
//! * [`parallel`] — a crossbeam-scoped-thread driver that actually runs
//!   one compression per "rank" concurrently, validating the
//!   embarrassingly-parallel premise on real hardware.
//!
//! The paper's Figure 9 is itself an estimate: measured single-node
//! compression times combined with an assumed 20 GB/s filesystem. This
//! crate reproduces that estimation procedure so the bench harness can
//! regenerate the figure from *our* measured stage times.

#![forbid(unsafe_code)]

pub mod model;
pub mod parallel;
pub mod pfs;

pub use model::{CompressionProfile, CostEstimate, IoModel, ScalingTable};
pub use parallel::compress_ranks;
pub use pfs::{simulate_wave, uniform_wave, WaveResult, WriteRequest};
