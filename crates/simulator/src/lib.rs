//! # ckpt-sim
//!
//! A NICAM-substitute climate proxy: the checkpoint *producer* of the
//! reproduction.
//!
//! The paper evaluates its compression on checkpoint arrays of NICAM, a
//! production global climate model, and studies post-restart error
//! evolution by restarting from a lossily-compressed checkpoint and
//! re-running (Section IV-E / Figure 10). NICAM and its input data are
//! not available, so this crate implements the closest synthetic
//! equivalent (see DESIGN.md §2): a deterministic, nonlinear
//! advection–diffusion–forcing dynamical system on the same mesh shape
//! (`x × level × layer`), carrying the same four physical variables
//! (pressure, temperature, zonal and meridional wind).
//!
//! What matters for the reproduction — and what the proxy preserves:
//!
//! * fields are **smooth**, so wavelet high bands spike around zero;
//! * the state **evolves** over steps, driven by nonlinear advection, so
//!   a perturbed restart neither collapses to the reference nor blows
//!   up, but drifts slowly — the random-walk-like error growth the paper
//!   observes;
//! * all four variables can be checkpointed and restored by name.
//!
//! Modules: [`config`] (grid and physics parameters), [`model`] (the
//! stepper), [`restart`] (checkpoint/restore + the Figure 10 divergence
//! experiment). That is all the paper asks of its NICAM substitute:
//! states to compress (Sections IV-B–D) and one checkpoint, restart and
//! re-run (Section IV-E).

#![forbid(unsafe_code)]

pub mod config;
pub mod model;
pub mod restart;

pub use config::SimConfig;
pub use model::ClimateSim;
pub use restart::{divergence_experiment, DivergencePoint};
