//! Checkpoint/restore for the simulation, and the Figure 10 divergence
//! experiment.
//!
//! The paper's protocol (Section IV-E): run NICAM for 720 steps, write a
//! lossily-compressed checkpoint, decompress and restart from it, run
//! 1500 more steps, and compare each step against the uninterrupted
//! reference run. [`divergence_experiment`] reproduces exactly that,
//! tracking the average relative error (Eq. 6) of the temperature array
//! per step.

use crate::config::SimConfig;
use crate::model::ClimateSim;
use ckpt_core::checkpoint::{Checkpoint, CheckpointBuilder};
use ckpt_core::metrics::relative_error;
use ckpt_core::{CkptError, Compressor, Result, StageTimings};

impl ClimateSim {
    /// Writes a checkpoint of all four variables. With a compressor, the
    /// variables go through the lossy pipeline; with `None`, they are
    /// stored raw (the paper's no-compression baseline).
    pub fn checkpoint(&self, compressor: Option<&Compressor>) -> Result<(Vec<u8>, StageTimings)> {
        let mut builder = CheckpointBuilder::new(self.step_count());
        for (name, tensor) in self.variables() {
            match compressor {
                Some(c) => {
                    builder.add_lossy(name, tensor, c)?;
                }
                None => builder.add_raw(name, tensor)?,
            }
        }
        let timings = builder.timings();
        Ok((builder.into_bytes(), timings))
    }

    /// Restores a simulation from a checkpoint image. The config must
    /// match the one the checkpoint was taken with: every variable's
    /// grid shape is verified, so a hostile image is an error, not a
    /// panic.
    pub fn restore(cfg: SimConfig, image: &[u8]) -> Result<ClimateSim> {
        let ck = Checkpoint::from_bytes(image)?;
        let restore = |name: &str| {
            let t = ck.restore(name)?;
            if t.dims() != cfg.dims {
                return Err(CkptError::Format(format!(
                    "checkpoint {name} grid {:?} does not match config {:?}",
                    t.dims(),
                    cfg.dims
                )));
            }
            Ok(t)
        };
        Ok(ClimateSim::from_state(
            cfg,
            ck.step(),
            restore("pressure")?,
            restore("temperature")?,
            restore("wind_u")?,
            restore("wind_v")?,
        ))
    }
}

/// One sample of the post-restart divergence trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergencePoint {
    /// Application step (starts at the restart step).
    pub step: u64,
    /// Average relative error of the temperature array vs the reference.
    pub avg_rel_error: f64,
    /// Maximum relative error of the temperature array vs the reference.
    pub max_rel_error: f64,
}

/// Runs the Figure 10 protocol and returns the per-step error trace.
///
/// * `cfg` — grid/physics configuration (use
///   [`SimConfig::nicam_like`] for paper scale),
/// * `compressor` — the lossy pipeline under test,
/// * `checkpoint_step` — steps before the checkpoint (paper: 720),
/// * `extra_steps` — steps after the restart (paper: 1500),
/// * `sample_every` — record every k-th step (paper plots every 50).
pub fn divergence_experiment(
    cfg: SimConfig,
    compressor: &Compressor,
    checkpoint_step: u64,
    extra_steps: u64,
    sample_every: u64,
) -> Result<Vec<DivergencePoint>> {
    assert!(sample_every >= 1, "sample_every must be >= 1");
    // Reference run up to the checkpoint...
    let mut reference = ClimateSim::new(cfg);
    reference.run(checkpoint_step);
    // ...checkpoint through the lossy pipeline and restart from it.
    let (image, _) = reference.checkpoint(Some(compressor))?;
    let mut restarted = ClimateSim::restore(cfg, &image)?;
    debug_assert_eq!(restarted.step_count(), checkpoint_step);

    let mut trace = Vec::with_capacity((extra_steps / sample_every + 1) as usize);
    let record = |reference: &ClimateSim, restarted: &ClimateSim,
                  trace: &mut Vec<DivergencePoint>|
     -> Result<()> {
        let e = relative_error(
            reference.variable("temperature").expect("temperature exists"),
            restarted.variable("temperature").expect("temperature exists"),
        )?;
        trace.push(DivergencePoint {
            step: reference.step_count(),
            avg_rel_error: e.average,
            max_rel_error: e.max,
        });
        Ok(())
    };
    record(&reference, &restarted, &mut trace)?;
    for k in 1..=extra_steps {
        reference.step();
        restarted.step();
        if k % sample_every == 0 {
            record(&reference, &restarted, &mut trace)?;
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::CompressorConfig;

    #[test]
    fn raw_checkpoint_restores_bit_exactly() {
        let cfg = SimConfig::small(11);
        let mut sim = ClimateSim::new(cfg);
        sim.run(40);
        let (image, timings) = sim.checkpoint(None).unwrap();
        assert_eq!(timings.total(), std::time::Duration::ZERO);
        let restored = ClimateSim::restore(cfg, &image).unwrap();
        assert_eq!(restored.step_count(), 40);
        for (name, t) in sim.variables() {
            assert_eq!(
                restored.variable(name).unwrap().as_slice(),
                t.as_slice(),
                "{name} must be exact"
            );
        }
    }

    #[test]
    fn raw_restart_continues_identically() {
        let cfg = SimConfig::small(12);
        let mut sim = ClimateSim::new(cfg);
        sim.run(30);
        let (image, _) = sim.checkpoint(None).unwrap();
        let mut restarted = ClimateSim::restore(cfg, &image).unwrap();
        sim.run(25);
        restarted.run(25);
        assert_eq!(
            sim.variable("temperature").unwrap().as_slice(),
            restarted.variable("temperature").unwrap().as_slice()
        );
    }

    #[test]
    fn lossy_checkpoint_restores_within_tolerance() {
        let cfg = SimConfig::small(13);
        let mut sim = ClimateSim::new(cfg);
        sim.run(50);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let (image, timings) = sim.checkpoint(Some(&comp)).unwrap();
        assert!(timings.total() > std::time::Duration::ZERO);
        let restored = ClimateSim::restore(cfg, &image).unwrap();
        for (name, t) in sim.variables() {
            let back = restored.variable(name).unwrap();
            let e = relative_error(t, back).unwrap();
            assert!(e.average < 0.01, "{name}: avg err {}", e.average);
            // Section IV-E: the domain integral a lossy restore must not
            // move (mass for pressure, a thermal-energy proxy for
            // temperature, momentum for the winds), scaled by the field's
            // mean magnitude: a wind's signed mean sits near zero, where a
            // ratio to it is ill-conditioned. For the positive fields this
            // is the ratio to the mean itself.
            let magnitude = t.as_slice().iter().map(|v| v.abs()).sum::<f64>() / t.len() as f64;
            let drift = (back.mean() - t.mean()).abs() / magnitude.max(f64::MIN_POSITIVE);
            assert!(drift < 1e-3, "{name}: domain mean moved {drift}");
        }
        // And the second moments: the temperature variance and the
        // kinetic energy.
        let variance = |t: &ckpt_tensor::Tensor<f64>| {
            let m = t.mean();
            t.as_slice().iter().map(|v| (v - m) * (v - m)).sum::<f64>() / t.len() as f64
        };
        let kinetic = |s: &ClimateSim| {
            let (u, v) = (s.variable("wind_u").unwrap(), s.variable("wind_v").unwrap());
            let sum: f64 = u.as_slice().iter().zip(v.as_slice()).map(|(a, b)| (a * a + b * b) / 2.0).sum();
            sum / u.len() as f64
        };
        let moments = |s: &ClimateSim| {
            [
                ("temperature variance", variance(s.variable("temperature").unwrap())),
                ("kinetic energy", kinetic(s)),
            ]
        };
        for ((name, want), (_, got)) in moments(&sim).into_iter().zip(moments(&restored)) {
            let drift = (got - want).abs() / want.abs();
            assert!(drift < 1e-3, "{name} moved {drift}");
        }
        // And the image is much smaller than raw.
        let raw_bytes = 4 * cfg.variable_bytes();
        assert!(image.len() < raw_bytes / 2, "{} vs {}", image.len(), raw_bytes);
    }

    #[test]
    fn grid_mismatch_rejected() {
        let cfg = SimConfig::small(14);
        let mut sim = ClimateSim::new(cfg);
        sim.run(5);
        let (image, _) = sim.checkpoint(None).unwrap();
        let other = SimConfig::nicam_like(14);
        assert!(ClimateSim::restore(other, &image).is_err());

        // Only one variable off-shape: still an error naming it.
        let mut builder = CheckpointBuilder::new(5);
        let [x, lev, lay] = cfg.dims;
        for (name, t) in sim.variables() {
            if name == "temperature" {
                let half = t.as_slice()[..t.len() / 2].to_vec();
                let off = ckpt_tensor::Tensor::from_vec(&[x / 2, lev, lay], half).unwrap();
                builder.add_raw(name, &off).unwrap();
            } else {
                builder.add_raw(name, t).unwrap();
            }
        }
        let err = ClimateSim::restore(cfg, &builder.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("temperature"), "{err}");
    }

    #[test]
    fn divergence_trace_shape() {
        let cfg = SimConfig::small(15);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let trace = divergence_experiment(cfg, &comp, 60, 100, 10).unwrap();
        assert_eq!(trace.len(), 11); // step 60 + 10 samples
        assert_eq!(trace[0].step, 60);
        assert_eq!(trace.last().unwrap().step, 160);
        // The initial point is the immediate (checkpoint) error: small
        // but nonzero.
        assert!(trace[0].avg_rel_error > 0.0);
        assert!(trace[0].avg_rel_error < 1e-3);
        // Errors stay bounded over the horizon (no blow-up).
        for p in &trace {
            assert!(p.avg_rel_error < 0.2, "step {}: {}", p.step, p.avg_rel_error);
            assert!(p.max_rel_error >= p.avg_rel_error);
        }
    }

    #[test]
    fn proposed_diverges_less_than_simple() {
        // Figure 10's headline: the proposed quantizer's restart errors
        // stay below the simple quantizer's.
        let cfg = SimConfig::small(16);
        let simple = Compressor::new(CompressorConfig::paper_simple().with_n(8)).unwrap();
        let proposed = Compressor::new(CompressorConfig::paper_proposed().with_n(8)).unwrap();
        let ts = divergence_experiment(cfg, &simple, 50, 120, 20).unwrap();
        let tp = divergence_experiment(cfg, &proposed, 50, 120, 20).unwrap();
        let mean = |t: &[DivergencePoint]| {
            t.iter().map(|p| p.avg_rel_error).sum::<f64>() / t.len() as f64
        };
        assert!(
            mean(&tp) < mean(&ts),
            "proposed {} should stay below simple {}",
            mean(&tp),
            mean(&ts)
        );
    }
}
