//! The climate-proxy stepper.
//!
//! Per step, for every level/layer, along the periodic x axis:
//!
//! * temperature: nonlinear advection by the zonal wind, horizontal
//!   diffusion, periodic thermal forcing;
//! * zonal wind: response to the temperature gradient, self-advection,
//!   drag;
//! * meridional wind: driven by the zonal shear, drag;
//! * pressure: relaxation toward a temperature-consistent hydrostatic
//!   profile.
//!
//! A second pass mixes columns vertically. Everything is deterministic:
//! two sims with identical state stay bit-identical, which the restart
//! experiment relies on.

use crate::config::SimConfig;
use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
use ckpt_tensor::Tensor;

/// Names of the four prognostic variables, in checkpoint order.
pub const VARIABLES: [&str; 4] = ["pressure", "temperature", "wind_u", "wind_v"];

/// The climate proxy simulation.
#[derive(Debug, Clone)]
pub struct ClimateSim {
    cfg: SimConfig,
    step: u64,
    pressure: Tensor<f64>,
    temperature: Tensor<f64>,
    wind_u: Tensor<f64>,
    wind_v: Tensor<f64>,
    /// Scratch buffer reused across steps.
    scratch: Vec<f64>,
}

impl ClimateSim {
    /// Creates a simulation with smooth initial conditions derived from
    /// the config seed.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid simulation config");
        let spec = |kind| FieldSpec {
            dims: cfg.dims.to_vec(),
            kind,
            seed: cfg.seed,
            harmonics: 12,
            noise_amp: 1e-5,
        };
        let volume = cfg.volume();
        ClimateSim {
            cfg,
            step: 0,
            pressure: generate(&spec(FieldKind::Pressure)),
            temperature: generate(&spec(FieldKind::Temperature)),
            wind_u: generate(&spec(FieldKind::WindU)),
            wind_v: generate(&spec(FieldKind::WindV)),
            scratch: vec![0.0; volume],
        }
    }

    /// Rebuilds a simulation from restored state (used by restart).
    pub fn from_state(
        cfg: SimConfig,
        step: u64,
        pressure: Tensor<f64>,
        temperature: Tensor<f64>,
        wind_u: Tensor<f64>,
        wind_v: Tensor<f64>,
    ) -> Self {
        cfg.validate().expect("invalid simulation config");
        assert_eq!(pressure.dims(), &cfg.dims, "state shape must match config");
        assert_eq!(temperature.dims(), &cfg.dims);
        assert_eq!(wind_u.dims(), &cfg.dims);
        assert_eq!(wind_v.dims(), &cfg.dims);
        let volume = cfg.volume();
        ClimateSim {
            cfg,
            step,
            pressure,
            temperature,
            wind_u,
            wind_v,
            scratch: vec![0.0; volume],
        }
    }

    /// Current time step.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Borrow of all four variables, in [`VARIABLES`] order.
    pub fn variables(&self) -> [(&'static str, &Tensor<f64>); 4] {
        [
            ("pressure", &self.pressure),
            ("temperature", &self.temperature),
            ("wind_u", &self.wind_u),
            ("wind_v", &self.wind_v),
        ]
    }

    /// One variable by name.
    pub fn variable(&self, name: &str) -> Option<&Tensor<f64>> {
        match name {
            "pressure" => Some(&self.pressure),
            "temperature" => Some(&self.temperature),
            "wind_u" => Some(&self.wind_u),
            "wind_v" => Some(&self.wind_v),
            _ => None,
        }
    }

    /// Advances one time step.
    pub fn step(&mut self) {
        let [nx, nlev, nlay] = self.cfg.dims;
        let xstride = nlev * nlay;
        let c = &self.cfg;
        let phase = c.forcing_omega * self.step as f64;

        // --- Pass 1: horizontal dynamics along periodic x. ---
        let t = self.temperature.as_mut_slice();
        let u = self.wind_u.as_mut_slice();
        let v = self.wind_v.as_mut_slice();
        let p = self.pressure.as_mut_slice();
        let new_t = &mut self.scratch;

        // Upwind advective increment: monotone and stable for
        // |vel| < 1 (vel is the CFL number, clamped defensively).
        let upwind = |vel: f64, west: f64, here: f64, east: f64| -> f64 {
            let vel = vel.clamp(-0.45, 0.45);
            if vel > 0.0 {
                -vel * (here - west)
            } else {
                -vel * (east - here)
            }
        };

        // Temperature update into scratch (reads t and u).
        for i in 0..nx {
            let ip = (i + 1) % nx;
            let im = (i + nx - 1) % nx;
            for rest in 0..xstride {
                let idx = i * xstride + rest;
                let e = ip * xstride + rest;
                let w = im * xstride + rest;
                let lap = t[e] - 2.0 * t[idx] + t[w];
                let lev_frac = (rest / nlay) as f64 / nlev.max(1) as f64;
                let force = c.forcing
                    * (phase + 2.0 * std::f64::consts::PI * (i as f64 / nx as f64)
                        + 3.0 * lev_frac
                        + c.chaos * (t[idx] - 250.0))
                        .sin();
                new_t[idx] = t[idx]
                    + upwind(c.advection * u[idx], t[w], t[idx], t[e])
                    + c.diffusion * lap
                    + force;
            }
        }
        t.copy_from_slice(new_t);

        // Wind update into scratch (reads updated t, old u).
        for i in 0..nx {
            let ip = (i + 1) % nx;
            let im = (i + nx - 1) % nx;
            for rest in 0..xstride {
                let idx = i * xstride + rest;
                let e = ip * xstride + rest;
                let w = im * xstride + rest;
                let t_grad = (t[e] - t[w]) * 0.5;
                let u_lap = u[e] - 2.0 * u[idx] + u[w];
                new_t[idx] = u[idx] - c.wind_coupling * t_grad
                    + upwind(c.advection * u[idx], u[w], u[idx], u[e])
                    + c.diffusion * u_lap
                    - c.drag * u[idx];
            }
        }
        u.copy_from_slice(new_t);

        // Meridional wind: driven by zonal shear, damped.
        for i in 0..nx {
            let ip = (i + 1) % nx;
            let im = (i + nx - 1) % nx;
            for rest in 0..xstride {
                let idx = i * xstride + rest;
                let shear = (u[ip * xstride + rest] - u[im * xstride + rest]) * 0.5;
                let v_lap = v[ip * xstride + rest] - 2.0 * v[idx] + v[im * xstride + rest];
                new_t[idx] =
                    v[idx] + 0.5 * c.wind_coupling * shear + c.diffusion * v_lap - c.drag * v[idx];
            }
        }
        v.copy_from_slice(new_t);

        // Pressure: relax toward hydrostatic profile consistent with T.
        for i in 0..nx {
            for lev in 0..nlev {
                let lev_frac = if nlev > 1 { lev as f64 / (nlev - 1) as f64 } else { 0.5 };
                let base = 101_325.0 * (-2.2 * lev_frac).exp();
                for lay in 0..nlay {
                    let idx = (i * nlev + lev) * nlay + lay;
                    let target = base * (1.0 + (t[idx] - 250.0) / 2500.0);
                    p[idx] += c.pressure_relax * (target - p[idx]);
                }
            }
        }

        // --- Pass 2: vertical mixing of T and u. ---
        if nlev >= 3 {
            for field in [&mut self.temperature, &mut self.wind_u] {
                let data = field.as_mut_slice();
                for i in 0..nx {
                    for lay in 0..nlay {
                        for lev in 1..nlev - 1 {
                            let idx = (i * nlev + lev) * nlay + lay;
                            let up = (i * nlev + lev + 1) * nlay + lay;
                            let dn = (i * nlev + lev - 1) * nlay + lay;
                            self.scratch[idx] =
                                data[idx] + c.vertical_mixing * (data[up] - 2.0 * data[idx] + data[dn]);
                        }
                        // Boundaries stay (insulated).
                        let top = (i * nlev + nlev - 1) * nlay + lay;
                        let bot = (i * nlev) * nlay + lay;
                        self.scratch[top] = data[top];
                        self.scratch[bot] = data[bot];
                    }
                }
                data.copy_from_slice(&self.scratch);
            }
        }

        self.step += 1;
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_evolution() {
        let mut a = ClimateSim::new(SimConfig::small(7));
        let mut b = ClimateSim::new(SimConfig::small(7));
        a.run(50);
        b.run(50);
        assert_eq!(a.temperature.as_slice(), b.temperature.as_slice());
        assert_eq!(a.wind_u.as_slice(), b.wind_u.as_slice());
        assert_eq!(a.step_count(), 50);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ClimateSim::new(SimConfig::small(1));
        let mut b = ClimateSim::new(SimConfig::small(2));
        a.run(5);
        b.run(5);
        assert_ne!(a.temperature.as_slice(), b.temperature.as_slice());
    }

    #[test]
    fn long_run_stays_bounded() {
        let mut sim = ClimateSim::new(SimConfig::small(3));
        let mean_before = sim.temperature.mean();
        sim.run(1000);
        let drift = (sim.temperature.mean() - mean_before).abs() / mean_before.abs();
        assert!(drift < 0.05, "mean temperature drifted {drift} over 1000 steps");
        sim.run(1000);
        let (lo, hi) = sim.temperature.min_max();
        assert!(lo > 100.0 && hi < 400.0, "temperature diverged: [{lo}, {hi}]");
        let wind = sim.wind_u.as_slice().iter().chain(sim.wind_v.as_slice());
        let max_wind = wind.fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max_wind < 200.0, "wind diverged: {max_wind}");
        let (plo, phi) = sim.pressure.min_max();
        assert!(plo > 1_000.0 && phi < 200_000.0, "pressure diverged: [{plo}, {phi}]");
        assert!(sim.temperature.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn state_actually_changes_every_step() {
        let mut sim = ClimateSim::new(SimConfig::small(4));
        let before = sim.temperature.clone();
        sim.step();
        assert_ne!(sim.temperature.as_slice(), before.as_slice());
        // The majority of the mesh is updated (not just a few cells) —
        // the paper's premise for why incremental checkpointing fails.
        let changed = sim
            .temperature
            .as_slice()
            .iter()
            .zip(before.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed * 10 > sim.temperature.len() * 9, "only {changed} cells changed");
    }

    #[test]
    fn fields_remain_smooth_enough_to_compress() {
        use ckpt_tensor::fields::roughness;
        let mut sim = ClimateSim::new(SimConfig::small(5));
        sim.run(300);
        for (name, field) in sim.variables() {
            let r = roughness(field);
            assert!(r < 0.2, "{name} roughness {r} after 300 steps");
        }
    }

    #[test]
    fn small_perturbations_grow_slowly_not_explosively() {
        let cfg = SimConfig::small(6);
        let mut a = ClimateSim::new(cfg);
        let mut b = ClimateSim::new(cfg);
        // Perturb b's temperature by ~1e-6 of its range.
        let (lo, hi) = b.temperature.min_max();
        let eps = (hi - lo) * 1e-6;
        b.temperature.map_inplace(|v| v + eps);
        for _ in 0..200 {
            a.step();
            b.step();
        }
        let err = a.temperature.rms_diff(&b.temperature) / (hi - lo);
        assert!(err > 0.0, "perturbation must not vanish identically");
        assert!(err < 0.05, "perturbation exploded: {err}");
    }

    #[test]
    fn variable_lookup() {
        let sim = ClimateSim::new(SimConfig::small(0));
        for name in VARIABLES {
            assert!(sim.variable(name).is_some());
        }
        assert!(sim.variable("bogus").is_none());
        assert_eq!(sim.variables().len(), 4);
    }

    #[test]
    fn from_state_resumes_identically() {
        let cfg = SimConfig::small(8);
        let mut a = ClimateSim::new(cfg);
        a.run(30);
        let mut b = ClimateSim::from_state(
            cfg,
            a.step_count(),
            a.pressure.clone(),
            a.temperature.clone(),
            a.wind_u.clone(),
            a.wind_v.clone(),
        );
        a.run(20);
        b.run(20);
        assert_eq!(a.temperature.as_slice(), b.temperature.as_slice());
        assert_eq!(a.pressure.as_slice(), b.pressure.as_slice());
    }

    #[test]
    fn single_level_grid_works() {
        let mut cfg = SimConfig::small(9);
        cfg.dims = [32, 1, 1];
        let mut sim = ClimateSim::new(cfg);
        sim.run(50);
        assert!(sim.temperature.as_slice().iter().all(|v| v.is_finite()));
    }
}
