//! Inputs, generated from the seed alone: the same seed gives the same
//! states, and the product only ever sees the generated tensors.

use ckpt_core::metrics::{relative_error, RelativeError};
use ckpt_core::{Compressor, CompressorConfig};
use ckpt_sim::{ClimateSim, SimConfig};
use ckpt_tensor::Tensor;

use crate::workload::Scale;

/// Ranks per generation: one per prognostic variable of the simulation.
pub const RANKS: usize = ckpt_sim::model::VARIABLES.len();

/// One simulation state: its step and its four variables.
#[derive(Debug, Clone)]
pub struct State {
    pub step: u64,
    pub vars: Vec<Tensor<f64>>,
}

impl State {
    /// Bytes of the state as raw f64 arrays.
    pub fn raw_bytes(&self) -> u64 {
        self.vars.iter().map(|v| v.len() as u64 * 8).sum()
    }
}

/// Seed of the one climate every run simulates. `--seed` picks an
/// ensemble member of it — the same model from perturbed initial
/// conditions — not another climate: between climates the compress
/// time of a state differs by tens of percent, which would drown any
/// regression bound in seed-to-seed spread, while ensemble members
/// differ in every value yet cost the same to within noise.
pub const CLIMATE_SEED: u64 = 2015;

/// States on the paper's NICAM mesh (1156 x 82 x 2 per variable,
/// 6.07 MB a state), 4 steps apart after a 24-step spin-up. `--check`
/// shrinks the mesh to an eighth and skips most of the spin-up, so that
/// every path still runs in well under a second.
pub fn nicam_states(seed: u64, scale: Scale, count: usize) -> Vec<State> {
    let full = SimConfig::nicam_like(CLIMATE_SEED);
    match scale {
        Scale::Full => states(full, seed, 24, 4, count),
        Scale::Check => {
            let small = SimConfig {
                dims: [289, 41, 2],
                ..full
            };
            states(small, seed, 2, 4, count)
        }
    }
}

/// Amplitude of the initial perturbation as a share of each variable's
/// range: the size of the noise the field generator itself adds.
const PERTURBATION: f64 = 1e-5;

/// SplitMix64, so the inputs depend on nothing but the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn symmetric(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Perturbs the climate's initial fields with `seed`, runs the
/// simulation `spinup` steps, then snapshots `count` states `spacing`
/// steps apart. `climate` fixes the grid; its own seed must be
/// [`CLIMATE_SEED`].
pub fn states(
    climate: SimConfig,
    seed: u64,
    spinup: u64,
    spacing: u64,
    count: usize,
) -> Vec<State> {
    let mut rng = SplitMix64(seed);
    let initial = ClimateSim::new(climate);
    let [p, t, u, v] = initial.variables().map(|(_, field)| {
        let (lo, hi) = field.min_max();
        let amp = PERTURBATION * (hi - lo);
        let mut field = field.clone();
        field.map_inplace(|x| x + amp * rng.symmetric());
        field
    });
    let mut sim = ClimateSim::from_state(climate, 0, p, t, u, v);
    sim.run(spinup);
    (0..count)
        .map(|i| {
            if i > 0 {
                sim.run(spacing);
            }
            State {
                step: sim.step_count(),
                vars: sim.variables().iter().map(|(_, t)| (*t).clone()).collect(),
            }
        })
        .collect()
}

/// Bit-for-bit equality, the contract of every exact restore path.
pub fn bit_equal(a: &Tensor<f64>, b: &Tensor<f64>) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Relative error (the paper's Eq. 6) of each restored variable.
pub fn errors(
    original: &[Tensor<f64>],
    restored: &[Tensor<f64>],
) -> Result<Vec<RelativeError>, String> {
    if original.len() != restored.len() {
        return Err(format!(
            "{} restored arrays for {} originals",
            restored.len(),
            original.len()
        ));
    }
    original
        .iter()
        .zip(restored)
        .map(|(o, r)| relative_error(o, r).map_err(|e| e.to_string()))
        .collect()
}

/// The lossy payloads of one state with what they restore to, built
/// once in set-up: the error every later restore must reproduce.
pub struct Lossy {
    pub payloads: Vec<Vec<u8>>,
    pub restored: Vec<Tensor<f64>>,
    pub errors: Vec<RelativeError>,
}

pub fn lossy(cfg: CompressorConfig, state: &State) -> Result<Lossy, String> {
    let comp = Compressor::new(cfg).map_err(|e| e.to_string())?;
    let mut out = Lossy {
        payloads: Vec::new(),
        restored: Vec::new(),
        errors: Vec::new(),
    };
    for var in &state.vars {
        let packed = comp.compress(var).map_err(|e| e.to_string())?.bytes;
        out.restored
            .push(Compressor::decompress(&packed).map_err(|e| e.to_string())?);
        out.payloads.push(packed);
    }
    out.errors = errors(&state.vars, &out.restored)?;
    Ok(out)
}

/// Mean of the per-array mean errors and the largest pointwise error.
pub fn fold_errors<'a>(errs: impl IntoIterator<Item = &'a RelativeError>) -> (f64, f64) {
    let (mut sum, mut max, mut n) = (0.0f64, 0.0f64, 0usize);
    for e in errs {
        sum += e.average;
        max = max.max(e.max);
        n += 1;
    }
    (if n == 0 { 0.0 } else { sum / n as f64 }, max)
}

/// True when a restore is no worse than the error recorded in set-up.
pub fn within(recorded: &[RelativeError], got: &[RelativeError]) -> bool {
    recorded.len() == got.len()
        && recorded
            .iter()
            .zip(got)
            .all(|(r, g)| g.average <= r.average && g.max <= r.max)
}
