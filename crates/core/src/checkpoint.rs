//! Multi-variable checkpoint container.
//!
//! A checkpoint holds every physical-quantity array of one application
//! time step (the paper checkpoints NICAM's pressure, temperature and
//! wind arrays together). Each variable is stored either lossily (the
//! Section III pipeline) or raw (the no-compression baseline), with its
//! name and the application step recorded so a restart can rebind
//! variables by name.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::codec::{put_dims, Compressed, Compressor};
use crate::timing::StageTimings;
use crate::{CkptError, Result};
use ckpt_deflate::frame::{self, Reader, Writer, CKPT};
use ckpt_tensor::Tensor;

/// Storage mode of one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarMode {
    /// Lossy pipeline output (self-describing WCK1 stream).
    Lossy,
    /// Raw little-endian f64 tensor (no compression).
    Raw,
}

struct Entry {
    name: String,
    mode: VarMode,
    payload: Vec<u8>,
}

/// Accumulates variables into a checkpoint image.
pub struct CheckpointBuilder {
    step: u64,
    entries: Vec<Entry>,
    timings: StageTimings,
}

impl CheckpointBuilder {
    /// Starts a checkpoint for an application time step.
    pub fn new(step: u64) -> Self {
        CheckpointBuilder { step, entries: Vec::new(), timings: StageTimings::new() }
    }

    /// Adds a variable through the lossy pipeline; returns the per-array
    /// compression record.
    pub fn add_lossy(
        &mut self,
        name: &str,
        tensor: &Tensor<f64>,
        compressor: &Compressor,
    ) -> Result<Compressed> {
        self.check_name(name)?;
        let compressed = compressor.compress(tensor)?;
        self.timings += compressed.timings;
        self.entries.push(Entry {
            name: name.to_string(),
            mode: VarMode::Lossy,
            payload: compressed.bytes.clone(),
        });
        Ok(compressed)
    }

    /// Adds a variable uncompressed (the baseline mode, and the right
    /// choice for non-smooth arrays the pipeline would not help).
    pub fn add_raw(&mut self, name: &str, tensor: &Tensor<f64>) -> Result<()> {
        self.check_name(name)?;
        let mut w = Writer::with_capacity(16 + tensor.len() * 8);
        put_dims(&mut w, tensor.dims())?;
        w.put_f64_slice(tensor.as_slice());
        self.entries.push(Entry { name: name.to_string(), mode: VarMode::Raw, payload: w.into_bytes() });
        Ok(())
    }

    fn check_name(&self, name: &str) -> Result<()> {
        if name.is_empty() {
            return Err(CkptError::Format("variable name must be non-empty".into()));
        }
        if name.len() > usize::from(u16::MAX) {
            return Err(CkptError::Format(format!(
                "variable name of {} bytes too long for the wire format",
                name.len()
            )));
        }
        if self.entries.iter().any(|e| e.name == name) {
            return Err(CkptError::Format(format!("duplicate variable name {name:?}")));
        }
        if self.entries.len() >= usize::from(u16::MAX) {
            return Err(CkptError::Format("too many variables for u16 count field".into()));
        }
        Ok(())
    }

    /// Accumulated compression-stage timings across all lossy variables.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    /// Number of variables added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no variables have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the checkpoint image.
    #[expect(
        clippy::expect_used,
        clippy::missing_panics_doc,
        reason = "encoder: `check_name` bounded every name and the variable count on the way in"
    )]
    pub fn into_bytes(self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&CKPT.magic);
        w.put_u8(CKPT.version);
        w.put_u64(self.step);
        w.put_u16(u16::try_from(self.entries.len()).expect("count validated by check_name"));
        for e in &self.entries {
            w.put_str(&e.name).expect("name length validated by check_name");
            w.put_u8(match e.mode {
                VarMode::Lossy => 0,
                VarMode::Raw => 1,
            });
            w.put_u64(frame::u64_from_usize(e.payload.len()));
            w.put_bytes(&e.payload);
        }
        w.into_bytes()
    }
}

/// A parsed checkpoint image.
pub struct Checkpoint {
    step: u64,
    entries: Vec<Entry>,
}

impl Checkpoint {
    /// Parses a checkpoint image from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(&CKPT)?;
        r.expect_version(&CKPT)?;
        let step = r.get_u64()?;
        let count = usize::from(r.get_u16()?);
        // The count is unvouched until its entries parse: grow as they do.
        let mut entries = Vec::new();
        for _ in 0..count {
            let name = r.get_str()?;
            let mode = match r.get_u8()? {
                0 => VarMode::Lossy,
                1 => VarMode::Raw,
                m => return Err(CkptError::Format(format!("unknown variable mode {m}"))),
            };
            let len = frame::usize_len(r.get_u64()?)?;
            let payload = r.get_bytes(len)?.to_vec();
            entries.push(Entry { name, mode, payload });
        }
        r.expect_end()?;
        Ok(Checkpoint { step, entries })
    }

    /// The application time step this checkpoint captured.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Variable names, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Storage mode of a variable.
    pub fn mode(&self, name: &str) -> Option<VarMode> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.mode)
    }

    /// Restores one variable to a tensor (decompressing if lossy).
    pub fn restore(&self, name: &str) -> Result<Tensor<f64>> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| CkptError::Format(format!("no variable named {name:?}")))?;
        match entry.mode {
            VarMode::Lossy => Compressor::decompress(&entry.payload),
            VarMode::Raw => {
                let mut r = Reader::new(&entry.payload);
                let ndim = usize::from(r.get_u8()?);
                let mut dims = Vec::with_capacity(ndim);
                for _ in 0..ndim {
                    dims.push(frame::usize_len(r.get_u64()?)?);
                }
                let volume = dims
                    .iter()
                    .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                    .ok_or_else(|| {
                        CkptError::Format("raw variable volume overflows usize".into())
                    })?;
                let data = r.get_f64_slice(volume)?;
                r.expect_end()?;
                Ok(Tensor::from_vec(&dims, data)?)
            }
        }
    }

    /// Total image size in bytes when re-serialized (header + payloads).
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.payload.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressorConfig;
    use crate::metrics::relative_error;
    use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};

    fn fields() -> Vec<(&'static str, Tensor<f64>)> {
        FieldKind::ALL
            .iter()
            .map(|&k| (k.name(), generate(&FieldSpec::small(k, 5))))
            .collect()
    }

    #[test]
    fn full_checkpoint_roundtrip() {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let vars = fields();
        let mut b = CheckpointBuilder::new(720);
        for (name, t) in &vars {
            b.add_lossy(name, t, &comp).unwrap();
        }
        assert_eq!(b.len(), 4);
        let bytes = b.into_bytes();
        let ck = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ck.step(), 720);
        assert_eq!(ck.names(), vec!["pressure", "temperature", "wind_u", "wind_v"]);
        for (name, t) in &vars {
            let restored = ck.restore(name).unwrap();
            let e = relative_error(t, &restored).unwrap();
            assert!(e.average < 0.01, "{name}: {}", e.average);
            assert_eq!(ck.mode(name), Some(VarMode::Lossy));
        }
    }

    #[test]
    fn raw_variables_are_bit_exact() {
        let (_, t) = fields().remove(0);
        let mut b = CheckpointBuilder::new(1);
        b.add_raw("exact", &t).unwrap();
        let ck = Checkpoint::from_bytes(&b.into_bytes()).unwrap();
        let restored = ck.restore("exact").unwrap();
        assert_eq!(restored.as_slice(), t.as_slice());
        assert_eq!(ck.mode("exact"), Some(VarMode::Raw));
    }

    #[test]
    fn mixed_modes_coexist() {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let vars = fields();
        let mut b = CheckpointBuilder::new(7);
        b.add_lossy("lossy", &vars[0].1, &comp).unwrap();
        b.add_raw("raw", &vars[1].1).unwrap();
        let ck = Checkpoint::from_bytes(&b.into_bytes()).unwrap();
        assert_eq!(ck.names().len(), 2);
        assert_eq!(ck.restore("raw").unwrap().as_slice(), vars[1].1.as_slice());
        assert!(ck.restore("lossy").is_ok());
    }

    #[test]
    fn duplicate_and_missing_names_rejected() {
        let (_, t) = fields().remove(0);
        let mut b = CheckpointBuilder::new(0);
        b.add_raw("x", &t).unwrap();
        assert!(b.add_raw("x", &t).is_err());
        assert!(b.add_raw("", &t).is_err());
        let ck = Checkpoint::from_bytes(&b.into_bytes()).unwrap();
        assert!(ck.restore("missing").is_err());
    }

    #[test]
    fn corrupt_images_error() {
        let (_, t) = fields().remove(0);
        let mut b = CheckpointBuilder::new(0);
        b.add_raw("v", &t).unwrap();
        let bytes = b.into_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad.push(1);
        assert!(Checkpoint::from_bytes(&bad).is_err());
    }

    #[test]
    fn timings_accumulate_across_variables() {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let vars = fields();
        let mut b = CheckpointBuilder::new(0);
        for (name, t) in &vars {
            b.add_lossy(name, t, &comp).unwrap();
        }
        assert!(b.timings().total() > std::time::Duration::ZERO);
    }
}
