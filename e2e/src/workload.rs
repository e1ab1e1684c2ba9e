//! What the four workloads share: the operation contract the driver
//! loops over, and helpers for calling the store and the server.

use crate::reference::Blend;
use crate::trace::Tracer;
use ckpt_core::{CompressorConfig, StreamError};
use ckpt_deflate::crc32::{crc32, crc32_combine};
use ckpt_serve::Client;
use ckpt_store::layout::Layout;
use ckpt_store::{GenInfo, RankIndex, Store, StoreError};
use ckpt_tensor::Tensor;
use std::fmt::Display;
use std::path::Path;

pub type Res<T> = Result<T, String>;

/// Turns any product error into the benchmark's failure message.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Uncompressed bytes per WPK1 chunk wherever two threads compress.
/// A formatted NICAM-sized array is ~0.6 MB, so the product's 1 MiB
/// default would leave a single chunk and nothing to run in parallel.
pub const PIPELINE_CHUNK_BYTES: usize = 64 << 10;

/// Range size of every fetch over the socket.
pub const FETCH_BYTES: u64 = 1 << 20;

/// The paper's configuration on one thread.
pub fn serial_codec() -> CompressorConfig {
    CompressorConfig::paper_proposed()
}

/// The same configuration on two threads with the chunked container.
pub fn pipelined_codec() -> CompressorConfig {
    CompressorConfig::paper_proposed()
        .with_threads(2)
        .with_chunk_bytes(PIPELINE_CHUNK_BYTES)
}

/// How much work a run does: the measured size, or the ~1% of it that
/// `--check` uses to prove every path still runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

/// Timings of one operation, in milliseconds. Checks of the outputs
/// are made outside both intervals.
pub struct OpSample {
    /// The workload's primary operation.
    pub op_ms: f64,
    /// Its secondary operation, when this iteration ran one.
    pub aux_ms: Option<f64>,
}

/// The metrics that are counts, not timings: they must repeat exactly
/// from run to run of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Exact {
    pub stored_ratio: f64,
    pub mean_rel_err: f64,
    pub max_rel_err: f64,
    pub disk_bytes: u64,
    pub manifest_bytes: u64,
}

/// Two states of the workload's own inputs for the layer probe.
pub struct ProbeInput<'a> {
    pub cur: &'a [Tensor<f64>],
    pub prev: &'a [Tensor<f64>],
}

/// One workload, set up and ready to run operations in a closed loop.
pub trait Workload {
    /// Span names of the primary and the secondary operation.
    fn roots(&self) -> (&'static str, &'static str);
    /// The reference blends the two timings are divided by.
    fn refs(&self) -> (Blend, Blend);
    /// Leading operations whose timings are discarded.
    fn warmup(&self) -> u64;
    /// The loop only stops after a multiple of this many operations,
    /// so that counts taken at the end do not depend on where in a
    /// cycle the clock ran out.
    fn cycle(&self) -> u64;
    /// Fewest operations that exercise every input once.
    fn min_ops(&self) -> u64;
    /// Codec configuration the workload saves with.
    fn codec(&self) -> CompressorConfig;
    /// Runs operation `i`, checking every output. `Err` is a failure.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Res<OpSample>;
    /// Whole-store checks and the exact metrics, after the last operation.
    fn finish(&mut self) -> Res<Exact>;
    fn probe_input(&self) -> ProbeInput<'_>;
}

/// Bytes under a store's root, and the part of them that is manifest
/// (the log plus its snapshot).
pub fn store_sizes(dir: &Path) -> (u64, u64) {
    let layout = Layout::new(dir);
    let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    (
        crate::host::dir_bytes(dir),
        len(&layout.manifest) + len(&layout.snapshot),
    )
}

pub fn refs(payloads: &[Vec<u8>]) -> Vec<&[u8]> {
    payloads.iter().map(Vec::as_slice).collect()
}

pub fn stream_error(e: StreamError<StoreError>) -> StoreError {
    match e {
        StreamError::Ckpt(e) => StoreError::Ckpt(e),
        StreamError::Sink(e) => e,
    }
}

pub fn is_live(g: &GenInfo) -> bool {
    g.committed && g.retired.is_none()
}

/// The live generation holding the newest state.
pub fn newest_live(store: &Store) -> Res<GenInfo> {
    store
        .generations()
        .into_iter()
        .filter(is_live)
        .max_by_key(|g| (g.step, g.gen))
        .ok_or_else(|| "store has no live generation".to_string())
}

/// Fetches one segment in [`FETCH_BYTES`] ranges and checks that the
/// chunk CRCs combine to the CRC the manifest committed. Returns the
/// payload and the number of frames it took.
pub fn fetch_verified(client: &mut Client, gen: u64, rank: &RankIndex) -> Res<(Vec<u8>, u64)> {
    let mut payload = Vec::with_capacity(rank.payload_len as usize);
    let (mut crc, mut frames, mut offset) = (0u32, 0u64, 0u64);
    while offset < rank.payload_len {
        let len = FETCH_BYTES.min(rank.payload_len - offset);
        let chunk = client.fetch(gen, rank.rank, offset, len).ctx("fetch")?;
        crc = crc32_combine(crc, crc32(&chunk), len);
        payload.extend_from_slice(&chunk);
        offset += len;
        frames += 1;
    }
    if crc != rank.crc {
        return Err(format!(
            "gen {gen} rank {}: chunk CRCs combine to {crc:08x}, segment CRC is {:08x}",
            rank.rank, rank.crc
        ));
    }
    Ok((payload, frames))
}
