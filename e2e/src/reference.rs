//! Reference kernels: fixed work, owned by the benchmark, that every
//! timing is divided by.
//!
//! The hosts this runs on are shared. A neighbour slows memory-heavy
//! code by 30-40% and `fsync` by 50%, for seconds to minutes at a time,
//! so the same binary measured twice differs by 15-25% in raw
//! milliseconds — more than any bound a regression could be held to.
//! The disturbance hits these kernels as it hits product code with the
//! same bottleneck, so every operation is preceded by one run of each
//! kernel, and its time is divided by the slowdown they show for the
//! operation's mix of bottlenecks ([`Blend`]). The median of those
//! calibrated times moves by 2-5% from run to run.
//!
//! The kernels call nothing in the product, so no change to the product
//! can move them. **Editing a kernel, [`QUIET`] or a blend re-bases
//! every `*_cal_ms` metric**: it is a change to the benchmark, to be
//! made alone and re-measured.

use crate::host::Scratch;
use std::fs;
use std::io::Write;
use std::time::Instant;

/// One run of each kernel, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    /// Match search over an L2-sized window: what deflate does.
    pub lz: f64,
    /// One pass over more memory than the caches hold: what inflate of
    /// barely compressible increments and the XOR apply do.
    pub mem: f64,
    /// Four small files written, fsynced and renamed, the directory
    /// fsynced, a log record appended and fsynced: a save's durable
    /// writes without the store.
    pub io: f64,
}

/// What one run of each kernel takes on the reference host when no
/// neighbour disturbs it. A kernel's time over this is the slowdown the
/// host imposes right now on code with that bottleneck.
pub const QUIET: Times = Times {
    lz: 4.1,
    mem: 1.6,
    io: 3.0,
};

/// The mix of bottlenecks an operation has, as shares that sum to one.
/// Constants, fitted once per workload and timing on a noisy host so
/// that the calibrated time moves least from run to run (README, "Why
/// the two timings are calibrated").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blend {
    lz: f64,
    mem: f64,
    io: f64,
}

impl Blend {
    pub const fn new(lz: f64, mem: f64, io: f64) -> Blend {
        let excess = lz + mem + io - 1.0;
        assert!(
            lz >= 0.0 && mem >= 0.0 && io >= 0.0 && excess < 1e-9 && excess > -1e-9,
            "blend shares must be non-negative and sum to one"
        );
        Blend { lz, mem, io }
    }

    /// How much slower than quiet the host is running this mix, given
    /// one run of each kernel: 1.0 on a quiet reference host.
    pub fn slowdown(&self, t: &Times) -> f64 {
        self.lz * t.lz / QUIET.lz + self.mem * t.mem / QUIET.mem + self.io * t.io / QUIET.io
    }
}

const LZ_BYTES: usize = 512 << 10;
/// The match search covers one sixth of the buffer per run (~4 ms).
const LZ_SLICES: usize = 6;
const MEM_WORDS: usize = 1 << 20;
const IO_FILES: usize = 4;
const IO_FILE_BYTES: usize = 21_000;
const IO_RECORD_BYTES: usize = 120;

pub struct Reference {
    text: Vec<u8>,
    head: Vec<u32>,
    prev: Vec<u32>,
    src: Vec<u64>,
    dst: Vec<u64>,
    payload: Vec<u8>,
    runs: usize,
    dir: Scratch,
}

impl Reference {
    pub fn new() -> std::io::Result<Reference> {
        // Runs of a small alphabet: compressible, like formatted output.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut text = Vec::with_capacity(LZ_BYTES + 16);
        while text.len() < LZ_BYTES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let byte = ((x >> 8) & 31) as u8;
            for k in 0..=(x & 7) as u8 {
                text.push(byte.wrapping_add(k & 1));
            }
        }
        text.truncate(LZ_BYTES);
        Ok(Reference {
            text,
            head: vec![0; 1 << 16],
            prev: vec![0; 1 << 15],
            src: (0..MEM_WORDS as u64).collect(),
            dst: vec![0; MEM_WORDS],
            payload: vec![0xA5; IO_FILE_BYTES],
            runs: 0,
            dir: Scratch::new("ref")?,
        })
    }

    /// Runs every kernel once.
    pub fn run(&mut self) -> std::io::Result<Times> {
        self.runs += 1;
        let t = Instant::now();
        self.lz();
        let lz = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        self.mem();
        let mem = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        self.io()?;
        let io = t.elapsed().as_secs_f64() * 1e3;
        Ok(Times { lz, mem, io })
    }

    fn lz(&mut self) {
        let text = &self.text;
        let span = (text.len() - 32) / LZ_SLICES;
        let from = (self.runs % LZ_SLICES) * span;
        let mut matched = 0usize;
        for pos in from..from + span {
            let word = u32::from_le_bytes([text[pos], text[pos + 1], text[pos + 2], text[pos + 3]]);
            let slot = (word.wrapping_mul(0x9E37_79B1) >> 16) as usize;
            let mut cand = self.head[slot] as usize;
            self.head[slot] = pos as u32;
            self.prev[pos & 0x7FFF] = cand as u32;
            let mut best = 0;
            for _ in 0..4 {
                if cand == 0 || cand >= pos || pos - cand >= 0x8000 {
                    break;
                }
                let len = (0..32)
                    .take_while(|&l| text[cand + l] == text[pos + l])
                    .count();
                best = best.max(len);
                cand = self.prev[cand & 0x7FFF] as usize;
            }
            matched += best;
        }
        std::hint::black_box(matched);
    }

    fn mem(&mut self) {
        let salt = self.runs as u64;
        for (d, s) in self.dst.iter_mut().zip(&self.src) {
            *d ^= s.wrapping_add(salt);
        }
        std::hint::black_box(self.dst[self.runs % MEM_WORDS]);
    }

    fn io(&mut self) -> std::io::Result<()> {
        for file in 0..IO_FILES {
            let tmp = self.dir.join(&format!("tmp{file}"));
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.payload)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, self.dir.join(&format!("seg{}-{file}", self.runs % 4)))?;
        }
        fs::File::open(self.dir.path())?.sync_all()?;
        let mut log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("log"))?;
        log.write_all(&[0u8; IO_RECORD_BYTES])?;
        log.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_takes_time() {
        let t = Reference::new().unwrap().run().unwrap();
        assert!(t.lz > 0.0 && t.mem > 0.0 && t.io > 0.0, "{t:?}");
    }

    #[test]
    fn slowdown_is_the_share_weighted_mean_of_kernel_slowdowns() {
        assert_eq!(Blend::new(0.5, 0.0, 0.5).slowdown(&QUIET), 1.0);
        let slow = Times {
            lz: 2.0 * QUIET.lz,
            io: 3.0 * QUIET.io,
            ..QUIET
        };
        assert!((Blend::new(0.5, 0.25, 0.25).slowdown(&slow) - 2.0).abs() < 1e-12);
    }
}
