//! `store_churn`: the store alone. Every payload is built in set-up, so
//! the timed region holds no codec work — segment write, fsync,
//! manifest append and maintenance own all of it.

use crate::host::Scratch;
use crate::inputs::{self, bit_equal, State, RANKS};
use crate::reference::Blend;
use crate::trace::Tracer;
use crate::workload::{
    is_live, newest_live, refs, serial_codec, store_sizes, Ctx, Exact, OpSample, ProbeInput, Res,
    Scale, Workload,
};
use ckpt_core::{incremental, CompressorConfig};
use ckpt_deflate::Level;
use ckpt_sim::SimConfig;
use ckpt_store::{SegmentFormat, Store};
use ckpt_tensor::Tensor;
use std::path::PathBuf;
use std::time::Instant;

const SPINUP: u64 = 8;
const SPACING: u64 = 2;
/// One full, then `FULL_EVERY - 1` increments, repeating.
const FULL_EVERY: usize = 8;
/// Operations between maintenance cycles.
const MAINT_EVERY: u64 = 16;
/// `gc` keeps this many fulls; chains deeper than `MAX_DEPTH` are rewritten.
const KEEP_FULLS: usize = 2;
const MAX_DEPTH: usize = 4;

pub struct Churn {
    states: Vec<State>,
    /// Per slot of the repeating schedule: each rank's ready payload,
    /// and what a restore of that generation must give back.
    payloads: Vec<Vec<Vec<u8>>>,
    expected: Vec<Vec<Tensor<f64>>>,
    full_errors: (f64, f64),
    store: Store,
    tip: u64,
    last_slot: usize,
    maint_every: u64,
    dir: PathBuf,
    _scratch: Scratch,
}

impl Churn {
    pub fn setup(seed: u64, scale: Scale) -> Res<Churn> {
        let states = inputs::states(
            SimConfig::small(inputs::CLIMATE_SEED),
            seed,
            SPINUP,
            SPACING,
            FULL_EVERY,
        );
        let lossy = inputs::lossy(serial_codec(), &states[0])?;
        let full_errors = inputs::fold_errors(&lossy.errors);
        let mut payloads = vec![lossy.payloads];
        let mut expected = vec![lossy.restored];
        for state in &states[1..] {
            let mut incs = Vec::with_capacity(RANKS);
            for (prev, cur) in expected[expected.len() - 1].iter().zip(&state.vars) {
                incs.push(
                    incremental::increment(prev, cur, Level::Default)
                        .ctx("increment")?
                        .0,
                );
            }
            payloads.push(incs);
            expected.push(state.vars.clone());
        }
        let scratch = Scratch::new("churn").ctx("scratch")?;
        let dir = scratch.join("store");
        let store = Store::open(&dir).ctx("open store")?;
        Ok(Churn {
            states,
            payloads,
            expected,
            full_errors,
            store,
            tip: 0,
            last_slot: 0,
            maint_every: match scale {
                Scale::Full => MAINT_EVERY,
                Scale::Check => FULL_EVERY as u64,
            },
            dir,
            _scratch: scratch,
        })
    }

    fn check_restore(store: &Store, gen: u64, want: &[Tensor<f64>], when: &str) -> Res<()> {
        for (rank, want) in want.iter().enumerate() {
            let got = store.restore_array(gen, rank as u32).ctx("restore_array")?;
            if !bit_equal(&got, want) {
                return Err(format!("gen {gen} rank {rank} {when}: not bit-exact"));
            }
        }
        Ok(())
    }
}

impl Workload for Churn {
    fn roots(&self) -> (&'static str, &'static str) {
        ("save", "maint")
    }

    fn refs(&self) -> (Blend, Blend) {
        // A save is its fsyncs; maintenance rewrites chains (codec work),
        // deletes and fsyncs in about equal parts.
        (Blend::new(0.1, 0.0, 0.9), Blend::new(0.3, 0.3, 0.4))
    }

    fn warmup(&self) -> u64 {
        self.maint_every
    }

    fn cycle(&self) -> u64 {
        self.maint_every
    }

    fn min_ops(&self) -> u64 {
        2 * self.maint_every
    }

    fn codec(&self) -> CompressorConfig {
        serial_codec()
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Res<OpSample> {
        let slot = (i % FULL_EVERY as u64) as usize;
        let payloads = refs(&self.payloads[slot]);
        let (store, tip) = (&mut self.store, self.tip);

        let root = tr.enter("save");
        let t = Instant::now();
        let gen = if slot == 0 {
            tr.span("store.save_full", || {
                store.save_full(i + 1, SegmentFormat::Array, &payloads, 1)
            })
            .ctx("save_full")?
        } else {
            tr.span("store.save_increment", || {
                store.save_increment(i + 1, tip, &payloads, 1)
            })
            .ctx("save_increment")?
        };
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(root);
        self.tip = gen;
        self.last_slot = slot;
        Self::check_restore(store, gen, &self.expected[slot], "after its save")?;

        let mut aux_ms = None;
        if (i + 1).is_multiple_of(self.maint_every) {
            let root = tr.enter("maint");
            let t = Instant::now();
            tr.span("store.gc", || store.gc(KEEP_FULLS)).ctx("gc")?;
            tr.span("store.compact_chains", || {
                store.compact_chains(MAX_DEPTH, 1)
            })
            .ctx("compact_chains")?;
            tr.span("store.compact_manifest", || store.compact_manifest())
                .ctx("compact_manifest")?;
            aux_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            tr.exit(root);
            // Compaction may have rewritten the tip into a fresh full.
            self.tip = newest_live(store)?.gen;
            Self::check_restore(store, self.tip, &self.expected[slot], "after maintenance")?;
        }
        Ok(OpSample { op_ms, aux_ms })
    }

    fn finish(&mut self) -> Res<Exact> {
        let store = Store::open(&self.dir).ctx("reopen")?;
        let report = store.verify().ctx("verify")?;
        if !report.clean() {
            return Err(format!("verify found {} problems", report.problems.len()));
        }
        let tip = newest_live(&store)?.gen;
        Self::check_restore(&store, tip, &self.expected[self.last_slot], "after reopen")?;
        let live = store.generations().iter().filter(|g| is_live(g)).count() as u64;
        let (disk_bytes, manifest_bytes) = store_sizes(&self.dir);
        Ok(Exact {
            stored_ratio: disk_bytes as f64 / (live * self.states[0].raw_bytes()) as f64,
            mean_rel_err: self.full_errors.0,
            max_rel_err: self.full_errors.1,
            disk_bytes,
            manifest_bytes,
        })
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            cur: &self.states[1].vars,
            prev: &self.states[0].vars,
        }
    }
}
