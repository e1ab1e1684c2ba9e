//! `save_serial` and `save_pipelined`: the paper's Fig. 9 path, tensor
//! in to commit fsynced, followed by the read-back that proves the
//! checkpoint restores within the error recorded in set-up.

use crate::host::Scratch;
use crate::inputs::{self, State, RANKS};
use crate::reference::Blend;
use crate::trace::Tracer;
use crate::workload::{
    pipelined_codec, refs, serial_codec, store_sizes, stream_error, Ctx, Exact, OpSample,
    ProbeInput, Res, Scale, Workload,
};
use ckpt_core::metrics::RelativeError;
use ckpt_core::{Compressor, CompressorConfig};
use ckpt_store::{SegmentFormat, Store};
use std::path::PathBuf;
use std::time::Instant;

/// What one state's last save committed and restored to.
#[derive(Clone, Copy)]
struct Saved {
    bytes: u64,
    mean_err: f64,
    max_err: f64,
}

pub struct Save {
    pipelined: bool,
    comp: Compressor,
    states: Vec<State>,
    /// Per state, per variable: the error its lossy round trip has.
    recorded: Vec<Vec<RelativeError>>,
    saved: Vec<Option<Saved>>,
    store: Store,
    dir: PathBuf,
    _scratch: Scratch,
}

impl Save {
    pub fn setup(pipelined: bool, seed: u64, scale: Scale) -> Res<Save> {
        let count = match scale {
            Scale::Full => 6,
            Scale::Check => 2,
        };
        let cfg = if pipelined {
            pipelined_codec()
        } else {
            serial_codec()
        };
        let comp = Compressor::new(cfg).ctx("codec config")?;
        let states = inputs::nicam_states(seed, scale, count);
        let mut recorded = Vec::with_capacity(states.len());
        for state in &states {
            recorded.push(inputs::lossy(cfg, state)?.errors);
        }
        if pipelined {
            // Streaming changes wall-clock, never content.
            for var in &states[0].vars {
                let mut streamed = Vec::new();
                comp.compress_stream(var, &mut streamed)
                    .ctx("compress_stream")?;
                if streamed != comp.compress(var).ctx("compress")?.bytes {
                    return Err("streamed container bytes differ from buffered bytes".into());
                }
            }
        }
        let scratch = Scratch::new("save").ctx("scratch")?;
        let dir = scratch.join("store");
        let store = Store::open(&dir).ctx("open store")?;
        Ok(Save {
            pipelined,
            comp,
            saved: vec![None; states.len()],
            states,
            recorded,
            store,
            dir,
            _scratch: scratch,
        })
    }
}

impl Workload for Save {
    fn roots(&self) -> (&'static str, &'static str) {
        ("save", "readback")
    }

    fn refs(&self) -> (Blend, Blend) {
        // Compress is match search; the read-back streams more than it searches.
        let op = if self.pipelined {
            Blend::new(0.5, 0.4, 0.1)
        } else {
            Blend::new(1.0, 0.0, 0.0)
        };
        (op, Blend::new(0.4, 0.6, 0.0))
    }

    fn warmup(&self) -> u64 {
        3
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn min_ops(&self) -> u64 {
        self.states.len() as u64
    }

    fn codec(&self) -> CompressorConfig {
        *self.comp.config()
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Res<OpSample> {
        let k = (i % self.states.len() as u64) as usize;
        let state = &self.states[k];
        let comp = &self.comp;

        let root = tr.enter("save");
        let t = Instant::now();
        let gen = if self.pipelined {
            let call = tr.enter("store.save_full_streamed");
            let gen = self
                .store
                .save_full_streamed(i + 1, SegmentFormat::Array, RANKS as u32, |rank, w| {
                    let span = tr.enter("core.compress_stream");
                    let out = comp.compress_stream(&state.vars[rank as usize], w);
                    tr.exit(span);
                    out.map(|_| ()).map_err(stream_error)
                })
                .ctx("save_full_streamed")?;
            tr.exit(call);
            gen
        } else {
            let mut payloads = Vec::with_capacity(RANKS);
            for var in &state.vars {
                payloads.push(
                    tr.span("core.compress", || comp.compress(var))
                        .ctx("compress")?
                        .bytes,
                );
            }
            let store = &mut self.store;
            tr.span("store.save_full", || {
                store.save_full(i + 1, SegmentFormat::Array, &refs(&payloads), 1)
            })
            .ctx("save_full")?
        };
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(root);

        let root = tr.enter("readback");
        let t = Instant::now();
        let reader = tr
            .span("store.open", || Store::open(&self.dir))
            .ctx("reopen")?;
        let mut restored = Vec::with_capacity(RANKS);
        for rank in 0..RANKS as u32 {
            restored.push(
                tr.span("store.restore_array", || reader.restore_array(gen, rank))
                    .ctx("restore")?,
            );
        }
        let aux_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(root);

        let errs = inputs::errors(&state.vars, &restored)?;
        if !inputs::within(&self.recorded[k], &errs) {
            return Err(format!(
                "gen {gen}: restored outside the error recorded in set-up"
            ));
        }
        let bytes = self
            .store
            .generations()
            .iter()
            .find(|g| g.gen == gen)
            .map(|g| g.bytes)
            .ok_or_else(|| format!("gen {gen} missing from the listing"))?;
        let (mean_err, max_err) = inputs::fold_errors(&errs);
        self.saved[k] = Some(Saved {
            bytes,
            mean_err,
            max_err,
        });
        Ok(OpSample {
            op_ms,
            aux_ms: Some(aux_ms),
        })
    }

    fn finish(&mut self) -> Res<Exact> {
        let report = self.store.verify().ctx("verify")?;
        if !report.clean() {
            return Err(format!("verify found {} problems", report.problems.len()));
        }
        let saved: Vec<Saved> = self
            .saved
            .iter()
            .copied()
            .collect::<Option<_>>()
            .ok_or("not every state was saved")?;
        let raw: u64 = self.states.iter().map(State::raw_bytes).sum();
        let (disk_bytes, manifest_bytes) = store_sizes(&self.dir);
        Ok(Exact {
            stored_ratio: saved.iter().map(|s| s.bytes).sum::<u64>() as f64 / raw as f64,
            mean_rel_err: saved.iter().map(|s| s.mean_err).sum::<f64>() / saved.len() as f64,
            max_rel_err: saved.iter().map(|s| s.max_err).fold(0.0, f64::max),
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
