//! `restart`: the read direction. A store of lossy fulls, each under a
//! depth-3 chain of exact `INC1` increments, is restored two ways per
//! operation — straight from disk, and over the Unix socket — and both
//! must give back the chain tip's state bit for bit.

use crate::host::Scratch;
use crate::inputs::{self, bit_equal, State, RANKS};
use crate::reference::Blend;
use crate::trace::Tracer;
use crate::workload::{
    fetch_verified, refs, serial_codec, store_sizes, Ctx, Exact, OpSample, ProbeInput, Res, Scale,
    Workload,
};
use ckpt_core::{incremental, Compressor, CompressorConfig};
use ckpt_deflate::Level;
use ckpt_serve::server::{serve_unix, Server};
use ckpt_serve::Client;
use ckpt_store::{SegmentFormat, Store};
use ckpt_tensor::Tensor;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Increments stacked on each lossy full.
const DEPTH: usize = 3;

/// One chain: the generation at its tip and the state that tip holds.
struct Chain {
    tip: u64,
    state: usize,
}

pub struct Restart {
    states: Vec<State>,
    chains: Vec<Chain>,
    exact: Exact,
    dir: PathBuf,
    sock: PathBuf,
    shared: Arc<Mutex<Store>>,
    // Declared before the scratch directory so the server stops (and
    // unlinks its socket) before the directory is removed.
    _server: Server,
    _scratch: Scratch,
}

impl Restart {
    pub fn setup(seed: u64, scale: Scale) -> Res<Restart> {
        let chain_count = match scale {
            Scale::Full => 2,
            Scale::Check => 1,
        };
        let states = inputs::nicam_states(seed, scale, chain_count * (DEPTH + 1));
        let scratch = Scratch::new("restart").ctx("scratch")?;
        let dir = scratch.join("store");
        let mut store = Store::open(&dir).ctx("open store")?;

        let mut chains = Vec::with_capacity(chain_count);
        let mut full_errors = Vec::new();
        for c in 0..chain_count {
            let first = c * (DEPTH + 1);
            let base = &states[first];
            let lossy = inputs::lossy(serial_codec(), base)?;
            let mut gen = store
                .save_full(base.step, SegmentFormat::Array, &refs(&lossy.payloads), 1)
                .ctx("save_full")?;
            let mut through_store = Vec::with_capacity(RANKS);
            for rank in 0..RANKS as u32 {
                through_store.push(store.restore_array(gen, rank).ctx("restore full")?);
            }
            if !inputs::within(&lossy.errors, &inputs::errors(&base.vars, &through_store)?) {
                return Err(format!(
                    "full gen {gen}: restored outside its recorded error"
                ));
            }
            full_errors.extend(lossy.errors);

            // Each increment is exact against what the chain below it
            // restores to: the lossy full first, then the true states.
            let mut below: &[Tensor<f64>] = &lossy.restored;
            for state in &states[first + 1..=first + DEPTH] {
                let mut incs = Vec::with_capacity(RANKS);
                for (prev, cur) in below.iter().zip(&state.vars) {
                    incs.push(
                        incremental::increment(prev, cur, Level::Default)
                            .ctx("increment")?
                            .0,
                    );
                }
                gen = store
                    .save_increment(state.step, gen, &refs(&incs), 1)
                    .ctx("save_increment")?;
                below = &state.vars;
            }
            chains.push(Chain {
                tip: gen,
                state: first + DEPTH,
            });
        }

        let committed: u64 = store.generations().iter().map(|g| g.bytes).sum();
        let raw: u64 = states.iter().map(State::raw_bytes).sum();
        let (mean_rel_err, max_rel_err) = inputs::fold_errors(&full_errors);
        let (disk_bytes, manifest_bytes) = store_sizes(&dir);
        let exact = Exact {
            stored_ratio: committed as f64 / raw as f64,
            mean_rel_err,
            max_rel_err,
            disk_bytes,
            manifest_bytes,
        };

        let shared = Arc::new(Mutex::new(store));
        let sock = scratch.join("srv.sock");
        let server = serve_unix(Arc::clone(&shared), &sock).ctx("serve_unix")?;
        Ok(Restart {
            states,
            chains,
            exact,
            dir,
            sock,
            shared,
            _server: server,
            _scratch: scratch,
        })
    }

    /// Connect, walk the chain's indexes tip to base, fetch every
    /// segment CRC-checked, then decode base-first.
    fn fetch_restore(&self, tip: u64, tr: &mut Tracer) -> Res<Vec<Tensor<f64>>> {
        let mut client = tr
            .span("serve.connect", || Client::connect(&self.sock))
            .ctx("connect")?;

        let span = tr.enter("serve.index");
        let mut chain = vec![client.index(tip).ctx("index")?];
        while let Some(ix) = chain
            .last()
            .filter(|ix| ix.format == SegmentFormat::Increment)
        {
            let base = client.index(ix.base_gen).ctx("index")?;
            chain.push(base);
        }
        chain.reverse();
        tr.exit(span);

        let span = tr.enter("serve.fetch");
        let mut payloads = Vec::with_capacity(chain.len());
        for ix in &chain {
            let mut ranks = Vec::with_capacity(ix.ranks.len());
            for rank in &ix.ranks {
                ranks.push(fetch_verified(&mut client, ix.gen, rank)?.0);
            }
            payloads.push(ranks);
        }
        tr.exit(span);

        let mut out = Vec::with_capacity(RANKS);
        for rank in 0..RANKS {
            let mut t = tr
                .span("core.decompress", || {
                    Compressor::decompress(&payloads[0][rank])
                })
                .ctx("decompress")?;
            for gen in &payloads[1..] {
                t = tr
                    .span("core.inc_apply", || incremental::apply(&t, &gen[rank]))
                    .ctx("apply")?;
            }
            out.push(t);
        }
        Ok(out)
    }

    fn check_tip(&self, chain: &Chain, restored: &[Tensor<f64>], how: &str) -> Res<()> {
        let want = &self.states[chain.state].vars;
        if restored.len() == want.len() && restored.iter().zip(want).all(|(a, b)| bit_equal(a, b)) {
            Ok(())
        } else {
            Err(format!("tip gen {} {how}: not bit-exact", chain.tip))
        }
    }
}

impl Workload for Restart {
    fn roots(&self) -> (&'static str, &'static str) {
        ("restore", "fetch_restore")
    }

    fn refs(&self) -> (Blend, Blend) {
        // Inflating barely compressible increments and XOR-applying them
        // is memory traffic; the served path adds decode-side search and
        // the socket.
        (Blend::new(0.2, 0.8, 0.0), Blend::new(0.6, 0.3, 0.1))
    }

    fn warmup(&self) -> u64 {
        3
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn min_ops(&self) -> u64 {
        self.chains.len() as u64
    }

    fn codec(&self) -> CompressorConfig {
        serial_codec()
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Res<OpSample> {
        let chain = &self.chains[(i % self.chains.len() as u64) as usize];

        let root = tr.enter("restore");
        let t = Instant::now();
        let store = tr
            .span("store.open", || Store::open(&self.dir))
            .ctx("open")?;
        let mut restored = Vec::with_capacity(RANKS);
        for rank in 0..RANKS as u32 {
            restored.push(
                tr.span("store.restore_array", || {
                    store.restore_array(chain.tip, rank)
                })
                .ctx("restore_array")?,
            );
        }
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(root);
        self.check_tip(chain, &restored, "from disk")?;
        drop(restored);

        let root = tr.enter("fetch_restore");
        let t = Instant::now();
        let fetched = self.fetch_restore(chain.tip, tr)?;
        let aux_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(root);
        self.check_tip(chain, &fetched, "over the socket")?;

        Ok(OpSample {
            op_ms,
            aux_ms: Some(aux_ms),
        })
    }

    fn finish(&mut self) -> Res<Exact> {
        let store = self.shared.lock().map_err(|_| "store lock poisoned")?;
        let report = store.verify().ctx("verify")?;
        if !report.clean() {
            return Err(format!("verify found {} problems", report.problems.len()));
        }
        Ok(self.exact)
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            cur: &self.states[1].vars,
            prev: &self.states[0].vars,
        }
    }
}
