//! The layer probe of a traced run: every layer's public calls, timed
//! from outside on the workload's own inputs.
//!
//! A stage cannot be spanned inside `Compressor::compress` from here,
//! so each iteration *replays* the stages one by one on the same array
//! the whole call gets — wavelet, quantizer, deflate, and their
//! inverses — and then walks a private store and server through every
//! call the workloads make. All of it runs under a `replay` span,
//! which is never part of an operation's time.

use crate::host::Scratch;
use crate::inputs::{bit_equal, RANKS};
use crate::trace::Tracer;
use crate::workload::{
    fetch_verified, pipelined_codec, refs, serial_codec, stream_error, Ctx, ProbeInput, Res,
    FETCH_BYTES,
};
use ckpt_core::{incremental, Compressor, CompressorConfig, Container};
use ckpt_deflate::{chunked, gzip, Level};
use ckpt_serve::proto::{Request, Response};
use ckpt_serve::server::serve_unix;
use ckpt_serve::{Client, ServeSession};
use ckpt_store::layout::Layout;
use ckpt_store::{segment, FailPoint, SegmentFormat, Store};
use ckpt_wavelet::{MultiLevel, SubbandKind, WaveletPlan};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the probe measured: millisecond samples per call, and the
/// last value of each count.
#[derive(Default)]
pub struct Probe {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    pub iterations: u64,
}

impl Probe {
    /// Times `f` as a span and as a sample of `name`; returns its
    /// result and the milliseconds it took.
    fn time<T>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = tr.enter(name);
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(span);
        self.push(name, ms);
        (out, ms)
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Median of a timing or derived sample.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|s| crate::stats::median(s))
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }
}

/// Everything that lives across probe iterations.
struct Rig<'a> {
    input: ProbeInput<'a>,
    cfg: CompressorConfig,
    work: Compressor,
    bare: Compressor,
    one: Compressor,
    two: Compressor,
    /// Ready payloads for the store calls: the state as lossy fulls,
    /// then two increments that lead back to the state exactly.
    fulls: Vec<Vec<u8>>,
    away: Vec<Vec<u8>>,
    back: Vec<Vec<u8>>,
    dir: std::path::PathBuf,
    sock: std::path::PathBuf,
    segs: Layout,
    shared: Arc<Mutex<Store>>,
}

/// Probes until `budget` is spent, at least `min_iters` times.
pub fn probe_layers(
    input: ProbeInput<'_>,
    cfg: CompressorConfig,
    tr: &mut Tracer,
    budget: Duration,
    min_iters: u64,
) -> Res<Probe> {
    let scratch = Scratch::new("probe").ctx("scratch")?;
    let work = Compressor::new(cfg).ctx("codec config")?;
    let mut fulls = Vec::with_capacity(RANKS);
    let mut away = Vec::with_capacity(RANKS);
    let mut back = Vec::with_capacity(RANKS);
    for (cur, prev) in input.cur.iter().zip(input.prev) {
        let packed = work.compress(cur).ctx("compress")?.bytes;
        let restored = Compressor::decompress(&packed).ctx("decompress")?;
        away.push(
            incremental::increment(&restored, prev, Level::Default)
                .ctx("increment")?
                .0,
        );
        back.push(
            incremental::increment(prev, cur, Level::Default)
                .ctx("increment")?
                .0,
        );
        fulls.push(packed);
    }
    let dir = scratch.join("store");
    let segs = Layout::new(scratch.join("segs"));
    segs.create_dirs().ctx("scratch layout")?;
    let shared = Arc::new(Mutex::new(Store::open(&dir).ctx("open probe store")?));
    let sock = scratch.join("srv.sock");
    let _server = serve_unix(Arc::clone(&shared), &sock).ctx("serve_unix")?;
    let rig = Rig {
        input,
        cfg,
        work,
        bare: Compressor::new(cfg.with_container(Container::None)).ctx("codec config")?,
        one: Compressor::new(serial_codec()).ctx("codec config")?,
        two: Compressor::new(pipelined_codec()).ctx("codec config")?,
        fulls,
        away,
        back,
        dir,
        sock,
        segs,
        shared,
    };

    let mut probe = Probe::default();
    let start = Instant::now();
    while probe.iterations < min_iters || start.elapsed() < budget {
        tr.set_op(probe.iterations);
        let root = tr.enter("replay");
        let rank = (probe.iterations % RANKS as u64) as usize;
        probe_codec(&rig, rank, &mut probe, tr)?;
        probe_store(&rig, rank, &mut probe, tr)?;
        probe_serve(&rig, &mut probe, tr)?;
        tr.exit(root);
        probe.iterations += 1;
    }
    Ok(probe)
}

/// The codec's stages one by one, then the whole calls around them.
fn probe_codec(rig: &Rig<'_>, rank: usize, p: &mut Probe, tr: &mut Tracer) -> Res<()> {
    let cfg = rig.cfg;
    let x = &rig.input.cur[rank];
    let ml = MultiLevel::with_kernel(WaveletPlan::clamped(cfg.plan.levels, x.dims()), cfg.kernel)
        .with_threads(cfg.threads);

    let mut w = x.clone();
    let (r, wavelet_ms) = p.time(tr, "wavelet.forward", || ml.forward(&mut w));
    r.ctx("forward")?;
    let mut high = Vec::new();
    for band in ml.all_subbands(w.shape()).ctx("subbands")? {
        if band.kind != SubbandKind::Low {
            high.extend(w.read_block(&band.start, &band.size).ctx("read_block")?);
        }
    }
    let (q, quant_ms) = p.time(tr, "quant.encode", || {
        ckpt_quant::quantize_threaded(&high, &cfg.quant, cfg.threads)
    });
    let q = q.ctx("quantize")?;
    p.count("quant.coverage", q.coverage());
    p.count("quant.raw_values", q.raw.len() as f64);

    let formatted = rig.bare.compress(x).ctx("format")?.bytes;
    let (deflated, deflate_ms) = p.time(tr, "deflate.compress", || {
        if cfg.threads > 1 {
            chunked::compress_chunked(&formatted, cfg.level, cfg.chunk_bytes, cfg.threads)
        } else {
            gzip::compress(&formatted, cfg.level)
        }
    });
    p.count("deflate.in_bytes", formatted.len() as f64);
    p.count("deflate.out_bytes", deflated.len() as f64);
    p.count("core.formatted_bytes", formatted.len() as f64);

    let (packed, compress_ms) = p.time(tr, "core.compress", || rig.work.compress(x));
    let packed = packed.ctx("compress")?;
    if packed.bytes != deflated {
        return Err("replayed stages do not reproduce the whole call's bytes".into());
    }
    p.push(
        "core.self",
        compress_ms - wavelet_ms - quant_ms - deflate_ms,
    );
    let inside = packed.timings.wavelet + packed.timings.quantize_encode + packed.timings.gzip;
    let inside_ms = inside.as_secs_f64() * 1e3;
    p.push(
        "core.timings_gap",
        (wavelet_ms + quant_ms + deflate_ms - inside_ms) / compress_ms * 100.0,
    );

    // The first two-thread call after a serial stretch pays for waking
    // the second core and its allocator arena; the workloads call back
    // to back, so the pair below is timed warm.
    rig.two.compress(x).ctx("compress")?;
    let (r, one_ms) = p.time(tr, "core.compress.t1", || rig.one.compress(x));
    r.ctx("compress")?;
    let (r, two_ms) = p.time(tr, "core.compress.t2", || rig.two.compress(x));
    let two_bytes = r.ctx("compress")?.bytes;
    p.push("pool.compress_speedup", one_ms / two_ms);

    // (compress + segment write) ÷ streamed save, one rank, two threads.
    let fp = FailPoint::unlimited();
    let (r, write_ms) = p.time(tr, "store.segment_write.one", || {
        segment::write_segment(&rig.segs, 0, rank as u32, &two_bytes, &fp)
    });
    r.ctx("write_segment")?;
    let (r, streamed_ms) = p.time(tr, "store.save_full_streamed", || {
        let mut store = rig.shared.lock().expect("probe store lock");
        store.save_full_streamed(0, SegmentFormat::Array, 1, |_, w| {
            rig.two
                .compress_stream(x, w)
                .map(|_| ())
                .map_err(stream_error)
        })
    });
    r.ctx("save_full_streamed")?;
    p.push("pool.overlap", (two_ms + write_ms) / streamed_ms);

    let (inflated, _) = p.time(tr, "deflate.inflate", || {
        if chunked::is_chunked(&packed.bytes) {
            chunked::decompress_chunked(&packed.bytes, cfg.threads)
        } else {
            gzip::decompress(&packed.bytes)
        }
    });
    if inflated.ctx("inflate")? != formatted {
        return Err("inflate does not give back the formatted stream".into());
    }
    p.time(tr, "quant.decode", || std::hint::black_box(q.reconstruct()));
    p.time(tr, "wavelet.inverse", || ml.inverse(&mut w))
        .0
        .ctx("inverse")?;
    p.time(tr, "core.decompress", || {
        Compressor::decompress(&packed.bytes)
    })
    .0
    .ctx("decompress")?;

    let prev = &rig.input.prev[rank];
    let (inc, _) = p.time(tr, "core.inc_build", || {
        incremental::increment(prev, x, Level::Default)
    });
    let (inc, stats) = inc.ctx("increment")?;
    p.count("core.inc_dirty_fraction", stats.dirty_fraction());
    let (applied, _) = p.time(tr, "core.inc_apply", || incremental::apply(prev, &inc));
    if !bit_equal(&applied.ctx("apply")?, x) {
        return Err("increment does not apply back bit-exactly".into());
    }
    Ok(())
}

/// Every store call the workloads make, on a private store that each
/// iteration grows by one depth-3 chain and then maintains.
fn probe_store(rig: &Rig<'_>, rank: usize, p: &mut Probe, tr: &mut Tracer) -> Res<()> {
    let mut store = rig.shared.lock().map_err(|_| "probe store lock poisoned")?;
    let step = p.iterations + 1;
    let payload_bytes: usize = rig.fulls.iter().map(Vec::len).sum();

    let before = store.bytes_written();
    let (gen, save_ms) = p.time(tr, "store.save_call", || {
        store.save_full(step, SegmentFormat::Array, &refs(&rig.fulls), 1)
    });
    let gen = gen.ctx("save_full")?;
    let written = store.bytes_written() - before;
    p.count("store.bytes_written", written as f64);
    p.count("store.write_amp", written as f64 / payload_bytes as f64);

    let fp = FailPoint::unlimited();
    let (r, write_ms) = p.time(tr, "store.segment_write", || {
        rig.fulls.iter().enumerate().try_for_each(|(r, payload)| {
            segment::write_segment(&rig.segs, 1, r as u32, payload, &fp)
        })
    });
    r.ctx("write_segment")?;
    p.push("store.commit", save_ms - write_ms);

    let mid = store
        .save_increment(step, gen, &refs(&rig.away), 1)
        .ctx("save_increment")?;
    let tip = store
        .save_increment(step, mid, &refs(&rig.back), 1)
        .ctx("save_increment")?;

    let (reader, _) = p.time(tr, "store.open", || Store::open(&rig.dir));
    let reader = reader.ctx("open")?;
    let (r, _) = p.time(tr, "store.read_segment", || {
        (0..RANKS as u32).try_for_each(|r| reader.read_segment(gen, r).map(|_| ()))
    });
    r.ctx("read_segment")?;
    let (report, _) = p.time(tr, "store.verify", || reader.verify());
    if !report.ctx("verify")?.clean() {
        return Err("probe store does not verify clean".into());
    }
    let restored = reader
        .restore_array(tip, rank as u32)
        .ctx("restore_array")?;
    if !bit_equal(&restored, &rig.input.cur[rank]) {
        return Err("probe chain tip is not bit-exact".into());
    }

    p.time(tr, "store.gc", || store.gc(2)).0.ctx("gc")?;
    p.time(tr, "store.compact_chains", || store.compact_chains(2, 1))
        .0
        .ctx("compact_chains")?;
    p.time(tr, "store.compact_manifest", || store.compact_manifest())
        .0
        .ctx("compact_manifest")?;
    Ok(())
}

/// One full generation over the socket, then the same requests
/// answered in-process: the difference is the transport.
fn probe_serve(rig: &Rig<'_>, p: &mut Probe, tr: &mut Tracer) -> Res<()> {
    // The server pins a snapshot under the store lock when a client
    // connects, so the lock must not be held across these calls.
    let (gen, session) = {
        let store = rig.shared.lock().map_err(|_| "probe store lock poisoned")?;
        let gen = store
            .latest_full()
            .ok_or("probe store has no full generation")?;
        (gen, ServeSession::new(store.snapshot().ctx("snapshot")?))
    };

    let (client, _) = p.time(tr, "serve.connect", || Client::connect(&rig.sock));
    let mut client = client.ctx("connect")?;
    let (ix, _) = p.time(tr, "serve.index", || client.index(gen));
    let ix = ix.ctx("index")?;
    let (fetched, fetch_ms) = p.time(tr, "serve.fetch", || {
        ix.ranks
            .iter()
            .try_fold((0u64, 0u64), |(bytes, frames), rank| {
                fetch_verified(&mut client, gen, rank)
                    .map(|(b, f)| (bytes + b.len() as u64, frames + f))
            })
    });
    let (bytes, frames) = fetched?;
    p.count("serve.frames", frames as f64);
    p.push("serve.fetch_mbps", bytes as f64 / 1e6 / (fetch_ms / 1e3));

    let (r, handle_ms) = p.time(tr, "serve.handle", || {
        for rank in &ix.ranks {
            let mut offset = 0;
            while offset < rank.payload_len {
                let len = FETCH_BYTES.min(rank.payload_len - offset);
                match session.handle(&Request::Fetch {
                    gen,
                    rank: rank.rank,
                    offset,
                    len,
                }) {
                    Response::Data(d) if d.len() as u64 == len => offset += len,
                    other => return Err(format!("in-process fetch answered {other:?}")),
                }
            }
        }
        Ok(())
    });
    r?;
    p.push("serve.transport", fetch_ms - handle_ms);
    Ok(())
}
