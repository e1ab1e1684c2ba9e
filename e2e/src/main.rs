//! End-to-end benchmark of the checkpoint pipeline: save, restore and
//! serve, timed as a user sees them, with every layer attributed.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     [--trace-out <file>] [--samples-out <file>]
//! e2e --check
//! ```
//!
//! One process, one client, closed loop: the next operation starts when
//! the previous one has returned and its outputs have been checked.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is the result as one JSON
//! object. See `README.md` for what each workload and metric is for.
//!
//! Function names in this package avoid the product's method names
//! (`run`, `check`, `measure`, ...): `ckpt-lint` resolves calls by name,
//! and a shared name would put the benchmark on the product's
//! concurrency-audited paths.

mod check;
mod churn;
mod host;
mod inputs;
mod metrics;
mod probe;
mod reference;
mod restart;
mod save;
mod stats;
mod trace;
mod workload;

use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use probe::Probe;
use reference::{Blend, Reference, Times};
use stats::{median, quantile, summarize};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{breakdowns, Tracer};
use workload::{Ctx, OpSample, Res, Scale, Workload};

/// Set-ups per untraced run; `setup_s` is their median. A set-up that
/// takes milliseconds is repeated up to the larger count, or until the
/// set-ups have taken a second: three samples of 60 ms are all noise.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=9;

/// Reference-kernel runs on each side of a set-up.
const SETUP_REFS: usize = 5;

/// Set-up simulates (a stencil streaming through memory) and compresses
/// (match search) in about equal parts, on every workload.
const SETUP_BLEND: Blend = Blend::new(0.5, 0.5, 0.0);

const USAGE: &str = "usage: e2e --workload <save_serial|save_pipelined|restart|store_churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--samples-out <file>]\n       e2e --check";

/// What one run is asked to do.
#[derive(Clone)]
struct Plan {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    /// Where to write the spans of a traced run, as JSON.
    trace_out: Option<PathBuf>,
    /// Where to write every measured operation's raw timings, as CSV.
    samples_out: Option<PathBuf>,
}

enum Command {
    Run(Plan),
    Check,
}

fn parse_args(argv: &[String]) -> Res<Command> {
    let mut plan = Plan {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        scale: Scale::Full,
        trace_out: None,
        samples_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            return Ok(Command::Check);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => plan.workload = value.clone(),
            "--seed" => plan.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => plan.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                plan.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => plan.trace_out = Some(PathBuf::from(value)),
            "--samples-out" => plan.samples_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&plan.workload.as_str()) {
        return Err(format!("unknown workload {:?}", plan.workload));
    }
    if !(plan.seconds.is_finite() && plan.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Command::Run(plan))
}

fn setup(name: &str, seed: u64, scale: Scale) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "save_serial" => Box::new(save::Save::setup(false, seed, scale)?),
        "save_pipelined" => Box::new(save::Save::setup(true, seed, scale)?),
        "restart" => Box::new(restart::Restart::setup(seed, scale)?),
        "store_churn" => Box::new(churn::Churn::setup(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

impl Plan {
    fn write_samples(&self, lp: &Loop) -> Res<()> {
        let Some(path) = &self.samples_out else {
            return Ok(());
        };
        let mut csv = String::from("op,traced,lz_ms,mem_ms,io_ms,op_ms,aux_ms\n");
        for (i, traced, times, sample) in &lp.rows {
            let aux = sample.aux_ms.map_or(String::new(), |a| a.to_string());
            csv.push_str(&format!(
                "{i},{},{},{},{},{},{aux}\n",
                u8::from(*traced),
                times.lz,
                times.mem,
                times.io,
                sample.op_ms
            ));
        }
        std::fs::write(path, csv).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Measures as the plan says.
    fn measure_plan(&self) -> Res<Outcome> {
        if self.traced {
            run_traced(self)
        } else {
            run_untraced(self)
        }
    }
}

/// Samples of one timing: raw, and the same calibrated — divided by
/// the slowdown the reference kernels showed at the time (see
/// `reference.rs`).
#[derive(Default)]
struct Timing {
    raw: Vec<f64>,
    cal: Vec<f64>,
}

impl Timing {
    fn push(&mut self, raw: f64, slowdown: f64) {
        self.raw.push(raw);
        self.cal.push(raw / slowdown);
    }

    fn print(&self, name: &str, meaning: &str, unit: &str) {
        match (summarize(&self.raw), summarize(&self.cal)) {
            (Some(raw), Some(cal)) => {
                println!("  {name} ({meaning}): raw {raw} {unit}; calibrated {cal} {unit}")
            }
            _ => println!("  {name} ({meaning}): no samples"),
        }
    }
}

/// What one stretch of the closed loop did.
#[derive(Default)]
struct Loop {
    attempted: u64,
    /// Why the loop stopped early, if it did.
    error: Option<String>,
    /// The primary operation, split by whether tracing was on.
    op: Timing,
    traced_op: Timing,
    aux: Timing,
    /// Every measured operation, for `--samples-out`.
    rows: Vec<(u64, bool, Times, OpSample)>,
}

/// Runs operations until `budget` is spent, at least `min_ops` of them
/// and a whole number of cycles, each preceded by the reference kernels
/// its timings are divided by. With `trace_blocks`, tracing is off and
/// on for alternate blocks of that many operations, so both halves see
/// the same mix of inputs. Stops at the first failure: a store that
/// failed an operation is poisoned by design.
fn drive(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    reference: &mut Reference,
    budget: Duration,
    min_ops: u64,
    trace_blocks: Option<u64>,
) -> Loop {
    let mut out = Loop::default();
    let (warmup, cycle) = (w.warmup(), w.cycle());
    let (op_blend, aux_blend) = w.refs();
    let start = Instant::now();
    while out.attempted < min_ops || out.attempted % cycle != 0 || start.elapsed() < budget {
        let i = out.attempted;
        out.attempted += 1;
        let traced = trace_blocks.is_some_and(|block| (i / block) % 2 == 1);
        tr.set_on(traced);
        tr.set_op(i);
        let sample = reference
            .run()
            .map_err(|e| format!("reference kernel: {e}"))
            .and_then(|times| Ok((times, w.op(i, tr)?)));
        match sample {
            Ok((times, sample)) if i >= warmup => {
                if traced {
                    &mut out.traced_op
                } else {
                    &mut out.op
                }
                .push(sample.op_ms, op_blend.slowdown(&times));
                if let Some(aux_ms) = sample.aux_ms {
                    out.aux.push(aux_ms, aux_blend.slowdown(&times));
                }
                out.rows.push((i, traced, times, sample));
            }
            Ok(_) => {}
            Err(e) => {
                tr.unwind();
                out.error = Some(format!("operation {i}: {e}"));
                break;
            }
        }
    }
    out
}

/// A finished run: the values of the metrics it must print, or why it
/// has none. The loop stops at the first failed operation, so a run
/// has failed once or not at all.
struct Outcome {
    attempted: u64,
    error: Option<String>,
    values: Vec<(&'static MetricDef, f64)>,
}

fn need(what: &str, v: Option<f64>) -> Res<f64> {
    v.filter(|v| v.is_finite())
        .ok_or_else(|| format!("{what} was not measured"))
}

/// The end-to-end run: tracing off, set-up repeated, one long loop.
fn run_untraced(plan: &Plan) -> Res<Outcome> {
    let (name, seed, seconds, scale) = (&plan.workload, plan.seed, plan.seconds, plan.scale);
    let reps = if scale == Scale::Check {
        1..=1
    } else {
        SETUP_REPS
    };
    let mut reference = Reference::new().ctx("reference scratch")?;
    let mut setups = Timing::default();
    let mut w = None;
    while setups.raw.len() < *reps.start()
        || (setups.raw.len() < *reps.end() && setups.raw.iter().sum::<f64>() < 1.0)
    {
        // One scratch store at a time.
        drop(w.take());
        // A set-up lasts seconds, so the host's slowdown is sampled
        // several times on both sides of it.
        let mut slowdowns = Vec::with_capacity(2 * SETUP_REFS);
        let mut sample = |reference: &mut Reference| -> Res<()> {
            for _ in 0..SETUP_REFS {
                let times = reference.run().ctx("reference kernel")?;
                slowdowns.push(SETUP_BLEND.slowdown(&times));
            }
            Ok(())
        };
        sample(&mut reference)?;
        let t = Instant::now();
        w = Some(setup(name, seed, scale)?);
        let secs = t.elapsed().as_secs_f64();
        sample(&mut reference)?;
        setups.push(secs, median(&slowdowns).unwrap_or(1.0));
    }
    let mut w = w.ok_or("no set-up ran")?;

    let mut tr = Tracer::new(false);
    let min_ops = w.warmup() + w.min_ops();
    let lp = drive(
        w.as_mut(),
        &mut tr,
        &mut reference,
        Duration::from_secs_f64(seconds),
        min_ops,
        None,
    );
    plan.write_samples(&lp)?;
    // A failed final check fails the run even when every operation passed.
    let exact = match lp.error {
        Some(e) => Err(e),
        None => w.finish(),
    };

    let (op_root, aux_root) = w.roots();
    setups.print("setup", "simulate, build payloads, populate", "s");
    lp.op.print("op", op_root, "ms");
    lp.aux.print("aux", aux_root, "ms");
    let mut values = Vec::new();
    if let Ok(exact) = &exact {
        for def in &END_TO_END {
            let v = match def.name {
                "setup_s" => median(&setups.cal),
                "op_cal_ms" => median(&lp.op.cal),
                "aux_cal_ms" => median(&lp.aux.cal),
                "stored_ratio" => Some(exact.stored_ratio),
                "mean_rel_err" => Some(exact.mean_rel_err),
                "max_rel_err" => Some(exact.max_rel_err),
                "peak_rss_mib" => host::peak_rss_mib(),
                other => return Err(format!("end-to-end metric {other} has no source")),
            };
            values.push((def, need(def.name, v)?));
        }
    }
    Ok(Outcome {
        attempted: lp.attempted,
        error: exact.err(),
        values,
    })
}

/// The traced run: the same loop with tracing off and on in alternate
/// blocks — the two medians give the tracing overhead — then the layer
/// probe. Per-layer timings are raw milliseconds: they carry no bound.
fn run_traced(plan: &Plan) -> Res<Outcome> {
    let (name, seed, seconds, scale) = (&plan.workload, plan.seed, plan.seconds, plan.scale);
    let mut w = setup(name, seed, scale)?;
    let mut tr = Tracer::new(false);
    let block = w.cycle().max(w.min_ops());
    let min_ops = w.warmup() + 2 * block;
    let mut reference = Reference::new().ctx("reference scratch")?;
    let lp = drive(
        w.as_mut(),
        &mut tr,
        &mut reference,
        Duration::from_secs_f64(seconds / 2.0),
        min_ops,
        Some(block),
    );
    plan.write_samples(&lp)?;
    tr.set_on(true); // the probe's spans belong in the trace too
    let attempted = lp.attempted;
    let finished = match lp.error {
        Some(e) => Err(e),
        None => w.finish(),
    };
    let exact = match finished {
        Ok(exact) => exact,
        Err(e) => {
            return Ok(Outcome {
                attempted,
                error: Some(e),
                values: Vec::new(),
            })
        }
    };

    let min_iters = if scale == Scale::Check { 1 } else { 2 };
    let probe = probe::probe_layers(
        w.probe_input(),
        w.codec(),
        &mut tr,
        Duration::from_secs_f64(seconds / 2.0),
        min_iters,
    )?;

    let all = breakdowns(tr.spans());
    let (op_root, aux_root) = w.roots();
    let mut unattributed = 0.0f64;
    for root in [op_root, aux_root] {
        let Some(b) = all.get(root) else { continue };
        unattributed = unattributed.max(b.unattributed());
        print!(
            "  {root}: {:.3} ms/op over {} ops =",
            b.total_ns as f64 / 1e6 / b.count as f64,
            b.count
        );
        for (layer, ns) in &b.layers {
            print!(" {layer} {:.1}% |", *ns as f64 / b.total_ns as f64 * 100.0);
        }
        println!(" (self) {:.1}%", b.unattributed() * 100.0);
    }
    print_codec_split(&probe);

    let overhead = match (median(&lp.op.cal), median(&lp.traced_op.cal)) {
        (Some(off), Some(on)) => Some((on - off) / off * 100.0),
        _ => None,
    };
    let mut ops: Vec<f64> = lp.op.raw.iter().chain(&lp.traced_op.raw).copied().collect();
    ops.sort_by(f64::total_cmp);

    let mut values = Vec::new();
    for def in &PER_LAYER {
        let v = match def.name {
            "pool.effective_threads" => Some(ckpt_pool::clamp_workers(2, usize::MAX) as f64),
            "store.save_p95_ms" => (!ops.is_empty()).then(|| quantile(&ops, 0.95)),
            "store.manifest_bytes" => Some(exact.manifest_bytes as f64),
            "store.disk_bytes" => Some(exact.disk_bytes as f64),
            "simd.tier" => Some(f64::from(ckpt_simd::level() as u8)),
            "trace.overhead_pct" => overhead,
            "trace.spans" => Some(tr.spans().len() as f64),
            "trace.unattributed_pct" => Some(unattributed * 100.0),
            "core.timings_gap_pct" => probe.median("core.timings_gap"),
            name => probe
                .value(name)
                .or_else(|| probe.median(name))
                .or_else(|| probe.median(name.strip_suffix("_ms").unwrap_or(name))),
        };
        values.push((def, need(def.name, v)?));
    }
    println!("  probe iterations: {}", probe.iterations);
    if let Some(path) = &plan.trace_out {
        std::fs::write(path, tr.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    Ok(Outcome {
        attempted,
        error: None,
        values,
    })
}

/// The Fig. 9 split of the two whole codec calls, from the replayed stages.
fn print_codec_split(p: &Probe) {
    let split = |whole: &str, parts: [(&str, &str); 3]| {
        let Some(total) = p.median(whole) else { return };
        print!("  {whole}: {total:.3} ms =");
        let mut rest = total;
        for (label, name) in parts {
            let ms = p.median(name).unwrap_or(0.0);
            rest -= ms;
            print!(" {label} {:.1}% |", ms / total * 100.0);
        }
        println!(
            " (self: gather, format, copies) {:.1}%",
            rest / total * 100.0
        );
    };
    split(
        "core.compress",
        [
            ("wavelet", "wavelet.forward"),
            ("quantize", "quant.encode"),
            ("deflate", "deflate.compress"),
        ],
    );
    split(
        "core.decompress",
        [
            ("inflate", "deflate.inflate"),
            ("dequantize", "quant.decode"),
            ("wavelet", "wavelet.inverse"),
        ],
    );
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .values
        .iter()
        .map(|(def, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.error.is_none(),
        o.attempted,
        u8::from(o.error.is_some()),
        metrics.join(", ")
    )
}

fn run_workload(plan: &Plan) -> Res<bool> {
    println!(
        "e2e {} seed={} seconds={} trace={}",
        plan.workload,
        plan.seed,
        plan.seconds,
        u8::from(plan.traced)
    );
    println!("{}", host::fingerprint());
    println!(
        "closed loop, one client; durability: the product's own fsyncs (segment, directory, \
         manifest) on the local filesystem; threads <= nproc"
    );
    let outcome = plan.measure_plan()?;
    for (def, v) in &outcome.values {
        println!("  {} = {v} {}", def.name, def.unit);
    }
    if let Some(e) = &outcome.error {
        println!("FAILED: {e}");
    }
    println!("{}", result_json(&outcome));
    Ok(outcome.error.is_none())
}

/// Every workload, both modes, at ~1% of the work, then the names
/// against `BENCHMARK.json` in the working directory.
fn self_check() -> Res<()> {
    let declared =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    check::names_match(&declared)?;
    for name in WORKLOADS {
        for traced in [false, true] {
            let plan = Plan {
                workload: name.to_string(),
                seed: 1,
                seconds: 0.0,
                traced,
                scale: Scale::Check,
                trace_out: None,
                samples_out: None,
            };
            let outcome = plan.measure_plan()?;
            if let Some(e) = outcome.error {
                return Err(format!("{name}: {e}"));
            }
            let want = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            if outcome.values.len() != want {
                return Err(format!(
                    "{name}: printed {} of {want} metrics",
                    outcome.values.len()
                ));
            }
            println!(
                "check {name} trace={}: {} ops ok",
                u8::from(traced),
                outcome.attempted
            );
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = match command {
        Command::Check => self_check().map(|()| true),
        Command::Run(plan) => run_workload(&plan),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
