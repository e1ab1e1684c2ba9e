//! The names this benchmark defines. `BENCHMARK.json` lists the same
//! sets; `--check` and a unit test fail when the two drift apart.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

pub const WORKLOADS: [&str; 4] = ["save_serial", "save_pipelined", "restart", "store_churn"];

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 7] = [
    m("setup_s", "s"),
    m("op_cal_ms", "ms"),
    m("aux_cal_ms", "ms"),
    m("stored_ratio", "ratio"),
    m("mean_rel_err", "ratio"),
    m("max_rel_err", "ratio"),
    m("peak_rss_mib", "MiB"),
];

/// Single layers; measured by the traced run.
pub const PER_LAYER: [MetricDef; 46] = [
    m("wavelet.forward_ms", "ms"),
    m("wavelet.inverse_ms", "ms"),
    m("quant.encode_ms", "ms"),
    m("quant.decode_ms", "ms"),
    m("quant.coverage", "ratio"),
    m("quant.raw_values", "count"),
    m("deflate.compress_ms", "ms"),
    m("deflate.inflate_ms", "ms"),
    m("deflate.in_bytes", "B"),
    m("deflate.out_bytes", "B"),
    m("core.compress_ms", "ms"),
    m("core.decompress_ms", "ms"),
    m("core.self_ms", "ms"),
    m("core.formatted_bytes", "B"),
    m("core.inc_build_ms", "ms"),
    m("core.inc_apply_ms", "ms"),
    m("core.inc_dirty_fraction", "ratio"),
    m("core.timings_gap_pct", "%"),
    m("pool.effective_threads", "count"),
    m("pool.compress_speedup", "ratio"),
    m("pool.overlap", "ratio"),
    m("store.save_call_ms", "ms"),
    m("store.segment_write_ms", "ms"),
    m("store.commit_ms", "ms"),
    m("store.bytes_written", "B"),
    m("store.write_amp", "ratio"),
    m("store.save_p95_ms", "ms"),
    m("store.open_ms", "ms"),
    m("store.read_segment_ms", "ms"),
    m("store.gc_ms", "ms"),
    m("store.compact_chains_ms", "ms"),
    m("store.compact_manifest_ms", "ms"),
    m("store.manifest_bytes", "B"),
    m("store.disk_bytes", "B"),
    m("store.verify_ms", "ms"),
    m("serve.connect_ms", "ms"),
    m("serve.index_ms", "ms"),
    m("serve.fetch_ms", "ms"),
    m("serve.frames", "count"),
    m("serve.fetch_mbps", "MB/s"),
    m("serve.handle_ms", "ms"),
    m("serve.transport_ms", "ms"),
    m("simd.tier", "level"),
    m("trace.overhead_pct", "%"),
    m("trace.spans", "count"),
    m("trace.unattributed_pct", "%"),
];

/// The driver's rule for a metric or workload name.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The driver's rule for a unit.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {:?} on {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "{} is defined twice", def.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "{w} is used twice");
        }
    }

    #[test]
    fn the_name_rule_rejects_what_the_driver_rejects() {
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be refused");
        }
        for good in ["a", "0", "core.self_ms", "A-b_c.9", &"x".repeat(64)] {
            assert!(valid_name(good), "{good:?} should be accepted");
        }
        assert!(valid_unit("MB/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        crate::check::names_match(&text).unwrap();
    }
}
