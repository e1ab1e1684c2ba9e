//! End-to-end dispatch invariance: the compressed container bytes and
//! the decompressed tensor must be identical whichever ckpt-simd tier
//! the process runs — scalar forced via `set_override`, or whatever
//! the CPU detects. This is the pipeline-level face of the per-kernel
//! equivalence harnesses in crates/wavelet and crates/quant, and the
//! guarantee that lets a checkpoint written on an AVX2 host restore
//! bit-exactly on a scalar one (and vice versa).
//!
//! Serialized in one #[test] because `set_override` is process-global.

use ckpt_simd::{set_override, Level};
use lossy_ckpt::prelude::*;

fn tiers() -> Vec<Level> {
    Level::ALL.into_iter().filter(|l| l.is_available()).collect()
}

#[test]
fn compressed_bytes_and_restored_tensor_are_tier_independent() {
    let fields: Vec<_> = [
        FieldSpec::small(FieldKind::Temperature, 17),
        FieldSpec::small(FieldKind::Pressure, 33),
        FieldSpec::small(FieldKind::WindU, 21),
    ]
    .iter()
    .map(generate)
    .collect();
    let configs = [CompressorConfig::paper_simple(), CompressorConfig::paper_proposed()];

    for field in &fields {
        for cfg in &configs {
            let compressor = Compressor::new(*cfg).unwrap();
            let mut reference: Option<(Vec<u8>, Vec<u64>)> = None;
            for level in tiers() {
                set_override(Some(level));
                let packed = compressor.compress(field).unwrap();
                let restored = Compressor::decompress(&packed.bytes).unwrap();
                set_override(None);
                let restored_bits: Vec<u64> =
                    restored.as_slice().iter().map(|v| v.to_bits()).collect();
                match &reference {
                    None => reference = Some((packed.bytes, restored_bits)),
                    Some((want_bytes, want_bits)) => {
                        assert_eq!(
                            &packed.bytes, want_bytes,
                            "compressed bytes differ at tier {level:?}"
                        );
                        assert_eq!(
                            &restored_bits, want_bits,
                            "restored tensor differs at tier {level:?}"
                        );
                    }
                }
            }
        }
    }

    // Cross-tier save/restore: bytes written under one tier must
    // restore to the same tensor under every other.
    let field = &fields[0];
    let compressor = Compressor::new(configs[1]).unwrap();
    set_override(Some(Level::Scalar));
    let packed = compressor.compress(field).unwrap();
    set_override(None);
    let mut want: Option<Vec<u64>> = None;
    for level in tiers() {
        set_override(Some(level));
        let restored = Compressor::decompress(&packed.bytes).unwrap();
        set_override(None);
        let bits: Vec<u64> = restored.as_slice().iter().map(|v| v.to_bits()).collect();
        match &want {
            None => want = Some(bits),
            Some(w) => assert_eq!(&bits, w, "cross-tier restore differs at {level:?}"),
        }
    }
}
