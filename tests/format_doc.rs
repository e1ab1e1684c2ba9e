//! Every magic-tagged format is specified twice: its row in
//! `ckpt_deflate::frame::FORMATS`, which the code reads its constants
//! from, and its `## \`MAGIC\`` section in docs/FORMAT.md. This test
//! fails when the two disagree on which formats exist, on a format's
//! magic, version, `header8` or envelope, so neither can drift without
//! the other being updated in the same commit. The `WCK1` section must
//! also name every flag bit and header field the default writer sets,
//! and state the memory bound of its layout.

use ckpt_deflate::frame::{Envelope, Format, CSM2, FORMATS, SRV1, WCK1};

/// One `## \`XXXX\` …` section of docs/FORMAT.md.
struct Section<'a> {
    name: &'a str,
    /// 1-based line of the heading.
    line: usize,
    body: String,
}

/// Splits the document at its backticked four-character `##` headings;
/// prose sections (other `##` headings) end a format section without
/// starting one.
fn sections(md: &str) -> Vec<Section<'_>> {
    let mut out: Vec<Section<'_>> = Vec::new();
    let mut open = false;
    for (k, line) in md.lines().enumerate() {
        if let Some(heading) = line.strip_prefix("## ") {
            let name =
                heading.strip_prefix('`').and_then(|h| h.split('`').next()).filter(|n| n.len() == 4);
            open = name.is_some();
            if let Some(name) = name {
                out.push(Section { name, line: k + 1, body: String::new() });
            }
        } else if let (true, Some(section)) = (open, out.last_mut()) {
            section.body.push_str(line);
            section.body.push('\n');
        }
    }
    out
}

/// What a format's section must spell out, given its table row.
fn expectations(f: &Format) -> Vec<String> {
    let mut want = Vec::new();
    // SRV1 frames are untagged: its magic is a name, not wire bytes.
    if f.header8 {
        want.push(format!("header8(\"{}\", {})", f.name(), f.version));
    } else if f.version != 0 {
        want.push(format!("magic \"{}\"", f.name()));
        want.push(format!("version (= {})", f.version));
    } else if f.envelope == Envelope::Bespoke {
        want.push(format!("magic \"{}\"", f.name()));
    }
    want.push(format!("Envelope: `{}`", f.envelope.doc_name()));
    want
}

/// Cross-checks docs/FORMAT.md text against the format table; one
/// `FORMAT.md:<line>: <message>` per disagreement.
fn check(format_md: &str, formats: &[Format]) -> Vec<String> {
    let mut out = Vec::new();
    let mut fail = |line: usize, message: String| out.push(format!("FORMAT.md:{line}: {message}"));
    let sections = sections(format_md);
    for s in &sections {
        if !formats.iter().any(|f| f.name() == s.name) {
            fail(s.line, format!("section `{}` names no format in frame::FORMATS", s.name));
        }
    }
    for f in formats {
        let Some(s) = sections.iter().find(|s| s.name == f.name()) else {
            fail(1, format!("frame::FORMATS lists `{}` but no section documents it", f.name()));
            continue;
        };
        for want in expectations(f) {
            if !s.body.contains(&want) {
                fail(s.line, format!("section `{}` does not state `{want}`", f.name()));
            }
        }
    }
    out
}

#[test]
fn docs_format_md_matches_the_format_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FORMAT.md");
    let md = std::fs::read_to_string(path).expect("docs/FORMAT.md");
    let drift = check(&md, &FORMATS);
    assert!(drift.is_empty(), "docs/FORMAT.md drifted from frame::FORMATS:\n{}", drift.join("\n"));
}

const DOC_TEXT: &str = r#"
# Wire formats

## Envelopes and version policy

prose, not a format section: magic "ZZZZ"

## `CSM2` — manifest snapshot

Envelope: `len | crc | body` behind header8("CSM2", 1).

## `WCK1` — lossy wavelet container

Envelope: `bespoke`, magic "WCK1", version (= 1).

## `SRV1` — socket framing

Envelope: `len | crc | body`, untagged.
"#;

#[test]
fn a_matching_doc_is_clean() {
    let v = check(DOC_TEXT, &[CSM2, WCK1, SRV1]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn version_and_envelope_drift_are_flagged() {
    let drifted = DOC_TEXT.replace("version (= 1)", "version (= 2)");
    let v = check(&drifted, &[CSM2, WCK1, SRV1]);
    assert!(v.iter().any(|v| v.contains("version (= 1)")), "{v:?}");
    let v = check(&DOC_TEXT.replace("`bespoke`", "`len | crc | body`"), &[WCK1]);
    assert!(v.iter().any(|v| v.contains("Envelope: `bespoke`")), "{v:?}");
    let v = check(&DOC_TEXT.replace("header8(\"CSM2\", 1)", "an 8-byte header"), &[CSM2]);
    assert!(v.iter().any(|v| v.contains("header8")), "{v:?}");
}

#[test]
fn a_format_missing_on_either_side_is_flagged() {
    let v = check(DOC_TEXT, &[CSM2, WCK1]);
    assert!(v.iter().any(|v| v.contains("section `SRV1` names no format")), "{v:?}");
    let v = check(&DOC_TEXT.replace("## `SRV1`", "## SRV1"), &[CSM2, WCK1, SRV1]);
    assert!(v.iter().any(|v| v.contains("lists `SRV1`")), "{v:?}");
}

/// The `WCK1` section names each flags bit every layout's writer sets
/// (`bitK <name>` in the header table) and which layout sets it, the
/// fields the uniform grid adds and that layout's memory bound: a bit a
/// writer starts setting without a doc row fails here.
#[test]
fn the_wck1_section_documents_every_flag_bit_each_layout_writes() {
    use lossy_ckpt::prelude::*;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FORMAT.md");
    let md = std::fs::read_to_string(path).expect("docs/FORMAT.md");
    let wck1 = sections(&md).into_iter().find(|s| s.name == "WCK1").expect("a WCK1 section");
    let t = generate(&FieldSpec::small(FieldKind::Temperature, 1));
    let names = [(0, "quantize_low_band"), (1, "byte_shuffle"), (4, "grid"), (5, "uniform"), (6, "lorenzo")];
    for (layout, bits) in [
        (StreamLayout::Paper, &[][..]),
        (StreamLayout::Product, &[1, 4, 5, 6][..]),
        (StreamLayout::QuantizedLowBand, &[0][..]),
    ] {
        let cfg = CompressorConfig::paper_proposed().with_layout(layout).with_container(Container::None);
        // Bits 2-3 are the kernel: Haar, 0.
        let cfg = cfg.with_kernel(lossy_ckpt::wavelet::Kernel::Haar);
        let flags = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes[6];
        let set: Vec<u32> = (0..8).filter(|b| flags & 1 << b != 0).collect();
        assert_eq!(set, bits, "{layout:?} sets flags {flags:#010b}");
        for (bit, name) in names.iter().filter(|(b, _)| bits.contains(b)) {
            let row = format!("bit{bit} {name}");
            assert!(wck1.body.contains(&row), "the WCK1 section does not name `{row}`");
        }
        let named = format!("`StreamLayout::{layout:?}`");
        assert!(wck1.body.contains(&named), "the WCK1 section does not say what {named} writes");
    }
    for field in ["high-band step exponent f", "b_low", "b_high", "Memory bound", "Flags bit 6", "Lorenzo"] {
        assert!(wck1.body.contains(field), "the WCK1 section does not state `{field}`");
    }
}
