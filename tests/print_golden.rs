//! Golden digests of printed modules.
//!
//! A module's printed text is its content address: `fingerprint()` hashes
//! it, and reports, snapshots and tenant heads are keyed by that digest.
//! The printer must therefore be reproducible down to the byte. This test
//! pins an FNV-1a digest of the text of the 9 application models and one
//! seeded 3k `scale` corpus, and a digest of every instruction's
//! `inst_text` and every declared type's `type_text` in those modules.

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::scale;
use kaleidoscope_suite::ir::printer::type_text;
use kaleidoscope_suite::ir::{fnv1a64, Module};

/// Every module under test, labelled.
fn corpus() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = apps::all_models()
        .into_iter()
        .map(|m| (m.name.to_string(), m.module))
        .collect();
    out.push(("scale-3".to_string(), scale::corpus_module(3, 3_000)));
    out
}

/// Digest of the per-token renderings: each instruction's `inst_text`,
/// then the type of every struct field, global and local.
fn token_digest(m: &Module) -> u64 {
    let mut lines = String::new();
    for (_, inst) in m.iter_locs() {
        lines.push_str(&m.inst_text(inst));
        lines.push('\n');
    }
    for (_, def) in m.types.iter() {
        for f in &def.fields {
            lines.push_str(&type_text(f, &m.types));
            lines.push('\n');
        }
    }
    for g in &m.globals {
        lines.push_str(&type_text(&g.ty, &m.types));
        lines.push('\n');
    }
    for f in &m.funcs {
        for l in &f.locals {
            lines.push_str(&type_text(&l.ty, &m.types));
            lines.push('\n');
        }
        lines.push_str(&type_text(&f.ret_ty, &m.types));
        lines.push('\n');
    }
    fnv1a64(&[lines.as_bytes()])
}

/// `(label, fnv1a64(to_text), token digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("MbedTLS", 0xf10f24b9577cbb91, 0x58ea311789ebbeed),
    ("Libtiff", 0x2ae9fccb725acc6c, 0x6d3e4050f4da3030),
    ("Curl", 0x13dd193b1896e7b8, 0x6bf47f86490fec8a),
    ("Lighttpd", 0xf9c5630bb823054f, 0xdf72f48591e2337e),
    ("Memcached", 0x03a30e5614287596, 0x2c5447df8902173b),
    ("LibPNG", 0xb3d07ea848240fc4, 0x48b615f9ab9dbd61),
    ("Libxml", 0x2901600ecc7c2b8b, 0x14188017f8ae713a),
    ("Wget", 0x23852b3986a67a13, 0x783ffb05c003e0a5),
    ("TinyDTLS", 0xe6ae26ec0036a442, 0xb32ddbf0ba312917),
    ("scale-3", 0xce1388dc0c616e80, 0x19aac2f77975f82a),
];

#[test]
fn printed_modules_match_golden_digests() {
    let mut actual: Vec<(String, u64, u64)> = Vec::new();
    for (name, module) in corpus() {
        let text = module.to_text();
        let d = fnv1a64(&[text.as_bytes()]);
        assert_eq!(
            module.fingerprint(),
            d,
            "{name}: fingerprint hashes the text"
        );
        actual.push((name, d, token_digest(&module)));
    }
    let expected: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|(n, d, t)| (n.to_string(), *d, *t))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, d, t)| format!("    (\"{n}\", 0x{d:016x}, 0x{t:016x}),\n"))
            .collect();
        panic!("printed digests changed; actual table:\n{table}");
    }
}
