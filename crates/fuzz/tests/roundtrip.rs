//! Printer/parser round-trip property: `parse(print(m))` is identity.
//!
//! The frontend cache keys on span text and the incremental differential
//! compares canonical text across revisions, so the textual form must be
//! a lossless encoding of the module. These properties drive seeded
//! [`scale`] corpus modules and [`edit`] revision streams through
//! `Module::to_text` → `parse_module` and require the result to be
//! indistinguishable — same canonical text, same fingerprint.

use kaleidoscope_fuzz::{edit, scale};
use kaleidoscope_ir::{parse_module, Module};
use kaleidoscope_prng::check;

/// Assert `m` survives print → parse unchanged.
fn assert_roundtrip(m: &Module) {
    let text = m.to_text();
    let reparsed = parse_module(&text).expect("printed module parses");
    assert_eq!(reparsed.to_text(), text, "canonical text is a fixpoint");
    assert_eq!(
        reparsed.fingerprint(),
        m.fingerprint(),
        "fingerprint survives the round trip"
    );
}

#[test]
fn scale_corpus_roundtrips() {
    check(8, 0x5ca1e, |rng| {
        let seed = rng.next_u64();
        // Sizes spanning one function to a few hundred.
        let stmts = 50 + (seed % 4_000) as usize;
        let m = scale::corpus_module(seed, stmts);
        assert_roundtrip(&m);
    });
}

#[test]
fn edit_script_revisions_roundtrip() {
    check(4, 0xed17, |rng| {
        let seed = rng.next_u64();
        for step in edit::edit_script_with_removal(seed, 6) {
            assert_roundtrip(&step.module);
        }
    });
}

#[test]
fn app_models_roundtrip() {
    // The hand-built Table 2 models exercise printer corners (nested
    // struct types, indirect calls) the synthesizer may not reach.
    for model in kaleidoscope_apps::all_models() {
        assert_roundtrip(&model.module);
    }
}
