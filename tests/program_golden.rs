//! Golden digests of generated constraint programs.
//!
//! Constraint generation must be reproducible down to the byte: reports
//! and KDIS snapshots depend on node ids, node kinds and types, constraint
//! order and origins, and the indirect-call list. This test pins an FNV-1a
//! digest of every [`Program`] for the 9 application models and two seeded
//! `scale` corpora, each without a context plan and under the plan
//! [`detect_ctx_plan`] finds. Each program is the one a solve gets from
//! [`stored_or_generated`]: the module's stored plan-free program for every
//! `none` row and every empty plan (Wget's and the `scale` corpora's),
//! checked against [`generate`] under the row's plan, and a fresh
//! generation for every other row.

use std::borrow::Cow;
use std::fmt::{self, Write};

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::scale;
use kaleidoscope_suite::ir::Module;
use kaleidoscope_suite::kaleidoscope::detect_ctx_plan;
use kaleidoscope_suite::pta::gen::{generate, stored_or_generated, Origin, Program};
use kaleidoscope_suite::pta::{CtxPlan, ModuleBlocks, ObjId};

/// FNV-1a over everything written to it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01B3);
        }
        Ok(())
    }
}

fn digest(p: &Program) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for n in p.nodes.iter_ids() {
        writeln!(h, "n {:?} {:?}", p.nodes.kind(n), p.nodes.ty(n)).unwrap();
    }
    for o in 0..p.nodes.obj_count() {
        let info = p.nodes.obj_info(ObjId(o as u32));
        writeln!(h, "o {:?} {:?}", info.site, info.ty).unwrap();
    }
    for c in &p.constraints {
        writeln!(h, "c {c:?}").unwrap();
    }
    for ic in &p.icalls {
        writeln!(h, "i {ic:?}").unwrap();
    }
    h.0
}

/// Every module under test, labelled.
fn corpus() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = apps::all_models()
        .into_iter()
        .map(|m| (m.name.to_string(), m.module))
        .collect();
    for seed in [1u64, 7] {
        out.push((format!("scale-{seed}"), scale::corpus_module(seed, 5_000)));
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("MbedTLS/none", 0x2ff7eace61f0ab31),
    ("MbedTLS/ctx", 0x372c9a5eb2bf7ae3),
    ("Libtiff/none", 0xd66f9b5a632da232),
    ("Libtiff/ctx", 0x2f452f3388625264),
    ("Curl/none", 0xb98184efa66930bf),
    ("Curl/ctx", 0x197ace75429bdc23),
    ("Lighttpd/none", 0xd98def45b501930e),
    ("Lighttpd/ctx", 0x26299bf4ee30eb22),
    ("Memcached/none", 0x7746e2d073a322ec),
    ("Memcached/ctx", 0xf523502eff858494),
    ("LibPNG/none", 0x5926110c5b3f0f01),
    ("LibPNG/ctx", 0x0bad8d97489d51d5),
    ("Libxml/none", 0xd34363b88d1f2eab),
    ("Libxml/ctx", 0x6ac9213ea2956552),
    ("Wget/none", 0x3f7fd7f84285d1ec),
    ("Wget/ctx", 0x3f7fd7f84285d1ec),
    ("TinyDTLS/none", 0x0d65858420fb5b91),
    ("TinyDTLS/ctx", 0x85152e320c1738c3),
    ("scale-1/none", 0x4c210046d8494a54),
    ("scale-1/ctx", 0x4c210046d8494a54),
    ("scale-7/none", 0x64bfe3b1e7130895),
    ("scale-7/ctx", 0x64bfe3b1e7130895),
];

#[test]
fn generated_programs_match_golden_digests() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    let mut stored_rows = Vec::new();
    let mut bypass_edges = 0;
    for (name, module) in corpus() {
        let stored = ModuleBlocks::build(&module);
        let plan = detect_ctx_plan(&module);
        let plans: [(&str, Option<&CtxPlan>); 2] = [("none", None), ("ctx", Some(&plan))];
        for (tag, plan) in plans {
            let program = stored_or_generated(&module, plan, Some(&stored));
            let d = digest(&program);
            if matches!(program, Cow::Borrowed(_)) {
                stored_rows.push(format!("{name}/{tag}"));
                assert_eq!(
                    digest(&generate(&module, plan)),
                    d,
                    "{name}/{tag}: the stored program differs from generation"
                );
            }
            bypass_edges += program
                .constraints
                .iter()
                .filter(|c| matches!(c.origin, Origin::CtxBypass { .. }))
                .count();
            actual.push((format!("{name}/{tag}"), d));
        }
    }
    let plan_free = ["Wget/ctx", "scale-1/ctx", "scale-7/ctx"];
    let expected_stored: Vec<&str> = GOLDEN
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| n.ends_with("/none") || plan_free.contains(n))
        .collect();
    assert_eq!(
        stored_rows, expected_stored,
        "rows served by the stored program"
    );
    assert!(bypass_edges > 0, "no context bypass exercised");
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!("program digests changed; actual table:\n{table}");
    }
}
