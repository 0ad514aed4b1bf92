//! Golden digests of `--stats` reports along watch chains, answered
//! through `analyze_request` with a disk cache, as `kd analyze
//! --cache-dir` and the serve workers answer them.
//!
//! Each chain starts from a `scale` corpus (3k and 10k statements) and
//! sends, in order: the base, a publishing append, a leaf append, a
//! modify (the publishing function re-emitted in place from another
//! seed), each with the previous revision as `prev_fingerprint`, and last
//! an unrelated corpus under the same tenant with no `prev_fingerprint`,
//! so it warm-starts from the tenant head and is rejected. A `--stats`
//! report carries every solve's counters, including `incr-reused`,
//! `incr-seeded` and `incr-fallback-full`, so the digests pin which path
//! each solve took as well as what it answered. The chains run under
//! `all` and under the full Table-3 matrix.

use std::sync::Arc;

use kaleidoscope_exec::{analyze_request, AnalyzeRequest, DiskCache, ModuleSource};
use kaleidoscope_fuzz::{edit, scale};
use kaleidoscope_ir::{fnv1a64, Module};

/// The revisions of one chain, labelled, and whether each names its
/// predecessor as `prev_fingerprint`.
fn chain(seed: u64, stmts: usize) -> Vec<(&'static str, Module, bool)> {
    let base = scale::corpus_module(seed, stmts);
    let with = |publish_seed: u64, leaf: bool| {
        let mut m = base.clone();
        edit::append_function(&mut m, publish_seed, 0);
        if leaf {
            edit::append_leaf_function(&mut m, seed, 1);
        }
        m
    };
    vec![
        ("base", base.clone(), false),
        ("append", with(seed, false), true),
        ("leaf", with(seed, true), true),
        ("modify", with(seed ^ 0x5eed, true), true),
        ("unrelated", scale::corpus_module(seed + 100, stmts), false),
    ]
}

/// Digest lines `"<stmts>/<config>/<step> <report digest>"` of every
/// step of one chain, each request sent with the stats rows on.
fn run_chain(stmts: usize, config: Option<&str>) -> Vec<String> {
    let tag = config.unwrap_or("matrix");
    let dir = std::env::temp_dir().join(format!(
        "kd-watch-golden-{stmts}-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(DiskCache::open(&dir).expect("open cache"));
    let mut prev: Option<u64> = None;
    let mut out = Vec::new();
    for (step, module, from_prev) in chain(1, stmts) {
        let text = module.to_text();
        let answer = analyze_request(
            &AnalyzeRequest {
                module: ModuleSource::Text(&text),
                config,
                stats: true,
                budget: None,
                jobs: 2,
                prev_fingerprint: prev.filter(|_| from_prev),
                tenant: Some("watch"),
            },
            Some(&cache),
        )
        .unwrap_or_else(|e| panic!("{stmts}/{tag}/{step}: {e}"));
        let report = &answer.report.text;
        let warm = report.contains("incr-fallback-full=0");
        let fell_back = report.contains("incr-fallback-full=1");
        match step {
            "base" => assert!(!warm && !fell_back, "{step}: nothing to warm-start from"),
            "append" | "leaf" => assert!(warm && !fell_back, "{step} must warm-start"),
            _ => assert!(fell_back && !warm, "{step} must fall back"),
        }
        out.push(format!(
            "{stmts}/{tag}/{step} {:016x}",
            fnv1a64(&[report.as_bytes()])
        ));
        prev = Some(answer.fingerprint);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

const GOLDEN: &[&str] = &[
    "3000/all/base a4e0443b603c3fa3",
    "3000/all/append 7351899325117918",
    "3000/all/leaf ddbab83df633d9cb",
    "3000/all/modify 2a29c1e19ca66693",
    "3000/all/unrelated 553434741d5bf929",
    "3000/matrix/base a8b39926f9f156db",
    "3000/matrix/append 15765e3f2cc512a6",
    "3000/matrix/leaf 9e24bbae0b15834b",
    "3000/matrix/modify 20ca1576ea6a55e3",
    "3000/matrix/unrelated 33047216565bc4e5",
    "10000/all/base 7a04384f3a611f99",
    "10000/all/append cca9293572f5dcd6",
    "10000/all/leaf 4af161158fa0bd5f",
    "10000/all/modify 09c7cc31b557af09",
    "10000/all/unrelated 1183b96aaa2260ea",
    "10000/matrix/base 2ee81444251baa22",
    "10000/matrix/append e302dc725a1276b4",
    "10000/matrix/leaf ed80dab8964a6944",
    "10000/matrix/modify 2506a9e8f0b7362c",
    "10000/matrix/unrelated 2da77c7ffc082c65",
];

#[test]
fn watch_chain_stats_reports_match_golden_digests() {
    let mut actual = Vec::new();
    for stmts in [3_000, 10_000] {
        for config in [Some("all"), None] {
            actual.extend(run_chain(stmts, config));
        }
    }
    if actual != GOLDEN {
        let table: String = actual.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("watch-chain report digests changed; actual table:\n{table}");
    }
}
