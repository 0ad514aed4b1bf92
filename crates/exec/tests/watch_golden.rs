//! Golden digests of `--stats` reports along watch chains, answered
//! through `analyze_request` with a disk cache, as `kd analyze
//! --cache-dir` and the serve workers answer them.
//!
//! Each chain starts from a `scale` corpus (3k and 10k statements) and
//! sends, in order: the base, a publishing append, a leaf append, a
//! modify (the publishing function re-emitted in place from another
//! seed), each with the previous revision as `prev_fingerprint`, and last
//! an unrelated corpus under the same tenant with no `prev_fingerprint`,
//! so it warm-starts from the tenant head and is rejected. The modify
//! does not extend the leaf append it names, but it extends the stored
//! base, so it warm-starts from there. The chains run under `all` and
//! under the full Table-3 matrix.
//!
//! Each step pins two FNV-1a digests of its `--stats` report, as
//! `crates/cli/tests/analyze_golden.rs` does:
//!
//! * the *answer* digest: the report without its `solver[..]` and
//!   `incr[..]` rows — what the analysis found, the same warm or cold;
//! * the *work* digest: those rows — every solve's counters, including
//!   `incr-reused`, `incr-seeded` and `incr-fallback-full`, so which path
//!   each solve took.
//!
//! A change that only moves the cost of a solve moves only work digests,
//! and the failure names which digest moved for which step.

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

/// FNV-1a over the report lines `keep` selects, each with its newline.
fn digest(report: &str, keep: impl Fn(&str) -> bool) -> u64 {
    let text: String = report
        .lines()
        .filter(|l| keep(l))
        .flat_map(|l| [l, "\n"])
        .collect();
    fnv1a64(&[text.as_bytes()])
}

/// Whether a report line is a solve's counters.
fn work_row(line: &str) -> bool {
    let row = line.trim_start();
    row.starts_with("solver[") || row.starts_with("incr[")
}

/// `("<stmts>/<config>/<step>", answer digest, work digest)` of every step
/// of one chain, each request sent with the stats rows on.
fn run_chain(stmts: usize, config: Option<&str>) -> Vec<(String, u64, u64)> {
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
            "unrelated" => assert!(fell_back && !warm, "{step} must fall back"),
            _ => assert!(warm && !fell_back, "{step} must warm-start"),
        }
        out.push((
            format!("{stmts}/{tag}/{step}"),
            digest(report, |l| !work_row(l)),
            digest(report, work_row),
        ));
        prev = Some(answer.fingerprint);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

const GOLDEN: &[(&str, u64, u64)] = &[
    ("3000/all/base", 0x4fcd9f11e851f6b2, 0x506045055f4414b8),
    ("3000/all/append", 0xae8946df575dbd62, 0x277b4a7b1da5839f),
    ("3000/all/leaf", 0x87130ef725a38d0b, 0xddad90255b2a05fd),
    ("3000/all/modify", 0x87130ef725a38d0b, 0x40f2b5215ec0a067),
    ("3000/all/unrelated", 0x443bf387d4a6f5ad, 0xf5bd9b9d782a56c1),
    ("3000/matrix/base", 0x4722268a21f4bb23, 0x94d9c617ef5fde05),
    ("3000/matrix/append", 0x520bc82eb3aa7516, 0xa9adc072cc7ee0b5),
    ("3000/matrix/leaf", 0x0991c895d1197e23, 0x15670ff28610a3e5),
    ("3000/matrix/modify", 0x0991c895d1197e23, 0xba95946f7d46cdf5),
    (
        "3000/matrix/unrelated",
        0xe609eaa58adb59cd,
        0x7481dae20035fbc5,
    ),
    ("10000/all/base", 0x31174d19d8f9621c, 0x05f84187b9d8ac68),
    ("10000/all/append", 0xda49878160bf28a4, 0xae627ff03caad5cb),
    ("10000/all/leaf", 0x32d5fcb8c581bbf3, 0x7bdb7a2bdb4fa411),
    ("10000/all/modify", 0x32d5fcb8c581bbf3, 0xa775b51ad1edb5c3),
    (
        "10000/all/unrelated",
        0xa4f1622afef91874,
        0xe56d0110a627757b,
    ),
    ("10000/matrix/base", 0x03f96864ad491252, 0xc352f46d9a975fc5),
    (
        "10000/matrix/append",
        0xe4e974005bbec63c,
        0x7d2af188dc0ed9b5,
    ),
    ("10000/matrix/leaf", 0x0bee979094401ffc, 0x8f8dea3854346f05),
    (
        "10000/matrix/modify",
        0x0bee979094401ffc,
        0x3d88a7d7a48a47f5,
    ),
    (
        "10000/matrix/unrelated",
        0xcf34ba0ba7199d15,
        0x65b8534b2b95ceb5,
    ),
];

#[test]
fn watch_chain_stats_reports_match_golden_digests() {
    let mut actual = Vec::new();
    for stmts in [3_000, 10_000] {
        for config in [Some("all"), None] {
            actual.extend(run_chain(stmts, config));
        }
    }
    let expected: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(n, answer, work)| (n.to_string(), answer, work))
        .collect();
    if actual != expected {
        let mut moved = String::new();
        for (got, want) in actual.iter().zip(&expected) {
            for (kind, g, w) in [("answer", got.1, want.1), ("work", got.2, want.2)] {
                if got.0 != want.0 || g != w {
                    moved.push_str(&format!("  {kind} digest of {}\n", got.0));
                }
            }
        }
        let table: String = actual
            .iter()
            .map(|(n, a, w)| format!("    (\"{n}\", 0x{a:016x}, 0x{w:016x}),\n"))
            .collect();
        panic!("watch-chain report digests changed:\n{moved}actual table:\n{table}");
    }
}
