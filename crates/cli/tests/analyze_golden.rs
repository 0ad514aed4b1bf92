//! Golden digests of `kd analyze` reports.
//!
//! Every source kind `kd analyze` accepts — the 9 built-in models, the
//! textual-IR samples and the C samples — is analyzed three ways: the full
//! Table-3 matrix, the same with `--stats`, and under `--budget 1` (every
//! cell degrades). This test pins two FNV-1a digests of each report, so a
//! change to how sources are loaded, fingerprinted, cached or rendered
//! cannot move a byte unnoticed:
//!
//! * the *answer* digest: the report without its `solver[..]` and
//!   `incr[..]` rows — what the analysis found;
//! * the *work* digest: those rows — what the solves cost (only `--stats`
//!   reports have any; the others digest the empty text).
//!
//! A change that only moves the cost of a solve moves only work digests,
//! and the failure names which digest moved for which report.

use kaleidoscope_cli::{cmd_analyze_full, Source};

/// FNV-1a over the bytes of the report lines `keep` selects, each with
/// its newline.
fn digest(report: &str, keep: impl Fn(&str) -> bool) -> u64 {
    report
        .lines()
        .filter(|l| keep(l))
        .flat_map(|l| l.bytes().chain([b'\n']))
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

/// Whether a report line is a solve's counters.
fn work_row(line: &str) -> bool {
    let row = line.trim_start();
    row.starts_with("solver[") || row.starts_with("incr[")
}

/// Every source under test, labelled.
fn sources() -> Vec<(String, Source)> {
    let mut out: Vec<(String, Source)> = kaleidoscope_apps::APP_NAMES
        .iter()
        .map(|n| (n.to_string(), Source::Model(n.to_string())))
        .collect();
    for file in ["lighttpd_fig6.kir", "libevent_fig8.kir", "fig6.c", "fig7.c"] {
        let path = format!("{}/samples/{file}", env!("CARGO_MANIFEST_DIR"));
        out.push((file.to_string(), Source::File(path)));
    }
    out
}

const GOLDEN: &[(&str, u64, u64)] = &[
    ("MbedTLS/matrix", 0x4675ea87a1cf0063, 0xcbf29ce484222325),
    ("MbedTLS/stats", 0x4675ea87a1cf0063, 0xcd56cdfd1f339de5),
    ("MbedTLS/budget1", 0x34c276085eb3970d, 0xcbf29ce484222325),
    ("Libtiff/matrix", 0x7127cffe17ed0f17, 0xcbf29ce484222325),
    ("Libtiff/stats", 0x7127cffe17ed0f17, 0x0dd948f745f9663c),
    ("Libtiff/budget1", 0x7a0cb0f89b290a1b, 0xcbf29ce484222325),
    ("Curl/matrix", 0x63573fd90dd10832, 0xcbf29ce484222325),
    ("Curl/stats", 0x63573fd90dd10832, 0x8abb62d79d22de4d),
    ("Curl/budget1", 0x68236b516cfea56e, 0xcbf29ce484222325),
    ("Lighttpd/matrix", 0x0b83ba53d5f40ac3, 0xcbf29ce484222325),
    ("Lighttpd/stats", 0x0b83ba53d5f40ac3, 0x308555d478669937),
    ("Lighttpd/budget1", 0x79214a726111936d, 0xcbf29ce484222325),
    ("Memcached/matrix", 0x8b7f04989c782819, 0xcbf29ce484222325),
    ("Memcached/stats", 0x8b7f04989c782819, 0x94c4bbc880f93b08),
    ("Memcached/budget1", 0x72308a774ba95fa7, 0xcbf29ce484222325),
    ("LibPNG/matrix", 0x32f664d3e00a750a, 0xcbf29ce484222325),
    ("LibPNG/stats", 0x32f664d3e00a750a, 0x779f19aa75abf8c4),
    ("LibPNG/budget1", 0x05b7ec322cd7eb30, 0xcbf29ce484222325),
    ("Libxml/matrix", 0xa9f1f62793b2491b, 0xcbf29ce484222325),
    ("Libxml/stats", 0xa9f1f62793b2491b, 0x8c5ae38405834493),
    ("Libxml/budget1", 0xbda8ef7a8b8c044d, 0xcbf29ce484222325),
    ("Wget/matrix", 0x6d71b363426ae899, 0xcbf29ce484222325),
    ("Wget/stats", 0x6d71b363426ae899, 0xb64cb73795c03a25),
    ("Wget/budget1", 0xb5f1bc3a337ede47, 0xcbf29ce484222325),
    ("TinyDTLS/matrix", 0xef576b7e2af581c2, 0xcbf29ce484222325),
    ("TinyDTLS/stats", 0xef576b7e2af581c2, 0x643abc5fa5b8a53f),
    ("TinyDTLS/budget1", 0x268ed8d6f06ff0ec, 0xcbf29ce484222325),
    (
        "lighttpd_fig6.kir/matrix",
        0xc4c0690016ff0b95,
        0xcbf29ce484222325,
    ),
    (
        "lighttpd_fig6.kir/stats",
        0xc4c0690016ff0b95,
        0x0799b3dea6573395,
    ),
    (
        "lighttpd_fig6.kir/budget1",
        0x5c9444f9648d256f,
        0xcbf29ce484222325,
    ),
    (
        "libevent_fig8.kir/matrix",
        0xb60231a2624db285,
        0xcbf29ce484222325,
    ),
    (
        "libevent_fig8.kir/stats",
        0xb60231a2624db285,
        0x8b53ccd1a8034e21,
    ),
    (
        "libevent_fig8.kir/budget1",
        0x40af44d047045c19,
        0xcbf29ce484222325,
    ),
    ("fig6.c/matrix", 0xcf7cd13f3e8950a3, 0xcbf29ce484222325),
    ("fig6.c/stats", 0xcf7cd13f3e8950a3, 0xfa7e151f593680f1),
    ("fig6.c/budget1", 0x97702563350c7577, 0xcbf29ce484222325),
    ("fig7.c/matrix", 0x6c754e9585f934fe, 0xcbf29ce484222325),
    ("fig7.c/stats", 0x6c754e9585f934fe, 0x9a633ff951df39df),
    ("fig7.c/budget1", 0x685369e75c990b1c, 0xcbf29ce484222325),
];

#[test]
fn analyze_reports_match_golden_digests() {
    let mut actual: Vec<(String, u64, u64)> = Vec::new();
    for (name, source) in sources() {
        let ways: [(&str, bool, Option<usize>); 3] = [
            ("matrix", false, None),
            ("stats", true, None),
            ("budget1", false, Some(1)),
        ];
        for (tag, stats, budget) in ways {
            let out = cmd_analyze_full(&source, None, 1, stats, budget, None, None, None)
                .unwrap_or_else(|e| panic!("{name}/{tag}: {e}"));
            actual.push((
                format!("{name}/{tag}"),
                digest(&out.report, |l| !work_row(l)),
                digest(&out.report, work_row),
            ));
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
        panic!("analyze report digests changed:\n{moved}actual table:\n{table}");
    }
}
