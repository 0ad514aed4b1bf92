//! Golden digests of `kd analyze` reports.
//!
//! Every source kind `kd analyze` accepts — the 9 built-in models, the
//! textual-IR samples and the C samples — is analyzed three ways: the full
//! Table-3 matrix, the same with `--stats`, and under `--budget 1` (every
//! cell degrades). This test pins an FNV-1a digest of each report, so a
//! change to how sources are loaded, fingerprinted, cached or rendered
//! cannot move a byte unnoticed.

use kaleidoscope_cli::{cmd_analyze_full, Source};

/// FNV-1a over the report bytes.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
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

const GOLDEN: &[(&str, u64)] = &[
    ("MbedTLS/matrix", 0x4675ea87a1cf0063),
    ("MbedTLS/stats", 0x610ebb81bf09178b),
    ("MbedTLS/budget1", 0x34c276085eb3970d),
    ("Libtiff/matrix", 0x7127cffe17ed0f17),
    ("Libtiff/stats", 0x638879b4f2d33558),
    ("Libtiff/budget1", 0x7a0cb0f89b290a1b),
    ("Curl/matrix", 0x63573fd90dd10832),
    ("Curl/stats", 0x49ec92f72ab2b7f0),
    ("Curl/budget1", 0x14ea714b2f5c6f26),
    ("Lighttpd/matrix", 0x0b83ba53d5f40ac3),
    ("Lighttpd/stats", 0x6b69779c079790e3),
    ("Lighttpd/budget1", 0x79214a726111936d),
    ("Memcached/matrix", 0x8b7f04989c782819),
    ("Memcached/stats", 0xdaf86b7379af5862),
    ("Memcached/budget1", 0x72308a774ba95fa7),
    ("LibPNG/matrix", 0x32f664d3e00a750a),
    ("LibPNG/stats", 0x952019557cece6f7),
    ("LibPNG/budget1", 0x05b7ec322cd7eb30),
    ("Libxml/matrix", 0xa9f1f62793b2491b),
    ("Libxml/stats", 0x1c5f015f490186fb),
    ("Libxml/budget1", 0xbda8ef7a8b8c044d),
    ("Wget/matrix", 0x6d71b363426ae899),
    ("Wget/stats", 0x1dbdbf2910911105),
    ("Wget/budget1", 0xb5f1bc3a337ede47),
    ("TinyDTLS/matrix", 0xef576b7e2af581c2),
    ("TinyDTLS/stats", 0x793aa9a58ecb9968),
    ("TinyDTLS/budget1", 0x268ed8d6f06ff0ec),
    ("lighttpd_fig6.kir/matrix", 0xc4c0690016ff0b95),
    ("lighttpd_fig6.kir/stats", 0xf01ac2ae30ea552b),
    ("lighttpd_fig6.kir/budget1", 0x5c9444f9648d256f),
    ("libevent_fig8.kir/matrix", 0xb60231a2624db285),
    ("libevent_fig8.kir/stats", 0xe4718ae5856fc8a3),
    ("libevent_fig8.kir/budget1", 0x40af44d047045c19),
    ("fig6.c/matrix", 0xcf7cd13f3e8950a3),
    ("fig6.c/stats", 0x07ca2621da96b047),
    ("fig6.c/budget1", 0x97702563350c7577),
    ("fig7.c/matrix", 0x6c754e9585f934fe),
    ("fig7.c/stats", 0x9f50e8c4f5ab57b4),
    ("fig7.c/budget1", 0x685369e75c990b1c),
];

#[test]
fn analyze_reports_match_golden_digests() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (name, source) in sources() {
        let ways: [(&str, bool, Option<usize>); 3] = [
            ("matrix", false, None),
            ("stats", true, None),
            ("budget1", false, Some(1)),
        ];
        for (tag, stats, budget) in ways {
            let out = cmd_analyze_full(&source, None, 1, stats, budget, None, None, None)
                .unwrap_or_else(|e| panic!("{name}/{tag}: {e}"));
            actual.push((format!("{name}/{tag}"), digest(&out.report)));
        }
    }
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!("analyze report digests changed; actual table:\n{table}");
    }
}
