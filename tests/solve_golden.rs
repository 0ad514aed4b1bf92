//! Golden digests of the eight Table-3 solves.
//!
//! The worklist drain skips per-member work at nodes nothing reads, and
//! report statistics read set sizes without rebuilding canonical sets.
//! Neither may change what a solve computes or counts. For the corpus of
//! `tests/program_golden.rs` (the 9 application models and two seeded 5k
//! `scale` corpora), this test pins, per solve — the shared fallback and
//! the seven optimistic configurations — an FNV-1a digest of:
//!
//! * the `SolveStats` counters: worklist pops, `union_words`,
//!   `peak_pts_bytes`, copy edges, collapsed cycles and objects, and SCC
//!   passes;
//! * the PA filter and PWC events, in emission order;
//! * every top-level pointer's canonical points-to set size.
//!
//! It also checks `canonical_len(n) == pts_of(n).len()` for every node,
//! on these solves and on unmerged `scale` solves, where `canonical_len`
//! counts raw sets without walking their members.
//!
//! Warm starts are one more input set: on each 5k corpus, every one of the
//! eight solves runs cold, then warm-started after an appended function,
//! then after an appended leaf function, then back on the base revision (a
//! removal, which falls back to a full solve). Each step pins its counters,
//! its incremental counters and a digest of the snapshot it captures.

use std::fmt::{self, Write};

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::{edit, scale};
use kaleidoscope_suite::ir::{fnv1a64, Module};
use kaleidoscope_suite::kaleidoscope::{
    ctx_plan_for, fallback_analysis, optimistic_analysis, try_fallback_analysis_incr_fe,
    try_optimistic_analysis_incr_fe, PolicyConfig,
};
use kaleidoscope_suite::pta::{Analysis, NodeId, SolveBudget, SolvedState};

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

fn digest(module: &Module, a: &Analysis) -> u64 {
    let r = &a.result;
    let s = &r.stats;
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    writeln!(
        h,
        "s {} {} {} {} {} {} {}",
        s.iterations,
        s.union_words,
        s.peak_pts_bytes,
        s.copy_edges,
        s.collapsed_cycles,
        s.collapsed_objects,
        s.scc_passes
    )
    .unwrap();
    for e in &r.pa_filters {
        writeln!(h, "pa {e:?}").unwrap();
    }
    for e in &r.pwcs {
        writeln!(h, "pwc {e:?}").unwrap();
    }
    for (f, l, size) in a.top_level_pointer_sizes(module) {
        writeln!(h, "p {} {} {size}", f.0, l.0).unwrap();
    }
    h.0
}

/// Every module under test, labelled (the corpus of `program_golden.rs`).
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

/// The fallback solve and the seven optimistic solves of one module.
fn solves(module: &Module) -> Vec<(&'static str, Analysis)> {
    let mut out = vec![("fallback", fallback_analysis(module))];
    for config in PolicyConfig::table3_order() {
        if config.any() {
            let plan = ctx_plan_for(module, config);
            out.push((config.name(), optimistic_analysis(module, config, &plan)));
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("MbedTLS/fallback", 0xfb8a4d11a5c459e0),
    ("MbedTLS/Kd-Ctx", 0xff44faa6d3b249e8),
    ("MbedTLS/Kd-PA", 0x8dcd29b6d1897aca),
    ("MbedTLS/Kd-PWC", 0xee97312d633aaa19),
    ("MbedTLS/Kd-Ctx-PA", 0xd26613364016023a),
    ("MbedTLS/Kd-Ctx-PWC", 0x3c6d3d56eea4b6d8),
    ("MbedTLS/Kd-PA-PWC", 0xb8dcea8d1e42b85c),
    ("MbedTLS/Kaleidoscope", 0xdbd5ba695dc7f059),
    ("Libtiff/fallback", 0x81f5b6fb0653e8a9),
    ("Libtiff/Kd-Ctx", 0xd10b1364cdb91470),
    ("Libtiff/Kd-PA", 0xdce946b0c13dc53b),
    ("Libtiff/Kd-PWC", 0xbb53fabadf00c8c9),
    ("Libtiff/Kd-Ctx-PA", 0x55719fbc1b5e90d0),
    ("Libtiff/Kd-Ctx-PWC", 0x4f61b9e0a3db9a43),
    ("Libtiff/Kd-PA-PWC", 0x7b2bf9f7b1deaa67),
    ("Libtiff/Kaleidoscope", 0xa5efd4758922ca58),
    ("Curl/fallback", 0xbddbe2d442623cdd),
    ("Curl/Kd-Ctx", 0x807f8481e00fc3a1),
    ("Curl/Kd-PA", 0xaa82cb20b9a01f8c),
    ("Curl/Kd-PWC", 0xbddbe2d442623cdd),
    ("Curl/Kd-Ctx-PA", 0x1550e0648ae14d51),
    ("Curl/Kd-Ctx-PWC", 0x807f8481e00fc3a1),
    ("Curl/Kd-PA-PWC", 0xaa82cb20b9a01f8c),
    ("Curl/Kaleidoscope", 0x1550e0648ae14d51),
    ("Lighttpd/fallback", 0xd114c84f05dc486e),
    ("Lighttpd/Kd-Ctx", 0xb0f8298fb5505d6f),
    ("Lighttpd/Kd-PA", 0x455dd3f8858afaad),
    ("Lighttpd/Kd-PWC", 0xd114c84f05dc486e),
    ("Lighttpd/Kd-Ctx-PA", 0xf2d198e84de02d48),
    ("Lighttpd/Kd-Ctx-PWC", 0xb0f8298fb5505d6f),
    ("Lighttpd/Kd-PA-PWC", 0x455dd3f8858afaad),
    ("Lighttpd/Kaleidoscope", 0xf2d198e84de02d48),
    ("Memcached/fallback", 0xa9eda629803d819e),
    ("Memcached/Kd-Ctx", 0xf27618ced4736169),
    ("Memcached/Kd-PA", 0x0fc421e961761ea9),
    ("Memcached/Kd-PWC", 0x0d315590efda75df),
    ("Memcached/Kd-Ctx-PA", 0xd8299b6a01854092),
    ("Memcached/Kd-Ctx-PWC", 0xb615c7ffd9d84289),
    ("Memcached/Kd-PA-PWC", 0xc792a51cf5bd78d3),
    ("Memcached/Kaleidoscope", 0x8c57a6fd7a810d7b),
    ("LibPNG/fallback", 0xe73c5b575ba092c4),
    ("LibPNG/Kd-Ctx", 0x841a38544884624c),
    ("LibPNG/Kd-PA", 0x2ffe05cb22426400),
    ("LibPNG/Kd-PWC", 0x4204da1b2fc4072a),
    ("LibPNG/Kd-Ctx-PA", 0x52dd38de5fdc7651),
    ("LibPNG/Kd-Ctx-PWC", 0x37413fd46d5dc983),
    ("LibPNG/Kd-PA-PWC", 0xf96870e1797b5ceb),
    ("LibPNG/Kaleidoscope", 0x628c270aa72e92da),
    ("Libxml/fallback", 0x2da2350e5cb3f632),
    ("Libxml/Kd-Ctx", 0xf90bc53e5d79d5c7),
    ("Libxml/Kd-PA", 0xe6f23de5faf0a0ae),
    ("Libxml/Kd-PWC", 0x7a14eec9bf7385dc),
    ("Libxml/Kd-Ctx-PA", 0x6089d10bc6f5106b),
    ("Libxml/Kd-Ctx-PWC", 0x888fe3fc6a81558c),
    ("Libxml/Kd-PA-PWC", 0x718e3588b50a18e9),
    ("Libxml/Kaleidoscope", 0x04c00934ceeabc41),
    ("Wget/fallback", 0xbba67133e2f194b7),
    ("Wget/Kd-Ctx", 0xbba67133e2f194b7),
    ("Wget/Kd-PA", 0x6ecf542e7bb408f3),
    ("Wget/Kd-PWC", 0xbba67133e2f194b7),
    ("Wget/Kd-Ctx-PA", 0x6ecf542e7bb408f3),
    ("Wget/Kd-Ctx-PWC", 0xbba67133e2f194b7),
    ("Wget/Kd-PA-PWC", 0x6ecf542e7bb408f3),
    ("Wget/Kaleidoscope", 0x6ecf542e7bb408f3),
    ("TinyDTLS/fallback", 0x950466fa3816c846),
    ("TinyDTLS/Kd-Ctx", 0xd11e5711ea58f592),
    ("TinyDTLS/Kd-PA", 0x950466fa3816c846),
    ("TinyDTLS/Kd-PWC", 0x1fbffbf975f5f2c0),
    ("TinyDTLS/Kd-Ctx-PA", 0xd11e5711ea58f592),
    ("TinyDTLS/Kd-Ctx-PWC", 0x77437f610d0bc6a7),
    ("TinyDTLS/Kd-PA-PWC", 0x1fbffbf975f5f2c0),
    ("TinyDTLS/Kaleidoscope", 0x77437f610d0bc6a7),
    ("scale-1/fallback", 0x86d3f18b5b20ea5d),
    ("scale-1/Kd-Ctx", 0x86d3f18b5b20ea5d),
    ("scale-1/Kd-PA", 0x86d3f18b5b20ea5d),
    ("scale-1/Kd-PWC", 0x86d3f18b5b20ea5d),
    ("scale-1/Kd-Ctx-PA", 0x86d3f18b5b20ea5d),
    ("scale-1/Kd-Ctx-PWC", 0x86d3f18b5b20ea5d),
    ("scale-1/Kd-PA-PWC", 0x86d3f18b5b20ea5d),
    ("scale-1/Kaleidoscope", 0x86d3f18b5b20ea5d),
    ("scale-7/fallback", 0x8e0b075b6261738f),
    ("scale-7/Kd-Ctx", 0x8e0b075b6261738f),
    ("scale-7/Kd-PA", 0x8e0b075b6261738f),
    ("scale-7/Kd-PWC", 0x8e0b075b6261738f),
    ("scale-7/Kd-Ctx-PA", 0x8e0b075b6261738f),
    ("scale-7/Kd-Ctx-PWC", 0x8e0b075b6261738f),
    ("scale-7/Kd-PA-PWC", 0x8e0b075b6261738f),
    ("scale-7/Kaleidoscope", 0x8e0b075b6261738f),
];

#[test]
fn table3_solves_match_golden_digests() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    // Sets holding a member merged away by an object collapse: the ones
    // `canonical_len` must canonicalize rather than just count.
    let mut merged = 0;
    for (name, module) in corpus() {
        for (tag, a) in solves(&module) {
            let r = &a.result;
            for i in 0..r.nodes.len() {
                let n = NodeId(i as u32);
                assert_eq!(
                    r.canonical_len(n),
                    r.pts_of(n).len(),
                    "{name}/{tag}: canonical_len of node {i}"
                );
                let raw = &r.pts[r.nodes.find_ref(n).index()];
                let merged_member = raw.iter().any(|m| r.nodes.find_ref(m) != m);
                assert!(
                    r.merged() || !merged_member,
                    "{name}/{tag}: node {i} holds a merged member, but the walk is skipped"
                );
                merged += merged_member as usize;
            }
            actual.push((format!("{name}/{tag}"), digest(&module, &a)));
        }
    }
    assert!(merged > 0, "no solve left a merged-away member in a set");
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!("solve digests changed; actual table:\n{table}");
    }
}

#[test]
fn unmerged_scale_solves_count_raw_sets() {
    // No `scale` solve merges a node, so report statistics read every
    // set's length without walking it; the length must still be the
    // canonical one.
    for (seed, stmts) in [(1u64, 3_000), (2, 3_000), (1, 10_000)] {
        let module = scale::corpus_module(seed, stmts);
        for (tag, a) in solves(&module) {
            let r = &a.result;
            assert!(!r.merged(), "scale-{seed}-{stmts}/{tag} merged a node");
            for i in 0..r.nodes.len() {
                let n = NodeId(i as u32);
                assert_eq!(
                    r.canonical_len(n),
                    r.pts_of(n).len(),
                    "scale-{seed}-{stmts}/{tag}: canonical_len of node {i}"
                );
            }
        }
    }
}

/// The revisions of one warm chain: the base corpus, an appended function,
/// an appended leaf function, and the base again (removing both).
fn warm_chain(seed: u64) -> Vec<(&'static str, Module)> {
    let base = scale::corpus_module(seed, 5_000);
    let mut appended = base.clone();
    edit::append_function(&mut appended, seed, 0);
    let mut leaf = appended.clone();
    edit::append_leaf_function(&mut leaf, seed, 1);
    vec![
        ("cold", base.clone()),
        ("append", appended),
        ("leaf", leaf),
        ("remove", base),
    ]
}

/// One solve family of the chain: `None` is the fallback solve.
fn warm_solve(
    module: &Module,
    config: Option<PolicyConfig>,
    prev: Option<(&Module, &SolvedState)>,
) -> (Analysis, Option<SolvedState>) {
    let budget = SolveBudget::default();
    match config {
        None => try_fallback_analysis_incr_fe(module, &budget, 0, prev, None, None),
        Some(config) => {
            let plan = ctx_plan_for(module, config);
            try_optimistic_analysis_incr_fe(module, config, &plan, &budget, 0, prev, None, None)
        }
    }
    .expect("unbudgeted solve")
}

const WARM_GOLDEN: &[&str] = &[
    "scale-1/fallback/cold 4512 491905 941064 3520 1 0 0 0 a1a33e066572968f",
    "scale-1/fallback/append 1669 79378 1672056 4893 1 4655 8 0 af8d532b851fa317",
    "scale-1/fallback/leaf 8 598 879960 4899 1 4667 5 0 5dcde92f601b5bc0",
    "scale-1/fallback/remove 4512 491905 941064 3520 1 0 0 1 a1a33e066572968f",
    "scale-1/Kd-Ctx/cold 4512 491905 941064 3520 1 0 0 0 a1a33e066572968f",
    "scale-1/Kd-Ctx/append 1669 79378 1672056 4893 1 4655 8 0 af8d532b851fa317",
    "scale-1/Kd-Ctx/leaf 8 598 879960 4899 1 4667 5 0 5dcde92f601b5bc0",
    "scale-1/Kd-Ctx/remove 4512 491905 941064 3520 1 0 0 1 a1a33e066572968f",
    "scale-1/Kd-PA/cold 4512 491905 941064 3520 1 0 0 0 7389b46a6ed9d6f2",
    "scale-1/Kd-PA/append 1669 79378 1672056 4893 1 4655 8 0 c489885f4125602e",
    "scale-1/Kd-PA/leaf 8 598 879960 4899 1 4667 5 0 9d40eb32d9ffac61",
    "scale-1/Kd-PA/remove 4512 491905 941064 3520 1 0 0 1 7389b46a6ed9d6f2",
    "scale-1/Kd-PWC/cold 4512 491905 941064 3520 1 0 0 0 ca74344c0a828921",
    "scale-1/Kd-PWC/append 1669 79378 1672056 4893 1 4655 8 0 9588ffcf05347f19",
    "scale-1/Kd-PWC/leaf 8 598 879960 4899 1 4667 5 0 76ebf45e60646a9a",
    "scale-1/Kd-PWC/remove 4512 491905 941064 3520 1 0 0 1 ca74344c0a828921",
    "scale-1/Kd-Ctx-PA/cold 4512 491905 941064 3520 1 0 0 0 7389b46a6ed9d6f2",
    "scale-1/Kd-Ctx-PA/append 1669 79378 1672056 4893 1 4655 8 0 c489885f4125602e",
    "scale-1/Kd-Ctx-PA/leaf 8 598 879960 4899 1 4667 5 0 9d40eb32d9ffac61",
    "scale-1/Kd-Ctx-PA/remove 4512 491905 941064 3520 1 0 0 1 7389b46a6ed9d6f2",
    "scale-1/Kd-Ctx-PWC/cold 4512 491905 941064 3520 1 0 0 0 ca74344c0a828921",
    "scale-1/Kd-Ctx-PWC/append 1669 79378 1672056 4893 1 4655 8 0 9588ffcf05347f19",
    "scale-1/Kd-Ctx-PWC/leaf 8 598 879960 4899 1 4667 5 0 76ebf45e60646a9a",
    "scale-1/Kd-Ctx-PWC/remove 4512 491905 941064 3520 1 0 0 1 ca74344c0a828921",
    "scale-1/Kd-PA-PWC/cold 4512 491905 941064 3520 1 0 0 0 e3b3165a67036fb4",
    "scale-1/Kd-PA-PWC/append 1669 79378 1672056 4893 1 4655 8 0 8040de1053a97078",
    "scale-1/Kd-PA-PWC/leaf 8 598 879960 4899 1 4667 5 0 f839912f61a977d3",
    "scale-1/Kd-PA-PWC/remove 4512 491905 941064 3520 1 0 0 1 e3b3165a67036fb4",
    "scale-1/Kaleidoscope/cold 4512 491905 941064 3520 1 0 0 0 e3b3165a67036fb4",
    "scale-1/Kaleidoscope/append 1669 79378 1672056 4893 1 4655 8 0 8040de1053a97078",
    "scale-1/Kaleidoscope/leaf 8 598 879960 4899 1 4667 5 0 f839912f61a977d3",
    "scale-1/Kaleidoscope/remove 4512 491905 941064 3520 1 0 0 1 e3b3165a67036fb4",
    "scale-7/fallback/cold 4473 481887 941064 3515 1 0 0 0 4130caa0bde616f6",
    "scale-7/fallback/append 15 762 838332 4853 1 4607 8 0 529b9568d441d7b0",
    "scale-7/fallback/leaf 8 582 840120 4859 1 4618 5 0 1744807e0e1d2474",
    "scale-7/fallback/remove 4473 481887 941064 3515 1 0 0 1 4130caa0bde616f6",
    "scale-7/Kd-Ctx/cold 4473 481887 941064 3515 1 0 0 0 4130caa0bde616f6",
    "scale-7/Kd-Ctx/append 15 762 838332 4853 1 4607 8 0 529b9568d441d7b0",
    "scale-7/Kd-Ctx/leaf 8 582 840120 4859 1 4618 5 0 1744807e0e1d2474",
    "scale-7/Kd-Ctx/remove 4473 481887 941064 3515 1 0 0 1 4130caa0bde616f6",
    "scale-7/Kd-PA/cold 4473 481887 941064 3515 1 0 0 0 814e0c3a3dbec3af",
    "scale-7/Kd-PA/append 15 762 838332 4853 1 4607 8 0 46e17bc7be0f82dd",
    "scale-7/Kd-PA/leaf 8 582 840120 4859 1 4618 5 0 5f967034db573203",
    "scale-7/Kd-PA/remove 4473 481887 941064 3515 1 0 0 1 814e0c3a3dbec3af",
    "scale-7/Kd-PWC/cold 4473 481887 941064 3515 1 0 0 0 92f5d2c9ae99c754",
    "scale-7/Kd-PWC/append 15 762 838332 4853 1 4607 8 0 430c32a0a053772e",
    "scale-7/Kd-PWC/leaf 8 582 840120 4859 1 4618 5 0 ffe726a066cb8aca",
    "scale-7/Kd-PWC/remove 4473 481887 941064 3515 1 0 0 1 92f5d2c9ae99c754",
    "scale-7/Kd-Ctx-PA/cold 4473 481887 941064 3515 1 0 0 0 814e0c3a3dbec3af",
    "scale-7/Kd-Ctx-PA/append 15 762 838332 4853 1 4607 8 0 46e17bc7be0f82dd",
    "scale-7/Kd-Ctx-PA/leaf 8 582 840120 4859 1 4618 5 0 5f967034db573203",
    "scale-7/Kd-Ctx-PA/remove 4473 481887 941064 3515 1 0 0 1 814e0c3a3dbec3af",
    "scale-7/Kd-Ctx-PWC/cold 4473 481887 941064 3515 1 0 0 0 92f5d2c9ae99c754",
    "scale-7/Kd-Ctx-PWC/append 15 762 838332 4853 1 4607 8 0 430c32a0a053772e",
    "scale-7/Kd-Ctx-PWC/leaf 8 582 840120 4859 1 4618 5 0 ffe726a066cb8aca",
    "scale-7/Kd-Ctx-PWC/remove 4473 481887 941064 3515 1 0 0 1 92f5d2c9ae99c754",
    "scale-7/Kd-PA-PWC/cold 4473 481887 941064 3515 1 0 0 0 3905180f5adea40d",
    "scale-7/Kd-PA-PWC/append 15 762 838332 4853 1 4607 8 0 b4793c4e744e2613",
    "scale-7/Kd-PA-PWC/leaf 8 582 840120 4859 1 4618 5 0 f1806a64ac8879e9",
    "scale-7/Kd-PA-PWC/remove 4473 481887 941064 3515 1 0 0 1 3905180f5adea40d",
    "scale-7/Kaleidoscope/cold 4473 481887 941064 3515 1 0 0 0 3905180f5adea40d",
    "scale-7/Kaleidoscope/append 15 762 838332 4853 1 4607 8 0 b4793c4e744e2613",
    "scale-7/Kaleidoscope/leaf 8 582 840120 4859 1 4618 5 0 f1806a64ac8879e9",
    "scale-7/Kaleidoscope/remove 4473 481887 941064 3515 1 0 0 1 3905180f5adea40d",
];

#[test]
fn warm_start_chains_match_golden_counters() {
    let mut families: Vec<(&str, Option<PolicyConfig>)> = vec![("fallback", None)];
    for config in PolicyConfig::table3_order() {
        if config.any() {
            families.push((config.name(), Some(config)));
        }
    }
    let mut actual = Vec::new();
    for seed in [1u64, 7] {
        let chain = warm_chain(seed);
        for &(tag, config) in &families {
            let mut prev: Option<(&Module, SolvedState)> = None;
            for (step, module) in &chain {
                let (a, state) = warm_solve(module, config, prev.as_ref().map(|(m, s)| (*m, s)));
                let state = state.expect("converged solve captures a snapshot");
                let s = &a.result.stats;
                actual.push(format!(
                    "scale-{seed}/{tag}/{step} {} {} {} {} {} {} {} {} {:016x}",
                    s.iterations,
                    s.union_words,
                    s.peak_pts_bytes,
                    s.copy_edges,
                    s.scc_passes,
                    s.incr_reused,
                    s.incr_seeded_nodes,
                    s.incr_fallback_full,
                    fnv1a64(&[&state.to_bytes()])
                ));
                prev = Some((module, state));
            }
        }
    }
    if actual != WARM_GOLDEN {
        let table: String = actual.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("warm-start counters changed; actual table:\n{table}");
    }
}
