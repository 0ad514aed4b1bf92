//! Golden digests of the eight Table-3 solves.
//!
//! The worklist drain skips per-member work at nodes nothing reads, and
//! report statistics read set sizes without rebuilding canonical sets.
//! Neither may change what a solve computes or counts. For the corpus of
//! `tests/program_golden.rs` (the 9 application models and two seeded 5k
//! `scale` corpora), this test pins two FNV-1a digests per solve — the
//! shared fallback and the seven optimistic configurations:
//!
//! * the *answer* digest: the PA filter and PWC events in emission order,
//!   every top-level pointer's canonical points-to set size, and every
//!   indirect callsite's targets;
//! * the *work* digest: the `SolveStats` counters (worklist pops,
//!   `union_words`, `peak_pts_bytes`, copy edges, collapsed cycles and
//!   objects, SCC passes) and the incremental counters.
//!
//! A change that only moves the cost of a solve moves only work digests.
//!
//! It also checks `canonical_len(n) == pts_of(n).len()` for every node,
//! on these solves and on unmerged `scale` solves, where `canonical_len`
//! counts raw sets without walking their members.
//!
//! Warm starts are one more input set: on each 5k corpus, every one of the
//! eight solves runs cold, then warm-started after an appended function,
//! then after an appended leaf function, then back on the base revision (a
//! removal, which falls back to a full solve). Each step pins the same two
//! digests, and its work digest also covers the snapshot it captures.

use std::fmt::Write;

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::{edit, scale};
use kaleidoscope_suite::ir::{fnv1a64, Module};
use kaleidoscope_suite::kaleidoscope::{
    ctx_plan_for, fallback_analysis, optimistic_analysis, try_fallback_analysis_incr_fe,
    try_optimistic_analysis_incr_fe, PolicyConfig,
};
use kaleidoscope_suite::pta::{Analysis, NodeId, SolveBudget, SolvedState};

/// The answer digest of a solve: what it computed.
fn answer_digest(module: &Module, a: &Analysis) -> u64 {
    let r = &a.result;
    let mut h = String::new();
    for e in &r.pa_filters {
        writeln!(h, "pa {e:?}").unwrap();
    }
    for e in &r.pwcs {
        writeln!(h, "pwc {e:?}").unwrap();
    }
    for (f, l, size) in a.top_level_pointer_sizes(module) {
        writeln!(h, "p {} {} {size}", f.0, l.0).unwrap();
    }
    for (site, targets) in r.callgraph.indirect_sites() {
        writeln!(h, "icall {site:?} {targets:?}").unwrap();
    }
    fnv1a64(&[h.as_bytes()])
}

/// The work digest of a solve: what it cost, and the snapshot it
/// captured, if any.
fn work_digest(a: &Analysis, state: Option<&SolvedState>) -> u64 {
    let s = &a.result.stats;
    let h = format!(
        "s {} {} {} {} {} {} {}\nincr {} {} {}\n",
        s.iterations,
        s.union_words,
        s.peak_pts_bytes,
        s.copy_edges,
        s.collapsed_cycles,
        s.collapsed_objects,
        s.scc_passes,
        s.incr_reused,
        s.incr_seeded_nodes,
        s.incr_fallback_full
    );
    let snapshot = state.map(SolvedState::to_bytes).unwrap_or_default();
    fnv1a64(&[h.as_bytes(), &snapshot])
}

/// One golden line: `"<solve> <answer digest> <work digest>"`.
fn digest_line(solve: &str, answer: u64, work: u64) -> String {
    format!("{solve} {answer:016x} {work:016x}")
}

/// Panic unless `actual` is `golden`, naming each solve whose answer or
/// work digest moved, then printing the actual table.
fn check_digests(what: &str, actual: &[String], golden: &[&str]) {
    if actual == golden {
        return;
    }
    let mut moved = String::new();
    for (got, want) in actual.iter().zip(golden) {
        let (got, want): (Vec<&str>, Vec<&str>) =
            (got.split(' ').collect(), want.split(' ').collect());
        for (i, kind) in [(1, "answer"), (2, "work")] {
            if got.get(i) != want.get(i) {
                writeln!(moved, "  {kind} digest of {}", got[0]).unwrap();
            }
        }
    }
    let table: String = actual.iter().map(|l| format!("    \"{l}\",\n")).collect();
    panic!("{what} digests changed:\n{moved}actual table:\n{table}");
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

const GOLDEN: &[&str] = &[
    "MbedTLS/fallback f97e318762ce6e02 2cfbe76310c6c45a",
    "MbedTLS/Kd-Ctx 63d1557902c8e358 75ecfcaf5b59b72e",
    "MbedTLS/Kd-PA d54a6ab48b0d4e05 0be862b33581fbad",
    "MbedTLS/Kd-PWC ddaff7f32f25acbc a884ffa8abd34315",
    "MbedTLS/Kd-Ctx-PA 861bb179a3ada1c4 b3a1dc0752213b6e",
    "MbedTLS/Kd-Ctx-PWC bd0750a387c11830 815794b2ecf2383a",
    "MbedTLS/Kd-PA-PWC 7a053f7b9208d375 84586d1d214d495d",
    "MbedTLS/Kaleidoscope 6eac8154f09bcf60 fd0167ca0b4a8fc7",
    "Libtiff/fallback ec77a9726e1ba795 75b68d2cab7237fd",
    "Libtiff/Kd-Ctx ed936fd644b0b473 e449037a6505879c",
    "Libtiff/Kd-PA 3e1ab95cf9e214cb 2ca6ea4820544123",
    "Libtiff/Kd-PWC 404f4c5fdff13fef 5910fe228b738167",
    "Libtiff/Kd-Ctx-PA 2caf0dd6046b8e79 7ab3d67235c46304",
    "Libtiff/Kd-Ctx-PWC 38d65c5aa6f9fc02 079c791e419705cc",
    "Libtiff/Kd-PA-PWC fee7982b506f7f79 12103856f4ae9a45",
    "Libtiff/Kaleidoscope 0355c8f886a0de0c 70e071db5e5831cf",
    "Curl/fallback 0434fd124026ab0b 248f72ca1dda2aac",
    "Curl/Kd-Ctx 7d08f1cfbdd9fc90 5010924294dd7378",
    "Curl/Kd-PA ea3c802836b1a4e1 4f852c40d2e08155",
    "Curl/Kd-PWC 0434fd124026ab0b 248f72ca1dda2aac",
    "Curl/Kd-Ctx-PA db163ca4cc79beba 8bdc45edcb304772",
    "Curl/Kd-Ctx-PWC 7d08f1cfbdd9fc90 5010924294dd7378",
    "Curl/Kd-PA-PWC ea3c802836b1a4e1 4f852c40d2e08155",
    "Curl/Kaleidoscope db163ca4cc79beba 8bdc45edcb304772",
    "Lighttpd/fallback c61d5933cd1eb30f ec67a81961c00cb5",
    "Lighttpd/Kd-Ctx ab830f77d6d2bc80 cec0f93b6cc349b7",
    "Lighttpd/Kd-PA 1346db35f48d329d 2d5dac50a876beec",
    "Lighttpd/Kd-PWC c61d5933cd1eb30f ec67a81961c00cb5",
    "Lighttpd/Kd-Ctx-PA 402f105a015c1d92 04b9e509d22e9a52",
    "Lighttpd/Kd-Ctx-PWC ab830f77d6d2bc80 cec0f93b6cc349b7",
    "Lighttpd/Kd-PA-PWC 1346db35f48d329d 2d5dac50a876beec",
    "Lighttpd/Kaleidoscope 402f105a015c1d92 04b9e509d22e9a52",
    "Memcached/fallback 5fa82c7e08477c9f c9f9367afafad263",
    "Memcached/Kd-Ctx c9a4dc0643fc0c3d 0531eebbf4b93a8a",
    "Memcached/Kd-PA 9eb5b8374c868775 ead1c8b7101710f0",
    "Memcached/Kd-PWC a830336db796ba01 644af44cd944cbb6",
    "Memcached/Kd-Ctx-PA ca8aff9000784ba0 600f508b68cdf6b4",
    "Memcached/Kd-Ctx-PWC be21167f05e9f5b3 8c4d7714a794e64e",
    "Memcached/Kd-PA-PWC 440d738cc7a480db c08fc637ff1e543a",
    "Memcached/Kaleidoscope 892cd5c8a2b1437b 11b9aeeb841f7f02",
    "LibPNG/fallback 2beb1566de70f47b e2ef5bff6d6a470d",
    "LibPNG/Kd-Ctx e109a20a8e329ff7 92a3c4cb73e7b815",
    "LibPNG/Kd-PA fa246e39caac7c1a 019f5d6a9f10c618",
    "LibPNG/Kd-PWC c59fed35c1205076 b528dea55bf92b56",
    "LibPNG/Kd-Ctx-PA 7a133602ed22a84e 38ff07a7846e0903",
    "LibPNG/Kd-Ctx-PWC 15e7822eca33defa c5a06417b0a071bd",
    "LibPNG/Kd-PA-PWC edff2ee613f6c42a e290743c4775e8f3",
    "LibPNG/Kaleidoscope e142fc4f4cde1ac6 00051ab78aac7778",
    "Libxml/fallback 3d7a737237037b6c 40cf1b58d3a5fa78",
    "Libxml/Kd-Ctx dc387b95c17b3407 c371e5672ae8e05b",
    "Libxml/Kd-PA 3d33a45b04cfb1e0 a06ccfb6f64bdc40",
    "Libxml/Kd-PWC 3338884218261f5b 6f64c987a6c4d54d",
    "Libxml/Kd-Ctx-PA 4f216c3953b7c0ad b66989861a172f8b",
    "Libxml/Kd-Ctx-PWC fa425e70062d4560 73142e9b5de57ca7",
    "Libxml/Kd-PA-PWC 67272a9bf59b0e62 f1574eae060f6b8b",
    "Libxml/Kaleidoscope 0eade044ac9b2131 3eb4b7180c15b64b",
    "Wget/fallback 161343ca2fa5a65b 241f9b8a5daffb45",
    "Wget/Kd-Ctx 161343ca2fa5a65b 241f9b8a5daffb45",
    "Wget/Kd-PA 6900adf00172f6cb af3f07811b6c4301",
    "Wget/Kd-PWC 161343ca2fa5a65b 241f9b8a5daffb45",
    "Wget/Kd-Ctx-PA 6900adf00172f6cb af3f07811b6c4301",
    "Wget/Kd-Ctx-PWC 161343ca2fa5a65b 241f9b8a5daffb45",
    "Wget/Kd-PA-PWC 6900adf00172f6cb af3f07811b6c4301",
    "Wget/Kaleidoscope 6900adf00172f6cb af3f07811b6c4301",
    "TinyDTLS/fallback 740ccf0dc7e741a4 e59b157d3804b070",
    "TinyDTLS/Kd-Ctx 4eb8eebf521fd798 f35d40992804d450",
    "TinyDTLS/Kd-PA 740ccf0dc7e741a4 e59b157d3804b070",
    "TinyDTLS/Kd-PWC 2e9589a026e197be f9fa1ab032756717",
    "TinyDTLS/Kd-Ctx-PA 4eb8eebf521fd798 f35d40992804d450",
    "TinyDTLS/Kd-Ctx-PWC a2b88499d6d250a1 5474614be010d9f8",
    "TinyDTLS/Kd-PA-PWC 2e9589a026e197be f9fa1ab032756717",
    "TinyDTLS/Kaleidoscope a2b88499d6d250a1 5474614be010d9f8",
    "scale-1/fallback 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kd-Ctx 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kd-PA 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kd-PWC 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kd-Ctx-PA 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kd-Ctx-PWC 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kd-PA-PWC 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-1/Kaleidoscope 946e0568b3eb98f2 3cd935052c8524c5",
    "scale-7/fallback e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kd-Ctx e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kd-PA e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kd-PWC e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kd-Ctx-PA e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kd-Ctx-PWC e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kd-PA-PWC e9ec3d2bc0c3afd2 a3b03186c79437fd",
    "scale-7/Kaleidoscope e9ec3d2bc0c3afd2 a3b03186c79437fd",
];

#[test]
fn table3_solves_match_golden_digests() {
    let mut actual = Vec::new();
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
            actual.push(digest_line(
                &format!("{name}/{tag}"),
                answer_digest(&module, &a),
                work_digest(&a, None),
            ));
        }
    }
    assert!(merged > 0, "no solve left a merged-away member in a set");
    check_digests("solve", &actual, GOLDEN);
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
    "scale-1/fallback/cold 946e0568b3eb98f2 1266b04fc15a1f37",
    "scale-1/fallback/append de85ee0c2e64c265 c18ed94df36f1fd6",
    "scale-1/fallback/leaf f01f3879e573d47f 28d76c4c2bbb8cfb",
    "scale-1/fallback/remove 946e0568b3eb98f2 d405195c6c860eb6",
    "scale-1/Kd-Ctx/cold 946e0568b3eb98f2 1266b04fc15a1f37",
    "scale-1/Kd-Ctx/append de85ee0c2e64c265 c18ed94df36f1fd6",
    "scale-1/Kd-Ctx/leaf f01f3879e573d47f 28d76c4c2bbb8cfb",
    "scale-1/Kd-Ctx/remove 946e0568b3eb98f2 d405195c6c860eb6",
    "scale-1/Kd-PA/cold 946e0568b3eb98f2 047c4539ecac324e",
    "scale-1/Kd-PA/append de85ee0c2e64c265 3f31d5b3fb488e7b",
    "scale-1/Kd-PA/leaf f01f3879e573d47f 697f67965a2d2b86",
    "scale-1/Kd-PA/remove 946e0568b3eb98f2 b347da2d899a825f",
    "scale-1/Kd-PWC/cold 946e0568b3eb98f2 00ed5877b57b2269",
    "scale-1/Kd-PWC/append de85ee0c2e64c265 2579a503edbbe820",
    "scale-1/Kd-PWC/leaf f01f3879e573d47f 038eee6f19aab629",
    "scale-1/Kd-PWC/remove 946e0568b3eb98f2 7775354efcdba310",
    "scale-1/Kd-Ctx-PA/cold 946e0568b3eb98f2 047c4539ecac324e",
    "scale-1/Kd-Ctx-PA/append de85ee0c2e64c265 3f31d5b3fb488e7b",
    "scale-1/Kd-Ctx-PA/leaf f01f3879e573d47f 697f67965a2d2b86",
    "scale-1/Kd-Ctx-PA/remove 946e0568b3eb98f2 b347da2d899a825f",
    "scale-1/Kd-Ctx-PWC/cold 946e0568b3eb98f2 00ed5877b57b2269",
    "scale-1/Kd-Ctx-PWC/append de85ee0c2e64c265 2579a503edbbe820",
    "scale-1/Kd-Ctx-PWC/leaf f01f3879e573d47f 038eee6f19aab629",
    "scale-1/Kd-Ctx-PWC/remove 946e0568b3eb98f2 7775354efcdba310",
    "scale-1/Kd-PA-PWC/cold 946e0568b3eb98f2 6a50c99211239908",
    "scale-1/Kd-PA-PWC/append de85ee0c2e64c265 95e321925d319ec5",
    "scale-1/Kd-PA-PWC/leaf f01f3879e573d47f 6919d0197332c994",
    "scale-1/Kd-PA-PWC/remove 946e0568b3eb98f2 c143b8d9d595eb71",
    "scale-1/Kaleidoscope/cold 946e0568b3eb98f2 6a50c99211239908",
    "scale-1/Kaleidoscope/append de85ee0c2e64c265 95e321925d319ec5",
    "scale-1/Kaleidoscope/leaf f01f3879e573d47f 6919d0197332c994",
    "scale-1/Kaleidoscope/remove 946e0568b3eb98f2 c143b8d9d595eb71",
    "scale-7/fallback/cold e9ec3d2bc0c3afd2 7af0c51c34af9c92",
    "scale-7/fallback/append eb1959863506552c a8b3999dc411d2b5",
    "scale-7/fallback/leaf fa18474daadc1af6 4227ad15bd02d56c",
    "scale-7/fallback/remove e9ec3d2bc0c3afd2 905c5a66fdb8b33b",
    "scale-7/Kd-Ctx/cold e9ec3d2bc0c3afd2 7af0c51c34af9c92",
    "scale-7/Kd-Ctx/append eb1959863506552c a8b3999dc411d2b5",
    "scale-7/Kd-Ctx/leaf fa18474daadc1af6 4227ad15bd02d56c",
    "scale-7/Kd-Ctx/remove e9ec3d2bc0c3afd2 905c5a66fdb8b33b",
    "scale-7/Kd-PA/cold e9ec3d2bc0c3afd2 14676f585260d5ff",
    "scale-7/Kd-PA/append eb1959863506552c addddf5cd13f2ebc",
    "scale-7/Kd-PA/leaf fa18474daadc1af6 938d192b94331dc7",
    "scale-7/Kd-PA/remove e9ec3d2bc0c3afd2 870e324a59cc5fce",
    "scale-7/Kd-PWC/cold e9ec3d2bc0c3afd2 387127fa4ea6e440",
    "scale-7/Kd-PWC/append eb1959863506552c 249b6939730e6d0b",
    "scale-7/Kd-PWC/leaf fa18474daadc1af6 f60cbfde30708fc2",
    "scale-7/Kd-PWC/remove e9ec3d2bc0c3afd2 6dc88219817b4af1",
    "scale-7/Kd-Ctx-PA/cold e9ec3d2bc0c3afd2 14676f585260d5ff",
    "scale-7/Kd-Ctx-PA/append eb1959863506552c addddf5cd13f2ebc",
    "scale-7/Kd-Ctx-PA/leaf fa18474daadc1af6 938d192b94331dc7",
    "scale-7/Kd-Ctx-PA/remove e9ec3d2bc0c3afd2 870e324a59cc5fce",
    "scale-7/Kd-Ctx-PWC/cold e9ec3d2bc0c3afd2 387127fa4ea6e440",
    "scale-7/Kd-Ctx-PWC/append eb1959863506552c 249b6939730e6d0b",
    "scale-7/Kd-Ctx-PWC/leaf fa18474daadc1af6 f60cbfde30708fc2",
    "scale-7/Kd-Ctx-PWC/remove e9ec3d2bc0c3afd2 6dc88219817b4af1",
    "scale-7/Kd-PA-PWC/cold e9ec3d2bc0c3afd2 e06349321363a1b5",
    "scale-7/Kd-PA-PWC/append eb1959863506552c 48d5bf0cde250882",
    "scale-7/Kd-PA-PWC/leaf fa18474daadc1af6 0257da5c19de33d5",
    "scale-7/Kd-PA-PWC/remove e9ec3d2bc0c3afd2 e97b675c626b747c",
    "scale-7/Kaleidoscope/cold e9ec3d2bc0c3afd2 e06349321363a1b5",
    "scale-7/Kaleidoscope/append eb1959863506552c 48d5bf0cde250882",
    "scale-7/Kaleidoscope/leaf fa18474daadc1af6 0257da5c19de33d5",
    "scale-7/Kaleidoscope/remove e9ec3d2bc0c3afd2 e97b675c626b747c",
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
                actual.push(digest_line(
                    &format!("scale-{seed}/{tag}/{step}"),
                    answer_digest(module, &a),
                    work_digest(&a, Some(&state)),
                ));
                prev = Some((module, state));
            }
        }
    }
    check_digests("warm-start", &actual, WARM_GOLDEN);
}
