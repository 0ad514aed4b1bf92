//! The incremental differential gate: incremental re-solves must produce
//! **byte-identical** analysis reports to from-scratch solves at every
//! step of a watch-mode edit script.
//!
//! This is the empirical soundness argument for warm-starting (DESIGN.md
//! §5g): the restore path is monotone, so the fixpoint is provably the
//! same, but the report also encodes derived artifacts (call graphs,
//! invariant tables, degradation events) whose construction could in
//! principle be schedule-sensitive. Comparing the rendered bytes end to
//! end closes that gap.
//!
//! Each seed runs two scripts: `edit_script` (appends and removals) and
//! `edit_script_with_modify` (which also re-emits appended functions in
//! place). CI runs this over a seed matrix via `KD_EDIT_SEEDS`
//! (comma-separated integers; default `1,2`) and `KD_EDIT_STEPS` (default
//! 3, at least 2 for the modify script); locally it
//! runs with the defaults as part of the normal suite. Reports are
//! rendered without `--stats`: stats rows (worklist pops, the `incr[..]`
//! counters themselves) are *path*-dependent by construction and are the
//! one part of the output warm and cold solves legitimately disagree on.

use std::sync::Arc;

use kaleidoscope::PolicyConfig;
use kaleidoscope_exec::{load_frontend, render_analyze, DiskCache, Executor};
use kaleidoscope_fuzz::edit::{edit_script, edit_script_with_modify, EditKind};
use kaleidoscope_ir::revision_prefix;

fn env_list(var: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(var) {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad {var} entry `{s}`"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

#[test]
fn incremental_reports_match_cold_bytes_at_every_step() {
    let seeds = env_list("KD_EDIT_SEEDS", &[1, 2]);
    let steps = env_list("KD_EDIT_STEPS", &[3])[0] as usize;
    let configs = PolicyConfig::table3_order();

    let scripts = seeds.iter().flat_map(|&seed| {
        [
            ("edit", seed, edit_script(seed, steps)),
            ("modify", seed, edit_script_with_modify(seed, steps.max(2))),
        ]
    });
    for (name, seed, script) in scripts {
        let dir = std::env::temp_dir().join(format!(
            "kd-incr-diff-{name}-s{seed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskCache::open(&dir).expect("open store"));

        // Revision 0: cold solve, publishing the first snapshots.
        let base = &script[0].module;
        store
            .put_module(base.fingerprint(), &base.to_text())
            .unwrap();
        let ex0 = Executor::with_jobs(2).with_state_store(Arc::clone(&store));
        let _ = render_analyze(base, &configs, &ex0, false);

        let mut prev_fp = base.fingerprint();
        for (i, step) in script.iter().enumerate().skip(1) {
            let m = &step.module;
            let text = m.to_text();
            store.put_module(m.fingerprint(), &text).unwrap();
            // The previous revision as `analyze_request` resolves it: the
            // stored text, compared with the canonical text, cuts `m`.
            let prev_text = store.get_module(prev_fp).expect("stored revision");
            let cut = revision_prefix(&prev_text, &text).and_then(|counts| m.truncated(counts));
            let warm_ex = Executor::with_jobs(2)
                .with_state_store(Arc::clone(&store))
                .with_previous_revision(prev_fp, m.fingerprint(), cut);
            let warm = render_analyze(m, &configs, &warm_ex, false).text;
            let cold = render_analyze(m, &configs, &Executor::with_jobs(2), false).text;
            assert_eq!(
                warm, cold,
                "{name} seed {seed} step {i} ({:?}): report bytes diverged",
                step.kind
            );
            // The warm pass must have exercised the intended path: a
            // with-stats rendering of the same warm executor reports
            // reuse on appends and the fallback counter on removals.
            let stats_report = render_analyze(m, &configs, &warm_ex, true).text;
            match step.kind {
                EditKind::Append => assert!(
                    stats_report.contains("incr-fallback-full=0"),
                    "{name} seed {seed} step {i}: append did not warm-start:\n{stats_report}"
                ),
                EditKind::Remove | EditKind::Modify => assert!(
                    stats_report.contains("incr-fallback-full=1")
                        && !stats_report.contains("incr-fallback-full=0"),
                    "{name} seed {seed} step {i}: {:?} did not fall back:\n{stats_report}",
                    step.kind
                ),
                EditKind::Base => unreachable!(),
            }
            prev_fp = m.fingerprint();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The frontend-cache differential: loading a revision through the
/// per-function `fe/` cache (decoded functions, skipped body parses) must
/// leave the rendered report byte-identical to a plain parse-everything
/// run, at every step of the edit script. This is the gate that lets the
/// cache be a pure performance feature: any decoding bug shows up here as
/// a byte diff.
#[test]
fn frontend_cache_reports_match_cacheless_bytes_at_every_step() {
    let seeds = env_list("KD_EDIT_SEEDS", &[1, 2]);
    let steps = env_list("KD_EDIT_STEPS", &[3])[0] as usize;
    let configs = PolicyConfig::table3_order();

    for &seed in &seeds {
        let script = edit_script(seed, steps);
        let dir = std::env::temp_dir().join(format!("kd-fe-diff-s{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskCache::open(&dir).expect("open store"));

        for (i, step) in script.iter().enumerate() {
            let text = step.module.to_text();
            // Cache-on: per-function entries from earlier revisions
            // decode; the stored program feeds the executor directly.
            let loaded = load_frontend(&text, Some(&store), 1).expect("frontend load");
            if i > 0 {
                assert!(
                    loaded.stats.fe_cache_hits > 0,
                    "seed {seed} step {i}: warm revision never hit the fe cache"
                );
            }
            let fp = loaded.module.fingerprint();
            let on_ex = Executor::with_jobs(2).with_frontend(fp, Arc::clone(&loaded.blocks));
            let on = render_analyze(&loaded.module, &configs, &on_ex, false).text;
            // Cache-off: plain parse, no stored program.
            let plain = load_frontend(&text, None, 1).expect("plain load");
            assert_eq!(plain.stats.fe_cache_hits, 0);
            let off = render_analyze(&plain.module, &configs, &Executor::with_jobs(2), false).text;
            assert_eq!(
                on, off,
                "seed {seed} step {i} ({:?}): fe-cache-on report bytes diverged from cache-off",
                step.kind
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
