//! Property tests for the incremental re-solve over seeded watch-mode
//! edit scripts (`kaleidoscope_fuzz::edit`).
//!
//! Two invariants, each checked over many independently seeded scripts
//! via the in-repo property harness:
//!
//! * **append soundness** — a compatible (append-only) edit warm-starts
//!   (`incr_fallback_full == 0`), seeds far fewer nodes than the graph
//!   holds, and still reaches exactly the from-scratch fixpoint;
//! * **deletion soundness** — any script containing a constraint
//!   *removal* takes the full-re-solve fallback on that step
//!   (`incr_fallback_full == 1`) and the result still matches
//!   from-scratch exactly. A removal silently warm-started would be
//!   unsound (stale points-to facts with no constraint left to justify
//!   them), so the fallback itself is the property. A *modify* (a
//!   function re-emitted in place) removes its old constraints too and
//!   falls back the same way.

use kaleidoscope_fuzz::edit::{
    edit_script, edit_script_with_modify, edit_script_with_removal, EditKind,
};
use kaleidoscope_ir::{LocalId, Module};
use kaleidoscope_pta::{Analysis, NullObserver, SolveOptions, SolvedState, WarmStart};

/// Canonical per-local points-to listing, independent of solve schedule.
fn canon(m: &Module, a: &Analysis) -> Vec<(String, Vec<String>)> {
    let r = &a.result;
    let mut out = Vec::new();
    for (fid, f) in m.iter_funcs() {
        for (i, l) in f.locals.iter().enumerate() {
            if let Some(n) = r.nodes.local_node_opt(fid, LocalId(i as u32)) {
                let mut members: Vec<String> =
                    r.pts_of(n).iter().map(|p| r.nodes.describe(p, m)).collect();
                members.sort();
                out.push((format!("{}::{}", f.name, l.name), members));
            }
        }
    }
    out
}

fn cold(m: &Module, opts: &SolveOptions) -> (Analysis, SolvedState) {
    let capture = Some(m.fingerprint());
    let (a, state) = Analysis::try_run(m, opts, None, None, None, capture, &mut NullObserver)
        .expect("no budget");
    (a, state.expect("converged solve captures"))
}

/// Walk a script start to finish, chaining snapshots, asserting every
/// step's warm result equals the from-scratch result and that the
/// fallback counter matches the edit kind.
fn walk_script(script: &[kaleidoscope_fuzz::edit::EditStep], opts: &SolveOptions, seed: u64) {
    let (_, mut state) = cold(&script[0].module, opts);
    let mut prev_module = &script[0].module;
    for (i, step) in script.iter().enumerate().skip(1) {
        let prev = WarmStart {
            module: Some(prev_module),
            plan: None,
            blocks: None,
            state: &state,
        };
        let (warm, next_state) = Analysis::try_run(
            &step.module,
            opts,
            None,
            None,
            Some(prev),
            Some(step.module.fingerprint()),
            &mut NullObserver,
        )
        .expect("no budget");
        let stats = &warm.result.stats;
        match step.kind {
            EditKind::Append => {
                assert_eq!(
                    stats.incr_fallback_full, 0,
                    "seed {seed} step {i}: append must warm-start"
                );
                assert!(stats.incr_reused > 0, "seed {seed} step {i}");
                assert!(
                    stats.incr_seeded_nodes < stats.node_count / 2,
                    "seed {seed} step {i}: seeded {} of {} nodes",
                    stats.incr_seeded_nodes,
                    stats.node_count
                );
            }
            EditKind::Remove | EditKind::Modify => {
                assert_eq!(
                    stats.incr_fallback_full, 1,
                    "seed {seed} step {i}: {:?} must fall back to a full solve",
                    step.kind
                );
                assert_eq!(stats.incr_reused, 0, "seed {seed} step {i}");
            }
            EditKind::Base => unreachable!("base only opens a script"),
        }
        let (cold_a, _) = cold(&step.module, opts);
        assert_eq!(
            canon(&step.module, &cold_a),
            canon(&step.module, &warm),
            "seed {seed} step {i} ({:?}): warm result diverged from cold",
            step.kind
        );
        state = next_state.expect("incremental solve re-captures");
        prev_module = &step.module;
    }
}

#[test]
fn append_scripts_warm_start_every_step() {
    let opts = SolveOptions::baseline();
    kaleidoscope_prng::check(3, 0xa99e_0d17, |rng| {
        let seed = rng.next_u64();
        // Short scripts with no forced removal; chance removals (possible
        // from step 3 on) are covered too, via the kind match above.
        walk_script(&edit_script(seed, 3), &opts, seed);
    });
}

#[test]
fn deletion_scripts_fall_back_and_stay_exact() {
    let opts = SolveOptions::baseline();
    kaleidoscope_prng::check(3, 0xde1e_7e5d, |rng| {
        let seed = rng.next_u64();
        let script = edit_script_with_removal(seed, 4);
        assert!(script.iter().any(|s| s.kind == EditKind::Remove));
        walk_script(&script, &opts, seed);
    });
}

#[test]
fn modify_scripts_fall_back_and_stay_exact() {
    let opts = SolveOptions::baseline();
    kaleidoscope_prng::check(3, 0x0d1f_7e5d, |rng| {
        let seed = rng.next_u64();
        let script = edit_script_with_modify(seed, 4);
        assert!(script.iter().any(|s| s.kind == EditKind::Modify));
        walk_script(&script, &opts, seed);
    });
}
