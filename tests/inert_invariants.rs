//! Inert invariants change no solve (see `support/inert.rs`): on the nine
//! application models and two `scale` corpora, cold, and at every step of
//! seeded `edit_script` warm chains.

#[path = "support/inert.rs"]
mod inert;

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::{edit, scale};

#[test]
fn inert_flags_leave_cold_solves_unchanged() {
    let mut checked = 0;
    for m in apps::all_models() {
        checked += inert::check_revision(m.name, &m.module, &inert::solve_all(&m.module, None));
    }
    for seed in [1u64, 7] {
        let m = scale::corpus_module(seed, 3_000);
        let n = inert::check_revision(&format!("scale-{seed}"), &m, &inert::solve_all(&m, None));
        // No invariant acts on a `scale` corpus: all twelve pairs are inert.
        assert_eq!(n, 12, "scale-{seed}");
        checked += n;
    }
    assert!(checked > 24, "only {checked} inert pairs checked");
}

#[test]
fn inert_flags_leave_warm_chains_unchanged() {
    for seed in [1u64, 2] {
        let script = edit::edit_script(seed, 3);
        let mut prev = (&script[0].module, inert::solve_all(&script[0].module, None));
        for (i, step) in script.iter().enumerate().skip(1) {
            let solves = inert::solve_all(&step.module, Some((prev.0, &prev.1)));
            let label = format!("seed {seed} step {i} ({:?})", step.kind);
            assert_eq!(
                inert::check_revision(&label, &step.module, &solves),
                12,
                "{label}"
            );
            prev = (&step.module, solves);
        }
    }
}
