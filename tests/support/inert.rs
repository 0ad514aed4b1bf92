//! The inert-invariant property behind the executor's effective keys.
//!
//! The executor answers a configuration with the solve of its *effective
//! key*: the configuration without each invariant flag a witness calls
//! inert on the module. The witnesses:
//!
//! * PA: the module has no `PtrArith` instruction;
//! * Ctx: the module's context plan is empty;
//! * PWC: the solve with the flag off degraded no Field-Of constraint
//!   (`SolveStats::degraded_fields == 0`).
//!
//! Sharing is sound only if a flag the witness calls inert changes
//! nothing: the flag-on solve must equal the flag-off one in every
//! `SolveStats` counter, PA/PWC/collapse event, top-level set size and
//! snapshot byte other than the options key. [`check_revision`] checks
//! that for all twelve (flag-off, flag-on) pairs of the eight Table-3
//! configurations, cold or warm-started.

use kaleidoscope_suite::ir::{Inst, Module};
use kaleidoscope_suite::kaleidoscope::{detect_ctx_plan, PolicyConfig};
use kaleidoscope_suite::pta::{Analysis, NullObserver, SolveOptions, SolvedState, WarmStart};

/// One captured solve per Table-3 configuration, in Table-3 order.
pub type Solves = Vec<(Analysis, SolvedState)>;

/// The solves of every configuration on `module`, each warm-started from
/// the same configuration's snapshot of `prev` when given.
pub fn solve_all(module: &Module, prev: Option<(&Module, &Solves)>) -> Solves {
    let plan = detect_ctx_plan(module);
    PolicyConfig::table3_order()
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let warm = prev.map(|(m, solves)| WarmStart::between(m, module, &solves[ci].1));
            let (a, state) = Analysis::try_run(
                module,
                &SolveOptions::optimistic(c.pa, c.pwc),
                c.ctx.then_some(&plan),
                None,
                warm,
                Some(module.fingerprint()),
                &mut NullObserver,
            )
            .expect("unbudgeted solve");
            (a, state.expect("a converged solve captures its state"))
        })
        .collect()
}

/// Everything a solve exposes, except its duration and the options key
/// its snapshot records.
fn observed(module: &Module, a: &Analysis, state: &SolvedState) -> (String, Vec<u8>) {
    let r = &a.result;
    let s = &r.stats;
    let text = format!(
        "stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n\
         pa {:?}\npwc {:?}\ncollapsed {:?}\nsizes {:?}",
        s.node_count,
        s.obj_count,
        s.constraint_count,
        s.icall_count,
        s.iterations,
        s.copy_edges,
        s.scc_passes,
        s.collapsed_cycles,
        s.collapsed_objects,
        s.union_words,
        s.peak_pts_bytes,
        s.incr_reused,
        s.incr_seeded_nodes,
        s.incr_fallback_full,
        s.degraded_fields,
        r.pa_filters,
        r.pwcs,
        r.collapsed_objects,
        a.top_level_pointer_sizes(module),
    );
    let mut state = state.clone();
    state.opts_key = 0;
    (text, state.to_bytes())
}

/// Check every pair whose flag the witness calls inert on `module`, given
/// its `solves`; returns how many pairs were checked.
pub fn check_revision(label: &str, module: &Module, solves: &Solves) -> usize {
    let configs = PolicyConfig::table3_order();
    let index = |c: PolicyConfig| configs.iter().position(|&x| x == c).expect("table3 config");
    let ptr_arith = module
        .iter_locs()
        .any(|(_, inst)| matches!(inst, Inst::PtrArith { .. }));
    let plan_empty = detect_ctx_plan(module).is_empty();
    let mut checked = 0;
    for (on, &config) in configs.iter().enumerate() {
        let without_pwc = PolicyConfig {
            pwc: false,
            ..config
        };
        // (flag, the configuration without it, the witness calls it inert)
        let pairs = [
            (
                "pa",
                PolicyConfig {
                    pa: false,
                    ..config
                },
                !ptr_arith,
            ),
            (
                "ctx",
                PolicyConfig {
                    ctx: false,
                    ..config
                },
                plan_empty,
            ),
            (
                "pwc",
                without_pwc,
                solves[index(without_pwc)].0.result.stats.degraded_fields == 0,
            ),
        ];
        for (flag, off_config, inert) in pairs {
            if off_config == config || !inert {
                continue;
            }
            let off = index(off_config);
            let (on_text, on_bytes) = observed(module, &solves[on].0, &solves[on].1);
            let (off_text, off_bytes) = observed(module, &solves[off].0, &solves[off].1);
            assert_eq!(
                on_text,
                off_text,
                "{label}: inert {flag} changed {} against {}",
                config.name(),
                off_config.name()
            );
            assert!(
                on_bytes == off_bytes,
                "{label}: inert {flag} changed the snapshot of {} against {}",
                config.name(),
                off_config.name()
            );
            checked += 1;
        }
    }
    checked
}
