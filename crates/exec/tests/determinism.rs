//! Determinism guarantee of the executor: `run_matrix` with one worker
//! (the legacy serial path) and with N workers produce identical
//! `PtsStats` and CFI outputs for the full evaluation matrix — all nine
//! application models × the eight Table 3 configurations.
//!
//! This is the property every table and figure rests on: `--jobs N` may
//! change wall-clock time, never a printed number.

use kaleidoscope::{KaleidoscopeResult, PolicyConfig};
use kaleidoscope_cfi::CfiPolicy;
use kaleidoscope_exec::Executor;
use kaleidoscope_ir::Module;
use kaleidoscope_pta::PtsStats;
use kaleidoscope_runtime::ViewKind;

/// Everything the bench binaries print for a cell, folded into one
/// comparable string: points-to statistics of the optimistic view, CFI
/// target counts under both views, and the emitted invariants.
fn cell_summary(module: &Module, r: &KaleidoscopeResult) -> String {
    let stats = PtsStats::collect(&r.optimistic, module);
    let policy = CfiPolicy::from_result(r);
    let mut cfi_opt = policy.target_counts(ViewKind::Optimistic);
    cfi_opt.sort_unstable();
    let mut cfi_fall = policy.target_counts(ViewKind::Fallback);
    cfi_fall.sort_unstable();
    format!(
        "cfg={} sizes={:?} avg={:#x} max={} count={} cfi_opt={:?} cfi_fall={:?} inv={:?}",
        r.config.name(),
        stats.sizes,
        stats.avg.to_bits(),
        stats.max,
        stats.count,
        cfi_opt,
        cfi_fall,
        r.invariants,
    )
}

#[test]
fn one_vs_many_workers_identical_over_full_matrix() {
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<&Module> = models.iter().map(|m| &m.module).collect();
    let configs = PolicyConfig::table3_order();
    assert_eq!(modules.len(), 9, "the paper's nine applications");
    assert_eq!(configs.len(), 8, "the eight Table 3 configurations");

    let serial = Executor::serial()
        .run_matrix_map(&modules, &configs, |mi, _, r| cell_summary(modules[mi], r));

    // Worker counts are explicit, not `available_parallelism`, so the
    // pooled path is exercised even on a single-CPU host.
    for jobs in [2usize, 4] {
        let parallel = Executor::with_jobs(jobs)
            .run_matrix_map(&modules, &configs, |mi, _, r| cell_summary(modules[mi], r));
        assert_eq!(serial.len(), parallel.len());
        for (mi, (srow, prow)) in serial.iter().zip(&parallel).enumerate() {
            for (ci, (s, p)) in srow.iter().zip(prow).enumerate() {
                assert_eq!(
                    s,
                    p,
                    "cell ({}, {}) differs between 1 and {jobs} workers",
                    models[mi].name,
                    configs[ci].name()
                );
            }
        }
    }
}

#[test]
fn repeated_runs_on_one_executor_are_stable() {
    // A second matrix on the same executor solves again and must print
    // exactly what the first one did.
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<&Module> = models.iter().map(|m| &m.module).collect();
    let configs = PolicyConfig::table3_order();
    let ex = Executor::with_jobs(4);
    let first = ex.run_matrix_map(&modules, &configs, |mi, _, r| cell_summary(modules[mi], r));
    let second = ex.run_matrix_map(&modules, &configs, |mi, _, r| cell_summary(modules[mi], r));
    assert_eq!(first, second);
}
