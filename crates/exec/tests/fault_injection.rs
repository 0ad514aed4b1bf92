//! Deterministic fault injection over the full evaluation matrix
//! (requires `--features fault-injection`).
//!
//! The acceptance property of the fault-domain layer: with a plan
//! injecting a panic, a budget exhaustion, and a corrupted cache entry
//! into three distinct cells, `run_matrix` over all nine models completes,
//! the three cells come back degraded with artifacts byte-identical to
//! the genuine fallback (or Steensgaard) outputs, and every other cell is
//! byte-identical to a fault-free run.
#![cfg(feature = "fault-injection")]

use std::sync::Arc;

use kaleidoscope::{CellHealth, DegradedTier, KaleidoscopeResult, PolicyConfig};
use kaleidoscope_exec::{DiskCache, Executor, FaultKind, FaultPlan};
use kaleidoscope_ir::Module;
use kaleidoscope_pta::{steens_analysis, Analysis, PtsStats, SolveOptions};

/// Deterministic render of one analysis view: canonical points-to stats
/// plus the call graph (BTreeMap-backed, so `Debug` order is stable).
fn view_render(module: &Module, a: &Analysis) -> String {
    let stats = PtsStats::collect(a, module);
    format!(
        "sizes={:?} avg={:#x} max={} count={} cg={:?}",
        stats.sizes,
        stats.avg.to_bits(),
        stats.max,
        stats.count,
        a.result.callgraph,
    )
}

/// Full render of a cell: both views plus the emitted invariants.
fn cell_render(module: &Module, r: &KaleidoscopeResult) -> String {
    format!(
        "cfg={} opt=[{}] fall=[{}] inv={:?}",
        r.config.name(),
        view_render(module, &r.optimistic),
        view_render(module, &r.fallback),
        r.invariants,
    )
}

/// The tier a fault kind must land the cell on.
fn expected_tier(kind: FaultKind) -> DegradedTier {
    match kind {
        FaultKind::FallbackBudget => DegradedTier::Steensgaard,
        _ => DegradedTier::Fallback,
    }
}

/// Run a faulted matrix against a fault-free reference and check the
/// acceptance property cell by cell.
fn check_plan(plan: &FaultPlan, jobs: usize) {
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<&Module> = models.iter().map(|m| &m.module).collect();
    let configs = PolicyConfig::table3_order();

    let faulted = Executor::with_jobs(jobs)
        .with_faults(plan.clone())
        .run_matrix(&modules, &configs);
    let clean = Executor::with_jobs(jobs).run_matrix(&modules, &configs);

    assert_eq!(faulted.len(), modules.len(), "matrix always completes");
    for (mi, (frow, crow)) in faulted.iter().zip(&clean).enumerate() {
        assert_eq!(frow.len(), configs.len());
        for (ci, (fr, cr)) in frow.iter().zip(crow).enumerate() {
            match plan.fault_at(mi, ci) {
                None => {
                    assert_eq!(fr.health, CellHealth::Healthy);
                    assert_eq!(
                        cell_render(modules[mi], fr),
                        cell_render(modules[mi], cr),
                        "healthy cell ({}, {}) affected by faults elsewhere",
                        models[mi].name,
                        configs[ci].name()
                    );
                }
                Some(kind) => {
                    let CellHealth::Degraded { tier, reason } = &fr.health else {
                        panic!(
                            "faulted cell ({}, {}) reported healthy",
                            models[mi].name,
                            configs[ci].name()
                        );
                    };
                    assert_eq!(*tier, expected_tier(kind), "{kind:?}: {reason}");
                    assert!(fr.invariants.is_empty());
                    // Degraded artifacts are byte-identical to the genuine
                    // lower-tier output.
                    let genuine = match tier {
                        DegradedTier::Fallback => view_render(modules[mi], &cr.fallback),
                        DegradedTier::Steensgaard => {
                            view_render(modules[mi], &steens_analysis(modules[mi]))
                        }
                    };
                    assert_eq!(view_render(modules[mi], &fr.optimistic), genuine);
                    assert_eq!(view_render(modules[mi], &fr.fallback), genuine);
                }
            }
        }
    }
}

#[test]
fn acceptance_panic_budget_and_corruption_in_three_cells() {
    let plan = FaultPlan::new()
        .inject(1, 2, FaultKind::CellPanic)
        .inject(4, 5, FaultKind::OptimisticBudget)
        .inject(7, 3, FaultKind::CacheCorruption);
    check_plan(&plan, 4);
}

#[test]
fn fallback_budget_fault_reaches_the_steensgaard_rung() {
    let plan = FaultPlan::new().inject(2, 6, FaultKind::FallbackBudget);
    check_plan(&plan, 2);
}

#[test]
fn faulted_runs_are_deterministic() {
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<&Module> = models.iter().map(|m| &m.module).collect();
    let configs = PolicyConfig::table3_order();
    let plan = FaultPlan::seeded(0xC0FFEE, modules.len(), configs.len(), 4);
    let render = |ex: &Executor| {
        ex.run_matrix_map(&modules, &configs, |mi, _, r| {
            format!("{} {}", cell_render(modules[mi], r), r.health)
        })
    };
    let a = render(&Executor::with_jobs(4).with_faults(plan.clone()));
    let b = render(&Executor::with_jobs(2).with_faults(plan.clone()));
    let c = render(&Executor::serial().with_faults(plan));
    assert_eq!(a, b, "fault outcome independent of worker count");
    assert_eq!(a, c, "fault outcome identical on one worker");
}

/// Seed matrix for CI: `KD_FAULT_SEEDS=1,2,3` runs one plan per seed.
/// Defaults to a single seed so the local `cargo test` stays quick.
#[test]
fn seeded_plans_uphold_the_acceptance_property() {
    let seeds: Vec<u64> = std::env::var("KD_FAULT_SEEDS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![0x5EED]);
    for seed in seeds {
        let plan = FaultPlan::seeded(seed, 9, 8, 4);
        assert_eq!(plan.len(), 4);
        check_plan(&plan, 3);
    }
}

/// A cell that panics before it fetches anything degrades to the fallback
/// rung, which then solves the module's baseline. That solve publishes its
/// snapshot like every other one, so each effective key of the matrix
/// leaves one snapshot for the next revision's warm start. TinyDTLS has no
/// pointer arithmetic, so PA cannot act and its eight configurations
/// reduce to four keys: Baseline, Kd-Ctx, Kd-PWC and Kd-Ctx-PWC.
#[test]
fn a_panicking_first_cell_still_publishes_the_baseline_snapshot() {
    let dir = std::env::temp_dir().join(format!("kd-fault-publish-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DiskCache::open(&dir).expect("open store"));
    let module = kaleidoscope_apps::model("TinyDTLS")
        .expect("bundled model")
        .module;
    let configs = PolicyConfig::table3_order();
    let out = Executor::serial()
        .with_state_store(Arc::clone(&store))
        .with_faults(FaultPlan::new().inject(0, 0, FaultKind::CellPanic))
        .run_matrix(&[&module], &configs);
    assert!(out[0][0].health.is_degraded());
    assert!(out[0][1..].iter().all(|r| !r.health.is_degraded()));

    let fp = module.fingerprint();
    let published: Vec<&str> = configs
        .iter()
        .filter(|c| {
            let key = SolveOptions::optimistic(c.pa, c.pwc).cache_key();
            store.get_state(fp, key, c.ctx).is_some()
        })
        .map(|c| c.name())
        .collect();
    assert_eq!(
        published,
        ["Baseline", "Kd-Ctx", "Kd-PWC", "Kd-Ctx-PWC"],
        "one snapshot per effective key"
    );
    let files = std::fs::read_dir(dir.join("state"))
        .expect("state dir")
        .count();
    assert_eq!(files, 4, "no snapshot besides the effective keys'");
    let _ = std::fs::remove_dir_all(&dir);
}
