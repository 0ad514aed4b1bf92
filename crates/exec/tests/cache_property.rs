//! Executor-correctness property: a cell the executor answers from the
//! solve of its effective key is indistinguishable from a fresh solve.
//!
//! Random `(module, config)` cells are run through one shared executor
//! and compared against a plain `kaleidoscope::analyze` of the same cell.

use kaleidoscope::{analyze, KaleidoscopeResult, PolicyConfig};
use kaleidoscope_cfi::CfiPolicy;
use kaleidoscope_exec::Executor;
use kaleidoscope_ir::Module;
use kaleidoscope_prng::{check, Rng};
use kaleidoscope_pta::PtsStats;
use kaleidoscope_runtime::ViewKind;

fn cell_summary(module: &Module, r: &KaleidoscopeResult) -> String {
    let stats = PtsStats::collect(&r.optimistic, module);
    let fall = PtsStats::collect(&r.fallback, module);
    let policy = CfiPolicy::from_result(r);
    let mut cfi_opt = policy.target_counts(ViewKind::Optimistic);
    cfi_opt.sort_unstable();
    format!(
        "cfg={} sizes={:?} fall_sizes={:?} cfi_opt={:?} inv={:?}",
        r.config.name(),
        stats.sizes,
        fall.sizes,
        cfi_opt,
        r.invariants,
    )
}

fn random_config(rng: &mut Rng) -> PolicyConfig {
    PolicyConfig {
        ctx: rng.gen_bool(0.5),
        pa: rng.gen_bool(0.5),
        pwc: rng.gen_bool(0.5),
    }
}

#[test]
fn cached_artifact_equals_fresh_solve() {
    let models = kaleidoscope_apps::all_models();
    let ex = Executor::with_jobs(4);
    check(48, 0xca11e, |rng| {
        let model = &models[rng.gen_range(0..models.len())];
        let config = random_config(rng);
        let cached = ex.run_one(&model.module, config);
        let fresh = analyze(&model.module, config);
        assert_eq!(
            cell_summary(&model.module, &cached),
            cell_summary(&model.module, &fresh),
            "{} under {}",
            model.name,
            config.name()
        );
    });
}

#[test]
fn content_addressing_survives_rebuilt_modules() {
    // The stress model is rebuilt from scratch per call; identical scale
    // must give identical cells.
    let ex = Executor::with_jobs(2);
    check(16, 0x5ca1e, |rng| {
        let scale = rng.gen_range(1usize..4);
        let a = kaleidoscope_apps::stress_model(scale);
        let b = kaleidoscope_apps::stress_model(scale);
        let config = random_config(rng);
        let first = ex.run_one(&a, config);
        let second = ex.run_one(&b, config);
        assert_eq!(cell_summary(&a, &first), cell_summary(&b, &second));
        assert_eq!(
            cell_summary(&b, &second),
            cell_summary(&b, &analyze(&b, config))
        );
    });
}
