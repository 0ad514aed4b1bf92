//! Each distinct configuration is solved once: a cell is answered by the
//! artifact of its effective key, its configuration without the
//! invariants that cannot act on the module (see the crate docs). These
//! tests pin how many solves a matrix runs, twice: as the distinct
//! artifacts its cells hold, and as the solves it attempts. With a state
//! store and a named previous revision, each attempt looks the revision's
//! snapshot up once, so `state_lookups` counts attempts.

use std::collections::HashSet;
use std::sync::Arc;

use kaleidoscope::{KaleidoscopeResult, PolicyConfig};
use kaleidoscope_exec::{
    analyze_request, AnalyzeRequest, CacheDisposition, DiskCache, Executor, ModuleSource,
};
use kaleidoscope_fuzz::scale;
use kaleidoscope_ir::Module;

/// Distinct solve artifacts the cells of `row` hold, either view.
fn solves(row: &[KaleidoscopeResult]) -> usize {
    row.iter()
        .flat_map(|r| [Arc::as_ptr(&r.fallback), Arc::as_ptr(&r.optimistic)])
        .collect::<HashSet<_>>()
        .len()
}

/// The solves one executor attempts over the matrix of `module` under
/// `configs`, counted by the snapshot lookups it makes.
fn attempts(module: &Module, configs: &[PolicyConfig], jobs: usize) -> u64 {
    let dir = std::env::temp_dir().join(format!(
        "kd-attempts-{:016x}-{}-{jobs}-{}",
        module.fingerprint(),
        configs.len(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DiskCache::open(&dir).expect("open store"));
    Executor::with_jobs(jobs)
        .with_state_store(Arc::clone(&store))
        .with_previous_revision(0xDEAD_BEEF, module.fingerprint(), None)
        .run_matrix(&[module], configs);
    let _ = std::fs::remove_dir_all(&dir);
    store.stats().state_lookups
}

fn model(name: &str) -> Module {
    kaleidoscope_apps::model(name)
        .expect("bundled model")
        .module
}

#[test]
fn the_model_matrix_runs_54_solves() {
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<&Module> = models.iter().map(|m| &m.module).collect();
    for jobs in [2, 4] {
        let ex = Executor::with_jobs(jobs);
        let out = ex.run_matrix(&modules, &PolicyConfig::table3_order());
        let per_model: Vec<(&str, usize)> = models
            .iter()
            .zip(&out)
            .map(|(m, row)| (m.name, solves(row)))
            .collect();
        // PA cannot act on TinyDTLS (no pointer arithmetic), Ctx not on
        // Wget (an empty context plan), PWC not on Curl, Lighttpd or Wget
        // (no Field-Of constraint degrades).
        assert_eq!(
            per_model,
            [
                ("MbedTLS", 8),
                ("Libtiff", 8),
                ("Curl", 4),
                ("Lighttpd", 4),
                ("Memcached", 8),
                ("LibPNG", 8),
                ("Libxml", 8),
                ("Wget", 2),
                ("TinyDTLS", 4),
            ],
            "jobs {jobs}"
        );
        assert_eq!(per_model.iter().map(|(_, n)| n).sum::<usize>(), 54);
        // Each artifact is solved once: no key is attempted twice.
        let attempted: Vec<(&str, usize)> = models
            .iter()
            .map(|m| {
                (
                    m.name,
                    attempts(&m.module, &PolicyConfig::table3_order(), jobs) as usize,
                )
            })
            .collect();
        assert_eq!(attempted, per_model, "jobs {jobs}");
    }
}

#[test]
fn a_scale_matrix_runs_one_solve() {
    for seed in [1u64, 7] {
        let m = scale::corpus_module(seed, 3_000);
        let out = Executor::with_jobs(2).run_matrix(&[&m], &PolicyConfig::table3_order());
        assert_eq!(solves(&out[0]), 1, "scale-{seed}");
        assert_eq!(
            attempts(&m, &PolicyConfig::table3_order(), 2),
            1,
            "scale-{seed}"
        );
    }
}

#[test]
fn config_all_runs_two_solves_on_mbedtls_and_one_on_a_scale_corpus() {
    let all = [PolicyConfig::all()];
    let mbedtls = model("MbedTLS");
    // The `Kd-Ctx-PA` solve that would witness PWC is not requested, so
    // PWC stays in the key.
    let out = Executor::with_jobs(2).run_matrix(&[&mbedtls], &all);
    assert_eq!(solves(&out[0]), 2);
    assert_eq!(attempts(&mbedtls, &all, 2), 2);
    let corpus = scale::corpus_module(1, 3_000);
    let out = Executor::with_jobs(2).run_matrix(&[&corpus], &all);
    assert_eq!(solves(&out[0]), 1);
}

/// A cold full-matrix request publishes one snapshot per effective key.
#[test]
fn a_cold_request_publishes_one_snapshot_per_effective_key() {
    for (name, module, snapshots) in [
        ("scale-1", scale::corpus_module(1, 3_000), 1),
        ("MbedTLS", model("MbedTLS"), 8),
        ("TinyDTLS", model("TinyDTLS"), 4),
    ] {
        let dir = std::env::temp_dir().join(format!("kd-effective-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskCache::open(&dir).expect("open store"));
        let text = module.to_text();
        let req = AnalyzeRequest {
            module: ModuleSource::Text(&text),
            config: None,
            stats: false,
            budget: None,
            jobs: 2,
            prev_fingerprint: None,
            tenant: None,
        };
        let answer = analyze_request(&req, Some(&store)).expect("analyze");
        assert_eq!(answer.cache, CacheDisposition::Stored);
        let files = std::fs::read_dir(dir.join("state"))
            .expect("state dir")
            .count();
        assert_eq!(files, snapshots, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
