//! Benchmarks the `kaleidoscope-exec` matrix executor: the full
//! 9 apps × 8 configs analysis matrix run serially (legacy path, two
//! solves per cell) and on the pool (one solve per effective key). Writes
//! a `BENCH_executor.json` snapshot to the repository root so the
//! performance trajectory is tracked across changes, and exits non-zero
//! if any cell degraded.

use kaleidoscope::{CellHealth, PolicyConfig};
use kaleidoscope_bench::jobs_from_args;
use kaleidoscope_bench::timing::{bench, to_json_with_counters};
use kaleidoscope_exec::Executor;
use kaleidoscope_pta::PtsStats;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<_> = models.iter().map(|m| &m.module).collect();
    let configs = PolicyConfig::table3_order();
    // At least two workers even on a single-CPU host, so the pooled path
    // (not the legacy serial fallback) is what gets measured.
    let jobs = match jobs_from_args() {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2),
        n => n.max(2),
    };
    println!(
        "executor matrix benchmarks ({} apps x {} configs, {jobs} workers)",
        modules.len(),
        configs.len()
    );

    // Reduce each cell to its stats inside the worker so the benchmark
    // measures analysis, not result cloning. Degraded cells are counted on
    // the side: a nonzero count means some cell fell down the fault-domain
    // ladder during the measured runs, and fails the bench.
    let degraded = AtomicU64::new(0);
    let run = |ex: &Executor| {
        ex.run_matrix_map(&modules, &configs, |mi, _, r| {
            if r.health != CellHealth::Healthy {
                degraded.fetch_add(1, Ordering::Relaxed);
            }
            PtsStats::collect(&r.optimistic, modules[mi]).avg
        })
    };

    let samples = [
        bench("executor/matrix_serial_legacy", 3, || {
            let _ = run(&Executor::serial());
        }),
        bench("executor/matrix_parallel_cold", 3, || {
            let _ = run(&Executor::with_jobs(jobs));
        }),
    ];
    println!(
        "speedup vs serial: {:<32} {:>6.2}x",
        samples[1].label,
        samples[0].median_ms / samples[1].median_ms
    );
    let degraded = degraded.load(Ordering::Relaxed);
    println!("degraded cells across all runs: {degraded}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json");
    std::fs::write(
        path,
        to_json_with_counters(&samples, &[("degraded_cells", degraded)]),
    )
    .expect("write BENCH_executor.json");
    println!("wrote {path}");
    if degraded > 0 {
        eprintln!("error: {degraded} degraded cells; a healthy matrix degrades none");
        std::process::exit(1);
    }
}
