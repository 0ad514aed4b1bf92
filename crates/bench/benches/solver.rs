//! Micro-benchmarks for the pointer-analysis solver hot path: one baseline
//! and one fully-optimistic Andersen solve per application model, plus
//! Steensgaard on the two largest models as the fast/imprecise reference,
//! and constraint generation on the `scale` corpora (`gen/*`).
//!
//! Uses the in-repo harness in `kaleidoscope_bench::timing` (criterion is
//! unavailable offline). A counting global allocator measures the heap
//! traffic of the propagation loop — the quantity the hybrid-bitset /
//! delta-buffer work drives down — and the solver's own `SolveStats`
//! counters (worklist pops, union words) are reported next to wall clock.
//!
//! Writes `BENCH_solver.json` (workspace root when run via `cargo bench`,
//! else cwd). `--smoke` runs one iteration per case so CI can keep the
//! binary from bit-rotting without paying for a full measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kaleidoscope_bench::timing::{bench, Sample};
use kaleidoscope_ir::Module;
use kaleidoscope_pta::gen::{generate, stored_or_generated, Program};
use kaleidoscope_pta::{
    steensgaard, Analysis, ModuleBlocks, NullObserver, SolveOptions, WarmStart,
};

/// System allocator wrapped with monotonic allocation counters, so a bench
/// case can report "bytes allocated per solve" — a direct, variance-free
/// proxy for the `Vec` churn in the propagation loop.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOC_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation traffic of one closure run.
fn alloc_traffic(f: impl FnOnce()) -> (u64, u64) {
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let c0 = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    (
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
        ALLOC_CALLS.load(Ordering::Relaxed) - c0,
    )
}

struct Case {
    sample: Sample,
    alloc_bytes: u64,
    alloc_calls: u64,
    pops: usize,
    union_words: u64,
    peak_pts_bytes: usize,
    seeded_nodes: usize,
    total_nodes: usize,
}

fn json(cases: &[Case]) -> String {
    let mut out = String::from("{\n  \"bench\": \"solver\",\n  \"samples\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"min_ms\": {:.4}, \"median_ms\": {:.4}, \"mean_ms\": {:.4}, \
             \"iters\": {}, \"alloc_bytes\": {}, \"alloc_calls\": {}, \"pops\": {}, \
             \"union_words\": {}, \"peak_pts_bytes\": {}, \"seeded_nodes\": {}, \
             \"total_nodes\": {}}}{}\n",
            c.sample.label,
            c.sample.min_ms,
            c.sample.median_ms,
            c.sample.mean_ms,
            c.sample.iters,
            c.alloc_bytes,
            c.alloc_calls,
            c.pops,
            c.union_words,
            c.peak_pts_bytes,
            c.seeded_nodes,
            c.total_nodes,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 1 } else { 20 };
    println!(
        "solver micro-benchmarks ({} iters/case{})",
        iters,
        if smoke { ", smoke" } else { "" }
    );

    let mut cases = Vec::new();
    let models = kaleidoscope_apps::all_models();
    for (config_name, opts) in [
        ("baseline", SolveOptions::baseline()),
        ("optimistic", SolveOptions::optimistic(true, true)),
    ] {
        for m in &models {
            let label = format!("solver/{config_name}/{}", m.name);
            let sample = bench(&label, iters, || {
                let _ = Analysis::run(&m.module, &opts);
            });
            let mut stats = None;
            let (alloc_bytes, alloc_calls) = alloc_traffic(|| {
                stats = Some(Analysis::run(&m.module, &opts).result.stats);
            });
            let stats = stats.expect("solve ran");
            cases.push(Case {
                sample,
                alloc_bytes,
                alloc_calls,
                pops: stats.iterations,
                union_words: stats.union_words,
                peak_pts_bytes: stats.peak_pts_bytes,
                seeded_nodes: 0,
                total_nodes: stats.node_count,
            });
        }
    }

    // Scale: a deterministic ~100k-statement module from the fuzz scale
    // corpus, solved from scratch. The `t0` label suffix is kept so
    // `scripts/bench_guard.sh` keeps comparing against older baselines.
    let scale = kaleidoscope_fuzz::scale::corpus_module(0xca1e, 100_000);
    println!("scale corpus: {} statements", scale.inst_count());
    let scale_iters = if smoke { 1 } else { 5 };
    {
        let opts = SolveOptions::baseline();
        let sample = bench("solver/scale/andersen-100k/t0", scale_iters, || {
            let _ = Analysis::run(&scale, &opts);
        });
        let mut stats = None;
        let (alloc_bytes, alloc_calls) = alloc_traffic(|| {
            stats = Some(Analysis::run(&scale, &opts).result.stats);
        });
        let stats = stats.expect("solve ran");
        cases.push(Case {
            sample,
            alloc_bytes,
            alloc_calls,
            pops: stats.iterations,
            union_words: stats.union_words,
            peak_pts_bytes: stats.peak_pts_bytes,
            seeded_nodes: 0,
            total_nodes: stats.node_count,
        });
    }

    // Constraint generation: a corpus's plan-free program generated from
    // the IR, which a frontend load pays once per module, and one solve's
    // program cloned from that stored program, which every solve without
    // a context plan pays.
    {
        let mut program_case = |label: &str, make: &dyn Fn() -> Program| {
            let sample = bench(label, iters, || {
                let _ = make();
            });
            let mut total_nodes = 0;
            let (alloc_bytes, alloc_calls) = alloc_traffic(|| total_nodes = make().nodes.len());
            cases.push(Case {
                sample,
                alloc_bytes,
                alloc_calls,
                pops: 0,
                union_words: 0,
                peak_pts_bytes: 0,
                seeded_nodes: 0,
                total_nodes,
            });
        };
        for (tag, n) in [("3k", 3_000), ("10k", 10_000)] {
            let module = kaleidoscope_fuzz::scale::corpus_module(0xca1e, n);
            program_case(&format!("gen/scale-{tag}"), &|| generate(&module, None));
        }
        program_case("gen/scale-100k", &|| generate(&scale, None));
        let stored = ModuleBlocks::build(&scale);
        program_case("gen/scale-100k/clone", &|| {
            stored_or_generated(&scale, None, Some(&stored)).into_owned()
        });
    }

    // Incremental re-solve: a 1-function watch edit on the same 100k
    // corpus, warm-started from the pre-edit snapshot, vs solving the
    // edited module from scratch. The warm number is end-to-end honest:
    // it includes regenerating constraints for both revisions, the
    // constraint diff, the state restore, and the seeded propagation —
    // everything a watch daemon pays after the snapshot fetch.
    {
        let opts = SolveOptions::baseline();
        let mut edited = scale.clone();
        kaleidoscope_fuzz::edit::append_function(&mut edited, 0xca1e, 0);
        let (_, prev_state) = Analysis::try_run(
            &scale,
            &opts,
            None,
            None,
            None,
            Some(scale.fingerprint()),
            &mut NullObserver,
        )
        .expect("unbudgeted solve");
        let prev_state = prev_state.expect("converged solve captures a snapshot");
        let prev = WarmStart {
            module: Some(&scale),
            plan: None,
            blocks: None,
            state: &prev_state,
        };
        // The edited revision's fingerprint is computed once, outside the
        // timed region, as the executor does: it tags the new snapshot.
        let warm = |module: &Module, fp: u64| {
            Analysis::try_run(
                module,
                &opts,
                None,
                None,
                Some(prev),
                Some(fp),
                &mut NullObserver,
            )
            .expect("unbudgeted solve")
            .0
        };

        let sample = bench("solver/incr/andersen-100k/cold", scale_iters, || {
            let _ = Analysis::run(&edited, &opts);
        });
        let mut stats = None;
        let (alloc_bytes, alloc_calls) = alloc_traffic(|| {
            stats = Some(Analysis::run(&edited, &opts).result.stats);
        });
        let stats = stats.expect("solve ran");
        cases.push(Case {
            sample,
            alloc_bytes,
            alloc_calls,
            pops: stats.iterations,
            union_words: stats.union_words,
            peak_pts_bytes: stats.peak_pts_bytes,
            seeded_nodes: 0,
            total_nodes: stats.node_count,
        });

        let edited_fp = edited.fingerprint();
        let sample = bench("solver/incr/andersen-100k/warm-edit", scale_iters, || {
            let _ = warm(&edited, edited_fp);
        });
        let mut stats = None;
        let (alloc_bytes, alloc_calls) = alloc_traffic(|| {
            stats = Some(warm(&edited, edited_fp).result.stats);
        });
        let stats = stats.expect("solve ran");
        assert_eq!(stats.incr_fallback_full, 0, "append edit must warm-start");
        println!(
            "incr warm edit: {} seeded of {} nodes, {} pops",
            stats.incr_seeded_nodes, stats.node_count, stats.iterations
        );
        cases.push(Case {
            sample,
            alloc_bytes,
            alloc_calls,
            pops: stats.iterations,
            union_words: stats.union_words,
            peak_pts_bytes: stats.peak_pts_bytes,
            seeded_nodes: stats.incr_seeded_nodes,
            total_nodes: stats.node_count,
        });

        // Leaf edit: the new function reads shared state but publishes
        // nothing back into it — the common watch-mode shape. The seeded
        // propagation stays local to the new function, so this case shows
        // the ceiling of the warm start (vs the honest globally-rippling
        // `warm-edit` case above).
        let mut leaf_edited = scale.clone();
        kaleidoscope_fuzz::edit::append_leaf_function(&mut leaf_edited, 0xca1e, 1);
        let leaf_fp = leaf_edited.fingerprint();
        let sample = bench("solver/incr/andersen-100k/warm-leaf", scale_iters, || {
            let _ = warm(&leaf_edited, leaf_fp);
        });
        let mut stats = None;
        let (alloc_bytes, alloc_calls) = alloc_traffic(|| {
            stats = Some(warm(&leaf_edited, leaf_fp).result.stats);
        });
        let stats = stats.expect("solve ran");
        assert_eq!(stats.incr_fallback_full, 0, "leaf edit must warm-start");
        println!(
            "incr warm leaf: {} seeded of {} nodes, {} pops",
            stats.incr_seeded_nodes, stats.node_count, stats.iterations
        );
        cases.push(Case {
            sample,
            alloc_bytes,
            alloc_calls,
            pops: stats.iterations,
            union_words: stats.union_words,
            peak_pts_bytes: stats.peak_pts_bytes,
            seeded_nodes: stats.incr_seeded_nodes,
            total_nodes: stats.node_count,
        });
    }

    for name in ["MbedTLS", "TinyDTLS"] {
        let model = kaleidoscope_apps::model(name).expect("model");
        bench(&format!("solver/steensgaard/{name}"), iters, || {
            let _ = steensgaard(&model.module);
        });
    }

    let total_median: f64 = cases.iter().map(|c| c.sample.median_ms).sum();
    let total_bytes: u64 = cases.iter().map(|c| c.alloc_bytes).sum();
    println!(
        "total: {total_median:.1} ms median across {} cases, {:.1} MiB allocated",
        cases.len(),
        total_bytes as f64 / (1024.0 * 1024.0)
    );

    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
        std::fs::write(path, json(&cases)).expect("write BENCH_solver.json");
        println!("wrote BENCH_solver.json");
    }
}
