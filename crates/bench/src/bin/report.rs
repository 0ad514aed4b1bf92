//! Generates a single self-contained HTML dashboard with the core
//! evaluation artifacts (Tables 2/3, Figures 10/11/12) so the whole
//! reproduction can be browsed offline.
//!
//! ```sh
//! cargo run --release -p kaleidoscope-bench --bin report
//! # → target/kaleidoscope-report.html
//! ```

use std::time::Instant;

use kaleidoscope::{CellHealth, PolicyConfig};
use kaleidoscope_bench::html::Report;
use kaleidoscope_bench::{executor_from_args, five_num, mean, run_matrix, ConfigRun};
use kaleidoscope_exec::Executor;
use kaleidoscope_pta::{Analysis, SolveOptions};

fn main() {
    let mut report = Report::new("Kaleidoscope reproduction — evaluation dashboard");
    report.paragraph(
        "Regenerated from the synthetic application models; absolute numbers are \
         model-scale, the paper-vs-ours comparison lives in EXPERIMENTS.md.",
    );

    // Table 2.
    let models = kaleidoscope_apps::all_models();
    report.heading("Table 2 — applications");
    report.table(
        "Applications and model sizes",
        vec![
            "Application".into(),
            "Description".into(),
            "Paper LoC".into(),
            "Model LoC".into(),
            "Funcs".into(),
        ],
        models
            .iter()
            .map(|m| {
                vec![
                    m.name.to_string(),
                    m.description.to_string(),
                    m.paper_loc.to_string(),
                    m.model_loc().to_string(),
                    m.module.funcs.len().to_string(),
                ]
            })
            .collect(),
    );

    // Analyze everything once, through the batch executor, measuring the
    // wall-clock speedup over the legacy serial path while at it.
    let t = Instant::now();
    let runs = run_matrix(&executor_from_args(), &models);
    let body_ms = t.elapsed().as_secs_f64() * 1000.0;
    let all: Vec<(String, Vec<ConfigRun>)> = models
        .iter()
        .map(|m| m.name.to_string())
        .zip(runs)
        .collect();
    let config_names: Vec<String> = PolicyConfig::table3_order()
        .iter()
        .map(|c| c.name().to_string())
        .collect();

    // Table 3.
    report.heading("Table 3 — points-to set sizes");
    let mut header = vec!["Application".to_string()];
    header.extend(config_names.iter().cloned());
    header.push("Factor".into());
    report.table(
        "Average points-to set size of top-level pointers",
        header,
        all.iter()
            .map(|(name, runs)| {
                let mut row = vec![name.clone()];
                row.extend(runs.iter().map(|r| format!("{:.2}", r.stats.avg)));
                row.push(format!("{:.2}", runs[0].stats.factor_over(&runs[7].stats)));
                row
            })
            .collect(),
    );
    report.grouped_bars(
        "Average points-to set size, Baseline vs full Kaleidoscope",
        all.iter()
            .map(|(name, runs)| {
                (
                    name.clone(),
                    vec![
                        ("Baseline".to_string(), runs[0].stats.avg),
                        ("Kaleidoscope".to_string(), runs[7].stats.avg),
                    ],
                )
            })
            .collect(),
    );

    // Figure 10 as box plots for the two extreme configs.
    report.heading("Figure 10 — points-to distributions");
    for (name, runs) in &all {
        report.box_plots(
            &format!("{name}: points-to set sizes per configuration"),
            runs.iter()
                .map(|r| (r.config.name().to_string(), five_num(&r.stats.sizes)))
                .collect(),
        );
    }

    // Figure 11.
    report.heading("Figure 11 — average CFI targets");
    report.grouped_bars(
        "Average CFI targets per indirect callsite",
        all.iter()
            .map(|(name, runs)| {
                (
                    name.clone(),
                    runs.iter()
                        .map(|r| (r.config.name().to_string(), mean(&r.cfi_counts)))
                        .collect(),
                )
            })
            .collect(),
    );

    // Figure 12.
    report.heading("Figure 12 — CFI target distributions");
    for (name, runs) in &all {
        report.box_plots(
            &format!("{name}: CFI targets per callsite"),
            runs.iter()
                .map(|r| (r.config.name().to_string(), five_num(&r.cfi_counts)))
                .collect(),
        );
    }

    // Fault-domain accounting: any cell the executor served degraded
    // (fallback or Steensgaard tier) is listed here; an all-healthy matrix
    // is the expected steady state.
    report.heading("Fault domains — degraded cells");
    let degraded_rows: Vec<Vec<String>> = all
        .iter()
        .flat_map(|(name, runs)| {
            runs.iter().filter_map(move |r| match &r.health {
                CellHealth::Healthy => None,
                CellHealth::Degraded { tier, reason } => Some(vec![
                    name.clone(),
                    r.config.name().to_string(),
                    tier.to_string(),
                    reason.clone(),
                ]),
            })
        })
        .collect();
    if degraded_rows.is_empty() {
        report.paragraph("All matrix cells healthy: no budget exhaustion or panics encountered.");
    } else {
        report.table(
            &format!("{} of 72 cells degraded", degraded_rows.len()),
            vec![
                "Application".into(),
                "Config".into(),
                "Tier".into(),
                "Reason".into(),
            ],
            degraded_rows,
        );
    }

    // Executor speedup: the legacy serial path (two solves per cell, 144
    // in all) vs the pooled executor, which solves each effective key of
    // a module once (54 solves). On a single-CPU host the parallel gain
    // is nil by construction, so the saved solves are the headline.
    report.heading("Parallel execution — kaleidoscope-exec");
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1000.0
    };
    let serial_ms = time(&|| {
        let ex = Executor::serial();
        let _ = run_matrix(&ex, &models);
    });
    let pool = Executor::with_jobs(executor_from_args().jobs().max(2));
    let pool_ms = time(&|| {
        let _ = run_matrix(&pool, &models);
    });
    let speedup_rows: Vec<Vec<String>> = [
        ("serial legacy (--jobs 1)", serial_ms),
        ("pooled executor", pool_ms),
    ]
    .iter()
    .map(|(label, ms)| {
        vec![
            label.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", serial_ms / ms),
        ]
    })
    .collect();
    report.table(
        &format!(
            "Full 9x8 analysis matrix wall clock ({} workers)",
            pool.jobs()
        ),
        vec!["Path".into(), "Wall ms".into(), "Speedup".into()],
        speedup_rows,
    );
    println!("report body matrix: {body_ms:.1} ms");
    println!(
        "executor speedup over serial legacy ({} workers): {:.2}x ({pool_ms:.1} ms vs {serial_ms:.1} ms serial)",
        pool.jobs(),
        serial_ms / pool_ms,
    );

    // Solver hot path: the per-solve cost counters behind BENCH_solver.json,
    // so representation regressions show up in the dashboard artifact too.
    report.heading("Solver hot path — per-solve cost counters");
    let mut solver_rows = Vec::new();
    for (config_name, opts) in [
        ("baseline", SolveOptions::baseline()),
        ("optimistic", SolveOptions::optimistic(true, true)),
    ] {
        for m in &models {
            let a = Analysis::run(&m.module, &opts);
            let s = &a.result.stats;
            solver_rows.push(vec![
                format!("{}/{}", config_name, m.name),
                s.iterations.to_string(),
                s.scc_passes.to_string(),
                s.union_words.to_string(),
                format!("{:.1}", s.peak_pts_bytes as f64 / 1024.0),
                format!("{:.2}", s.duration.as_secs_f64() * 1000.0),
            ]);
        }
    }
    report.table(
        "SolveStats per model and configuration (hybrid bitset sets, topology-ordered worklist)",
        vec![
            "Solve".into(),
            "Pops".into(),
            "SCC passes".into(),
            "Union words".into(),
            "Peak pts KiB".into(),
            "Wall ms".into(),
        ],
        solver_rows,
    );

    let html = report.render();
    let path = std::path::Path::new("target").join("kaleidoscope-report.html");
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(&path, html).expect("write report");
    println!("wrote {}", path.display());
}
