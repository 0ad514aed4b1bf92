//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. **Cycle collapse** (the Hardekopf/Lin optimization): solver cost and
//!    precision with and without collapsing pure-copy cycles.
//! 2. **Heap-type inference** (paper §6): how many PA invariants become
//!    available when untyped allocation wrappers are retyped, and the
//!    precision effect.
//! 3. **Solver family**: Andersen's vs. Steensgaard (precision/cost).
//! 4. **Scaling**: full-pipeline time on the parameterized stress model.

use std::time::Instant;

use kaleidoscope::{analyze, infer_heap_types, PolicyConfig};
use kaleidoscope_bench::row;
use kaleidoscope_pta::{steens_analysis, Analysis, PtsStats, SolveOptions};

fn main() {
    let widths = [11usize, 26, 11, 10, 10];
    println!("Ablation study");
    println!(
        "{}",
        row(
            &[
                "App".into(),
                "Variant".into(),
                "avg-pts".into(),
                "max-pts".into(),
                "time-ms".into(),
            ],
            &widths
        )
    );
    for model in kaleidoscope_apps::all_models() {
        // 1. Cycle collapse on/off (baseline analysis).
        for (name, collapse) in [("collapse=on", true), ("collapse=off", false)] {
            let opts = SolveOptions {
                collapse_cycles: collapse,
                ..SolveOptions::baseline()
            };
            let t = Instant::now();
            let a = Analysis::run(&model.module, &opts);
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            let s = PtsStats::collect(&a, &model.module);
            println!(
                "{}",
                row(
                    &[
                        model.name.into(),
                        format!("andersen {name}"),
                        format!("{:.2}", s.avg),
                        s.max.to_string(),
                        format!("{ms:.1}"),
                    ],
                    &widths
                )
            );
        }
        // 2. Heap-type inference on/off (full Kaleidoscope).
        for (name, infer) in [("heap-infer=off", false), ("heap-infer=on", true)] {
            let mut module = model.module.clone();
            let mut typed = 0usize;
            if infer {
                typed = infer_heap_types(&mut module).typed.len();
            }
            let t = Instant::now();
            let r = analyze(&module, PolicyConfig::all());
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            let s = PtsStats::collect(&r.optimistic, &module);
            println!(
                "{}",
                row(
                    &[
                        model.name.into(),
                        format!("kd {name} (typed {typed}, inv {})", r.invariants.len()),
                        format!("{:.2}", s.avg),
                        s.max.to_string(),
                        format!("{ms:.1}"),
                    ],
                    &widths
                )
            );
        }
        // 3. Steensgaard.
        let t = Instant::now();
        let st = steens_analysis(&model.module);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        let s = PtsStats::collect(&st, &model.module);
        println!(
            "{}",
            row(
                &[
                    model.name.into(),
                    "steensgaard".into(),
                    format!("{:.2}", s.avg),
                    s.max.to_string(),
                    format!("{ms:.1}"),
                ],
                &widths
            )
        );
    }
    // 4. Scaling on the stress model.
    println!();
    println!("Full-pipeline scaling (stress model)");
    println!(
        "{}",
        row(
            &["scale".into(), "insts".into(), "time-ms".into()],
            &[7, 9, 10]
        )
    );
    for scale in [1usize, 2, 4, 8, 16] {
        let module = kaleidoscope_apps::stress_model(scale);
        let t = Instant::now();
        let _ = analyze(&module, PolicyConfig::all());
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        println!(
            "{}",
            row(
                &[
                    scale.to_string(),
                    module.inst_count().to_string(),
                    format!("{ms:.1}"),
                ],
                &[7, 9, 10]
            )
        );
    }
}
