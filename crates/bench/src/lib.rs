//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` prints one artifact:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table2` | Table 2 — application list and LoC |
//! | `table3` | Table 3 — average/maximum points-to set sizes per config |
//! | `table4` | Table 4 — benchmark branch/monitor coverage |
//! | `table5` | Table 5 — fuzzing branch/monitor coverage |
//! | `fig1`   | Figure 1 — static vs runtime-observed callsite targets |
//! | `fig10`  | Figure 10 — points-to set size distributions (box stats) |
//! | `fig11`  | Figure 11 — average CFI targets per config |
//! | `fig12`  | Figure 12 — CFI target distributions (box stats) |
//! | `fig13`  | Figure 13 — throughput of hardened applications |
//!
//! All binaries print aligned plain-text tables plus a `CSV:`-prefixed
//! machine-readable block, and are deterministic.

pub mod html;
pub mod timing;

use kaleidoscope::{analyze, CellHealth, KaleidoscopeResult, PolicyConfig};
use kaleidoscope_apps::AppModel;
use kaleidoscope_cfi::CfiPolicy;
use kaleidoscope_exec::Executor;
use kaleidoscope_pta::PtsStats;
use kaleidoscope_runtime::ViewKind;

/// One application analyzed under one policy configuration.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// The configuration.
    pub config: PolicyConfig,
    /// Points-to statistics of the *effective* (optimistic) view.
    pub stats: PtsStats,
    /// CFI target counts per indirect callsite under the optimistic view.
    pub cfi_counts: Vec<usize>,
    /// Number of likely invariants emitted.
    pub invariants: usize,
    /// Whether the executor served this cell healthy or degraded it down
    /// the fault-domain ladder (fallback / Steensgaard tier).
    pub health: CellHealth,
}

/// Reduce one finished analysis to the statistics the tables print.
pub fn config_run(model: &AppModel, result: &KaleidoscopeResult) -> ConfigRun {
    let stats = PtsStats::collect(&result.optimistic, &model.module);
    let policy = CfiPolicy::from_result(result);
    let mut cfi_counts = policy.target_counts(ViewKind::Optimistic);
    cfi_counts.sort_unstable();
    ConfigRun {
        config: result.config,
        stats,
        cfi_counts,
        invariants: result.invariants.len(),
        health: result.health.clone(),
    }
}

/// Count the degraded cells in a [`run_matrix`] result.
pub fn degraded_cells(matrix: &[Vec<ConfigRun>]) -> usize {
    matrix
        .iter()
        .flatten()
        .filter(|r| r.health.is_degraded())
        .count()
}

/// Analyze one app under one configuration (legacy serial path).
pub fn run_config(model: &AppModel, config: PolicyConfig) -> (KaleidoscopeResult, ConfigRun) {
    let result = analyze(&model.module, config);
    let run = config_run(model, &result);
    (result, run)
}

/// Analyze every model under all eight Table 3 configurations through the
/// batch executor: `out[m][c]` for `models[m]` under config `c`. Results
/// are identical to [`run_config`] per cell regardless of the executor's
/// worker count.
pub fn run_matrix(ex: &Executor, models: &[AppModel]) -> Vec<Vec<ConfigRun>> {
    let modules: Vec<_> = models.iter().map(|m| &m.module).collect();
    ex.run_matrix_map(&modules, &PolicyConfig::table3_order(), |mi, _, r| {
        config_run(&models[mi], r)
    })
}

/// Parse `--jobs N` / `--jobs=N` from the process arguments. Returns `0`
/// (executor default: available parallelism) when absent; exits with a
/// usage message on a malformed value.
pub fn jobs_from_args() -> usize {
    let mut argv = std::env::args().skip(1);
    let bad = |v: &str| -> ! {
        eprintln!("--jobs needs a positive integer, got `{v}`");
        std::process::exit(2);
    };
    while let Some(a) = argv.next() {
        if a == "--jobs" {
            let v = argv.next().unwrap_or_else(|| bad("nothing"));
            return v.parse().unwrap_or_else(|_| bad(&v));
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().unwrap_or_else(|_| bad(v));
        }
    }
    0
}

/// The executor every bench binary schedules onto, honouring `--jobs N`
/// (`--jobs 1` forces the legacy serial path for A/B comparison).
pub fn executor_from_args() -> Executor {
    Executor::with_jobs(jobs_from_args())
}

/// Mean of a count vector (0 for empty).
pub fn mean(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        0.0
    } else {
        counts.iter().sum::<usize>() as f64 / counts.len() as f64
    }
}

/// Five-number summary (min, q1, median, q3, max) of a sorted count vector.
pub fn five_num(sorted: &[usize]) -> (f64, f64, f64, f64, f64) {
    use kaleidoscope_pta::stats::percentile;
    if sorted.is_empty() {
        return (0.0, 0.0, 0.0, 0.0, 0.0);
    }
    (
        sorted[0] as f64,
        percentile(sorted, 0.25),
        percentile(sorted, 0.5),
        percentile(sorted, 0.75),
        *sorted.last().expect("non-empty") as f64,
    )
}

/// Render one row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        out.push_str(&format!("{c:>w$} "));
    }
    out.trim_end().to_string()
}

/// An ASCII box-plot line: `min |--[q1 med q3]--| max`, scaled to `width`.
pub fn ascii_box(five: (f64, f64, f64, f64, f64), maxval: f64, width: usize) -> String {
    let (min, q1, med, q3, max) = five;
    if maxval <= 0.0 {
        return " ".repeat(width);
    }
    let pos = |v: f64| ((v / maxval) * (width.saturating_sub(1)) as f64).round() as usize;
    let mut chars: Vec<char> = vec![' '; width];
    let (pmin, pq1, pmed, pq3, pmax) = (pos(min), pos(q1), pos(med), pos(q3), pos(max));
    for c in chars.iter_mut().take(pmax.min(width - 1) + 1).skip(pmin) {
        *c = '-';
    }
    for c in chars.iter_mut().take(pq3.min(width - 1) + 1).skip(pq1) {
        *c = '=';
    }
    if pmin < width {
        chars[pmin] = '|';
    }
    if pmax < width {
        chars[pmax] = '|';
    }
    if pmed < width {
        chars[pmed] = '#';
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_five_num() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
        let f = five_num(&[1, 2, 3, 4, 5]);
        assert_eq!(f, (1.0, 2.0, 3.0, 4.0, 5.0));
        assert_eq!(five_num(&[]), (0.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a   bb");
    }

    #[test]
    fn ascii_box_shapes() {
        let s = ascii_box((0.0, 1.0, 2.0, 3.0, 4.0), 4.0, 21);
        assert_eq!(s.len(), 21);
        assert!(s.contains('#'));
        assert!(s.starts_with('|'));
        let blank = ascii_box((0.0, 0.0, 0.0, 0.0, 0.0), 0.0, 5);
        assert_eq!(blank, "     ");
    }

    #[test]
    fn run_config_on_small_app() {
        let model = kaleidoscope_apps::model("TinyDTLS").unwrap();
        let (_result, run) = run_config(&model, PolicyConfig::none());
        assert_eq!(run.config.name(), "Baseline");
        assert!(run.stats.count > 0);
        assert!(!run.cfi_counts.is_empty());
        assert_eq!(run.invariants, 0);
    }
}
