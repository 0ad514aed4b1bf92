//! `kdbench` command line. See the crate README.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use kaleidoscope_kdbench::json::{self, Json};
use kaleidoscope_kdbench::metrics::END_TO_END;
use kaleidoscope_kdbench::run::{self, Inputs, Options, Outcome};
use kaleidoscope_kdbench::stats;
use kaleidoscope_kdbench::workload::Workload;

const USAGE: &str = "\
kdbench — end-to-end and per-layer benchmark of kd analyze and kd serve

USAGE:
    kdbench [--workload <name>|all] [--seed <n>] [--seconds 20] [--trace 0|1]
    kdbench --calibrate <runs> [--workload <name>|all] [--seed <n>]
    kdbench --compare <results-a.json> <results-b.json>
    kdbench --print-golden

WORKLOADS:
    batch-matrix  serve-cold  serve-watch  serve-mixed  (default: all)

OPTIONS:
    --seed <n>       input seed (default 1, the golden seed)
    --seconds 20     the length of each measured loop, fixed by BENCHMARK.json's
                     run_seconds; any other value is refused
    --trace 0|1      0 = untraced run (end-to-end metrics), 1 = traced run
                     (per-layer metrics and a Chrome trace); default: both
    --calibrate <n>  run each workload n times on seeds seed..seed+n-1 and
                     print each end-to-end metric's median, IQR and spread
    --compare a b    compare two results files metric by metric
    --out <dir>      output directory (default $CARGO_TARGET_DIR/kdbench,
                     or target/kdbench)
    --print-golden   print golden.json for the current reference reports

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 only if every report was
correct.
";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    /// `None` runs both.
    trace: Option<bool>,
    calibrate: Option<usize>,
    compare: Option<(String, String)>,
    print_golden: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: run::GOLDEN_SEED,
        trace: None,
        calibrate: None,
        compare: None,
        print_golden: false,
        out: None,
    };
    fn value(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--workload" => {
                let v = value(&mut argv, &a)?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => args.seed = number(&value(&mut argv, &a)?, &a)?,
            "--seconds" => {
                let s: f64 = number(&value(&mut argv, &a)?, &a)?;
                if s != run::RUN_SECONDS {
                    return Err(format!(
                        "--seconds {s}: the run length is fixed at {} s (run_seconds in BENCHMARK.json)",
                        run::RUN_SECONDS
                    ));
                }
            }
            "--trace" => {
                args.trace = Some(match value(&mut argv, &a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--calibrate" => {
                let n: usize = number(&value(&mut argv, &a)?, &a)?;
                if n < 2 {
                    return Err("--calibrate needs at least 2 runs".into());
                }
                args.calibrate = Some(n);
            }
            "--compare" => {
                args.compare = Some((value(&mut argv, &a)?, value(&mut argv, &a)?));
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut argv, &a)?)),
            "--print-golden" => args.print_golden = true,
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn out_dir(args: &Args) -> PathBuf {
    args.out.clone().unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"))
            .join("kdbench")
    })
}

/// `{"<name>":{"value":v,"unit":u},...}` for a run's metrics.
fn metrics_json(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                json::num(*v),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one-line result that ends standard output.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(o)
    )
}

fn summary(o: &Outcome) -> String {
    let mut s = format!(
        "{} (seed {}, {}): {} attempted, {} failed, {}\n",
        o.workload.name(),
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        if o.correct { "correct" } else { "NOT CORRECT" }
    );
    for (m, v) in &o.metrics {
        let _ = writeln!(s, "  {:<28} {:>16.4} {}", m.name, v, m.unit);
    }
    for (k, v) in o.info.iter().filter(|(k, _)| !k.starts_with("calls.")) {
        let _ = writeln!(s, "  ({k} = {v:.4})");
    }
    for p in &o.problems {
        let _ = writeln!(s, "  problem: {p}");
    }
    s
}

fn outcome_json(o: &Outcome) -> String {
    let info: Vec<String> = o
        .info
        .iter()
        .map(|(k, v)| format!("{}:{}", json::quote(k), json::num(*v)))
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|p| json::quote(p)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"correct\":{},\
         \"metrics\":{},\"info\":{{{}}},\"problems\":[{}]}}",
        json::quote(o.workload.name()),
        o.seed,
        o.trace,
        o.attempted,
        o.failed,
        o.correct,
        metrics_json(o),
        info.join(","),
        problems.join(",")
    )
}

fn write_results(dir: &std::path::Path, outcomes: &[Outcome]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let runs: Vec<String> = outcomes.iter().map(outcome_json).collect();
    let doc = format!(
        "{{\"nproc\":{},\"runs\":[\n{}\n]}}\n",
        nproc(),
        runs.join(",\n")
    );
    let path = dir.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("kdbench: wrote {}", path.display());
    Ok(())
}

fn options(args: &Args, w: Workload, seed: u64, trace: bool) -> Result<Options, String> {
    Ok(Options {
        workload: w,
        seed,
        trace,
        out_dir: out_dir(args),
        kd: if w.served() {
            run::kd_path()?
        } else {
            PathBuf::new()
        },
    })
}

fn run_one(args: &Args, w: Workload, seed: u64, trace: bool) -> Result<Outcome, String> {
    let o = run::run(&options(args, w, seed, trace)?)?;
    eprint!("{}", summary(&o));
    println!("{}", result_line(&o));
    Ok(o)
}

fn main_run(args: &Args) -> Result<bool, String> {
    let traces: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        for &trace in &traces {
            outcomes.push(run_one(args, w, args.seed, trace)?);
        }
    }
    write_results(&out_dir(args), &outcomes)?;
    Ok(outcomes.iter().all(|o| o.correct))
}

fn main_calibrate(args: &Args, n: usize) -> Result<bool, String> {
    let mut outcomes = Vec::new();
    let mut table = format!(
        "calibration: {n} runs per workload, seeds {}..{}, {} s each, nproc {}\n\
         {:<14} {:<16} {:>12} {:>9} {:>9}\n",
        args.seed,
        args.seed + n as u64 - 1,
        run::RUN_SECONDS,
        nproc(),
        "workload",
        "metric",
        "median",
        "iqr",
        "max/min"
    );
    for &w in &args.workloads {
        let runs: Vec<Outcome> = (0..n as u64)
            .map(|i| run::run(&options(args, w, args.seed + i, false)?))
            .collect::<Result<_, _>>()?;
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|o| o.metrics.iter().find(|(x, _)| x.name == m.name))
                .map(|(_, v)| *v)
                .collect();
            let median = stats::median(&values).unwrap_or(0.0);
            let spread = values.iter().copied().fold(f64::MIN, f64::max)
                / values.iter().copied().fold(f64::MAX, f64::min)
                - 1.0;
            let _ = writeln!(
                table,
                "{:<14} {:<16} {:>12.4} {:>8.1}% {:>8.1}%",
                w.name(),
                m.name,
                median,
                stats::iqr_share(&values).unwrap_or(0.0) * 100.0,
                spread * 100.0
            );
        }
        for o in &runs {
            if !o.correct {
                eprint!("{}", summary(o));
            }
        }
        outcomes.extend(runs);
    }
    print!("{table}");
    write_results(&out_dir(args), &outcomes)?;
    Ok(outcomes.iter().all(|o| o.correct))
}

/// Per workload and end-to-end metric, the median over a results file's
/// untraced runs.
fn medians(doc: &Json) -> Vec<(String, String, f64)> {
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for run in doc.get("runs").and_then(Json::as_array).unwrap_or(&[]) {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let w = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, v) in run.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            let Some(x) = v.get("value").and_then(Json::as_f64) else {
                continue;
            };
            match values.iter_mut().find(|(a, b, _)| a == w && b == name) {
                Some((_, _, vs)) => vs.push(x),
                None => values.push((w.to_string(), name.clone(), vec![x])),
            }
        }
    }
    values
        .into_iter()
        .filter_map(|(w, m, v)| Some((w, m, stats::median(&v)?)))
        .collect()
}

fn main_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Json, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (da, db) = (read(a)?, read(b)?);
    let (na, nb) = (da.get("nproc"), db.get("nproc"));
    if na.is_none() || na != nb {
        return Err(format!(
            "refusing to compare: nproc {:?} in {a} vs {:?} in {b}",
            na.and_then(Json::as_f64),
            nb.and_then(Json::as_f64)
        ));
    }
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok());
    let bound = |name: &str| -> Option<f64> {
        bench
            .as_ref()?
            .get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let mb = medians(&db);
    let mut within = true;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (w, name, va) in medians(&da) {
        let Some((_, _, vb)) = mb.iter().find(|(x, y, _)| *x == w && *y == name) else {
            continue;
        };
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .is_some_and(|m| m.better == "higher");
        let worse = if va == 0.0 {
            0.0
        } else if higher {
            (va - vb) / va
        } else {
            (vb - va) / va
        };
        let b = bound(&name);
        let flag = match b {
            Some(b) if worse > b => {
                within = false;
                "  REGRESSION"
            }
            _ => "",
        };
        println!(
            "{:<14} {:<16} {:>12.4} {:>12.4} {:>7.1}% {:>6}{flag}",
            w,
            name,
            va,
            vb,
            worse * 100.0,
            b.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0))
        );
    }
    Ok(within)
}

fn main_print_golden() {
    let mut digests = Vec::new();
    for w in Workload::ALL {
        let refs = Inputs::new(w, run::GOLDEN_SEED).references();
        digests.push(format!(
            "    {}: {}",
            json::quote(w.name()),
            json::quote(&run::digest(&refs))
        ));
    }
    println!(
        "{{\n  \"seed\": {},\n  \"digests\": {{\n{}\n  }}\n}}",
        run::GOLDEN_SEED,
        digests.join(",\n")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(argv.into_iter()).and_then(|args| {
        if args.print_golden {
            main_print_golden();
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            main_compare(a, b)
        } else if let Some(n) = args.calibrate {
            main_calibrate(&args, n)
        } else {
            main_run(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kdbench: error: {e}");
            ExitCode::from(2)
        }
    }
}
