//! `BENCHMARK.json` agrees with the benchmark's own metric and workload
//! tables, and stays inside the limits a benchmark definition must meet.

use kaleidoscope_kdbench::json::{self, Json};
use kaleidoscope_kdbench::metrics::{self, END_TO_END, PER_LAYER};
use kaleidoscope_kdbench::run;
use kaleidoscope_kdbench::workload::Workload;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(
        text.len() <= 64 * 1024,
        "BENCHMARK.json must stay under 64 KiB"
    );
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape() {
    let b = benchmark();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<&str> {
        b.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "kdbench/run.sh"]);
    assert_eq!(strings("paths"), ["kdbench"]);
    let secs = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    assert_eq!(
        secs,
        run::RUN_SECONDS,
        "run_seconds and the benchmark's own run length agree"
    );
}

#[test]
fn workloads_match_the_benchmark() {
    let b = benchmark();
    let listed = b.get("workloads").and_then(Json::as_array).unwrap();
    assert!((2..=8).contains(&listed.len()));
    let names: Vec<&str> = listed.iter().map(|w| str_of(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for w in listed {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(metrics::valid_name(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    // Every run must fit the time cap of the whole definition: four extra
    // runs plus 22 per workload, each allowed `run_seconds` plus 10 s of
    // set-up, reference checking and probes on average (7 s measured on a
    // slow 2-CPU host, 14 s for serve-watch), after two builds of up to
    // 150 s.
    let runs = (4 + 22 * listed.len()) as f64;
    let secs = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(
        runs * (secs + 10.0) + 300.0 <= 3420.0,
        "{runs} runs of {secs} s"
    );
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let b = benchmark();
    let listed = b.get("end_to_end").and_then(Json::as_array).unwrap();
    assert!((1..=16).contains(&listed.len()));
    assert_eq!(listed.len(), END_TO_END.len());
    let mut max_bound: f64 = 0.0;
    for (j, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit);
        assert_eq!(str_of(j, "better"), m.better);
        assert!(metrics::valid_name(m.name) && unit_ok(m.unit));
        let bound = j.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        max_bound = max_bound.max(bound);
    }
    let setup = listed
        .iter()
        .find(|j| str_of(j, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(str_of(setup, "unit"), "s");
    assert_eq!(str_of(setup, "better"), "lower");
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(max_bound),
        "setup_s carries the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_the_code_and_name_real_targets() {
    let b = benchmark();
    let listed = b.get("per_layer").and_then(Json::as_array).unwrap();
    assert!((1..=128).contains(&listed.len()));
    assert_eq!(listed.len(), PER_LAYER.len());
    for (j, l) in listed.iter().zip(PER_LAYER) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(str_of(j, "name"), l.metric.name);
        assert_eq!(str_of(j, "unit"), l.metric.unit);
        assert_eq!(str_of(j, "better"), l.metric.better);
        assert!(metrics::valid_name(l.metric.name) && unit_ok(l.metric.unit));
        for (metric, workload) in l.moves.iter().chain(l.flat) {
            assert!(
                metrics::end_to_end(metric).is_some(),
                "{} names unknown metric {metric}",
                l.metric.name
            );
            assert!(
                Workload::parse(workload).is_some(),
                "{} names unknown workload {workload}",
                l.metric.name
            );
        }
    }
}

#[test]
fn names_are_unique() {
    let b = benchmark();
    let mut names: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| b.get(k).and_then(Json::as_array).unwrap())
        .map(|j| str_of(j, "name"))
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
}
