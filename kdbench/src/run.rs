//! Running one workload: inputs, reference reports, set-up, the measured
//! loop, the correctness checks, and the metrics a run reports.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kaleidoscope::PolicyConfig;
use kaleidoscope_exec::{load_frontend, render_analyze, DiskCache, Executor};
use kaleidoscope_ir::{parse_module, verify_module};
use kaleidoscope_serve::{request_over_tcp, CacheDisposition, Request, Response, TenantQuota};

use crate::daemon::{self, Daemon};
use crate::host::{HostSpeed, PROBES_PER_SETUP};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::replay::{replay_analyze, replay_served, Replayed};
use crate::stats;
use crate::trace::{Recorder, Span};
use crate::workload::{
    self, ColdInputs, EditKind, MixedInputs, MixedKind, Program, WatchInputs, Workload,
    COLD_TENANTS, MIXED_LIMIT_MS, MIXED_TENANTS, WATCH_CONFIG,
};

/// The seed whose reference digests `golden.json` records.
pub const GOLDEN_SEED: u64 = 1;

/// Length of every measured loop, in seconds. `BENCHMARK.json` declares
/// the same value as `run_seconds` (a schema test checks it), so both
/// sides of a comparison always measure equally long and serve-mixed
/// always schedules the same number of arrivals.
pub const RUN_SECONDS: f64 = 20.0;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Hard cap on a measured loop that is still short of the samples its
/// tail percentile needs.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// Lateness above which an open-loop run is reported invalid.
pub const MAX_LATE_P99_MS: f64 = 20.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for traces and scratch caches.
    pub out_dir: PathBuf,
    /// The `kd` binary serve workloads start.
    pub kd: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Units of work attempted (passes or requests).
    pub attempted: u64,
    /// Errors, sheds, degraded answers, wrong bytes and guard violations.
    pub failed: u64,
    /// No failure, and the references match `golden.json` at its seed.
    pub correct: bool,
    /// End-to-end (untraced) or per-layer (traced) metrics, in
    /// `BENCHMARK.json` order.
    pub metrics: Vec<(Metric, f64)>,
    /// Further measurements for the record (sample counts, per-call
    /// medians, workload-specific latencies).
    pub info: Vec<(String, f64)>,
    /// The first few failures, described.
    pub problems: Vec<String>,
}

/// FNV-1a digest over reports, each followed by a NUL.
pub fn digest(reports: &[String]) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for r in reports {
        for &b in r.as_bytes().iter().chain(std::iter::once(&0u8)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// The reference report for `text` under `configs`, on the cold path:
/// `render_analyze` on a serial executor, no disk cache, no warm start.
pub fn reference(text: &str, configs: &[PolicyConfig]) -> String {
    let module = parse_module(text).expect("generated programs parse");
    render_analyze(&module, configs, &Executor::serial(), false).text
}

/// A workload's generated inputs.
pub enum Inputs {
    /// The nine models.
    Batch(Vec<Program>),
    /// serve-cold pool and stream.
    Cold(ColdInputs),
    /// serve-watch revision script.
    Watch(WatchInputs),
    /// serve-mixed models, pool and schedule.
    Mixed(MixedInputs),
}

impl Inputs {
    /// Generate the inputs of `w` for `seed`.
    pub fn new(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::BatchMatrix => Inputs::Batch(workload::models()),
            Workload::ServeCold => Inputs::Cold(ColdInputs::new(seed)),
            Workload::ServeWatch => Inputs::Watch(WatchInputs::new(seed)),
            Workload::ServeMixed => Inputs::Mixed(MixedInputs::new(seed)),
        }
    }

    /// Every distinct program with the configurations it is asked for,
    /// in reference order.
    fn programs(&self) -> Vec<(&Program, Vec<PolicyConfig>)> {
        let all = || PolicyConfig::table3_order().to_vec();
        match self {
            Inputs::Batch(models) => models.iter().map(|p| (p, all())).collect(),
            Inputs::Cold(c) => c.pool.iter().map(|p| (p, all())).collect(),
            Inputs::Watch(w) => {
                let config = PolicyConfig::parse(WATCH_CONFIG).expect("valid config name");
                w.revisions
                    .iter()
                    .map(|r| (&r.program, vec![config]))
                    .collect()
            }
            Inputs::Mixed(m) => m.models.iter().chain(&m.pool).map(|p| (p, all())).collect(),
        }
    }

    /// Reference reports for [`Inputs::programs`], in order.
    pub fn references(&self) -> Vec<String> {
        self.programs()
            .into_iter()
            .map(|(p, configs)| reference(&p.text, &configs))
            .collect()
    }
}

/// The digest `golden.json` records for `w`, if any.
pub fn golden(w: Workload) -> Option<String> {
    let doc = crate::json::parse(include_str!("../golden.json")).ok()?;
    doc.get("digests")?
        .get(w.name())?
        .as_str()
        .map(str::to_string)
}

/// Failure bookkeeping shared by every loop.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// What a served answer must look like.
#[derive(Debug, Clone, Copy)]
struct Expect<'a> {
    report: &'a str,
    fe_hits: Option<u64>,
    disposition: Option<CacheDisposition>,
}

/// Check one served response; returns whether it counts as good.
fn check(tally: &mut Tally, label: &str, resp: &Result<Response, String>, want: Expect) -> bool {
    let problem = match resp {
        Err(e) => Some(format!("{label}: transport: {e}")),
        Ok(Response::Ok {
            report,
            tier,
            cache,
            degraded,
            fe_cache_hits,
            ..
        }) => {
            if tier != "full" || *degraded != 0 {
                Some(format!(
                    "{label}: served at tier {tier} ({degraded} degraded)"
                ))
            } else if report != want.report {
                Some(format!("{label}: report differs from the cold reference"))
            } else if want.fe_hits.is_some_and(|h| Some(h) != *fe_cache_hits) {
                Some(format!(
                    "{label}: {fe_cache_hits:?} fe/ hits, expected {:?}",
                    want.fe_hits
                ))
            } else if want.disposition.is_some_and(|d| d != *cache) {
                Some(format!(
                    "{label}: cache {cache:?}, expected {:?}",
                    want.disposition
                ))
            } else {
                None
            }
        }
        Ok(other) => Some(format!("{label}: not answered: {other:?}")),
    };
    match problem {
        Some(p) => {
            tally.fail(p);
            false
        }
        None => true,
    }
}

fn served_fingerprint(resp: &Result<Response, String>) -> Option<u64> {
    match resp {
        Ok(Response::Ok { fingerprint, .. }) => Some(*fingerprint),
        _ => None,
    }
}

fn request(id: String, tenant: String) -> Request {
    Request {
        id,
        tenant,
        op: None,
        module: None,
        fingerprint: None,
        prev_fingerprint: None,
        config: None,
        stats: false,
        budget: None,
        solver_threads: None,
        fault: None,
    }
}

fn inline(id: String, tenant: String, text: String) -> Request {
    let mut r = request(id, tenant);
    r.module = Some(text);
    r
}

fn quota_ok(tally: &mut Tally, label: &str, text: &str) -> bool {
    let quota = TenantQuota::default().max_module_bytes;
    if text.len() > quota {
        tally.fail(format!(
            "{label}: module is {} bytes, over the daemon's {quota}-byte quota",
            text.len()
        ));
        return false;
    }
    true
}

/// Everything a measured loop hands back.
#[derive(Debug, Default)]
struct Measured {
    tally: Tally,
    /// Per unit of work, ms.
    latencies: Vec<f64>,
    /// Units answered correctly (within the limit, for serve-mixed).
    good: u64,
    /// Seconds the goodput is taken over.
    good_over_s: f64,
    setups: Vec<f64>,
    /// Probe times, taken before each set-up and, in closed loops, before
    /// each unit of work.
    host: HostSpeed,
    peak_rss_mb: f64,
    info: Vec<(String, f64)>,
    /// Traced runs: the per-layer metrics.
    layers: Vec<(Metric, f64)>,
}

/// Whether a closed loop measures on: for [`RUN_SECONDS`] and —
/// untraced, where the tail percentile is recorded — until it has the
/// samples `latency_p90_ms` needs.
fn keep_going(opts: &Options, start: Instant, samples: usize) -> bool {
    let elapsed = start.elapsed();
    let short = !opts.trace && !stats::supports(samples, stats::TAIL_PERCENTILE);
    (elapsed.as_secs_f64() < RUN_SECONDS || short) && elapsed < MAX_MEASURE
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let t = Instant::now();
    let inputs = Inputs::new(w, opts.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let refs = inputs.references();
    let reference_s = t.elapsed().as_secs_f64();
    let mut golden_ok = true;
    let mut golden_problem = None;
    if opts.seed == GOLDEN_SEED {
        let got = digest(&refs);
        if golden(w).as_deref() != Some(got.as_str()) {
            golden_ok = false;
            golden_problem = Some(format!(
                "reference digest {got} differs from golden.json ({:?})",
                golden(w)
            ));
        }
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut m = match (&inputs, opts.trace) {
        (Inputs::Batch(models), false) => batch(opts, models, &refs),
        (Inputs::Batch(models), true) => batch_traced(opts, models, &refs)?,
        (Inputs::Cold(c), _) => cold(opts, c, &refs)?,
        (Inputs::Watch(wi), _) => watch(opts, wi, &refs)?,
        (Inputs::Mixed(mi), _) => mixed(opts, mi, &refs)?,
    };
    if let Some(p) = golden_problem {
        m.tally.problems.insert(0, p);
    }
    let mut info = vec![
        ("generate_s".to_string(), generate_s),
        ("reference_s".to_string(), reference_s),
        ("samples".to_string(), m.latencies.len() as f64),
    ];
    info.append(&mut m.info);
    let metrics = if opts.trace {
        m.layers
    } else {
        if let Some(p) = stats::highest_supported(m.latencies.len()) {
            info.push(("highest_supported_percentile".into(), p));
            if let Ok(v) = stats::tail(&m.latencies, p) {
                info.push(("latency_highest_supported_ms".into(), v));
            }
        }
        // The tail is recorded, not bounded: on a 2-CPU host its run-to-run
        // spread reached 24% (serve-watch), too close to the largest bound
        // a regression check may use.
        let p90 = stats::tail(&m.latencies, stats::TAIL_PERCENTILE)?;
        info.push(("latency_p90_ms".into(), p90));
        // Times read at the reference host speed; so does a closed loop's
        // goodput, one over its mean latency.
        let f = m.host.factor(w.host_share());
        let rate_f = if w.closed_loop() { f } else { 1.0 };
        let measured = [
            stats::median(&m.setups).unwrap_or(0.0),
            stats::median(&m.latencies).unwrap_or(0.0),
            m.good as f64 / m.good_over_s.max(1e-9),
        ];
        for (metric, v) in END_TO_END.iter().zip(measured) {
            info.push((format!("measured.{}", metric.name), v));
        }
        info.push(("host.probe_ms".into(), m.host.probe_ms().unwrap_or(0.0)));
        info.push(("host.factor".into(), f));
        let values = [
            measured[0] * f,
            measured[1] * f,
            measured[2] / rate_f,
            m.peak_rss_mb,
        ];
        END_TO_END.iter().copied().zip(values).collect()
    };
    Ok(Outcome {
        workload: w,
        seed: opts.seed,
        trace: opts.trace,
        attempted: m.tally.attempted.max(1),
        failed: m.tally.failed,
        correct: golden_ok && m.tally.failed == 0,
        metrics,
        info,
        problems: m.tally.problems,
    })
}

// ---------------------------------------------------------------------
// batch-matrix: the in-process `kd analyze` path.

/// One `kd analyze` of `text`: frontend load (no cache), verification,
/// fingerprint, and all eight configurations on a fresh two-thread
/// executor.
fn analyze(text: &str) -> Result<String, String> {
    let loaded = load_frontend(text, None, 0).map_err(|e| e.to_string())?;
    if !verify_module(&loaded.module).is_empty() {
        return Err("module failed verification".into());
    }
    let fp = loaded.module.fingerprint();
    let ex = Executor::with_jobs(2).with_frontend(fp, loaded.blocks);
    let report = render_analyze(&loaded.module, &PolicyConfig::table3_order(), &ex, false);
    if !report.all_healthy() {
        return Err(format!("{} degraded cells", report.degraded));
    }
    Ok(report.text)
}

fn batch(opts: &Options, models: &[Program], refs: &[String]) -> Measured {
    let mut m = Measured::default();
    // Set-up: generate the model texts and run one warm-up pass.
    for _ in 0..SETUPS {
        m.host.sample(PROBES_PER_SETUP);
        let t = Instant::now();
        let fresh = workload::models();
        for p in &fresh {
            let _ = std::hint::black_box(analyze(&p.text));
        }
        m.setups.push(t.elapsed().as_secs_f64());
    }
    let peak_reset = daemon::reset_self_peak_rss();
    let mut orders = workload::BatchOrders::new(opts.seed);
    let start = Instant::now();
    let mut busy = 0.0;
    while keep_going(opts, start, m.latencies.len()) {
        m.host.sample(1);
        let order = orders.next_order();
        let t = Instant::now();
        let reports: Vec<Result<String, String>> =
            order.iter().map(|&i| analyze(&models[i].text)).collect();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        m.tally.attempted += 1;
        let mut ok = true;
        for (&i, r) in order.iter().zip(&reports) {
            let problem = match r {
                Err(e) => Some(e.clone()),
                Ok(text) if *text != refs[i] => {
                    Some("report differs from the cold reference".into())
                }
                Ok(_) => None,
            };
            if let Some(p) = problem {
                ok = false;
                m.tally.fail(format!(
                    "pass {}: {}: {p}",
                    m.latencies.len(),
                    models[i].name
                ));
            }
        }
        m.latencies.push(ms);
        busy += ms / 1e3;
        m.good += ok as u64;
    }
    m.good_over_s = busy;
    m.peak_rss_mb = if peak_reset.is_ok() {
        daemon::self_peak_rss_mb()
    } else {
        m.tally
            .fail("cannot reset VmHWM; peak_rss_mb would include set-up".into());
        daemon::self_peak_rss_mb()
    };
    m
}

// ---------------------------------------------------------------------
// Traced runs.

/// One traced unit of work: served (or real) latency plus its replay.
struct Traced {
    req: u32,
    served: bool,
    replay: Replayed,
}

/// A traced run's replay times with the recorder on and, for the same
/// requests, off. `bench.trace_overhead_frac` is the recorded replays'
/// extra time as a share of the unrecorded replays' total.
#[derive(Debug, Default)]
struct Overhead {
    /// `(on, off)` seconds per request.
    pairs: Vec<(f64, f64)>,
}

impl Overhead {
    /// Run the recorded replay `on` and the unrecorded replay `off` of one
    /// request back to back. Which goes first alternates, so a slow spell
    /// of the host falls on both sides alike.
    fn pair<T>(
        &mut self,
        on: impl FnOnce() -> T,
        off: impl FnOnce() -> Result<(), String>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let (v, on_s, off_s) = if self.pairs.len().is_multiple_of(2) {
            let v = on();
            let t1 = Instant::now();
            off()?;
            (v, t1 - t0, t1.elapsed())
        } else {
            off()?;
            let t1 = Instant::now();
            (on(), t1.elapsed(), t1 - t0)
        };
        self.pairs.push((on_s.as_secs_f64(), off_s.as_secs_f64()));
        Ok(v)
    }

    /// Total recorded over total unrecorded replay time, over the pairs
    /// that ran the recorded replay first (`parity` 0) or second (1).
    fn ratio(&self, parity: usize) -> f64 {
        let (on, off) = self
            .pairs
            .iter()
            .skip(parity)
            .step_by(2)
            .fold((0.0, 0.0), |(a, b), (on, off)| (a + on, b + off));
        if off > 0.0 {
            on / off
        } else {
            1.0
        }
    }

    /// The geometric mean of the two orders' ratios: whatever the first
    /// replay of a pair pays for going first (the daemon still finishing
    /// the request, colder caches) cancels out.
    fn frac(&self) -> f64 {
        (self.ratio(0) * self.ratio(1)).sqrt() - 1.0
    }

    fn info(&self) -> [(String, f64); 2] {
        [
            (
                "replay_traced_s".into(),
                self.pairs.iter().map(|p| p.0).sum(),
            ),
            (
                "replay_untraced_s".into(),
                self.pairs.iter().map(|p| p.1).sum(),
            ),
        ]
    }
}

fn batch_traced(opts: &Options, models: &[Program], refs: &[String]) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut rec = Recorder::new();
    let mut off = Recorder::off();
    let mut overhead = Overhead::default();
    let mut traced = Vec::new();
    let mut orders = workload::BatchOrders::new(opts.seed);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < RUN_SECONDS || traced.is_empty() {
        for i in orders.next_order() {
            let req = m.tally.attempted as u32;
            rec.set_request(req);
            let t0 = Instant::now();
            let real = analyze(&models[i].text);
            let t1 = Instant::now();
            rec.record_root("request", t0, t1);
            m.latencies.push((t1 - t0).as_secs_f64() * 1e3);
            m.tally.attempted += 1;
            let text = &models[i].text;
            let replay = overhead
                .pair(
                    || rec.span("replay", |rec| replay_analyze(text, rec)),
                    || replay_analyze(text, &mut off).map(|_| ()),
                )
                .and_then(|r| r);
            let label = format!("{} (traced)", models[i].name);
            match (real, replay) {
                (Ok(real), Ok(replay)) => {
                    if real != refs[i] {
                        m.tally
                            .fail(format!("{label}: report differs from the cold reference"));
                    } else if replay.report != real {
                        m.tally.fail(format!("{label}: replayed report differs"));
                    }
                    traced.push(Traced {
                        req,
                        served: false,
                        replay,
                    });
                }
                (real, replay) => m.tally.fail(format!(
                    "{label}: {:?} / replay {:?}",
                    real.err(),
                    replay.err()
                )),
            }
        }
    }
    m.layers = layer_metrics(&rec, &traced, 0.0, overhead.frac());
    m.info = call_medians(&rec);
    m.info.extend(overhead.info());
    write_trace(opts, &rec)?;
    Ok(m)
}

fn write_trace(opts: &Options, rec: &Recorder) -> Result<(), String> {
    let path = opts
        .out_dir
        .join(format!("trace-{}.json", opts.workload.name()));
    std::fs::write(&path, rec.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Median self time of every span name, for the record.
fn call_medians(rec: &Recorder) -> Vec<(String, f64)> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in rec.spans() {
        by_name.entry(s.name).or_default().push(s.self_ms());
    }
    by_name
        .into_iter()
        .flat_map(|(name, v)| {
            [
                (
                    format!("calls.{name}.self_ms_p50"),
                    stats::median(&v).unwrap_or(0.0),
                ),
                (format!("calls.{name}.count"), v.len() as f64),
            ]
        })
        .collect()
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(
    rec: &Recorder,
    traced: &[Traced],
    shed_frac: f64,
    trace_overhead_frac: f64,
) -> Vec<(Metric, f64)> {
    let mut per_req: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in rec.spans() {
        per_req.entry(s.req).or_default().push(s);
    }
    let mut calls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut shares: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut allocs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut fe_hits, mut funcs, mut rep_hits, mut rep_lookups) = (0u64, 0u64, 0u64, 0u64);
    let (mut incr_attempts, mut incr_fallbacks) = (0u64, 0u64);
    for t in traced {
        let spans = per_req.get(&t.req).map(Vec::as_slice).unwrap_or(&[]);
        let root = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
        };
        let (Some(served), Some(replay)) = (root("request"), root("replay")) else {
            continue;
        };
        let mut layer_ms: BTreeMap<&str, f64> = BTreeMap::new();
        let mut layer_alloc: BTreeMap<&str, f64> = BTreeMap::new();
        let (mut prev_ms, mut snap_ms) = (0.0, 0.0);
        for s in spans
            .iter()
            .filter(|s| s.name != "request" && s.name != "replay")
        {
            calls.entry(s.name).or_default().push(s.self_ms());
            *layer_ms.entry(s.layer()).or_default() += s.self_ms();
            *layer_alloc.entry(s.layer()).or_default() += s.self_alloc() as f64 / 1e6;
            match s.name {
                "exec.prev_revision" => prev_ms += s.dur_ns() as f64 / 1e6,
                "exec.get_state" | "exec.put_state" => snap_ms += s.dur_ns() as f64 / 1e6,
                _ => {}
            }
        }
        for layer in ["serve", "exec", "ir", "core", "pta"] {
            let v = layer_ms.get(layer).copied().unwrap_or(0.0);
            shares.entry(layer).or_default().push(v / served);
        }
        shares.entry("prev").or_default().push(prev_ms / served);
        shares.entry("snapshot").or_default().push(snap_ms / served);
        overhead.push(if t.served {
            (served - replay) / served
        } else {
            0.0
        });
        let r = &t.replay;
        if !r.solves.is_empty() {
            allocs
                .entry("core")
                .or_default()
                .push(layer_alloc.get("core").copied().unwrap_or(0.0));
            let sum =
                |f: fn(&kaleidoscope_pta::SolveStats) -> f64| r.solves.iter().map(f).sum::<f64>();
            counts
                .entry("pops")
                .or_default()
                .push(sum(|s| s.iterations as f64));
            counts
                .entry("union_words")
                .or_default()
                .push(sum(|s| s.union_words as f64));
            counts
                .entry("scc_passes")
                .or_default()
                .push(sum(|s| s.scc_passes as f64));
            counts.entry("peak_pts_bytes").or_default().push(
                r.solves
                    .iter()
                    .map(|s| s.peak_pts_bytes as f64)
                    .fold(0.0, f64::max),
            );
        }
        if r.incr_attempts > 0 {
            counts
                .entry("incr_seeded")
                .or_default()
                .push(r.incr_seeded as f64);
        }
        for s in &r.snapshot_bytes {
            counts.entry("snapshot_bytes").or_default().push(*s as f64);
        }
        for layer in ["exec", "ir"] {
            allocs
                .entry(layer)
                .or_default()
                .push(layer_alloc.get(layer).copied().unwrap_or(0.0));
        }
        fe_hits += r.fe_hits;
        funcs += r.funcs;
        rep_hits += r.report_hits;
        rep_lookups += r.report_lookups;
        incr_attempts += r.incr_attempts;
        incr_fallbacks += r.incr_fallbacks;
    }
    let med = |v: Option<&Vec<f64>>| v.and_then(|v| stats::median(v)).unwrap_or(0.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let value = |name: &str| -> f64 {
        match name {
            "exec.frontend_ms" => med(calls.get("exec.load_frontend")),
            "ir.verify_ms" => med(calls.get("ir.verify_module")),
            "ir.fingerprint_ms" => med(calls.get("ir.fingerprint")),
            "core.fallback_ms" => med(calls.get("core.fallback")),
            "core.optimistic_ms" => med(calls.get("core.optimistic")),
            "core.ctx_plan_ms" => med(calls.get("core.ctx_plan")),
            "core.assemble_ms" => med(calls.get("core.assemble")),
            "pta.pts_stats_ms" => med(calls.get("pta.pts_stats")),
            "serve.share" => med(shares.get("serve")),
            "serve.overhead_share" => med(Some(&overhead)),
            "exec.share" => med(shares.get("exec")),
            "ir.share" => med(shares.get("ir")),
            "core.share" => med(shares.get("core")),
            "pta.share" => med(shares.get("pta")),
            "exec.prev_revision_share" => med(shares.get("prev")),
            "exec.snapshot_share" => med(shares.get("snapshot")),
            "pta.pops" => med(counts.get("pops")),
            "pta.union_words" => med(counts.get("union_words")),
            "pta.scc_passes" => med(counts.get("scc_passes")),
            "pta.peak_pts_bytes" => med(counts.get("peak_pts_bytes")),
            "pta.incr_seeded_nodes" => med(counts.get("incr_seeded")),
            "pta.incr_fallback_frac" => ratio(incr_fallbacks, incr_attempts),
            "pta.snapshot_bytes" => med(counts.get("snapshot_bytes")),
            "exec.fe_hit_frac" => ratio(fe_hits, funcs),
            "exec.report_hit_frac" => ratio(rep_hits, rep_lookups),
            "core.alloc_mb" => med(allocs.get("core")),
            "exec.alloc_mb" => med(allocs.get("exec")),
            "ir.alloc_mb" => med(allocs.get("ir")),
            "serve.shed_frac" => shed_frac,
            "bench.trace_overhead_frac" => trace_overhead_frac,
            other => unreachable!("per-layer metric `{other}` has no definition"),
        }
    };
    PER_LAYER
        .iter()
        .map(|l| (l.metric, value(l.metric.name)))
        .collect()
}

// ---------------------------------------------------------------------
// Serve workloads.

fn scratch_dir(opts: &Options, tag: &str) -> PathBuf {
    opts.out_dir.join("tmp").join(format!(
        "{}-{}-{tag}",
        std::process::id(),
        opts.workload.name()
    ))
}

/// Start a daemon and run `prewarm` against its address: the timed
/// set-up.
fn start_served(
    opts: &Options,
    tag: &str,
    prewarm: &mut dyn FnMut(&str) -> Result<(), String>,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(&opts.kd, scratch_dir(opts, tag))?;
    prewarm(daemon.addr())?;
    let s = t.elapsed().as_secs_f64();
    Ok((daemon, s))
}

/// The untraced set-ups (several, timed, all but the last torn down) or
/// the traced run's single set-up.
fn setups(
    opts: &Options,
    m: &mut Measured,
    prewarm: &mut dyn FnMut(usize, &str) -> Result<(), String>,
) -> Result<Daemon, String> {
    let n = if opts.trace { 1 } else { SETUPS };
    let mut last = None;
    for i in 0..n {
        m.host.sample(PROBES_PER_SETUP);
        let (daemon, s) = start_served(opts, &format!("d{i}"), &mut |addr| prewarm(i, addr))?;
        m.setups.push(s);
        last = Some(daemon);
    }
    Ok(last.expect("at least one set-up"))
}

/// Health counters at two points: shed share of admissions between them.
fn shed_frac(
    before: &kaleidoscope_serve::HealthReport,
    after: &kaleidoscope_serve::HealthReport,
) -> f64 {
    let shed = after.shed.saturating_sub(before.shed);
    let admitted = after.admitted.saturating_sub(before.admitted);
    if shed + admitted == 0 {
        0.0
    } else {
        shed as f64 / (shed + admitted) as f64
    }
}

/// Replays a traced run's requests in the daemon's order, twice: recorded
/// against one of two twin caches and unrecorded against the other, for
/// the tracing overhead. Both caches see every request, so both hold what
/// the daemon's holds; which one is recorded alternates every two
/// requests, so a difference between the two directories cancels too.
struct Replayer {
    caches: [DiskCache; 2],
    dirs: [PathBuf; 2],
    rec: Recorder,
    off: Recorder,
    overhead: Overhead,
    traced: Vec<Traced>,
    /// Traced requests sent so far (the next request's id).
    sent: u32,
}

impl Replayer {
    fn new(opts: &Options) -> Result<Replayer, String> {
        let dirs = [scratch_dir(opts, "replay"), scratch_dir(opts, "replay-off")];
        let open = |dir: &PathBuf| {
            let _ = std::fs::remove_dir_all(dir);
            DiskCache::open(dir).map_err(|e| format!("replay cache: {e}"))
        };
        Ok(Replayer {
            caches: [open(&dirs[0])?, open(&dirs[1])?],
            dirs,
            rec: Recorder::new(),
            off: Recorder::off(),
            overhead: Overhead::default(),
            traced: Vec::new(),
            sent: 0,
        })
    }

    /// Replay a set-up request into both caches, unrecorded.
    fn prewarm(&mut self, req: &Request) -> Result<(), String> {
        for cache in &self.caches {
            replay_served(req, cache, &mut self.off)?;
        }
        Ok(())
    }

    /// Send `req` to the daemon as a traced request, replay it, and
    /// check the replay against the served answer.
    fn exchange(
        &mut self,
        addr: &str,
        req: &Request,
        tally: &mut Tally,
    ) -> (Result<Response, String>, f64) {
        let id = self.sent;
        self.sent += 1;
        self.rec.set_request(id);
        let t0 = Instant::now();
        let resp = request_over_tcp(addr, req);
        let t1 = Instant::now();
        self.rec.record_root("request", t0, t1);
        let [a, b] = &self.caches;
        let (cache, plain) = if (id / 2).is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        let (rec, off) = (&mut self.rec, &mut self.off);
        let replay = self
            .overhead
            .pair(
                || rec.span("replay", |rec| replay_served(req, cache, rec)),
                || replay_served(req, plain, off).map(|_| ()),
            )
            .and_then(|r| r);
        match (&resp, replay) {
            (
                Ok(Response::Ok {
                    report,
                    tier,
                    cache,
                    fingerprint,
                    fe_cache_hits,
                    ..
                }),
                Ok(r),
            ) => {
                let same = r.report == *report
                    && r.fingerprint == *fingerprint
                    && Some(r.fe_hits) == *fe_cache_hits
                    && r.disposition == Some(*cache)
                    && tier == "full";
                if !same {
                    tally.fail(format!(
                        "{}: replay diverged from the served answer (fp {:016x}/{:016x}, fe {}/{:?}, cache {:?}/{:?})",
                        req.id, r.fingerprint, fingerprint, r.fe_hits, fe_cache_hits, r.disposition, cache
                    ));
                }
                self.traced.push(Traced {
                    req: id,
                    served: true,
                    replay: r,
                });
            }
            (_, Err(e)) => tally.fail(format!("{}: replay failed: {e}", req.id)),
            _ => {}
        }
        (resp, (t1 - t0).as_secs_f64() * 1e3)
    }

    fn finish(self, opts: &Options, m: &mut Measured, shed: f64) -> Result<(), String> {
        m.layers = layer_metrics(&self.rec, &self.traced, shed, self.overhead.frac());
        m.info.extend(call_medians(&self.rec));
        m.info.extend(self.overhead.info());
        write_trace(opts, &self.rec)?;
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

/// Send `req`, traced or not; returns the answer and its latency in ms.
fn send(
    addr: &str,
    replayer: &mut Option<Replayer>,
    req: &Request,
    tally: &mut Tally,
) -> (Result<Response, String>, f64) {
    match replayer {
        Some(r) => r.exchange(addr, req, tally),
        None => {
            let t0 = Instant::now();
            let resp = request_over_tcp(addr, req);
            (resp, t0.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Send a set-up request and require a full answer.
fn prewarm_one(
    addr: &str,
    replayer: &mut Option<Replayer>,
    req: &Request,
) -> Result<Response, String> {
    let resp = request_over_tcp(addr, req)?;
    if let Some(r) = replayer {
        r.prewarm(req)?;
    }
    match &resp {
        Response::Ok { tier, .. } if tier == "full" => Ok(resp),
        other => Err(format!("set-up request {} failed: {other:?}", req.id)),
    }
}

fn finish_served(
    opts: &Options,
    m: &mut Measured,
    mut daemon: Daemon,
    replayer: Option<Replayer>,
    before: kaleidoscope_serve::HealthReport,
) -> Result<(), String> {
    let after = daemon.health()?;
    m.peak_rss_mb = daemon.peak_rss_mb();
    daemon.stop();
    let shed = shed_frac(&before, &after);
    m.info.push(("shed_frac".into(), shed));
    if let Some(r) = replayer {
        r.finish(opts, m, shed)?;
    }
    let _ = std::fs::remove_dir_all(opts.out_dir.join("tmp"));
    Ok(())
}

fn cold(opts: &Options, inputs: &ColdInputs, refs: &[String]) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut replayer = if opts.trace {
        Some(Replayer::new(opts)?)
    } else {
        None
    };
    // A small model per tenant and shard spawns every worker; its
    // functions share no names with the tagged corpora that follow.
    let tiny = workload::models()
        .into_iter()
        .find(|p| p.name == "TinyDTLS")
        .expect("TinyDTLS model exists");
    let daemon = setups(opts, &mut m, &mut |_, addr| {
        for t in 0..COLD_TENANTS {
            for s in 0..daemon::SHARDS {
                let req = inline(
                    format!("warm-{t}-{s}"),
                    format!("cold{t}"),
                    tiny.text.clone(),
                );
                prewarm_one(addr, &mut replayer, &req)?;
            }
        }
        Ok(())
    })?;
    let before = daemon.health()?;
    let start = Instant::now();
    let mut busy = 0.0;
    let mut i = 0;
    while keep_going(opts, start, m.latencies.len()) {
        let (k, tenant, text) = inputs.request(i);
        let label = format!("cold request {i}");
        if !quota_ok(&mut m.tally, &label, &text) {
            break;
        }
        let req = inline(format!("c{i}"), tenant, text);
        m.host.sample(1);
        m.tally.attempted += 1;
        let (resp, ms) = send(daemon.addr(), &mut replayer, &req, &mut m.tally);
        let want = Expect {
            report: &refs[k],
            fe_hits: Some(0),
            disposition: Some(CacheDisposition::Stored),
        };
        m.good += check(&mut m.tally, &label, &resp, want) as u64;
        m.latencies.push(ms);
        busy += ms / 1e3;
        i += 1;
    }
    m.good_over_s = busy;
    if let Some(r) = &replayer {
        // Honest cold: every warm start from a tenant head must fall back.
        let attempts: u64 = r.traced.iter().map(|t| t.replay.incr_attempts).sum();
        let fallbacks: u64 = r.traced.iter().map(|t| t.replay.incr_fallbacks).sum();
        if attempts != fallbacks {
            m.tally.fail(format!(
                "{} of {attempts} tenant-head warm starts did not fall back",
                attempts - fallbacks
            ));
        }
    }
    finish_served(opts, &mut m, daemon, replayer, before)?;
    Ok(m)
}

fn watch_request(id: String, text: String, prev: Option<u64>) -> Request {
    let mut r = inline(id, "watch".into(), text);
    r.config = Some(WATCH_CONFIG.into());
    r.prev_fingerprint = prev;
    r
}

fn watch(opts: &Options, inputs: &WatchInputs, refs: &[String]) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut replayer = if opts.trace {
        Some(Replayer::new(opts)?)
    } else {
        None
    };
    // Set-up: the session's base revision, sent twice so both of the
    // tenant's shards are running before the first edit.
    let mut base_fp = 0;
    let mut session = 0;
    let daemon = setups(opts, &mut m, &mut |i, addr| {
        session = i;
        for s in 0..daemon::SHARDS {
            let req = watch_request(format!("w{i}-base{s}"), inputs.text(i, 0), None);
            match prewarm_one(addr, &mut replayer, &req)? {
                Response::Ok {
                    report,
                    fingerprint,
                    ..
                } if report == refs[0] => base_fp = fingerprint,
                _ => return Err("watch base report differs from the cold reference".into()),
            }
        }
        Ok(())
    })?;
    let before = daemon.health()?;
    let first_session = session;
    let (mut appends, mut modifies) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut busy = 0.0;
    let mut prev = base_fp;
    'sessions: loop {
        for (r, rev) in inputs.revisions.iter().enumerate().skip(1) {
            let label = format!("session {session} revision {r} ({})", rev.kind.name());
            let text = inputs.text(session, r);
            if !quota_ok(&mut m.tally, &label, &text) {
                break 'sessions;
            }
            let req = watch_request(format!("w{session}-r{r}"), text, Some(prev));
            m.host.sample(1);
            m.tally.attempted += 1;
            let (resp, ms) = send(daemon.addr(), &mut replayer, &req, &mut m.tally);
            let want = Expect {
                report: &refs[r],
                fe_hits: Some(rev.module.funcs.len() as u64 - 1),
                disposition: Some(CacheDisposition::Stored),
            };
            m.good += check(&mut m.tally, &label, &resp, want) as u64;
            prev = served_fingerprint(&resp).unwrap_or(prev);
            m.latencies.push(ms);
            busy += ms / 1e3;
            match rev.kind {
                EditKind::Modify => modifies.push(ms),
                _ => appends.push(ms),
            }
        }
        if !keep_going(opts, start, m.latencies.len()) {
            break;
        }
        // Next session: a new tag, so its base revision is cold again.
        session += 1;
        let req = watch_request(format!("w{session}-base"), inputs.text(session, 0), None);
        m.tally.attempted += 1;
        let (resp, _) = send(daemon.addr(), &mut replayer, &req, &mut m.tally);
        let want = Expect {
            report: &refs[0],
            fe_hits: Some(0),
            disposition: Some(CacheDisposition::Stored),
        };
        check(
            &mut m.tally,
            &format!("session {session} base"),
            &resp,
            want,
        );
        prev = served_fingerprint(&resp).unwrap_or(prev);
    }
    m.good_over_s = busy;
    m.info.push((
        "append_p50_ms".into(),
        stats::median(&appends).unwrap_or(0.0),
    ));
    m.info.push((
        "modify_p50_ms".into(),
        stats::median(&modifies).unwrap_or(0.0),
    ));
    m.info
        .push(("sessions".into(), (session - first_session + 1) as f64));
    if let Some(r) = &replayer {
        // Honest warm: every edit found its previous revision's snapshot,
        // and appends warm-started without falling back.
        let kinds = edit_kinds(inputs, r.sent as usize);
        for t in &r.traced {
            let Some(kind) = kinds[t.req as usize] else {
                continue;
            };
            if t.replay.state_hits == 0 {
                m.tally
                    .fail(format!("traced edit {}: no snapshot hit", t.req));
            }
            if kind != EditKind::Modify && t.replay.incr_fallbacks > 0 {
                m.tally
                    .fail(format!("traced append {}: warm start fell back", t.req));
            }
        }
    }
    finish_served(opts, &mut m, daemon, replayer, before)?;
    Ok(m)
}

/// The edit kind of each traced watch request in send order (`None` for
/// a session's base revision).
fn edit_kinds(inputs: &WatchInputs, n: usize) -> Vec<Option<EditKind>> {
    let per_session = inputs.revisions.len();
    (0..n)
        .map(|i| {
            // Sessions send revisions 1.. then the next session's base.
            let r = i % per_session + 1;
            (r < per_session).then(|| inputs.revisions[r].kind)
        })
        .collect()
}

struct MixedSample {
    latency_ms: f64,
    late_ms: f64,
    good: bool,
    hit: bool,
    done: Instant,
}

fn mixed_request(inputs: &MixedInputs, fps: &[u64], i: usize) -> (Request, usize) {
    let r = &inputs.schedule[i];
    let tenant = format!("user{}", r.tenant);
    let id = format!("m{i}");
    match r.kind {
        MixedKind::ModelInline(k) => (inline(id, tenant, inputs.models[k].text.clone()), k),
        MixedKind::ModelByFingerprint(k) => {
            let mut req = request(id, tenant);
            req.fingerprint = Some(fps[k]);
            (req, k)
        }
        MixedKind::Fresh(k) => (
            inline(id, tenant, inputs.fresh_text(i, k)),
            inputs.models.len() + k,
        ),
    }
}

fn mixed(opts: &Options, inputs: &MixedInputs, refs: &[String]) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut replayer = if opts.trace {
        Some(Replayer::new(opts)?)
    } else {
        None
    };
    let fps: Vec<u64> = inputs
        .models
        .iter()
        .map(|p| p.module().fingerprint())
        .collect();
    // Set-up: every model, inline, spread over the tenants so all of
    // their shards are running and every model's report is cached.
    let daemon = setups(opts, &mut m, &mut |_, addr| {
        for (k, p) in inputs.models.iter().enumerate() {
            let req = inline(
                format!("seed{k}"),
                format!("user{}", k % MIXED_TENANTS),
                p.text.clone(),
            );
            prewarm_one(addr, &mut replayer, &req)?;
        }
        Ok(())
    })?;
    let before = daemon.health()?;
    let requests: Vec<(Request, usize)> = (0..inputs.schedule.len())
        .map(|i| mixed_request(inputs, &fps, i))
        .collect();
    for (req, _) in &requests {
        if let Some(text) = &req.module {
            if !quota_ok(&mut m.tally, &req.id, text) {
                return Ok(m);
            }
        }
    }
    if let Some(mut rep) = replayer {
        // Traced: the same stream, one request at a time.
        let start = Instant::now();
        for (req, k) in &requests {
            if start.elapsed().as_secs_f64() >= RUN_SECONDS {
                break;
            }
            m.tally.attempted += 1;
            let (resp, ms) = rep.exchange(daemon.addr(), req, &mut m.tally);
            let want = Expect {
                report: &refs[*k],
                fe_hits: None,
                disposition: None,
            };
            m.good += check(&mut m.tally, &req.id, &resp, want) as u64;
            m.latencies.push(ms);
        }
        m.good_over_s = start.elapsed().as_secs_f64();
        finish_served(opts, &mut m, daemon, Some(rep), before)?;
        return Ok(m);
    }
    // Untraced: the open loop. Two lanes (threads, so at most two open
    // connections), each sending the next due request as soon as it is
    // free; latency counts from the due time, so a stall also delays
    // every request queued behind it.
    let addr = daemon.addr();
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let lane = || -> (Vec<MixedSample>, Tally) {
        let mut out = Vec::new();
        let mut tally = Tally::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((req, k)) = requests.get(i) else {
                break;
            };
            let due = start + Duration::from_secs_f64(inputs.schedule[i].due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let resp = request_over_tcp(addr, req);
            let done = Instant::now();
            let hit = matches!(
                resp,
                Ok(Response::Ok {
                    cache: CacheDisposition::Hit,
                    ..
                })
            );
            let want = Expect {
                report: &refs[*k],
                fe_hits: None,
                disposition: None,
            };
            tally.attempted += 1;
            let ok = check(&mut tally, &req.id, &resp, want);
            let latency_ms = (done - due).as_secs_f64() * 1e3;
            out.push(MixedSample {
                latency_ms,
                late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                good: ok && latency_ms <= MIXED_LIMIT_MS,
                hit,
                done,
            });
        }
        (out, tally)
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(lane);
        let mine = lane();
        (other.join().expect("lane thread panicked"), mine)
    });
    let mut samples = a.0;
    samples.extend(b.0);
    for t in [a.1, b.1] {
        m.tally.attempted += t.attempted;
        m.tally.failed += t.failed;
        m.tally.problems.extend(t.problems);
    }
    let last = samples.iter().map(|s| s.done).max().unwrap_or(start);
    m.good_over_s = last.saturating_duration_since(start).as_secs_f64();
    m.good = samples.iter().filter(|s| s.good).count() as u64;
    m.latencies = samples.iter().map(|s| s.latency_ms).collect();
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let late_p99 =
        stats::tail(&late, 99.0).unwrap_or_else(|_| late.iter().copied().fold(0.0, f64::max));
    m.info.push(("late_p99_ms".into(), late_p99));
    m.info.push((
        "valid".into(),
        f64::from(u8::from(late_p99 <= MAX_LATE_P99_MS)),
    ));
    m.info.push((
        "report_hit_frac".into(),
        samples.iter().filter(|s| s.hit).count() as f64 / samples.len().max(1) as f64,
    ));
    if let Ok(p99) = stats::tail(&m.latencies, 99.0) {
        m.info.push(("latency_p99_ms".into(), p99));
    }
    finish_served(opts, &mut m, daemon, None, before)?;
    Ok(m)
}

/// Where `kd` lives: next to this binary (both are built into the same
/// cargo target directory).
pub fn kd_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate kdbench: {e}"))?;
    let kd = exe.with_file_name("kd");
    if kd.is_file() {
        Ok(kd)
    } else {
        Err(format!(
            "{} not found; build kaleidoscope-cli into the same target directory",
            kd.display()
        ))
    }
}
