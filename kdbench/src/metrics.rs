//! Metric names, units and directions — the single source `BENCHMARK.json`
//! is checked against — and, for every per-layer metric, which
//! end-to-end metric on which workload it should move and which it should
//! leave flat. A claim about a layer names these metrics.

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run of every workload.
/// Each run also records `latency_p90_ms` with its sample count in
/// `results.json`, but the tail has no bound: its run-to-run spread was
/// too wide to check (see the crate README). `setup_s`, `latency_p50_ms`
/// and, on the closed loops, `goodput_rps` are reported at the reference
/// host speed of [`crate::host`]; `results.json` keeps the measured values
/// as `measured.<name>`.
pub const END_TO_END: [Metric; 4] = [
    // Median over the run's set-ups: daemon start to first answer plus
    // prewarm (serve), or input generation plus one warm-up pass (batch).
    m("setup_s", "s", "lower"),
    // Per pass (batch-matrix), per request (serve-cold, serve-mixed; the
    // open loop times from each request's due time) or per edit
    // (serve-watch, where two edits in three are appends, so p50 is an
    // append).
    m("latency_p50_ms", "ms", "lower"),
    // Units of work answered correctly at full tier per second: passes or
    // requests per second of client wait (closed loops, so modifies count
    // on serve-watch), requests within the 150 ms limit per second of wall
    // time (serve-mixed, where a slow fresh solve makes it and the
    // requests queued behind it late).
    m("goodput_rps", "1/s", "higher"),
    // Largest VmHWM of the benchmark process (batch-matrix) or of the
    // daemon and its workers (serve workloads).
    m("peak_rss_mb", "MB", "lower"),
];

/// One per-layer metric and the end-to-end effects a change to its layer
/// should have.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// The metric itself.
    pub metric: Metric,
    /// The public calls (or counters) it is measured from.
    pub source: &'static str,
    /// `(end-to-end metric, workload)` pairs it should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// `(end-to-end metric, workload)` pairs it should leave flat.
    pub flat: &'static [(&'static str, &'static str)],
}

const fn l(
    metric: Metric,
    source: &'static str,
    moves: &'static [(&'static str, &'static str)],
    flat: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        metric,
        source,
        moves,
        flat,
    }
}

const P50: &str = "latency_p50_ms";
const RSS: &str = "peak_rss_mb";
const GOODPUT: &str = "goodput_rps";
const BATCH: &str = "batch-matrix";
const COLD: &str = "serve-cold";
const WATCH: &str = "serve-watch";
const MIXED: &str = "serve-mixed";

/// Per-layer metrics, reported by every traced run of every workload.
///
/// `*_ms` values are the median self time of the spans timing one public
/// call, and exist on every workload. `*.share` values are a layer's
/// share of the served latency, median over requests; they read 0 where
/// a workload bypasses the layer (batch-matrix has no serve layer and no
/// disk cache). Counters are per request that ran a solve.
///
/// The predictions come from the seed-1 traced run. Each row quotes the
/// median share of a request's latency that its calls take on
/// batch-matrix / serve-cold / serve-watch / serve-mixed. Unloaded, a
/// faster call saves at most its share, so a row moves a workload's
/// `latency_p50_ms` where its share is at least 5% and leaves it flat
/// where the share is under 1%. Between the two it predicts nothing.
/// serve-mixed's median request is a report hit; its `goodput_rps` falls
/// when the 15% fresh corpora, where core calls take 80% of the latency,
/// make them or the requests queued behind them miss the 150 ms limit.
/// On serve-watch two edits in three are appends, so `latency_p50_ms` is an
/// append; the modifies, which fall back to a full solve, show in
/// `goodput_rps`, one over the mean latency of a closed loop.
pub const PER_LAYER: &[Layer] = &[
    // load_frontend: 7.4 / 4.4 / 8.0 / 18.7 %.
    l(
        m("exec.frontend_ms", "ms", "lower"),
        "load_frontend",
        &[(P50, BATCH), (P50, WATCH), (P50, MIXED)],
        &[],
    ),
    // verify_module: 0.95 / 0.45 / 0.98 / 1.1 %.
    l(
        m("ir.verify_ms", "ms", "lower"),
        "verify_module",
        &[],
        &[(P50, BATCH), (P50, COLD), (P50, WATCH)],
    ),
    // Module::fingerprint, once per request and once per matrix cell:
    // 38.8 / 16.5 / 10.7 / 6.7 %.
    l(
        m("ir.fingerprint_ms", "ms", "lower"),
        "Module::fingerprint (once per request and once per matrix cell)",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (P50, MIXED)],
        &[],
    ),
    // Fallback solves: 10.0 / 10.3 / 18.4 / 0 %.
    l(
        m("core.fallback_ms", "ms", "lower"),
        "try_fallback_analysis_fe / try_fallback_analysis_incr_fe",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (GOODPUT, WATCH)],
        &[(P50, MIXED)],
    ),
    // Optimistic solves: 52.8 / 72.0 / 21.4 / 0 %.
    l(
        m("core.optimistic_ms", "ms", "lower"),
        "try_optimistic_analysis_fe / try_optimistic_analysis_incr_fe",
        &[
            (P50, BATCH),
            (P50, COLD),
            (P50, WATCH),
            (GOODPUT, WATCH),
            (GOODPUT, MIXED),
        ],
        &[(P50, MIXED)],
    ),
    // ctx_plan_for: 0.4 / 0.1 / 0.2 / 0 %.
    l(
        m("core.ctx_plan_ms", "ms", "lower"),
        "ctx_plan_for",
        &[],
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (P50, MIXED)],
    ),
    // assemble_result: 0.8 / 0.0 / 0.0 / 0 %.
    l(
        m("core.assemble_ms", "ms", "lower"),
        "assemble_result",
        &[],
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (P50, MIXED)],
    ),
    // PtsStats::collect: 2.8 / 8.9 / 5.9 / 0 %.
    l(
        m("pta.pts_stats_ms", "ms", "lower"),
        "PtsStats::collect (report rendering)",
        &[(P50, COLD), (P50, WATCH)],
        &[(P50, MIXED)],
    ),
    // The serve codec calls: 0 / 0.98 / 2.1 / 1.3 %.
    l(
        m("serve.share", "fraction", "lower"),
        "encode_request, decode_request, encode_response, decode_response",
        &[],
        &[(P50, BATCH), (P50, COLD)],
    ),
    // Served latency outside every replayed call: none / -30 / 11 / 55 %.
    // On serve-cold the worker's two executor threads beat the serial
    // replay, so the share is negative and says nothing.
    l(
        m("serve.overhead_share", "fraction", "lower"),
        "served latency minus the replay: TCP, admission, routing, supervisor, worker pipe",
        &[(P50, WATCH), (P50, MIXED)],
        &[(P50, BATCH)],
    ),
    // 8.6 / 9.5 / 15.0 / 23.4 %.
    l(
        m("exec.share", "fraction", "lower"),
        "exec spans: frontend, disk cache, artifact cache",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (P50, MIXED)],
        &[],
    ),
    // 39.7 / 20.1 / 18.5 / 13.5 %.
    l(
        m("ir.share", "fraction", "lower"),
        "ir spans: verify, fingerprint, to_text, parse",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (P50, MIXED)],
        &[],
    ),
    // 64.2 / 83.4 / 39.9 / 0 %.
    l(
        m("core.share", "fraction", "lower"),
        "core spans: solves, context plan, assembly",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH), (GOODPUT, MIXED)],
        &[(P50, MIXED)],
    ),
    // 2.8 / 10.9 / 7.7 / 0 %.
    l(
        m("pta.share", "fraction", "lower"),
        "pta spans: report statistics, snapshot codec, block building",
        &[(P50, COLD), (P50, WATCH)],
        &[(P50, MIXED)],
    ),
    // 0 / 3.6 / 7.9 / 0 %. serve-cold pays it for tenant-head warm starts
    // that then fall back.
    l(
        m("exec.prev_revision_share", "fraction", "lower"),
        "get_module(prev), parse_module, fingerprint, ModuleBlocks::build_parallel",
        &[(P50, WATCH)],
        &[(P50, BATCH), (P50, MIXED)],
    ),
    // 0 / 4.2 / 4.0 / 0 %.
    l(
        m("exec.snapshot_share", "fraction", "lower"),
        "get_state + SolvedState::from_bytes; to_bytes + put_state",
        &[],
        &[(P50, BATCH), (P50, MIXED)],
    ),
    // The solver counters follow the solves (core.share above).
    l(
        m("pta.pops", "count", "lower"),
        "SolveStats::iterations, summed over a request's solves",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH)],
        &[(P50, MIXED)],
    ),
    l(
        m("pta.union_words", "count", "lower"),
        "SolveStats::union_words, summed over a request's solves",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH)],
        &[(P50, MIXED)],
    ),
    l(
        m("pta.scc_passes", "count", "lower"),
        "SolveStats::scc_passes, summed over a request's solves",
        &[(P50, BATCH), (P50, COLD), (P50, WATCH)],
        &[(P50, MIXED)],
    ),
    // Seed 1: 3 KB / 0.3 MB / 3.6 MB / 0.2 MB at the peak of a solve,
    // against a peak RSS of 17 / 22 / 44 / 14 MB.
    l(
        m("pta.peak_pts_bytes", "bytes", "lower"),
        "SolveStats::peak_pts_bytes, largest over a request's solves",
        &[(RSS, WATCH)],
        &[(RSS, BATCH)],
    ),
    // Warm-started serve-watch solves; serve-cold's warm starts all fall
    // back.
    l(
        m("pta.incr_seeded_nodes", "count", "lower"),
        "SolveStats::incr_seeded_nodes, summed over a request's warm-started solves",
        &[(P50, WATCH)],
        &[(P50, COLD)],
    ),
    // 0.36 on serve-watch (the modifies), 1.0 on serve-cold by
    // construction.
    l(
        m("pta.incr_fallback_frac", "fraction", "lower"),
        "SolveStats::incr_fallback_full over solves given a previous revision",
        &[(GOODPUT, WATCH)],
        &[(P50, COLD)],
    ),
    // The snapshot calls take 4.2 / 4.0 % (exec.snapshot_share).
    l(
        m("pta.snapshot_bytes", "bytes", "lower"),
        "SolvedState::to_bytes length",
        &[],
        &[(P50, BATCH), (P50, MIXED)],
    ),
    // 0.95 on serve-watch and 0.96 on serve-mixed, where load_frontend
    // takes 8.0 and 18.7 %; 0 on serve-cold by construction.
    l(
        m("exec.fe_hit_frac", "fraction", "higher"),
        "FrontendStats fe_cache_hits over functions",
        &[(P50, WATCH), (P50, MIXED)],
        &[(P50, BATCH)],
    ),
    // 0.85 on serve-mixed: a miss solves where a hit does not.
    l(
        m("exec.report_hit_frac", "fraction", "higher"),
        "get_report hits over lookups",
        &[(GOODPUT, MIXED)],
        &[(P50, BATCH)],
    ),
    // Seed 1: 5.9 / 36.2 / 38.1 / 22.5 MB allocated per solving request.
    l(
        m("core.alloc_mb", "MB", "lower"),
        "bytes allocated inside core spans, per solving request",
        &[(RSS, COLD), (RSS, WATCH)],
        &[],
    ),
    // Seed 1: 0.5 / 2.6 / 6.8 / 0.5 MB.
    l(
        m("exec.alloc_mb", "MB", "lower"),
        "bytes allocated inside exec spans, per request",
        &[(RSS, WATCH)],
        &[],
    ),
    // Seed 1: 0.8 / 4.3 / 8.5 / 0.2 MB.
    l(
        m("ir.alloc_mb", "MB", "lower"),
        "bytes allocated inside ir spans, per request",
        &[(RSS, WATCH)],
        &[],
    ),
    l(
        m("serve.shed_frac", "fraction", "lower"),
        "health counters: shed over admitted plus shed, across the run",
        &[(GOODPUT, MIXED)],
        &[],
    ),
    // Measured: every traced request is replayed once recorded and once
    // not. Validity only: it must stay under 0.05.
    l(
        m("bench.trace_overhead_frac", "fraction", "lower"),
        "recorded over unrecorded replay time, minus one",
        &[],
        &[],
    ),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `name` follows the naming rule: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
