//! The traced replay: a request re-run in the benchmark process as the
//! sequence of public calls the serving worker (or `kd analyze`) makes,
//! with one span per call.
//!
//! The replay mirrors `kaleidoscope_serve::handle_request` and the
//! executor's per-cell pipeline, call for call, but runs the matrix cells
//! serially in Table-3 order (the worker spreads them over two executor
//! threads). It keeps its own [`DiskCache`], which sees the same requests
//! in the same order as the daemon's, so its cache hits — and therefore
//! the work it does — match the daemon's. The caller asserts that: the
//! replayed fingerprint, `fe/` hits, cache disposition, tier and report
//! bytes must equal the served response.

use std::fmt::Write as _;
use std::sync::Arc;

use kaleidoscope::{assemble_result, ctx_plan_for, KaleidoscopeResult, PolicyConfig};
use kaleidoscope::{
    try_fallback_analysis_fe, try_fallback_analysis_incr_fe, try_optimistic_analysis_fe,
    try_optimistic_analysis_incr_fe,
};
use kaleidoscope_exec::{load_frontend, ArtifactCache, DiskCache, ReportScope};
use kaleidoscope_ir::{parse_module, verify_module, Module};
use kaleidoscope_pta::{
    Analysis, ModuleBlocks, PtsStats, SolveBudget, SolveError, SolveOptions, SolvedState,
};
use kaleidoscope_serve::{
    decode_request, decode_response, encode_request, encode_response, CacheDisposition, Request,
    Response,
};

use crate::trace::Recorder;

/// What a replayed request produced, plus the solver counters behind it.
#[derive(Debug, Default)]
pub struct Replayed {
    /// The rendered report.
    pub report: String,
    /// Canonical module fingerprint.
    pub fingerprint: u64,
    /// Functions in the module.
    pub funcs: u64,
    /// Functions served from the `fe/` cache.
    pub fe_hits: u64,
    /// Relation to the disk cache (`None` for the offline path).
    pub disposition: Option<CacheDisposition>,
    /// Report lookups and hits.
    pub report_lookups: u64,
    /// Report lookups that hit.
    pub report_hits: u64,
    /// Stats of every solve the replay ran.
    pub solves: Vec<kaleidoscope_pta::SolveStats>,
    /// Solves that were handed a previous revision to warm-start from.
    pub incr_attempts: u64,
    /// Of those, solves that fell back to a full re-solve.
    pub incr_fallbacks: u64,
    /// Warm-start solves' seeded nodes, summed.
    pub incr_seeded: u64,
    /// Snapshot lookups that found a usable state.
    pub state_hits: u64,
    /// Sizes of the snapshots published.
    pub snapshot_bytes: Vec<usize>,
}

/// The previous revision, parsed once per request and shared by all of
/// its solves (as the executor memoizes it).
type PrevMemo = Option<Option<(Arc<Module>, Arc<ModuleBlocks>)>>;

/// Replay `kd analyze` without a cache: frontend load, verification,
/// fingerprint, then the eight-configuration matrix.
pub fn replay_analyze(text: &str, rec: &mut Recorder) -> Result<Replayed, String> {
    let loaded = rec
        .leaf("exec.load_frontend", || load_frontend(text, None, 0))
        .map_err(|e| format!("parse error: {e}"))?;
    let module = loaded.module;
    verify(&module, rec)?;
    let fp = rec.leaf("ir.fingerprint", || module.fingerprint());
    let mut out = Replayed {
        fingerprint: fp,
        funcs: loaded.stats.funcs as u64,
        fe_hits: loaded.stats.fe_cache_hits as u64,
        ..Replayed::default()
    };
    let configs = PolicyConfig::table3_order();
    let results = run_cells(&module, &loaded.blocks, &configs, None, rec, &mut out)?;
    out.report = render(&module, &results, rec);
    Ok(out)
}

/// Replay one served request against `cache`, from the client's encode
/// to the client's decode of the answer.
pub fn replay_served(
    req: &Request,
    cache: &DiskCache,
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let line = rec.leaf("serve.encode_request", || encode_request(req));
    let req = rec
        .leaf("serve.decode_request", || decode_request(&line))
        .map_err(|e| e.to_string())?;
    let text = match (&req.module, req.fingerprint) {
        (Some(text), None) => text.clone(),
        (None, Some(fp)) => rec
            .leaf("exec.get_module", || cache.get_module(fp))
            .ok_or_else(|| format!("unknown fingerprint {fp:016x}"))?,
        _ => return Err("request names no program".into()),
    };
    let loaded = rec
        .leaf("exec.load_frontend", || {
            load_frontend(&text, Some(cache), 0)
        })
        .map_err(|e| format!("parse error: {e}"))?;
    let module = loaded.module;
    verify(&module, rec)?;
    let fp = rec.leaf("ir.fingerprint", || module.fingerprint());
    let canonical = rec.leaf("ir.to_text", || module.to_text());
    let _ = rec.leaf("exec.put_module", || cache.put_module(fp, &canonical));
    let mut out = Replayed {
        fingerprint: fp,
        funcs: loaded.stats.funcs as u64,
        fe_hits: loaded.stats.fe_cache_hits as u64,
        ..Replayed::default()
    };
    let configs: Vec<PolicyConfig> = match &req.config {
        Some(name) => vec![PolicyConfig::parse(name)?],
        None => PolicyConfig::table3_order().to_vec(),
    };
    let scope = ReportScope {
        config: (configs.len() == 1).then(|| configs[0]),
        stats: req.stats,
        wave: false,
    };
    out.report_lookups = 1;
    let disposition =
        if let Some(text) = rec.leaf("exec.get_report", || cache.get_report(fp, scope)) {
            out.report_hits = 1;
            let _ = rec.leaf("exec.put_tenant_head", || {
                cache.put_tenant_head(&req.tenant, fp)
            });
            out.report = text;
            CacheDisposition::Hit
        } else {
            let prev = req
                .prev_fingerprint
                .or_else(|| {
                    rec.leaf("exec.get_tenant_head", || {
                        cache.get_tenant_head(&req.tenant)
                    })
                })
                .filter(|&prev| prev != fp);
            let results = run_cells(
                &module,
                &loaded.blocks,
                &configs,
                Some((cache, prev)),
                rec,
                &mut out,
            )?;
            out.report = render(&module, &results, rec);
            let _ = rec.leaf("exec.put_tenant_head", || {
                cache.put_tenant_head(&req.tenant, fp)
            });
            match rec.leaf("exec.put_report", || {
                cache.put_report(fp, scope, &out.report)
            }) {
                Ok(()) => CacheDisposition::Stored,
                Err(_) => CacheDisposition::Miss,
            }
        };
    out.disposition = Some(disposition);
    let resp = Response::Ok {
        id: req.id.clone(),
        report: out.report.clone(),
        tier: "full".to_string(),
        cache: disposition,
        fingerprint: fp,
        degraded: 0,
        parse_ms: Some(loaded.stats.parse_ms),
        gen_ms: Some(loaded.stats.gen_ms),
        fe_cache_hits: Some(out.fe_hits),
    };
    let frame = rec.leaf("serve.encode_response", || encode_response(&resp));
    rec.leaf("serve.decode_response", || decode_response(&frame))
        .map_err(|e| e.to_string())?;
    Ok(out)
}

fn verify(module: &Module, rec: &mut Recorder) -> Result<(), String> {
    let problems = rec.leaf("ir.verify_module", || verify_module(module));
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("module failed verification: {}", problems[0]))
    }
}

/// The executor's per-cell pipeline for every configuration, in order:
/// per-cell fingerprint, verified artifact fetches (solving on a miss,
/// warm-started from the previous revision when a state store is given),
/// the context plan, and assembly.
fn run_cells(
    module: &Module,
    blocks: &ModuleBlocks,
    configs: &[PolicyConfig],
    store: Option<(&DiskCache, Option<u64>)>,
    rec: &mut Recorder,
    out: &mut Replayed,
) -> Result<Vec<KaleidoscopeResult>, String> {
    let artifacts = ArtifactCache::new();
    let budget = SolveBudget::default();
    let mut prev_memo: PrevMemo = None;
    let mut results = Vec::with_capacity(configs.len());
    for &config in configs {
        let fp = rec.leaf("ir.fingerprint", || module.fingerprint());
        let base = SolveOptions::baseline();
        let fallback = rec
            .span("exec.artifact_fetch", |rec| {
                artifacts.try_analysis(fp, &base, false, || {
                    solve(
                        rec,
                        "core.fallback",
                        store,
                        &mut prev_memo,
                        out,
                        (fp, base.cache_key(), false),
                        |prev, prev_blocks| match store {
                            None => try_fallback_analysis_fe(module, &budget, 0, Some(blocks))
                                .map(|a| (a, None)),
                            Some(_) => try_fallback_analysis_incr_fe(
                                module,
                                &budget,
                                0,
                                prev,
                                prev_blocks,
                                Some(blocks),
                            ),
                        },
                    )
                })
            })
            .map_err(|e| format!("fallback solve failed: {e}"))?;
        let ctx_plan = if config.ctx {
            rec.span("exec.artifact_fetch", |rec| {
                artifacts.ctx_plan(fp, || {
                    rec.leaf("core.ctx_plan", || ctx_plan_for(module, config))
                })
            })
        } else {
            Arc::new(kaleidoscope_pta::CtxPlan::new())
        };
        let opts = SolveOptions {
            budget: budget.clone(),
            ..SolveOptions::optimistic(config.pa, config.pwc)
        };
        let optimistic = rec
            .span("exec.artifact_fetch", |rec| {
                artifacts.try_analysis(fp, &opts, config.ctx, || {
                    solve(
                        rec,
                        "core.optimistic",
                        store,
                        &mut prev_memo,
                        out,
                        (fp, opts.cache_key(), config.ctx),
                        |prev, prev_blocks| match store {
                            None => try_optimistic_analysis_fe(
                                module,
                                config,
                                &ctx_plan,
                                &budget,
                                0,
                                Some(blocks),
                            )
                            .map(|a| (a, None)),
                            Some(_) => try_optimistic_analysis_incr_fe(
                                module,
                                config,
                                &ctx_plan,
                                &budget,
                                0,
                                prev,
                                prev_blocks,
                                Some(blocks),
                            ),
                        },
                    )
                })
            })
            .map_err(|e| format!("optimistic solve failed: {e}"))?;
        results.push(rec.leaf("core.assemble", || {
            assemble_result(module, config, fallback, optimistic, (*ctx_plan).clone())
        }));
    }
    Ok(results)
}

type SolveOutcome = Result<(Analysis, Option<SolvedState>), SolveError>;

/// One solve family on an artifact-cache miss: fetch the previous
/// revision's snapshot (when a store and previous revision are given),
/// solve, and publish the new snapshot — the executor's order exactly.
fn solve(
    rec: &mut Recorder,
    name: &'static str,
    store: Option<(&DiskCache, Option<u64>)>,
    prev_memo: &mut PrevMemo,
    out: &mut Replayed,
    (fp, opts_key, with_ctx): (u64, u64, bool),
    run: impl FnOnce(Option<(&Module, &SolvedState)>, Option<&ModuleBlocks>) -> SolveOutcome,
) -> Result<Analysis, SolveError> {
    let Some((cache, prev_fp)) = store else {
        let (analysis, _) = rec.leaf(name, || run(None, None))?;
        out.solves.push(analysis.result.stats.clone());
        return Ok(analysis);
    };
    let prev = prev_fp.and_then(|prev_fp| {
        let state = rec.span("exec.get_state", |rec| {
            let bytes = cache.get_state(prev_fp, opts_key, with_ctx)?;
            rec.leaf("pta.state_decode", || SolvedState::from_bytes(&bytes))
        })?;
        if state.fingerprint != prev_fp {
            return None;
        }
        out.state_hits += 1;
        let (module, blocks) = prev_module(rec, cache, prev_fp, prev_memo)?;
        Some((module, blocks, state))
    });
    let (analysis, state) = rec.leaf(name, || {
        run(
            prev.as_ref().map(|(m, _, s)| (&**m, s)),
            prev.as_ref().map(|(_, b, _)| &**b),
        )
    })?;
    let stats = &analysis.result.stats;
    if prev.is_some() {
        out.incr_attempts += 1;
        out.incr_fallbacks += (stats.incr_fallback_full > 0) as u64;
        out.incr_seeded += stats.incr_seeded_nodes as u64;
    }
    out.solves.push(stats.clone());
    if let Some(state) = state {
        rec.span("exec.put_state", |rec| {
            let bytes = rec.leaf("pta.state_encode", || state.to_bytes());
            out.snapshot_bytes.push(bytes.len());
            let _ = cache.put_state(fp, opts_key, with_ctx, &bytes);
        });
    }
    Ok(analysis)
}

/// The executor's previous-revision step: fetch the stored text, parse
/// it, check it round-trips to its fingerprint, and record its blocks.
fn prev_module(
    rec: &mut Recorder,
    cache: &DiskCache,
    prev_fp: u64,
    memo: &mut PrevMemo,
) -> Option<(Arc<Module>, Arc<ModuleBlocks>)> {
    if memo.is_none() {
        *memo = Some(rec.span("exec.prev_revision", |rec| {
            let text = rec.leaf("exec.get_module", || cache.get_module(prev_fp))?;
            let module = rec.leaf("ir.parse_module", || parse_module(&text)).ok()?;
            if rec.leaf("ir.fingerprint", || module.fingerprint()) != prev_fp {
                return None;
            }
            let blocks = rec.leaf("pta.build_blocks", || {
                ModuleBlocks::build_parallel(&module, 1)
            });
            Some((Arc::new(module), Arc::new(blocks)))
        }));
    }
    memo.clone().flatten()
}

/// `render_analyze`'s report text for healthy results.
fn render(module: &Module, results: &[KaleidoscopeResult], rec: &mut Recorder) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "module `{}`: {} functions, {} instructions",
        module.name,
        module.funcs.len(),
        module.inst_count()
    );
    let _ = writeln!(
        out,
        "{:<13} {:>8} {:>8} {:>8} {:>11}",
        "config", "avg-pts", "max-pts", "pointers", "invariants"
    );
    for r in results {
        let p = rec.leaf("pta.pts_stats", || PtsStats::collect(&r.optimistic, module));
        let _ = writeln!(
            out,
            "{:<13} {:>8.2} {:>8} {:>8} {:>11}",
            r.config.name(),
            p.avg,
            p.max,
            p.count,
            r.invariants.len()
        );
        for inv in &r.invariants {
            let _ = writeln!(out, "    {inv}");
        }
    }
    out
}
