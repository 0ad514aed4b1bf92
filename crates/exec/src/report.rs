//! The canonical `analyze` request and its report renderer.
//!
//! `kd analyze`, the serve daemon's worker processes, and the daemon's
//! shed path all answer through [`analyze_request`], which renders
//! through [`render_analyze`]. That is what makes a served response
//! byte-identical to the offline CLI report for the same module and
//! configuration — the serving acceptance criterion, and the property the
//! e2e tests assert.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use kaleidoscope::{CellHealth, DegradedTier, PolicyConfig};
use kaleidoscope_ir::{fnv1a64, revision_prefix, verify_module, Module, ParseError};
use kaleidoscope_pta::{Analysis, PtsStats, SolveBudget};

use crate::{load_frontend, DiskCache, Executor, FrontendStats, ReportScope};

/// A rendered analyze report plus the health summary the serving layer
/// tags responses with.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The rendered report text (exactly what `kd analyze` prints).
    pub text: String,
    /// Number of degraded configuration cells.
    pub degraded: usize,
    /// The lowest ladder rung any cell landed on (`None` = all healthy).
    pub worst_tier: Option<DegradedTier>,
}

impl AnalyzeReport {
    /// Whether every cell ran as configured.
    pub fn all_healthy(&self) -> bool {
        self.degraded == 0
    }
}

/// Render the analyze report for `module × configs` through `ex`.
///
/// The output is deterministic for a given module + config set + executor
/// budget: worker count, cache warmth, and interleaving never change a
/// byte (see the executor crate docs). With `stats` set, each row carries
/// the solver's internal counters.
pub fn render_analyze(
    module: &Module,
    configs: &[PolicyConfig],
    ex: &Executor,
    stats: bool,
) -> AnalyzeReport {
    render(module, None, configs, ex, stats)
}

/// [`render_analyze`], with `module`'s fingerprint when the caller already
/// holds it.
fn render(
    module: &Module,
    fp: Option<u64>,
    configs: &[PolicyConfig],
    ex: &Executor,
    stats: bool,
) -> AnalyzeReport {
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
    let fps = fp.as_ref().map(std::slice::from_ref);
    let results = ex.run_fingerprinted(&[module], fps, configs, |_, _, r| r.clone());
    let mut degraded = 0usize;
    let mut worst_tier: Option<DegradedTier> = None;
    // Rows whose cells share an artifact share its statistics.
    let mut collected: Vec<(&Arc<Analysis>, PtsStats)> = Vec::new();
    for r in &results[0] {
        let c = r.config;
        let i = match collected
            .iter()
            .position(|(a, _)| Arc::ptr_eq(a, &r.optimistic))
        {
            Some(i) => i,
            None => {
                collected.push((&r.optimistic, PtsStats::collect(&r.optimistic, module)));
                collected.len() - 1
            }
        };
        let pstats = &collected[i].1;
        let _ = writeln!(
            out,
            "{:<13} {:>8.2} {:>8} {:>8} {:>11}",
            c.name(),
            pstats.avg,
            pstats.max,
            pstats.count,
            r.invariants.len()
        );
        if let CellHealth::Degraded { tier, reason } = &r.health {
            degraded += 1;
            worst_tier = Some(match (worst_tier, *tier) {
                (Some(DegradedTier::Steensgaard), _) | (_, DegradedTier::Steensgaard) => {
                    DegradedTier::Steensgaard
                }
                _ => DegradedTier::Fallback,
            });
            let _ = writeln!(out, "    degraded: serving {tier} tier — {reason}");
        }
        for inv in &r.invariants {
            let _ = writeln!(out, "    {inv}");
        }
        if stats {
            for (tag, a) in [("fallback", &r.fallback), ("optimistic", &r.optimistic)] {
                let s = &a.result.stats;
                let _ = writeln!(
                    out,
                    "    solver[{tag}]: pops={} scc-passes={} union-words={} \
                     peak-pts-bytes={} copy-edges={} collapsed-objects={}",
                    s.iterations,
                    s.scc_passes,
                    s.union_words,
                    s.peak_pts_bytes,
                    s.copy_edges,
                    s.collapsed_objects
                );
                if s.incr_reused > 0 || s.incr_fallback_full > 0 {
                    let _ = writeln!(
                        out,
                        "    incr[{tag}]: incr-reused={} incr-seeded={} incr-fallback-full={}",
                        s.incr_reused, s.incr_seeded_nodes, s.incr_fallback_full
                    );
                }
            }
        }
    }
    if degraded > 0 {
        let _ = writeln!(
            out,
            "warning: {degraded}/{} configurations degraded (see `degraded:` lines above)",
            results[0].len()
        );
    }
    AnalyzeReport {
        text: out,
        degraded,
        worst_tier,
    }
}

/// The program an [`AnalyzeRequest`] names.
#[derive(Debug, Clone, Copy)]
pub enum ModuleSource<'a> {
    /// Module text, in any formatting the parser accepts.
    Text(&'a str),
    /// The fingerprint of a module stored in the disk cache earlier.
    Stored(u64),
}

/// One `analyze` request: what `kd analyze`, a serve worker and the
/// daemon's shed path each ask of [`analyze_request`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeRequest<'a> {
    /// The program to analyze.
    pub module: ModuleSource<'a>,
    /// Configuration name (see [`PolicyConfig::parse`]); `None` is the
    /// full Table-3 matrix.
    pub config: Option<&'a str>,
    /// Include solver counters in the report.
    pub stats: bool,
    /// Per-solve worklist budget; `None` is unbounded.
    pub budget: Option<usize>,
    /// Executor worker count (`0` = available parallelism).
    pub jobs: usize,
    /// Warm-start from this revision's snapshot, when the cache has it.
    pub prev_fingerprint: Option<u64>,
    /// The tenant whose head the answer moves. Without an explicit
    /// `prev_fingerprint`, a miss warm-starts from the tenant's head.
    pub tenant: Option<&'a str>,
}

/// How an answer was produced relative to the shared artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the store without a solve.
    Hit,
    /// Solved; the result was not storable (degraded or store disabled).
    Miss,
    /// Solved and the healthy report was published to the store.
    Stored,
}

impl CacheDisposition {
    /// The wire and log name: `hit`, `miss` or `stored`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Stored => "stored",
        }
    }

    /// Inverse of [`CacheDisposition::as_str`].
    pub fn parse(s: &str) -> Option<CacheDisposition> {
        Some(match s {
            "hit" => CacheDisposition::Hit,
            "miss" => CacheDisposition::Miss,
            "stored" => CacheDisposition::Stored,
            _ => return None,
        })
    }
}

/// What [`analyze_request`] answered.
#[derive(Debug, Clone)]
pub struct AnalyzeAnswer {
    /// The report and its health summary (healthy on a cache hit: the
    /// store holds only full-precision reports).
    pub report: AnalyzeReport,
    /// Fingerprint of the module's canonical text.
    pub fingerprint: u64,
    /// Relation to the shared artifact store.
    pub cache: CacheDisposition,
    /// Counters of the frontend load.
    pub frontend: FrontendStats,
}

/// Why [`analyze_request`] could not answer.
#[derive(Debug)]
pub enum AnalyzeError {
    /// A [`ModuleSource::Stored`] fingerprint the cache does not hold.
    UnknownFingerprint(u64),
    /// The module text does not parse.
    Parse(ParseError),
    /// The module parses but fails verification; the problems, joined.
    Verify(String),
    /// The configuration name is not one [`PolicyConfig::parse`] accepts.
    Config(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::UnknownFingerprint(fp) => write!(
                f,
                "unknown fingerprint `{fp:016x}` (submit the module inline first)"
            ),
            AnalyzeError::Parse(e) => write!(f, "parse error: {e}"),
            AnalyzeError::Verify(problems) => write!(f, "module failed verification: {problems}"),
            AnalyzeError::Config(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Answer one `analyze` request. The steps, and their disk-cache traffic
/// in order:
///
/// 1. Load the program through [`load_frontend`] (`fe/` entries) and
///    verify it. Print its canonical text once; the fingerprint is the
///    hash of that text. A program named by fingerprint is answered only
///    when the stored text is that fingerprint's module.
/// 2. Store the canonical text, so fetch-by-fingerprint re-parses to the
///    same fingerprint whatever the submission's formatting.
/// 3. Look up the report. A hit moves the tenant head and returns.
/// 4. On a miss, find the previous revision: `prev_fingerprint`, else the
///    tenant's head, unless it is the module itself. Read its stored text
///    once and compare it with the canonical text of step 1
///    ([`revision_prefix`]); the module extends the revision when the
///    texts agree and the module's first that many items refer only to
///    each other ([`Module::prefix_closed`]). Only the revision's counts
///    are kept; then drop both texts.
/// 5. Solve on an [`Executor`] with the frontend's stored plan-free
///    program, the budget, the cache as state store, and the revision of
///    step 4 to warm-start from. Render, move the head, and publish the
///    report if it is healthy.
///
/// A healthy report is the full fixpoint whatever the budget, so budgeted
/// answers are stored too; a degraded one never is.
pub fn analyze_request(
    req: &AnalyzeRequest<'_>,
    cache: Option<&Arc<DiskCache>>,
) -> Result<AnalyzeAnswer, AnalyzeError> {
    let fe_cache = cache.map(|c| &**c);
    let loaded = match req.module {
        ModuleSource::Text(text) => load_frontend(text, fe_cache, 1),
        ModuleSource::Stored(fp) => {
            let text = cache
                .and_then(|c| c.get_module(fp))
                .ok_or(AnalyzeError::UnknownFingerprint(fp))?;
            load_frontend(&text, fe_cache, 1)
        }
    }
    .map_err(AnalyzeError::Parse)?;
    let problems = verify_module(&loaded.module);
    if !problems.is_empty() {
        let joined: Vec<String> = problems.iter().map(|p| p.to_string()).collect();
        return Err(AnalyzeError::Verify(joined.join("; ")));
    }
    let canonical = loaded.module.to_text();
    let fp = fnv1a64(&[canonical.as_bytes()]);
    // A stored text answers only for the fingerprint it was fetched by.
    if let ModuleSource::Stored(asked) = req.module {
        if asked != fp {
            return Err(AnalyzeError::UnknownFingerprint(asked));
        }
    }
    if let Some(c) = cache {
        let _ = c.put_module(fp, &canonical);
    }

    let configs: Vec<PolicyConfig> = match req.config {
        Some(name) => vec![PolicyConfig::parse(name).map_err(AnalyzeError::Config)?],
        None => PolicyConfig::table3_order().to_vec(),
    };
    let scope = ReportScope {
        config: (configs.len() == 1).then(|| configs[0]),
        stats: req.stats,
        wave: false,
    };
    let move_head = || {
        if let (Some(c), Some(tenant)) = (cache, req.tenant) {
            let _ = c.put_tenant_head(tenant, fp);
        }
    };
    if let Some(text) = cache.and_then(|c| c.get_report(fp, scope)) {
        move_head();
        return Ok(AnalyzeAnswer {
            report: AnalyzeReport {
                text,
                degraded: 0,
                worst_tier: None,
            },
            fingerprint: fp,
            cache: CacheDisposition::Hit,
            frontend: loaded.stats,
        });
    }

    let mut ex = Executor::with_jobs(req.jobs).with_frontend(fp, loaded.blocks);
    if let Some(n) = req.budget {
        ex = ex.with_budget(SolveBudget::iterations(n));
    }
    if let Some(store) = cache {
        // The warm start is advisory: a missing text or snapshot solves
        // cold, and a self-edge (prev == current) is skipped. The previous
        // revision is never parsed: `get_module` returns only text that
        // hashes to `prev`, and text that parses refers only within
        // itself, so a prefix that a kept item refers past is no revision.
        let prev = req
            .prev_fingerprint
            .or_else(|| req.tenant.and_then(|t| store.get_tenant_head(t)))
            .filter(|&prev| prev != fp);
        if let Some(prev) = prev {
            if let Some(text) = store.get_module(prev) {
                let prefix = revision_prefix(&text, &canonical)
                    .filter(|&counts| loaded.module.prefix_closed(counts));
                ex = ex.with_previous_revision(prev, fp, prefix);
            }
        }
        ex = ex.with_state_store(Arc::clone(store));
    }
    // Only the store and the revision needed the text; free it before the
    // solve.
    drop(canonical);
    let report = render(&loaded.module, Some(fp), &configs, &ex, req.stats);
    move_head();
    let disposition = match cache {
        Some(c) if report.all_healthy() => match c.put_report(fp, scope, &report.text) {
            Ok(()) => CacheDisposition::Stored,
            Err(_) => CacheDisposition::Miss,
        },
        _ => CacheDisposition::Miss,
    };
    Ok(AnalyzeAnswer {
        report,
        fingerprint: fp,
        cache: disposition,
        frontend: loaded.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(name: &str) -> Module {
        kaleidoscope_apps::model(name)
            .expect("bundled model")
            .module
    }

    #[test]
    fn healthy_report_has_no_tier() {
        let m = model("TinyDTLS");
        let ex = Executor::with_jobs(2);
        let r = render_analyze(&m, &PolicyConfig::table3_order(), &ex, false);
        assert!(r.all_healthy());
        assert_eq!(r.worst_tier, None);
        assert!(r.text.contains("Kaleidoscope"));
    }

    #[test]
    fn exhausted_budget_reports_worst_tier() {
        let m = model("TinyDTLS");
        let ex = Executor::with_jobs(2).with_budget(SolveBudget::iterations(1));
        let r = render_analyze(&m, &PolicyConfig::table3_order(), &ex, false);
        assert_eq!(r.degraded, 8);
        assert_eq!(r.worst_tier, Some(DegradedTier::Steensgaard));
        assert!(r.text.contains("configurations degraded"));
    }

    #[test]
    fn a_previous_revision_warm_starts_only_from_its_stored_text() {
        let (prev, next) = (model("TinyDTLS"), model("Wget"));
        let next_text = next.to_text();
        let ask = |prev_fingerprint| AnalyzeRequest {
            module: ModuleSource::Text(&next_text),
            config: None,
            stats: true,
            budget: None,
            jobs: 2,
            prev_fingerprint,
            tenant: None,
        };
        let cold = analyze_request(&ask(None), None)
            .expect("answers")
            .report
            .text;
        assert!(!cold.contains("incr["), "{cold}");

        // `prev` publishes its snapshots; the third case also stores its
        // text. An unknown fingerprint and a revision without stored text
        // solve cold with no `incr[` row, as if none were named. An
        // unrelated revision's text is read but not extended, so each
        // solve whose key has a snapshot (the fallback's) falls back.
        for (case, prev_fp, text_stored) in [
            ("unknown", 0xDEAD_BEEF, false),
            ("text missing", prev.fingerprint(), false),
            ("unrelated", prev.fingerprint(), true),
        ] {
            let dir = std::env::temp_dir().join(format!(
                "kd-report-prev-{}-{}",
                case.replace(' ', "-"),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(DiskCache::open(&dir).expect("open store"));
            Executor::with_jobs(2)
                .with_state_store(Arc::clone(&store))
                .run_matrix(&[&prev], &PolicyConfig::table3_order());
            if text_stored {
                store
                    .put_module(prev.fingerprint(), &prev.to_text())
                    .expect("store text");
            }
            let answer = analyze_request(&ask(Some(prev_fp)), Some(&store)).expect("answers");
            assert_eq!(answer.cache, CacheDisposition::Stored, "{case}");
            let report = answer.report.text;
            if text_stored {
                assert!(report.contains("incr-fallback-full=1"), "{case}: {report}");
                assert!(!report.contains("incr-fallback-full=0"), "{case}: {report}");
                let rows: String = report
                    .lines()
                    .filter(|l| !l.contains("incr["))
                    .map(|l| format!("{l}\n"))
                    .collect();
                assert_eq!(rows, cold, "{case}: a fallback solve is the cold one");
            } else {
                assert_eq!(report, cold, "{case}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
