//! The worker side of the daemon: parse a request, run the analysis,
//! answer with a report.
//!
//! The same handler backs two execution modes:
//!
//! * **Process shards** — `kd worker` runs [`run_worker`] over its
//!   stdin/stdout pipes, one request line in, one response line out. A
//!   crash (or an injected `fault:"kill"`) takes down only this child;
//!   the supervisor sees EOF and restarts it.
//! * **Thread shards** — tests and the load bench call
//!   [`handle_request`] directly, so protocol behavior can be asserted
//!   without process spawning. Fault directives are inert here
//!   (`unsafe_faults` is never set for thread shards).
//!
//! A request is answered by [`kaleidoscope_exec::analyze_request`], the
//! one request function `kd analyze` and the daemon's shed path use too.
//! It consults the shared [`DiskCache`] before solving and publishes
//! healthy reports back to it, which is what makes a repeat query a cache
//! hit regardless of which worker — or which *process* — served the first
//! one. The cached artifact is the full-precision fixpoint, so a hit is
//! always served at the `full` tier even when the request carried a
//! budget: the store never holds degraded reports. The worker keeps only
//! what is its own: the fault directives and the [`Response`].

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use kaleidoscope::DegradedTier;
use kaleidoscope_exec::{analyze_request, AnalyzeRequest, DiskCache, ModuleSource};

use crate::protocol::{decode_request, encode_response, Request, Response};

/// Configuration a worker runs under (fixed at spawn time, not per
/// request).
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Executor worker threads per solve (`0` = available parallelism).
    pub jobs: usize,
    /// The shared on-disk artifact store, if configured.
    pub cache: Option<Arc<DiskCache>>,
    /// Honor `fault` directives in requests (test builds of the daemon
    /// only; never set for thread shards).
    pub unsafe_faults: bool,
}

/// The ladder rung a report was served at, as tagged on responses.
pub fn tier_name(worst: Option<DegradedTier>) -> &'static str {
    match worst {
        None => "full",
        Some(DegradedTier::Fallback) => "fallback",
        Some(DegradedTier::Steensgaard) => "steensgaard",
    }
}

fn error(id: &str, msg: impl Into<String>) -> Response {
    Response::Error {
        id: id.to_string(),
        error: msg.into(),
    }
}

/// `req` as the exec crate's request, the way a worker runs it: the
/// request's budget and warm start, the tenant's head, and `jobs`
/// executor threads.
pub(crate) fn analyze_request_of(req: &Request, jobs: usize) -> Result<AnalyzeRequest<'_>, String> {
    let module = match (&req.module, req.fingerprint) {
        (Some(text), None) => ModuleSource::Text(text),
        (None, Some(fp)) => ModuleSource::Stored(fp),
        // decode_request enforces exactly-one; direct callers get the same rule.
        _ => return Err("one of `module` or `fingerprint` is required".to_string()),
    };
    Ok(AnalyzeRequest {
        module,
        config: req.config.as_deref(),
        stats: req.stats,
        budget: req.budget,
        jobs,
        prev_fingerprint: req.prev_fingerprint,
        tenant: Some(&req.tenant),
    })
}

/// Answer `ask` (the exec request for `req`, or why there is none) and
/// build the response. `tier_override` replaces the tier tag of an `ok`
/// answer; the report bytes are untouched.
pub(crate) fn respond(
    req: &Request,
    ask: Result<AnalyzeRequest<'_>, String>,
    cache: Option<&Arc<DiskCache>>,
    tier_override: Option<&str>,
) -> Response {
    let answer = match ask.and_then(|a| analyze_request(&a, cache).map_err(|e| e.to_string())) {
        Ok(answer) => answer,
        Err(e) => return error(&req.id, e),
    };
    let fe = answer.frontend;
    Response::Ok {
        id: req.id.clone(),
        tier: tier_override
            .unwrap_or(tier_name(answer.report.worst_tier))
            .to_string(),
        report: answer.report.text,
        cache: answer.cache,
        fingerprint: answer.fingerprint,
        degraded: answer.report.degraded as u64,
        parse_ms: Some(fe.parse_ms),
        gen_ms: Some(fe.gen_ms),
        fe_cache_hits: Some(fe.fe_cache_hits as u64),
    }
}

/// Serve one request. Cache hits, full solves, and (in the daemon) the
/// shed path all answer through [`analyze_request`], which keeps
/// responses byte-identical to `kd analyze` for the same module,
/// configuration, and budget.
pub fn handle_request(req: &Request, opts: &WorkerOptions) -> Response {
    if opts.unsafe_faults {
        if let Some(fault) = &req.fault {
            match fault.as_str() {
                // Simulates a worker dying mid-solve: exit without
                // answering, leaving the supervisor a half-open pipe.
                // `crash` is the same failure; it exists so seeded chaos
                // mixes read naturally (`kill` a healthy worker vs a
                // worker that `crash`es on its own).
                "kill" | "crash" => std::process::exit(101),
                // Simulates a hung solve or a stalled connection: accept
                // the request, never reply. The shard's deadline kill is
                // the only way out.
                "stall" => loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                },
                // Simulates a cache publish cut short: leave a `.tmp`
                // orphan and a report with a truncated integrity line
                // behind, then die. The daemon's next recovery sweep (at
                // drain, or at its next start) must delete the one and
                // quarantine the other.
                "torn" => {
                    if let Some(c) = opts.cache.as_deref() {
                        let _ = c.inject_torn_publish();
                    }
                    std::process::exit(101);
                }
                other => return error(&req.id, format!("unknown fault directive `{other}`")),
            }
        }
    }
    // A request's `solver_threads` field is decoded but ignored: there is
    // one solver schedule.
    respond(
        req,
        analyze_request_of(req, opts.jobs),
        opts.cache.as_ref(),
        None,
    )
}

/// The `kd worker` loop: one request line in on `input`, one response
/// line out on `output`, until EOF. Malformed lines get an `error`
/// response; the loop never exits early on bad input — only on EOF or a
/// broken pipe (the supervisor restarting us).
pub fn run_worker(
    input: impl BufRead,
    mut output: impl Write,
    opts: &WorkerOptions,
) -> io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = match decode_request(&line) {
            Ok(req) => handle_request(&req, opts),
            Err(e) => error("?", e.to_string()),
        };
        writeln!(output, "{}", encode_response(&response))?;
        output.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CacheDisposition;
    use kaleidoscope::PolicyConfig;
    use kaleidoscope_exec::{render_analyze, Executor};

    fn tiny_module() -> String {
        kaleidoscope_apps::model("TinyDTLS")
            .expect("bundled model")
            .module
            .to_text()
    }

    fn opts_with_cache(tag: &str) -> WorkerOptions {
        let dir = std::env::temp_dir().join(format!("kd-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkerOptions {
            jobs: 2,
            cache: Some(Arc::new(DiskCache::open(dir).expect("temp cache"))),
            unsafe_faults: false,
        }
    }

    #[test]
    fn inline_request_solves_then_repeat_hits_cache() {
        let opts = opts_with_cache("warm");
        let req = Request::inline("cold", &tiny_module());
        let first = handle_request(&req, &opts);
        let Response::Ok {
            report,
            cache,
            tier,
            fingerprint,
            ..
        } = &first
        else {
            panic!("expected ok, got {first:?}");
        };
        assert_eq!(*cache, CacheDisposition::Stored);
        assert_eq!(tier, "full");
        // Repeat by fingerprint: no solve, byte-identical report.
        let again = Request {
            id: "warm".into(),
            tenant: "default".into(),
            op: None,
            module: None,
            fingerprint: Some(*fingerprint),
            prev_fingerprint: None,
            config: None,
            stats: false,
            budget: None,
            solver_threads: None,
            fault: None,
        };
        let second = handle_request(&again, &opts);
        let Response::Ok {
            report: r2,
            cache: c2,
            ..
        } = &second
        else {
            panic!("expected ok, got {second:?}");
        };
        assert_eq!(*c2, CacheDisposition::Hit);
        assert_eq!(r2, report);
    }

    #[test]
    fn blown_budget_is_tagged_degraded_and_not_cached() {
        let opts = opts_with_cache("budget");
        let mut req = Request::inline("tight", &tiny_module());
        req.budget = Some(1);
        let resp = handle_request(&req, &opts);
        let Response::Ok {
            tier,
            cache,
            degraded,
            ..
        } = &resp
        else {
            panic!("expected ok, got {resp:?}");
        };
        assert_eq!(tier, "steensgaard");
        assert_eq!(*cache, CacheDisposition::Miss);
        assert_eq!(*degraded, 8);
    }

    #[test]
    fn unknown_fingerprint_is_an_error_not_a_crash() {
        let opts = opts_with_cache("nofp");
        let req = Request {
            id: "q".into(),
            tenant: "default".into(),
            op: None,
            module: None,
            fingerprint: Some(0x1234),
            prev_fingerprint: None,
            config: None,
            stats: false,
            budget: None,
            solver_threads: None,
            fault: None,
        };
        let resp = handle_request(&req, &opts);
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    }

    #[test]
    fn fault_directive_is_inert_without_unsafe_faults() {
        let opts = opts_with_cache("fault");
        let mut req = Request::inline("f", &tiny_module());
        req.fault = Some("kill".into());
        // Would exit(101) if honored; instead it answers normally.
        let resp = handle_request(&req, &opts);
        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    }

    #[test]
    fn worker_loop_answers_malformed_lines_and_keeps_going() {
        let opts = WorkerOptions::default();
        let module = tiny_module();
        let good = crate::protocol::encode_request(&Request::inline("ok-1", &module));
        let input = format!("not json at all\n\n{good}\n");
        let mut out = Vec::new();
        run_worker(io::BufReader::new(input.as_bytes()), &mut out, &opts).expect("io");
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 2, "one response per non-empty line");
        assert!(matches!(
            crate::protocol::decode_response(lines[0]).unwrap(),
            Response::Error { .. }
        ));
        let ok = crate::protocol::decode_response(lines[1]).unwrap();
        assert_eq!(ok.id(), "ok-1");
    }

    #[test]
    fn solver_threads_field_is_ignored() {
        let opts = opts_with_cache("threads");
        let plain = handle_request(&Request::inline("c", &tiny_module()), &opts);
        let Response::Ok {
            report: r1,
            cache: c1,
            ..
        } = &plain
        else {
            panic!("expected ok, got {plain:?}");
        };
        assert_eq!(*c1, CacheDisposition::Stored);
        // The same module with the legacy knob set: the same bytes, served
        // from the report the plain request stored.
        let mut treq = Request::inline("t", &tiny_module());
        treq.solver_threads = Some(2);
        let with = handle_request(&treq, &opts);
        let Response::Ok {
            report: r2,
            cache: c2,
            ..
        } = &with
        else {
            panic!("expected ok, got {with:?}");
        };
        assert_eq!(*c2, CacheDisposition::Hit);
        assert_eq!(r2, r1);
    }

    #[test]
    fn watch_mode_edit_warm_starts_and_matches_cold_bytes() {
        use kaleidoscope_ir::{FunctionBuilder, Type};
        let opts = opts_with_cache("incr");
        let v1 = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
        let mut v2 = v1.clone();
        let mut b = FunctionBuilder::new(&mut v2, "watch_extra", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let _ = b.copy("p", o);
        b.ret(None);
        b.finish();

        // Revision 1: cold solve; publishes snapshots and the tenant head.
        let mut r1 = Request::inline("v1", &v1.to_text());
        r1.tenant = "watch".into();
        let first = handle_request(&r1, &opts);
        let Response::Ok {
            fingerprint: v1_fp, ..
        } = first
        else {
            panic!("expected ok, got {first:?}");
        };
        assert_eq!(
            opts.cache.as_ref().unwrap().get_tenant_head("watch"),
            Some(v1_fp),
            "serving records the tenant head"
        );

        // Revision 2 warm-started from revision 1: byte-identical to the
        // offline cold render (the differential gate's property).
        let mut r2 = Request::inline("v2", &v2.to_text());
        r2.tenant = "watch".into();
        r2.prev_fingerprint = Some(v1_fp);
        let warm = handle_request(&r2, &opts);
        let Response::Ok { report, .. } = &warm else {
            panic!("expected ok, got {warm:?}");
        };
        let offline = render_analyze(
            &v2,
            &PolicyConfig::table3_order(),
            &Executor::with_jobs(1),
            false,
        );
        assert_eq!(*report, offline.text, "warm report == cold bytes");

        // A stats-bearing repeat proves the warm path actually engaged:
        // the incr counters show reuse and no full fallback.
        let mut r3 = Request::inline("v2-stats", &v2.to_text());
        r3.tenant = "watch".into();
        r3.prev_fingerprint = Some(v1_fp);
        r3.stats = true;
        let Response::Ok { report: stats, .. } = handle_request(&r3, &opts) else {
            panic!("expected ok");
        };
        assert!(
            stats.contains("incr-reused="),
            "warm path engaged:\n{stats}"
        );
        assert!(
            stats.contains("incr-fallback-full=0"),
            "append edit must not fall back:\n{stats}"
        );
    }

    #[test]
    fn report_matches_offline_renderer_bytes() {
        let opts = WorkerOptions::default();
        let module = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
        let req = Request::inline("id", &module.to_text());
        let Response::Ok { report, .. } = handle_request(&req, &opts) else {
            panic!("expected ok");
        };
        let offline = render_analyze(
            &module,
            &PolicyConfig::table3_order(),
            &Executor::with_jobs(1),
            false,
        );
        assert_eq!(report, offline.text);
    }
}
