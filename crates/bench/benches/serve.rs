//! Closed-loop load benchmark for the `kd serve` daemon stack.
//!
//! An in-process [`Server`] (real TCP, real router/supervisor/admission,
//! thread-mode shards so the numbers measure the serving stack rather
//! than process spawn) is driven by closed-loop clients — each client
//! issues its next request as soon as the previous one is answered:
//!
//! * **cold** — first-ever request for the module: full solve in a shard.
//! * **warm** — repeat requests: served from the shared artifact store.
//! * **overload** — more clients than the tenant's concurrency quota,
//!   measuring the shed path and recording the shed rate.
//!
//! Writes `BENCH_serve.json` (cold/warm latency samples plus
//! admitted/shed counters) to the repository root, next to the other
//! `BENCH_*.json` trajectories. `--smoke` runs one iteration per case and
//! writes nothing, so CI keeps the bench's own assertions (a warm 100k
//! frontend load hits every `fe/` entry; an edit misses only the edited
//! function) running without paying for a measurement.

use std::sync::Arc;
use std::time::Duration;

use kaleidoscope_bench::timing::{bench, to_json_with_counters};
use kaleidoscope_exec::DiskCache;
use kaleidoscope_serve::{
    request_over_tcp, BreakerConfig, Request, Response, ServeConfig, Server, ShardMode,
    TenantQuota, WorkerOptions,
};

fn start_server_with(
    tag: &str,
    max_concurrent: usize,
    unsafe_faults: bool,
    breaker: BreakerConfig,
) -> (Server, Arc<DiskCache>) {
    let dir = std::env::temp_dir().join(format!("kd-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(DiskCache::open(dir).expect("bench cache"));
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            cache: Some(cache.clone()),
            unsafe_faults,
        }),
        shards_per_tenant: 4,
        quota: TenantQuota {
            max_concurrent,
            // The 100k-statement incr corpus renders to ~4.4 MB of text,
            // just over the default 4 MiB inline-module quota; size
            // rejection is not what this bench measures.
            max_module_bytes: 8 << 20,
            ..TenantQuota::default()
        },
        breaker,
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    (server, cache)
}

fn start_server(tag: &str, max_concurrent: usize) -> (Server, Arc<DiskCache>) {
    start_server_with(tag, max_concurrent, false, BreakerConfig::default())
}

fn must_ok(resp: Result<Response, String>) -> Response {
    match resp {
        Ok(r @ Response::Ok { .. }) => r,
        other => panic!("request failed: {other:?}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = |n: usize| if smoke { 1 } else { n };
    let models = kaleidoscope_apps::all_models();
    let modules: Vec<String> = models.iter().map(|m| m.module.to_text()).collect();
    println!(
        "serve daemon benchmarks ({} modules, thread shards, closed loop{})",
        modules.len(),
        if smoke { ", smoke" } else { "" }
    );

    let mut samples = Vec::new();
    let incr_state_counters: (u64, u64);

    // Cold: every iteration gets a store that has never seen the module,
    // so each request is a full solve through admission + shard dispatch.
    {
        let mut round = 0u64;
        let module = modules[0].clone();
        samples.push(bench("serve/request_cold", iters(3), || {
            round += 1;
            let (server, _cache) = start_server(&format!("cold{round}"), 64);
            let addr = server.addr().to_string();
            must_ok(request_over_tcp(&addr, &Request::inline("cold", &module)));
            server.stop();
        }));
    }

    // Warm: one server, store pre-populated; repeats ride the cache.
    let (server, cache) = start_server("warm", 64);
    let addr = server.addr().to_string();
    for (i, m) in modules.iter().enumerate() {
        must_ok(request_over_tcp(
            &addr,
            &Request::inline(&format!("p{i}"), m),
        ));
    }
    samples.push(bench("serve/request_warm", iters(10), || {
        must_ok(request_over_tcp(
            &addr,
            &Request::inline("warm", &modules[0]),
        ));
    }));

    // Warm sweep: every module once per iteration, round-robin clients.
    samples.push(bench("serve/warm_sweep_all_modules", iters(5), || {
        for (i, m) in modules.iter().enumerate() {
            must_ok(request_over_tcp(
                &addr,
                &Request::inline(&format!("s{i}"), m),
            ));
        }
    }));
    let warm_stats = server.router().stats();
    let cache_stats = cache.stats();
    server.stop();

    // Overload: quota of 1, eight closed-loop clients hammering fresh
    // (uncacheable-by-fingerprint) budget-less requests; most requests
    // shed to the Steensgaard tier. Shed responses still complete, so
    // the closed loop never stalls — the shed rate is the measure.
    let (server, _cache) = start_server("overload", 1);
    let addr = server.addr().to_string();
    samples.push(bench("serve/overloaded_closed_loop", iters(3), || {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let addr = addr.clone();
                let module = modules[c % modules.len()].clone();
                std::thread::spawn(move || {
                    for r in 0..4 {
                        must_ok(request_over_tcp(
                            &addr,
                            &Request::inline(&format!("c{c}-r{r}"), &module),
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
    }));
    let overload_stats = server.router().stats();
    server.stop();

    // The 100k-statement scale corpus drives both the frontend benches
    // and the incremental watch-mode serve traffic below. Pre-render one
    // distinct single-function edit per iteration: repeats of one
    // revision would ride the report cache instead of exercising the
    // incremental path.
    let v1 = kaleidoscope_fuzz::scale::corpus_module(0xca1e, 100_000);
    let v1_fp = v1.fingerprint();
    let v1_text = v1.to_text();
    let edits: Vec<String> = (0..4u64)
        .map(|i| {
            let mut m = v1.clone();
            kaleidoscope_fuzz::edit::append_function(&mut m, 0xca1e, i);
            m.to_text()
        })
        .collect();

    // Frontend: cold parse + constraint generation of the corpus, the
    // same load served from a pre-populated per-function `fe/` cache
    // (every body hits), and a single-function edit against that cache
    // (everything but the edited function decodes from disk).
    let fe_warm_stats;
    let fe_edit_stats;
    {
        use kaleidoscope_exec::load_frontend;
        samples.push(bench("frontend/parse_cold_100k", iters(3), || {
            let loaded = load_frontend(&v1_text, None, 0).expect("cold parse");
            assert!(loaded.stats.funcs > 0);
        }));
        let dir = std::env::temp_dir().join(format!("kd-bench-fe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fe_cache = DiskCache::open(dir).expect("bench fe cache");
        let seeded = load_frontend(&v1_text, Some(&fe_cache), 0).expect("seed fe cache");
        assert_eq!(
            seeded.stats.fe_cache_hits, 0,
            "first load misses everywhere"
        );
        let mut warm = seeded.stats;
        samples.push(bench("frontend/load_warm_100k", iters(3), || {
            warm = load_frontend(&v1_text, Some(&fe_cache), 0)
                .expect("warm load")
                .stats;
        }));
        assert_eq!(warm.fe_cache_misses, 0, "warm load must hit every function");
        let mut edit = warm;
        let mut round = 0usize;
        samples.push(bench("frontend/load_warm_edit_100k", iters(3), || {
            edit = load_frontend(&edits[round % edits.len()], Some(&fe_cache), 0)
                .expect("edit load")
                .stats;
            round += 1;
        }));
        assert_eq!(
            edit.fe_cache_misses, 1,
            "an edit must miss only its new function"
        );
        fe_warm_stats = warm;
        fe_edit_stats = edit;
    }

    // Incremental watch-mode traffic: the corpus edited by one function
    // per request, served warm from the previous revision's snapshot
    // (named explicitly via `prev_fingerprint`, the protocol's watch-mode
    // field) vs the same edits solved cold on a server that has never
    // seen the tenant. Single `baseline` config so the numbers measure
    // the Andersen solve, the tier the re-solve accelerates. The daemon's
    // frontend counters break each end-to-end number into parse /
    // constraint-generation time and fe-cache hits.
    let incr_cold_fe: (u64, u64, u64);
    let incr_warm_fe: (u64, u64, u64);
    {
        fn fe_of(resp: &Response) -> (u64, u64, u64) {
            match resp {
                Response::Ok {
                    parse_ms,
                    gen_ms,
                    fe_cache_hits,
                    ..
                } => (
                    parse_ms.unwrap_or(0),
                    gen_ms.unwrap_or(0),
                    fe_cache_hits.unwrap_or(0),
                ),
                _ => (0, 0, 0),
            }
        }

        let (server, _cache) = start_server("incr-cold", 64);
        let addr = server.addr().to_string();
        let mut round = 0usize;
        let mut cold_fe = (0, 0, 0);
        samples.push(bench("serve/incr/request_cold_100k", iters(2), || {
            let mut req = Request::inline("ic", &edits[round % edits.len()]);
            req.config = Some("baseline".into());
            // A fresh tenant per round keeps the per-tenant head lookup
            // from warm-starting what is meant to be the cold number.
            req.tenant = format!("cold{round}");
            round += 1;
            cold_fe = fe_of(&must_ok(request_over_tcp(&addr, &req)));
        }));
        incr_cold_fe = cold_fe;
        server.stop();

        let (server, cache) = start_server("incr-warm", 64);
        let addr = server.addr().to_string();
        let mut prewarm = Request::inline("iw-base", &v1_text);
        prewarm.config = Some("baseline".into());
        must_ok(request_over_tcp(&addr, &prewarm));
        let mut round = 0usize;
        let mut warm_fe = (0, 0, 0);
        samples.push(bench("serve/incr/request_warm_edit_100k", iters(2), || {
            let mut req = Request::inline("iw", &edits[round % edits.len()]);
            req.config = Some("baseline".into());
            req.prev_fingerprint = Some(v1_fp);
            round += 1;
            warm_fe = fe_of(&must_ok(request_over_tcp(&addr, &req)));
        }));
        incr_warm_fe = warm_fe;
        let incr_cache_stats = cache.stats();
        println!(
            "incr warm path: {} snapshot hits / {} lookups; last warm edit: parse {}ms gen {}ms fe-hits {}",
            incr_cache_stats.state_hits,
            incr_cache_stats.state_lookups,
            incr_warm_fe.0,
            incr_warm_fe.1,
            incr_warm_fe.2
        );
        incr_state_counters = (incr_cache_stats.state_hits, incr_cache_stats.state_lookups);
        server.stop();
    }

    // Breaker: one crash directive trips a shard's breaker (threshold 2,
    // long cooldown); healthy traffic then short-circuits to the ladder
    // with no worker touched — the sample is that O(1) degraded path.
    let (server, _cache) = start_server_with(
        "breaker",
        64,
        true,
        BreakerConfig {
            strike_threshold: 2,
            cooldown: Duration::from_secs(600),
        },
    );
    let addr = server.addr().to_string();
    must_ok(request_over_tcp(
        &addr,
        &Request::inline("prewarm", &modules[0]),
    ));
    // Trip every slot: each crash dispatch lands on a different
    // round-robin slot, and two strikes open that slot's breaker.
    for i in 0..4 {
        let mut crash = Request::inline(&format!("crash{i}"), &modules[0]);
        crash.fault = Some("crash".into());
        must_ok(request_over_tcp(&addr, &crash));
    }
    samples.push(bench("serve/breaker_short_circuit", iters(10), || {
        must_ok(request_over_tcp(&addr, &Request::inline("sc", &modules[0])));
    }));
    let breaker_stats = server.router().stats();
    server.stop();

    // Drain: clients in flight when the graceful stop begins; the
    // counter records how long the drain actually waited for them.
    let (server, _cache) = start_server("drain", 64);
    let addr = server.addr().to_string();
    let drain_clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let module = modules[c % modules.len()].clone();
            std::thread::spawn(move || {
                let _ = request_over_tcp(&addr, &Request::inline(&format!("d{c}"), &module));
            })
        })
        .collect();
    while server.router().stats().admitted < 4 {
        std::thread::yield_now();
    }
    let drain_report = server.stop_graceful(Duration::from_secs(60));
    for c in drain_clients {
        c.join().expect("drain client");
    }
    assert!(drain_report.drained, "bench drain must complete");

    let shed_rate_pct = (100 * overload_stats.shed)
        .checked_div(overload_stats.admitted + overload_stats.shed)
        .unwrap_or(0);
    println!(
        "warm path: {} admitted, {} shed, {} cache hits / {} lookups",
        warm_stats.admitted, warm_stats.shed, cache_stats.report_hits, cache_stats.report_lookups
    );
    println!(
        "overload path: {} admitted, {} shed ({shed_rate_pct}% shed rate)",
        overload_stats.admitted, overload_stats.shed
    );
    println!(
        "breaker path: {} short-circuits; drain: waited {}ms for {} connections",
        breaker_stats.breaker_short_circuits,
        drain_report.waited.as_millis(),
        drain_report.connections_joined
    );

    let counters = [
        ("warm_admitted", warm_stats.admitted),
        ("warm_shed", warm_stats.shed),
        ("warm_cache_hits", cache_stats.report_hits),
        ("warm_cache_lookups", cache_stats.report_lookups),
        ("overload_admitted", overload_stats.admitted),
        ("overload_shed", overload_stats.shed),
        ("overload_shed_rate_pct", shed_rate_pct),
        (
            "overload_degraded_after_failure",
            overload_stats.degraded_after_failure,
        ),
        (
            "breaker_short_circuits",
            breaker_stats.breaker_short_circuits,
        ),
        (
            "breaker_degraded_after_failure",
            breaker_stats.degraded_after_failure,
        ),
        ("drain_waited_ms", drain_report.waited.as_millis() as u64),
        (
            "drain_connections_joined",
            drain_report.connections_joined as u64,
        ),
        ("drain_draining_rejected", drain_report.draining_rejected),
        ("drain_cache_tmp_swept", drain_report.cache_tmp_swept),
        ("drain_cache_quarantined", drain_report.cache_quarantined),
        ("incr_state_hits", incr_state_counters.0),
        ("incr_state_lookups", incr_state_counters.1),
        ("frontend_funcs", fe_warm_stats.funcs as u64),
        ("frontend_warm_fe_hits", fe_warm_stats.fe_cache_hits as u64),
        (
            "frontend_edit_fe_misses",
            fe_edit_stats.fe_cache_misses as u64,
        ),
        ("incr_cold_parse_ms", incr_cold_fe.0),
        ("incr_cold_gen_ms", incr_cold_fe.1),
        ("incr_cold_fe_hits", incr_cold_fe.2),
        ("incr_warm_parse_ms", incr_warm_fe.0),
        ("incr_warm_gen_ms", incr_warm_fe.1),
        ("incr_warm_fe_hits", incr_warm_fe.2),
    ];
    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        std::fs::write(path, to_json_with_counters(&samples, &counters))
            .expect("write BENCH_serve.json");
        println!("wrote {path}");
    }
}
