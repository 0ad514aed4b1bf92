//! In-process integration tests for the serving stack: real TCP, real
//! router/supervisor/admission, thread-mode shards (process-mode shards
//! are covered end-to-end in `crates/cli/tests/serve_e2e.rs`).

use std::sync::Arc;

use kaleidoscope::PolicyConfig;
use kaleidoscope_exec::{render_analyze, DiskCache, Executor};
use kaleidoscope_ir::{FunctionBuilder, Module, Type};
use kaleidoscope_pta::SolveBudget;
use kaleidoscope_serve::{
    request_over_tcp, request_over_tcp_with, BreakerConfig, CacheDisposition, ClientOptions,
    Request, RequestError, Response, Router, ServeConfig, Server, ShardMode, TenantQuota,
    WorkerOptions, SHED_BUDGET,
};

fn module_text() -> String {
    kaleidoscope_apps::model("TinyDTLS")
        .expect("bundled model")
        .module
        .to_text()
}

fn offline_report(budget: Option<usize>) -> String {
    let module = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
    let mut ex = Executor::with_jobs(1);
    if let Some(n) = budget {
        ex = ex.with_budget(SolveBudget::iterations(n));
    }
    render_analyze(&module, &PolicyConfig::table3_order(), &ex, false).text
}

fn test_cache(tag: &str) -> Arc<DiskCache> {
    let dir = std::env::temp_dir().join(format!("kd-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(DiskCache::open(dir).expect("temp cache"))
}

fn start(tag: &str, shards: usize, quota: TenantQuota) -> (Server, Arc<DiskCache>) {
    let cache = test_cache(tag);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            cache: Some(cache.clone()),
            unsafe_faults: false,
        }),
        shards_per_tenant: shards,
        quota,
        ..ServeConfig::default()
    })
    .expect("bind");
    (server, cache)
}

#[test]
fn concurrent_clients_get_bytes_identical_to_offline_analyze_at_any_shard_count() {
    let expected = offline_report(None);
    for shards in [1, 2, 4] {
        let (server, _cache) = start(
            &format!("conc{shards}"),
            shards,
            TenantQuota {
                max_concurrent: 64, // never shed in this test
                ..TenantQuota::default()
            },
        );
        let addr = server.addr().to_string();
        let module = module_text();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let addr = addr.clone();
                let module = module.clone();
                std::thread::spawn(move || {
                    let mut req = Request::inline(&format!("client-{i}"), &module);
                    // Odd clients are a different tenant: distinct shard
                    // pools, same bytes.
                    if i % 2 == 1 {
                        req.tenant = "other".into();
                    }
                    request_over_tcp(&addr, &req).expect("request")
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().expect("client thread");
            let Response::Ok { report, id, .. } = resp else {
                panic!("expected ok: {resp:?}");
            };
            assert_eq!(report, expected, "shards={shards} client={id}");
        }
        server.stop();
    }
}

#[test]
fn warm_repeat_is_a_cache_hit_with_identical_bytes() {
    let (server, cache) = start("warm", 2, TenantQuota::default());
    let addr = server.addr().to_string();
    let cold = request_over_tcp(&addr, &Request::inline("cold", &module_text())).expect("cold");
    let Response::Ok {
        report,
        cache: disp,
        fingerprint,
        ..
    } = &cold
    else {
        panic!("cold: {cold:?}");
    };
    assert_eq!(*disp, CacheDisposition::Stored);
    let lookups_before = cache.stats().report_lookups;
    // Repeat by fingerprint only — the canonical warm query.
    let warm_req = Request {
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
    let warm = request_over_tcp(&addr, &warm_req).expect("warm");
    let Response::Ok {
        report: warm_report,
        cache: warm_disp,
        ..
    } = &warm
    else {
        panic!("warm: {warm:?}");
    };
    assert_eq!(*warm_disp, CacheDisposition::Hit, "no solve on repeat");
    assert_eq!(warm_report, report);
    assert!(cache.stats().report_lookups > lookups_before);
    assert!(cache.stats().report_hits >= 1);
    server.stop();
}

#[test]
fn fingerprint_request_never_answers_for_another_module() {
    let (server, cache) = start("fp-swap", 1, TenantQuota::default());
    let addr = server.addr().to_string();
    let fp_only = |fp: u64| Request {
        id: "by-fp".into(),
        tenant: "default".into(),
        op: None,
        module: None,
        fingerprint: Some(fp),
        prev_fingerprint: None,
        config: None,
        stats: false,
        budget: None,
        solver_threads: None,
        fault: None,
    };
    let solve = |text: &str| match request_over_tcp(&addr, &Request::inline("in", text)) {
        Ok(Response::Ok {
            report,
            fingerprint,
            ..
        }) => (report, fingerprint),
        other => panic!("inline: {other:?}"),
    };
    let wget = kaleidoscope_apps::model("Wget")
        .expect("model")
        .module
        .to_text();
    let (tiny_report, tiny_fp) = solve(&module_text());
    let (_, wget_fp) = solve(&wget);
    assert_ne!(tiny_fp, wget_fp);

    // TinyDTLS's stored text replaced by Wget's canonical text.
    let stored = cache
        .dir()
        .join("modules")
        .join(format!("{tiny_fp:016x}.kir"));
    std::fs::write(&stored, &wget).expect("overwrite module file");
    let swapped = request_over_tcp(&addr, &fp_only(tiny_fp)).expect("swapped");
    let Response::Error { error, .. } = &swapped else {
        panic!("another module's answer for {tiny_fp:016x}: {swapped:?}");
    };
    assert!(error.contains("unknown fingerprint"), "{error}");
    assert!(cache.stats().verify_failures >= 1);

    // Resubmitting TinyDTLS inline stores its text again.
    assert_eq!(solve(&module_text()), (tiny_report.clone(), tiny_fp));
    match request_over_tcp(&addr, &fp_only(tiny_fp)).expect("repaired") {
        Response::Ok {
            report,
            fingerprint,
            cache: disp,
            ..
        } => {
            assert_eq!(fingerprint, tiny_fp);
            assert_eq!(disp, CacheDisposition::Hit);
            assert_eq!(report, tiny_report);
        }
        other => panic!("repaired: {other:?}"),
    }
    server.stop();
}

#[test]
fn over_quota_requests_shed_to_a_tagged_cheaper_tier_never_dropped() {
    // max_concurrent = 0: every request sheds, deterministically.
    let (server, _cache) = start(
        "shed",
        1,
        TenantQuota {
            max_concurrent: 0,
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    let resp = request_over_tcp(&addr, &Request::inline("shed-1", &module_text())).expect("shed");
    let Response::Ok {
        report,
        tier,
        degraded,
        ..
    } = &resp
    else {
        panic!("shed: {resp:?}");
    };
    assert_eq!(tier, "steensgaard", "shed tier is tagged");
    assert_eq!(*degraded, 8);
    // The shed answer is still a reproducible artifact: byte-identical
    // to an offline run under the shed budget.
    assert_eq!(*report, offline_report(Some(SHED_BUDGET)));
    let stats = server.router().stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.admitted, 0);
    server.stop();
}

#[test]
fn shed_requests_prefer_a_cached_full_report() {
    let cache = test_cache("shedhit");
    // Pre-warm the store out of band (as a `kd analyze --cache-dir` run
    // or an earlier daemon would).
    let module = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
    let offline = offline_report(None);
    cache
        .put_report(
            module.fingerprint(),
            kaleidoscope_exec::ReportScope {
                config: None,
                stats: false,
                wave: false,
            },
            &offline,
        )
        .expect("pre-warm");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            cache: Some(cache),
            unsafe_faults: false,
        }),
        shards_per_tenant: 1,
        quota: TenantQuota {
            max_concurrent: 0, // force the shed path
            ..TenantQuota::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let resp = request_over_tcp(&addr, &Request::inline("hit", &module_text())).expect("resp");
    let Response::Ok {
        report,
        tier,
        cache: disp,
        ..
    } = &resp
    else {
        panic!("{resp:?}");
    };
    assert_eq!(*disp, CacheDisposition::Hit);
    assert_eq!(tier, "full", "a cached hit outranks the shed solve");
    assert_eq!(*report, offline);
    server.stop();
}

#[test]
fn healthy_shed_solve_is_stored_and_the_next_admitted_request_hits_it() {
    // Without pointer constraints the solver pops nothing, so even the
    // shed budget finishes every configuration healthy.
    let mut m = Module::new("no_pointers");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    b.ret(None);
    b.finish();
    let text = m.to_text();
    let cache = test_cache("shedstore");
    let router = |max_concurrent| {
        Router::new(&ServeConfig {
            cache: Some(cache.clone()),
            mode: ShardMode::Thread(WorkerOptions {
                jobs: 1,
                cache: Some(cache.clone()),
                unsafe_faults: false,
            }),
            shards_per_tenant: 1,
            quota: TenantQuota {
                max_concurrent,
                ..TenantQuota::default()
            },
            ..ServeConfig::default()
        })
    };

    let shedding = router(0);
    let shed = shedding.route(&Request::inline("shed", &text));
    assert_eq!(shedding.stats().shed, 1);
    let Response::Ok {
        report,
        tier,
        cache: disp,
        degraded,
        ..
    } = &shed
    else {
        panic!("shed: {shed:?}");
    };
    assert_eq!((tier.as_str(), *degraded), ("full", 0));
    assert_eq!(
        *disp,
        CacheDisposition::Stored,
        "a healthy shed answer is stored"
    );

    let admitting = router(4);
    let next = admitting.route(&Request::inline("admitted", &text));
    assert_eq!(admitting.stats().admitted, 1);
    let Response::Ok {
        report: r2,
        cache: d2,
        ..
    } = &next
    else {
        panic!("admitted: {next:?}");
    };
    assert_eq!(*d2, CacheDisposition::Hit);
    assert_eq!(r2, report);
    admitting.shutdown_workers();
    shedding.shutdown_workers();
}

#[test]
fn malformed_and_oversized_requests_get_error_responses_and_serving_continues() {
    let (server, _cache) = start(
        "errors",
        1,
        TenantQuota {
            max_module_bytes: 64,
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    // Malformed: raw garbage through a raw socket.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        writeln!(stream, "this is not json").expect("send");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("recv");
        let resp = kaleidoscope_serve::decode_response(line.trim_end()).expect("decodes");
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    }
    // Oversized module: rejected by quota, not dropped.
    let resp = request_over_tcp(&addr, &Request::inline("big", &module_text())).expect("answered");
    let Response::Error { error, .. } = &resp else {
        panic!("expected quota rejection: {resp:?}");
    };
    assert!(error.contains("quota admits at most 64"), "{error}");
    // The daemon still serves well-formed traffic afterwards.
    let tiny = "module \"t\"\n";
    let ok = request_over_tcp(&addr, &Request::inline("after", tiny)).expect("served");
    assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
    assert_eq!(server.router().stats().errors, 2);
    server.stop();
}

/// A raw connection to `addr` whose reads give up after ten seconds, so a
/// daemon that never answers fails the test instead of hanging it.
fn raw_connection(addr: &str) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The next answer on `reader`, decoded.
fn next_answer(reader: &mut impl std::io::BufRead) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("an answer arrives");
    kaleidoscope_serve::decode_response(line.trim_end()).expect("decodes")
}

#[test]
fn a_line_that_is_not_utf8_is_answered_and_the_connection_keeps_serving() {
    use std::io::Write;
    let (server, _cache) = start(
        "not-utf8",
        1,
        TenantQuota {
            max_module_bytes: 64,
            ..TenantQuota::default()
        },
    );
    let (mut stream, mut reader) = raw_connection(&server.addr().to_string());
    stream
        .write_all(b"\xff\xfe{\"id\":\"x\"}\n{\"id\":\"h\",\"op\":\"health\"}\n")
        .expect("send");
    let Response::Error { id, error } = next_answer(&mut reader) else {
        panic!("expected an error answer");
    };
    assert_eq!(id, "?");
    assert!(error.contains("not UTF-8"), "{error}");
    let health = next_answer(&mut reader);
    assert!(
        matches!(&health, Response::Health { id, .. } if id == "h"),
        "{health:?}"
    );
    assert_eq!(server.router().stats().errors, 1);
    server.stop();
}

#[test]
fn an_over_long_line_is_answered_at_the_cap_and_skipped() {
    use std::io::Write;
    let (server, _cache) = start(
        "over-long",
        1,
        TenantQuota {
            max_module_bytes: 64,
            ..TenantQuota::default()
        },
    );
    // Six bytes per module byte (`\u001f`), plus 64 KiB for the rest.
    let cap = 6 * 64 + (64 << 10);
    let (mut stream, mut reader) = raw_connection(&server.addr().to_string());
    // One byte past the cap, and no newline yet: the answer must not wait
    // for the end of the line.
    let head = b"{\"id\":\"big\",\"module\":\"";
    let mut line = head.to_vec();
    line.resize(cap + 1, b'a');
    stream.write_all(&line).expect("send");
    let Response::Error { error, .. } = next_answer(&mut reader) else {
        panic!("expected an error answer");
    };
    assert!(error.contains(&format!("{cap}-byte frame cap")), "{error}");
    // The rest of the line is skipped, however long, and the next line is
    // served.
    stream.write_all(&vec![b'a'; 3 * cap]).expect("send rest");
    stream
        .write_all(b"\"}\n{\"id\":\"h\",\"op\":\"health\"}\n")
        .expect("send next");
    let health = next_answer(&mut reader);
    assert!(
        matches!(&health, Response::Health { id, .. } if id == "h"),
        "{health:?}"
    );
    assert_eq!(server.router().stats().errors, 1);
    server.stop();
}

#[test]
fn per_request_budget_degrades_and_matches_offline_bytes() {
    let (server, _cache) = start("budget", 1, TenantQuota::default());
    let addr = server.addr().to_string();
    let mut req = Request::inline("tight", &module_text());
    req.budget = Some(1);
    let resp = request_over_tcp(&addr, &req).expect("resp");
    let Response::Ok { report, tier, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "steensgaard");
    assert_eq!(*report, offline_report(Some(1)));
    server.stop();
}

#[test]
fn graceful_drain_answers_every_in_flight_request_before_stopping() {
    let expected = offline_report(None);
    let (server, _cache) = start(
        "drain",
        4,
        TenantQuota {
            max_concurrent: 64, // never shed: all four must be admitted
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    let module = module_text();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let module = module.clone();
            std::thread::spawn(move || {
                request_over_tcp(&addr, &Request::inline(&format!("drain-{i}"), &module))
            })
        })
        .collect();
    // Admission counts monotonically, and a request is counted *after*
    // it passed the draining check — so admitted >= 4 proves all four
    // clients are past the point where a drain could reject them.
    let gate = std::time::Instant::now();
    while server.router().stats().admitted < 4 {
        assert!(
            gate.elapsed() < std::time::Duration::from_secs(30),
            "clients never got admitted"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let report = server.stop_graceful(std::time::Duration::from_secs(60));
    assert!(
        report.drained,
        "in-flight work must finish inside the drain"
    );
    // Every client holds a complete, byte-identical answer: drained
    // means *written*, not merely routed.
    for c in clients {
        let resp = c.join().expect("client thread").expect("answered");
        let Response::Ok { report, .. } = resp else {
            panic!("expected ok during drain: {resp:?}");
        };
        assert_eq!(report, expected);
    }
    // The daemon is gone: new connections are refused, not silently hung.
    assert!(
        request_over_tcp(&addr, &Request::inline("late", &module)).is_err(),
        "stopped daemon must not accept"
    );
}

#[test]
fn draining_router_rejects_analysis_but_answers_health() {
    let router = Router::new(&ServeConfig::default());
    let resp = router.route(&Request::inline("pre", "module \"t\"\n"));
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    router.begin_drain();
    let resp = router.route(&Request::inline("mid", "module \"t\"\n"));
    assert!(
        matches!(resp, Response::Draining { ref id } if id == "mid"),
        "{resp:?}"
    );
    let health = router.route(&Request::health("h"));
    let Response::Health { report, .. } = health else {
        panic!("health must be answered while draining: {health:?}");
    };
    assert_eq!(report.state, "draining");
    assert_eq!(report.draining_rejected, 1);
    assert_eq!(router.stats().draining_rejected, 1);
}

#[test]
fn open_breaker_short_circuits_to_a_tagged_ladder_answer() {
    let cache = test_cache("breaker");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            cache: Some(cache),
            unsafe_faults: true,
        }),
        shards_per_tenant: 1,
        quota: TenantQuota::default(),
        breaker: BreakerConfig {
            strike_threshold: 2,
            cooldown: std::time::Duration::from_secs(120),
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let module = module_text();
    // One crashing request = two failed attempts = breaker opens; the
    // client still gets a ladder answer, never an error.
    let mut crash = Request::inline("crash", &module);
    crash.fault = Some("crash".into());
    let resp = request_over_tcp(&addr, &crash).expect("degraded, not dropped");
    let Response::Ok { tier, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "steensgaard", "crash degrades to the shed tier");
    // Healthy traffic now short-circuits: tagged tier, same artifact
    // bytes as an offline budget-1 run, and no worker involved.
    let resp = request_over_tcp(&addr, &Request::inline("sc", &module)).expect("answered");
    let Response::Ok { tier, report, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "breaker-open");
    assert_eq!(*report, offline_report(Some(SHED_BUDGET)));
    let stats = server.router().stats();
    assert_eq!(stats.breaker_short_circuits, 1);
    assert_eq!(stats.degraded_after_failure, 1);
    // The health op exposes the open breaker.
    let health = request_over_tcp(&addr, &Request::health("h")).expect("health");
    let Response::Health { report, .. } = health else {
        panic!("{health:?}");
    };
    assert_eq!(report.breakers_open, 1);
    assert_eq!(report.breaker_short_circuits, 1);
    assert!(report.tenants.contains("open=1"), "{}", report.tenants);
    server.stop();
}

#[test]
fn health_op_reports_accepting_state_over_tcp() {
    let (server, _cache) = start("health", 1, TenantQuota::default());
    let addr = server.addr().to_string();
    request_over_tcp(&addr, &Request::inline("warmup", &module_text())).expect("served");
    let resp = request_over_tcp(&addr, &Request::health("h1")).expect("health");
    let Response::Health { id, report } = resp else {
        panic!("{resp:?}");
    };
    assert_eq!(id, "h1");
    assert_eq!(report.state, "accepting");
    assert_eq!(report.admitted, 1);
    assert_eq!(report.breakers_open, 0);
    assert!(
        report.tenants.contains("default slots=1"),
        "{}",
        report.tenants
    );
    server.stop();
}

#[test]
fn client_times_out_against_a_stalled_server_instead_of_hanging() {
    // A listener that accepts and then never answers: the old client
    // would block in read_line forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || {
        let conns: Vec<_> = listener.incoming().take(1).collect();
        std::thread::sleep(std::time::Duration::from_secs(2));
        drop(conns);
    });
    let opts = ClientOptions {
        io_timeout: std::time::Duration::from_millis(100),
        ..ClientOptions::default()
    };
    let started = std::time::Instant::now();
    let err = request_over_tcp_with(&addr, &Request::inline("stall", "module \"t\"\n"), &opts)
        .expect_err("must time out");
    assert!(matches!(err, RequestError::Timeout(_)), "{err:?}");
    assert!(err.is_retryable());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "timed out, not server-released"
    );
    let _ = hold.join();
}

#[test]
fn client_retries_connect_failures_with_bounded_backoff() {
    // Nothing listens here: every attempt is a retryable connect error.
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        probe.local_addr().expect("addr").to_string()
        // listener drops: the port is free again
    };
    let opts = ClientOptions {
        connect_timeout: std::time::Duration::from_millis(200),
        retries: 2,
        backoff_base: std::time::Duration::from_millis(10),
        ..ClientOptions::default()
    };
    let started = std::time::Instant::now();
    let err = request_over_tcp_with(&dead, &Request::inline("r", "module \"t\"\n"), &opts)
        .expect_err("no server");
    assert!(matches!(err, RequestError::Connect(_)), "{err:?}");
    // Two retries slept at least base + 2*base of backoff (jitter adds).
    assert!(
        started.elapsed() >= std::time::Duration::from_millis(30),
        "backoff must actually wait"
    );
}

#[test]
fn tenant_quota_clamps_the_requested_budget() {
    let (server, _cache) = start(
        "clamp",
        1,
        TenantQuota {
            budget: Some(1),
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    // Client asks for a generous budget; quota clamps it to 1, so the
    // answer is the budget-1 artifact.
    let mut req = Request::inline("greedy", &module_text());
    req.budget = Some(100_000_000);
    let resp = request_over_tcp(&addr, &req).expect("resp");
    let Response::Ok { report, tier, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "steensgaard");
    assert_eq!(*report, offline_report(Some(1)));
    server.stop();
}

/// A kept-alive connection must answer each frame as soon as it is
/// routed. A frame sent as two writes (body, then `\n`) lets Nagle's
/// algorithm hold the trailing byte until the peer's delayed ACK, about
/// 40 ms per answer on Linux; ten health round trips then take ~400 ms.
#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    // `kd request` and kdbench open one connection per request. An accept
    // loop that sleeps between polls leaves each new connection waiting
    // out the rest of the sleep (10 ms, about 5 ms on average) before it
    // is read; 50 health requests then take about 250 ms.
    let (server, _cache) = start("fresh-conns", 1, TenantQuota::default());
    let addr = server.addr().to_string();
    let started = std::time::Instant::now();
    for i in 0..50 {
        let resp = request_over_tcp(&addr, &Request::health(&format!("h{i}"))).expect("health");
        assert!(matches!(resp, Response::Health { .. }), "{resp:?}");
    }
    let elapsed = started.elapsed();
    server.stop();
    assert!(
        elapsed < std::time::Duration::from_millis(150),
        "50 health requests over fresh connections took {elapsed:?}"
    );
}

#[test]
fn persistent_connection_answers_without_delayed_ack_stalls() {
    use std::io::{BufRead, BufReader, Write};
    let (server, _cache) = start("keepalive", 1, TenantQuota::default());
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let started = std::time::Instant::now();
    for i in 0..10 {
        let mut frame = kaleidoscope_serve::encode_request(&Request::health(&format!("h{i}")));
        frame.push('\n');
        writer.write_all(frame.as_bytes()).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("receive");
        let resp = kaleidoscope_serve::decode_response(line.trim_end()).expect("decodes");
        assert!(matches!(resp, Response::Health { .. }), "{resp:?}");
    }
    let elapsed = started.elapsed();
    drop((writer, reader));
    server.stop();
    assert!(
        elapsed < std::time::Duration::from_millis(200),
        "10 health round trips over one connection took {elapsed:?}"
    );
}
