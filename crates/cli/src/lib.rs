//! Command implementations for the `kaleidoscope` CLI.
//!
//! Each command is a pure function from parsed arguments to a rendered
//! report string, so the test suite can drive them without spawning
//! processes. The binary in `main.rs` is a thin argument dispatcher.
//!
//! Programs are given either as textual-IR files (conventionally `.kir`,
//! the format printed by `Module::to_text`) or as built-in application
//! models via `--model <Name>`.

use std::fmt::Write as _;

use kaleidoscope::{analyze, IntrospectionConfig, Introspector, PolicyConfig};
use kaleidoscope_cfi::harden;
use kaleidoscope_debloat::DebloatPlan;
use kaleidoscope_exec::{
    analyze_request, AnalyzeError, AnalyzeRequest, DiskCache, FrontendStats, ModuleSource,
};
use kaleidoscope_ir::{parse_module, verify_module, Module};
use kaleidoscope_pta::{Analysis, SolveOptions};
use kaleidoscope_runtime::ViewKind;
use kaleidoscope_serve::{
    Request, Response, ServeConfig, Server, ShardMode, TenantQuota, WorkerOptions,
};

/// CLI-level error.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// How the program to analyze is specified.
#[derive(Debug, Clone)]
pub enum Source {
    /// A textual-IR file path.
    File(String),
    /// A built-in application model name (Table 2).
    Model(String),
}

/// Load a module from a source.
pub fn load(source: &Source) -> Result<Module, CliError> {
    match source {
        Source::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
            let stem = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "module".into());
            let module = if path.ends_with(".c") {
                kaleidoscope_cfront::compile(&text, &stem)
                    .map_err(|e| err(format!("in `{path}`: {e}")))?
            } else {
                parse_module(&text).map_err(|e| {
                    err(format!(
                        "parse error in `{path}`: {e}\n{}",
                        e.snippet(&text)
                    ))
                })?
            };
            let problems = verify_module(&module);
            if !problems.is_empty() {
                return Err(err(format!(
                    "`{path}` failed verification: {}",
                    problems
                        .iter()
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                )));
            }
            Ok(module)
        }
        Source::Model(name) => kaleidoscope_apps::model(name)
            .map(|m| m.module)
            .ok_or_else(|| {
                err(format!(
                    "unknown model `{name}` (known: {})",
                    kaleidoscope_apps::APP_NAMES.join(", ")
                ))
            }),
    }
}

/// Parse a configuration name (`baseline`, `ctx`, `pa`, `pwc`, combinations
/// joined by `-`, or `all`/`kaleidoscope`).
pub fn parse_config(name: &str) -> Result<PolicyConfig, CliError> {
    PolicyConfig::parse(name).map_err(err)
}

/// `kaleidoscope analyze` — run the IGO pipeline, print invariants and
/// points-to statistics for one configuration (or all eight).
///
/// `jobs` sets the executor's worker count (`0` = available parallelism;
/// `1` runs the cells serially). The printed report is identical either
/// way — configurations of one module share the baseline solve and
/// context plan through the executor's artifact cache.
///
/// With `stats` set, each configuration row is followed by the solver's
/// internal counters for the fallback and optimistic solves (worklist pops,
/// SCC passes, union words touched, peak points-to bytes, copy edges) — the
/// deterministic cost measures the perf benches regress against.
///
/// `budget` caps every solve at that many worklist pops (`--budget <n>`).
/// A cell whose solve exhausts the budget does not fail the command: it
/// degrades down the executor's ladder (fallback view, then Steensgaard)
/// and is flagged with a `degraded:` line plus a trailing summary. Without
/// degradation the report is byte-identical to an unbudgeted run.
///
/// `cache_dir` (or the `KD_CACHE_DIR` environment variable) names the
/// shared on-disk artifact store: a stored report for this module/config
/// is served without solving, and a healthy freshly-solved report is
/// published for other `kd` processes — including a running `kd serve`
/// daemon — to hit. The stored artifact is always the full-precision
/// fixpoint, so a hit under `--budget` serves a *better* tier than asked.
/// `cache_max_bytes` caps the store's total size (oldest artifacts are
/// evicted at publish time); `0`/`None` leaves it unbounded.
///
/// `incremental_from` (`--incremental-from <fp>`) names the fingerprint of
/// a previously-analyzed revision whose solved-state snapshot (published
/// to the cache by that run) should warm-start this solve. Requires a
/// cache directory. Warm-starting is advisory and sound: a missing
/// snapshot or an incompatible edit falls back to a cold solve, and the
/// report bytes are identical either way — only the time differs.
#[allow(clippy::too_many_arguments)]
pub fn cmd_analyze(
    source: &Source,
    config: Option<&str>,
    jobs: usize,
    stats: bool,
    budget: Option<usize>,
    cache_dir: Option<&str>,
    cache_max_bytes: Option<u64>,
    incremental_from: Option<u64>,
) -> Result<String, CliError> {
    cmd_analyze_full(
        source,
        config,
        jobs,
        stats,
        budget,
        cache_dir,
        cache_max_bytes,
        incremental_from,
    )
    .map(|out| out.report)
}

/// The result of [`cmd_analyze_full`]: the printed report plus the
/// frontend loader's counters (parse/generation time and per-function
/// cache hits). The counters never appear in the report text — it stays
/// byte-identical across cold and warm runs.
pub struct AnalyzeOutput {
    /// The analysis report, exactly as `cmd_analyze` returns it.
    pub report: String,
    /// Frontend counters of the load.
    pub frontend: FrontendStats,
}

/// The module text of `source`: a textual-IR file as read, a C file
/// lowered and printed, a built-in model printed.
fn source_text(source: &Source) -> Result<String, CliError> {
    match source {
        Source::File(path) if !path.ends_with(".c") => {
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))
        }
        _ => Ok(load(source)?.to_text()),
    }
}

/// Like [`cmd_analyze`], but also returns the frontend loader's counters
/// so the binary can print a `--stats` breakdown to stderr.
///
/// Every source is passed as text to
/// [`kaleidoscope_exec::analyze_request`], the request function the serve
/// daemon answers through too: per-function lowered IR is cached in the
/// disk cache's `fe/` namespace, and the module's plan-free program is
/// generated once and cloned by every solve without a context plan.
#[allow(clippy::too_many_arguments)]
pub fn cmd_analyze_full(
    source: &Source,
    config: Option<&str>,
    jobs: usize,
    stats: bool,
    budget: Option<usize>,
    cache_dir: Option<&str>,
    cache_max_bytes: Option<u64>,
    incremental_from: Option<u64>,
) -> Result<AnalyzeOutput, CliError> {
    let cache = DiskCache::resolve(cache_dir)
        .map_err(|e| err(format!("cannot open cache directory: {e}")))?
        .map(|c| std::sync::Arc::new(c.with_max_bytes(cache_max_bytes.unwrap_or(0))));
    if incremental_from.is_some() && cache.is_none() {
        return Err(err(
            "--incremental-from needs a cache directory (--cache-dir or KD_CACHE_DIR) \
             holding the previous revision's snapshot",
        ));
    }
    let text = source_text(source)?;
    let req = AnalyzeRequest {
        module: ModuleSource::Text(&text),
        config,
        stats,
        budget,
        jobs,
        prev_fingerprint: incremental_from,
        tenant: None,
    };
    let answer = analyze_request(&req, cache.as_ref()).map_err(|e| {
        let name = match source {
            Source::File(name) | Source::Model(name) => name,
        };
        match e {
            AnalyzeError::Parse(e) => err(format!(
                "parse error in `{name}`: {e}\n{}",
                e.snippet(&text)
            )),
            AnalyzeError::Verify(problems) => {
                err(format!("`{name}` failed verification: {problems}"))
            }
            other => err(other.to_string()),
        }
    })?;
    Ok(AnalyzeOutput {
        report: answer.report.text,
        frontend: answer.frontend,
    })
}

/// `kaleidoscope cfi` — print the per-callsite target sets of both views.
pub fn cmd_cfi(source: &Source, config: Option<&str>) -> Result<String, CliError> {
    let module = load(source)?;
    let c = config
        .map(parse_config)
        .transpose()?
        .unwrap_or(PolicyConfig::all());
    let h = harden(&module, c);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CFI policy under {} — avg targets: optimistic {:.2}, fallback {:.2}",
        c.name(),
        h.policy.avg_targets(ViewKind::Optimistic),
        h.policy.avg_targets(ViewKind::Fallback)
    );
    for site in h.policy.sites() {
        let opt = h.policy.targets(site, ViewKind::Optimistic);
        let fall = h.policy.targets(site, ViewKind::Fallback);
        let names = |ts: &[kaleidoscope_ir::FuncId]| {
            ts.iter()
                .map(|f| module.func(*f).name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "  {site}");
        let _ = writeln!(out, "    optimistic ({}): {}", opt.len(), names(opt));
        let _ = writeln!(out, "    fallback   ({}): {}", fall.len(), names(fall));
    }
    Ok(out)
}

/// `kaleidoscope introspect` — run the baseline analysis under the §4.1
/// introspection framework and print the alert report.
pub fn cmd_introspect(
    source: &Source,
    growth: Option<usize>,
    types: Option<usize>,
) -> Result<String, CliError> {
    let module = load(source)?;
    let auto = IntrospectionConfig::for_module(&module);
    let cfg = IntrospectionConfig {
        growth_threshold: growth.unwrap_or(auto.growth_threshold),
        type_threshold: types.unwrap_or(auto.type_threshold),
    };
    let mut intro = Introspector::new(cfg);
    let analysis = Analysis::run_full(&module, &SolveOptions::baseline(), None, &mut intro);
    let report = intro.into_report();
    Ok(report.render(&module, &analysis.result.nodes))
}

/// `kaleidoscope run` — execute a function under the interpreter, with or
/// without hardening.
pub fn cmd_run(
    source: &Source,
    entry: &str,
    input: &[u8],
    hardened: bool,
) -> Result<String, CliError> {
    let module = load(source)?;
    let entry_id = module
        .func_by_name(entry)
        .ok_or_else(|| err(format!("no function named `{entry}`")))?;
    let mut out = String::new();
    let outcome = if hardened {
        let h = harden(&module, PolicyConfig::all());
        let mut ex = h.executor(&module);
        ex.set_input(input);
        let o = ex.run(entry_id, vec![]).map_err(|e| err(e.to_string()))?;
        let _ = writeln!(
            out,
            "hardened run: view={} violations={} monitor-checks={}",
            ex.switcher.view(),
            ex.violations.len(),
            ex.monitor_checks()
        );
        o
    } else {
        let mut ex = kaleidoscope_runtime::Executor::unhardened(&module);
        ex.set_input(input);
        let o = ex.run(entry_id, vec![]).map_err(|e| err(e.to_string()))?;
        let _ = writeln!(
            out,
            "run: outputs={} branch-coverage={:.1}%",
            ex.output_count,
            ex.coverage.branch_pct()
        );
        o
    };
    let _ = writeln!(out, "steps: {}", outcome.steps);
    let _ = writeln!(out, "result: {}", outcome.ret);
    Ok(out)
}

/// `kaleidoscope debloat` — print the per-view reachable sets.
pub fn cmd_debloat(source: &Source, entry: &str) -> Result<String, CliError> {
    let module = load(source)?;
    let entry_id = module
        .func_by_name(entry)
        .ok_or_else(|| err(format!("no function named `{entry}`")))?;
    let result = analyze(&module, PolicyConfig::all());
    let plan = DebloatPlan::from_result(&module, &result, entry_id);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "debloating from `{entry}`: {} functions total",
        plan.total_funcs
    );
    let _ = writeln!(
        out,
        "  optimistic view: {} reachable, {:.1}% debloated",
        plan.optimistic.len(),
        plan.debloated_pct(ViewKind::Optimistic)
    );
    let _ = writeln!(
        out,
        "  fallback view:   {} reachable, {:.1}% debloated",
        plan.fallback.len(),
        plan.debloated_pct(ViewKind::Fallback)
    );
    let extra = plan.extra_debloated();
    let _ = writeln!(
        out,
        "  extra functions debloated by the optimistic view: {}",
        extra.len()
    );
    for f in extra {
        let _ = writeln!(out, "    {}", module.func(f).name);
    }
    Ok(out)
}

/// `kaleidoscope fmt` — parse and re-print a module (canonical form).
pub fn cmd_fmt(source: &Source) -> Result<String, CliError> {
    Ok(load(source)?.to_text())
}

/// Arguments to `kd serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Bind address (`127.0.0.1:0` picks a free port, printed on startup).
    pub addr: String,
    /// Shared artifact store directory (`--cache-dir` / `KD_CACHE_DIR`);
    /// `None` falls back to a per-process temp directory, so warm-cache
    /// repeats work within one daemon lifetime either way.
    pub cache_dir: Option<String>,
    /// Worker shards per tenant.
    pub shards: usize,
    /// Executor threads per worker solve (`0` = auto).
    pub jobs: usize,
    /// Cap on the shared artifact store's total bytes (`None` = unbounded).
    pub cache_max_bytes: Option<u64>,
    /// Tenant quota: max concurrent solves before shedding.
    pub max_concurrent: usize,
    /// Tenant quota: per-request deadline in milliseconds.
    pub deadline_ms: u64,
    /// Tenant quota: cap on per-request solve budgets.
    pub tenant_budget: Option<usize>,
    /// Honor `fault` directives in requests (test deployments only).
    pub unsafe_faults: bool,
    /// How long a SIGTERM/SIGINT shutdown waits for in-flight requests
    /// before force-closing connections.
    pub drain_ms: u64,
    /// Consecutive shard strikes that open its circuit breaker.
    pub breaker_strikes: u32,
    /// How long an open breaker short-circuits requests to the
    /// degradation ladder before probing the shard again.
    pub breaker_cooldown_ms: u64,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            addr: "127.0.0.1:0".into(),
            cache_dir: None,
            shards: 2,
            jobs: 0,
            cache_max_bytes: None,
            max_concurrent: 4,
            deadline_ms: 30_000,
            tenant_budget: None,
            unsafe_faults: false,
            drain_ms: 5_000,
            breaker_strikes: 3,
            breaker_cooldown_ms: 5_000,
        }
    }
}

/// Set by the SIGTERM/SIGINT handler; polled by [`cmd_serve`]'s main
/// loop to begin a graceful drain.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // A store to a static atomic is async-signal-safe; everything else
    // (the drain itself) happens on the main thread.
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT to the shutdown flag. Uses the C `signal`
/// entry point directly (libc is always linked) so the offline build
/// needs no signal-handling crate.
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the handler only stores to a static atomic, which is
    // async-signal-safe; `signal` itself has no memory-safety
    // preconditions beyond a valid handler pointer.
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

fn open_serve_cache(
    dir: Option<&str>,
    max_bytes: Option<u64>,
) -> Result<std::sync::Arc<DiskCache>, CliError> {
    let resolved =
        DiskCache::resolve(dir).map_err(|e| err(format!("cannot open cache directory: {e}")))?;
    let cache = match resolved {
        Some(c) => c,
        None => {
            // No configured store: a per-daemon temp store still makes
            // warm repeats cache hits across this daemon's workers.
            let tmp = std::env::temp_dir().join(format!("kd-serve-cache-{}", std::process::id()));
            DiskCache::open(tmp).map_err(|e| err(format!("cannot open cache directory: {e}")))?
        }
    };
    Ok(std::sync::Arc::new(
        cache.with_max_bytes(max_bytes.unwrap_or(0)),
    ))
}

/// `kd serve` — run the analysis daemon until SIGTERM/SIGINT.
///
/// Prints `kd serve: listening on <addr>` (with the resolved port) to
/// stdout once the socket is accepting, then blocks. Workers are `kd
/// worker` child processes of this binary.
///
/// On SIGTERM or Ctrl-C the daemon drains instead of dying: in-flight
/// requests finish and are written, late requests get a typed `draining`
/// response for up to `drain_ms`, connection threads are joined, workers
/// stopped, and the cache recovery sweep runs — then the process exits 0
/// with a one-line drain summary.
pub fn cmd_serve(args: &ServeArgs) -> Result<(), CliError> {
    let cache = open_serve_cache(args.cache_dir.as_deref(), args.cache_max_bytes)?;
    let mode = ShardMode::Process {
        bin: std::env::current_exe().map_err(|e| err(format!("cannot locate own binary: {e}")))?,
        cache_dir: Some(cache.dir().to_path_buf()),
        unsafe_faults: args.unsafe_faults,
        jobs: args.jobs,
    };
    let server = Server::start(ServeConfig {
        addr: args.addr.clone(),
        cache: Some(cache),
        mode,
        shards_per_tenant: args.shards,
        quota: TenantQuota {
            max_concurrent: args.max_concurrent,
            deadline_ms: args.deadline_ms,
            max_module_bytes: TenantQuota::default().max_module_bytes,
            budget: args.tenant_budget,
        },
        breaker: kaleidoscope_serve::BreakerConfig {
            strike_threshold: args.breaker_strikes.max(1),
            cooldown: std::time::Duration::from_millis(args.breaker_cooldown_ms),
        },
        drain: std::time::Duration::from_millis(args.drain_ms),
    })
    .map_err(|e| err(format!("cannot bind `{}`: {e}", args.addr)))?;
    install_shutdown_handler();
    println!("kd serve: listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = server.stop_graceful(std::time::Duration::from_millis(args.drain_ms));
    println!(
        "kd serve: drained in {}ms (complete={} connections_joined={} draining_rejected={} \
         cache_tmp_swept={} cache_quarantined={})",
        report.waited.as_millis(),
        report.drained,
        report.connections_joined,
        report.draining_rejected,
        report.cache_tmp_swept,
        report.cache_quarantined
    );
    let _ = std::io::stdout().flush();
    Ok(())
}

/// `kd worker` — the daemon's child-process shard: serve requests over
/// stdin/stdout until EOF. Not intended for interactive use.
///
/// The worker opens the daemon's cache directory without sweeping it:
/// sibling workers publish into it concurrently, and only the daemon
/// recovers it.
pub fn cmd_worker(
    jobs: usize,
    cache_dir: Option<&str>,
    unsafe_faults: bool,
) -> Result<(), CliError> {
    let cache = DiskCache::resolve(cache_dir)
        .map_err(|e| err(format!("cannot open cache directory: {e}")))?
        .map(std::sync::Arc::new);
    let opts = WorkerOptions {
        jobs,
        cache,
        unsafe_faults,
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    kaleidoscope_serve::run_worker(stdin.lock(), stdout.lock(), &opts)
        .map_err(|e| err(format!("worker io: {e}")))
}

/// Arguments to `kd request`.
#[derive(Debug, Clone)]
pub struct RequestArgs {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// The program: a source (file/model) or a fingerprint from an
    /// earlier response.
    pub source: Option<Source>,
    /// Query a previously-submitted module by content fingerprint (hex).
    pub fingerprint: Option<String>,
    /// Warm-start from this previous revision's snapshot (hex); absent
    /// defers to the daemon's per-tenant auto-lookup.
    pub prev_fingerprint: Option<String>,
    /// Configuration name; `None` = the full Table-3 matrix.
    pub config: Option<String>,
    /// Tenant to account the request against.
    pub tenant: String,
    /// Include solver counters in the report.
    pub stats: bool,
    /// Per-request solve budget (clamped by the tenant quota).
    pub budget: Option<usize>,
    /// Fault directive (testing; requires a `--unsafe-faults` daemon).
    pub fault: Option<String>,
    /// Connect/read/write timeout in milliseconds (`None` = the client
    /// defaults: 10s connect, 120s io).
    pub timeout_ms: Option<u64>,
    /// Extra attempts after a connect failure or timeout (requests are
    /// idempotent, so retrying is safe); backoff is exponential with
    /// seeded jitter.
    pub retries: u32,
}

/// What `kd request` prints: the report on stdout, the serving metadata
/// on stderr (so piping the report stays clean).
#[derive(Debug, Clone)]
pub struct RequestOutput {
    /// The report, byte-identical to offline `kd analyze` output.
    pub report: String,
    /// One line of serving metadata: tier, cache disposition, fingerprint.
    pub meta: String,
}

/// `kd request` — send one analysis request to a running daemon.
pub fn cmd_request(args: &RequestArgs) -> Result<RequestOutput, CliError> {
    let (module, fingerprint) = match (&args.source, &args.fingerprint) {
        (Some(src), None) => (Some(load(src)?.to_text()), None),
        (None, Some(hex)) => (
            None,
            Some(
                u64::from_str_radix(hex, 16)
                    .map_err(|_| err(format!("bad fingerprint `{hex}`")))?,
            ),
        ),
        (None, None) => {
            return Err(err(
                "no input: give a .kir file, --model <Name>, or --fingerprint <hex>",
            ))
        }
        (Some(_), Some(_)) => return Err(err("give either a program or --fingerprint, not both")),
    };
    let prev_fingerprint = args
        .prev_fingerprint
        .as_deref()
        .map(|hex| {
            u64::from_str_radix(hex, 16).map_err(|_| err(format!("bad prev fingerprint `{hex}`")))
        })
        .transpose()?;
    let req = Request {
        id: format!("kd-request-{}", std::process::id()),
        tenant: args.tenant.clone(),
        op: None,
        module,
        fingerprint,
        prev_fingerprint,
        config: args.config.clone(),
        stats: args.stats,
        budget: args.budget,
        solver_threads: None,
        fault: args.fault.clone(),
    };
    let mut opts = kaleidoscope_serve::ClientOptions {
        retries: args.retries,
        ..kaleidoscope_serve::ClientOptions::default()
    };
    if let Some(ms) = args.timeout_ms {
        let t = std::time::Duration::from_millis(ms);
        opts.connect_timeout = t;
        opts.io_timeout = t;
    }
    let resp =
        kaleidoscope_serve::request_over_tcp_with(&args.addr, &req, &opts).map_err(
            |e| match e {
                kaleidoscope_serve::RequestError::Draining => {
                    err("server is draining for shutdown; retry against another instance")
                }
                other => err(other.to_string()),
            },
        )?;
    match resp {
        Response::Ok {
            report,
            tier,
            cache,
            fingerprint,
            degraded,
            ..
        } => Ok(RequestOutput {
            report,
            meta: format!(
                "kd request: tier={tier} cache={} fingerprint={fingerprint:016x} degraded={degraded}",
                cache.as_str()
            ),
        }),
        Response::Error { error, .. } => Err(err(format!("server refused request: {error}"))),
        Response::Draining { .. } => {
            Err(err("server is draining for shutdown; retry against another instance"))
        }
        Response::Health { .. } => Err(err("unexpected health response to an analysis request")),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
kd — the Kaleidoscope invariant-guided optimistic pointer analysis CLI

USAGE:
    kd <COMMAND> (<file.kir> | <file.c> | --model <Name>) [OPTIONS]

COMMANDS:
    analyze      run the IGO pipeline (all 8 configs, or --config <name>)
    cfi          print per-callsite CFI target sets for both memory views
    introspect   run the imprecision-introspection framework (§4.1)
    run          interpret a function: --entry <fn> --input <b,b,..> [--harden]
    debloat      compute per-view reachable function sets: --entry <fn>
    fmt          parse and pretty-print a module
    serve        run the analysis daemon (newline-delimited JSON over TCP)
    worker       daemon worker shard over stdin/stdout (spawned by serve)
    request      send one request to a daemon: --addr <host:port> <program>

OPTIONS:
    --model <Name>     use a built-in application model instead of a file
    --config <name>    baseline | ctx | pa | pwc | ctx-pa | ... | all
    --entry <fn>       entry function name (default: main)
    --input <bytes>    comma-separated input bytes (default: empty)
    --harden           run with CFI + monitors armed
    --growth <n>       introspection growth threshold
    --types <n>        introspection type-diversity threshold
    --jobs <n>         analyze/serve/worker: executor workers (0 = auto)
    --stats            analyze/request: print solver counters per config
    --budget <n>       analyze/request: cap each solve at <n> worklist
                       iterations; exhausted cells degrade (fallback, then
                       Steensgaard) and are flagged with a `degraded:` line
    --cache-dir <dir>  shared artifact store (also via KD_CACHE_DIR);
                       analyze/serve/worker reuse stored reports
    --cache-max-bytes <n>  analyze/serve: cap the store's total size;
                       oldest artifacts are evicted at publish time
    --incremental-from <h>  analyze: warm-start from the named previous
                       revision's solved-state snapshot (needs --cache-dir;
                       identical report bytes, faster on small edits)

SERVING:
    --addr <a>         serve: bind address (default 127.0.0.1:0, port printed)
                       request: daemon address to contact (required)
    --shards <n>       serve: worker shards per tenant (default 2)
    --max-concurrent <n>  serve: tenant solves in flight before shedding
    --deadline-ms <n>  serve: per-request deadline before a worker is killed
    --tenant-budget <n>   serve: cap on per-request solve budgets
    --unsafe-faults    serve/worker: honor fault directives (tests only)
    --drain-ms <n>     serve: how long SIGTERM/Ctrl-C waits for in-flight
                       requests before force-closing (default 5000)
    --breaker-strikes <n>  serve: consecutive shard failures that open its
                       circuit breaker (default 3)
    --breaker-cooldown-ms <n>  serve: how long an open breaker serves from
                       the degradation ladder before reprobing (default 5000)
    --tenant <name>    request: tenant to account against (default: default)
    --fingerprint <h>  request: query a stored module by fingerprint
    --prev-fingerprint <h>  request: warm-start from a previous revision's
                       snapshot (absent = the daemon's per-tenant lookup)
    --fault <kind>     request: inject a worker fault (needs --unsafe-faults)
    --timeout-ms <n>   request: connect/read/write timeout (default 10s/120s)
    --retries <n>      request: retry connect failures and timeouts with
                       jittered exponential backoff (default 0)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str) -> Source {
        Source::File(format!("{}/samples/{name}", env!("CARGO_MANIFEST_DIR")))
    }

    #[test]
    fn parse_config_names() {
        assert_eq!(parse_config("baseline").unwrap(), PolicyConfig::none());
        assert_eq!(parse_config("all").unwrap(), PolicyConfig::all());
        assert_eq!(parse_config("Kaleidoscope").unwrap(), PolicyConfig::all());
        let c = parse_config("kd-ctx-pa").unwrap();
        assert!(c.ctx && c.pa && !c.pwc);
        assert!(parse_config("bogus").is_err());
    }

    #[test]
    fn analyze_output_independent_of_jobs() {
        let src = Source::Model("TinyDTLS".into());
        let serial = cmd_analyze(&src, None, 1, false, None, None, None, None).unwrap();
        let parallel = cmd_analyze(&src, None, 4, false, None, None, None, None).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn analyze_sample_file() {
        let out = cmd_analyze(
            &sample("lighttpd_fig6.kir"),
            None,
            1,
            false,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("Baseline"));
        assert!(out.contains("Kaleidoscope"));
        assert!(out.contains("PA@"), "PA invariant listed:\n{out}");
    }

    #[test]
    fn analyze_model() {
        let out = cmd_analyze(
            &Source::Model("TinyDTLS".into()),
            Some("all"),
            1,
            false,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("Kaleidoscope"));
    }

    #[test]
    fn analyze_stats_prints_solver_counters() {
        let src = Source::Model("TinyDTLS".into());
        let plain = cmd_analyze(&src, Some("all"), 1, false, None, None, None, None).unwrap();
        let with_stats = cmd_analyze(&src, Some("all"), 1, true, None, None, None, None).unwrap();
        assert!(!plain.contains("solver["));
        assert!(with_stats.contains("solver[fallback]:"), "{with_stats}");
        assert!(with_stats.contains("solver[optimistic]:"));
        assert!(with_stats.contains("union-words="));
        assert!(with_stats.contains("peak-pts-bytes="));
        for gone in ["strata=", "max-wave-width=", "barrier-stalls="] {
            assert!(
                !with_stats.contains(gone),
                "{gone} still printed:\n{with_stats}"
            );
        }
        // The stats lines are additive: stripping them recovers the plain report.
        let stripped: String = with_stats
            .lines()
            .filter(|l| !l.trim_start().starts_with("solver["))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain);
    }

    #[test]
    fn analyze_budget_tags_degraded_cells() {
        let src = Source::Model("TinyDTLS".into());
        let out = cmd_analyze(&src, None, 1, false, Some(1), None, None, None).unwrap();
        assert!(out.contains("degraded: serving steensgaard tier"), "{out}");
        assert!(out.contains("configurations degraded"), "{out}");
        // A generous budget leaves the report byte-identical to no budget.
        let plain = cmd_analyze(&src, None, 1, false, None, None, None, None).unwrap();
        let generous =
            cmd_analyze(&src, None, 1, false, Some(100_000_000), None, None, None).unwrap();
        assert_eq!(plain, generous);
        assert!(!plain.contains("degraded"));
    }

    #[test]
    fn analyze_incremental_from_matches_cold_bytes() {
        use kaleidoscope_ir::{FunctionBuilder, Type};
        let dir = std::env::temp_dir().join(format!("kd-cli-incr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v1 = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
        let mut v2 = v1.clone();
        let mut b = FunctionBuilder::new(&mut v2, "cli_extra", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let _ = b.copy("p", o);
        b.ret(None);
        b.finish();
        let v1_path = dir.join("v1.kir");
        let v2_path = dir.join("v2.kir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&v1_path, v1.to_text()).unwrap();
        std::fs::write(&v2_path, v2.to_text()).unwrap();
        let v1_src = Source::File(v1_path.to_string_lossy().into_owned());
        let v2_src = Source::File(v2_path.to_string_lossy().into_owned());
        let cache = dir.join("cache");
        let cache_dir = cache.to_string_lossy().into_owned();

        // Cold reference, no cache involved at all.
        let cold = cmd_analyze(&v2_src, None, 1, false, None, None, None, None).unwrap();
        // Analyze v1 with the cache: publishes its snapshots.
        let _ = cmd_analyze(&v1_src, None, 1, false, None, Some(&cache_dir), None, None).unwrap();
        // Warm-start v2 from v1: byte-identical to the cold run.
        let warm = cmd_analyze(
            &v2_src,
            None,
            1,
            false,
            None,
            Some(&cache_dir),
            None,
            Some(v1.fingerprint()),
        )
        .unwrap();
        assert_eq!(warm, cold, "incremental report == cold bytes");
        // The stats view proves reuse actually happened.
        let stats = cmd_analyze(
            &v2_src,
            None,
            1,
            true,
            None,
            Some(&cache_dir),
            None,
            Some(v1.fingerprint()),
        )
        .unwrap();
        assert!(stats.contains("incr-reused="), "{stats}");
        assert!(stats.contains("incr-fallback-full=0"), "{stats}");
        // Without a cache directory the flag is a hard error, not a
        // silent cold solve. (Skipped when the environment supplies a
        // fallback store via KD_CACHE_DIR.)
        if std::env::var(kaleidoscope_exec::CACHE_DIR_ENV).is_err() {
            assert!(cmd_analyze(&v2_src, None, 1, false, None, None, None, Some(1)).is_err());
        }
    }

    #[test]
    fn analyze_frontend_cache_warms_across_revisions() {
        use kaleidoscope_ir::{FunctionBuilder, Type};
        let dir = std::env::temp_dir().join(format!("kd-cli-fe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v1 = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
        let mut v2 = v1.clone();
        let mut b = FunctionBuilder::new(&mut v2, "fe_extra", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let _ = b.copy("p", o);
        b.ret(None);
        b.finish();
        std::fs::create_dir_all(&dir).unwrap();
        let v1_path = dir.join("v1.kir");
        let v2_path = dir.join("v2.kir");
        std::fs::write(&v1_path, v1.to_text()).unwrap();
        std::fs::write(&v2_path, v2.to_text()).unwrap();
        let v1_src = Source::File(v1_path.to_string_lossy().into_owned());
        let v2_src = Source::File(v2_path.to_string_lossy().into_owned());
        let cache = dir.join("cache");
        let cache_dir = cache.to_string_lossy().into_owned();

        // Cacheless reference bytes.
        let cold = cmd_analyze(&v2_src, None, 1, false, None, None, None, None).unwrap();
        // First cached run of v1 populates fe/ entries: every function is
        // a miss, and the counters come back on the side channel.
        let first =
            cmd_analyze_full(&v1_src, None, 1, false, None, Some(&cache_dir), None, None).unwrap();
        let fe1 = first.frontend;
        assert_eq!(fe1.fe_cache_hits, 0, "cold revision has no fe hits");
        assert_eq!(fe1.fe_cache_misses, fe1.funcs);
        // v2 differs by one appended function: all shared bodies hit.
        let second =
            cmd_analyze_full(&v2_src, None, 1, false, None, Some(&cache_dir), None, None).unwrap();
        let fe2 = second.frontend;
        assert_eq!(fe2.funcs, fe1.funcs + 1);
        assert_eq!(
            fe2.fe_cache_hits, fe1.funcs,
            "shared bodies decode from fe/"
        );
        assert_eq!(fe2.fe_cache_misses, 1, "only the new function regenerates");
        // The cached run's report is byte-identical to the cacheless one.
        assert_eq!(second.report, cold);
        // Models and C sources load through the same frontend: a second
        // cached run of each decodes every function from fe/.
        for src in [
            Source::Model("Curl".into()),
            Source::File(format!("{}/samples/fig7.c", env!("CARGO_MANIFEST_DIR"))),
        ] {
            let run = || {
                cmd_analyze_full(&src, None, 1, false, None, Some(&cache_dir), None, None).unwrap()
            };
            let (cold, warm) = (run(), run());
            assert!(cold.frontend.funcs > 0);
            assert_eq!(warm.frontend.fe_cache_hits, cold.frontend.funcs, "{src:?}");
            assert_eq!(warm.report, cold.report);
        }
    }

    #[test]
    fn analyze_cache_dir_warms_a_fingerprint_only_worker_request() {
        use kaleidoscope_serve::{handle_request, CacheDisposition};
        let dir = std::env::temp_dir().join(format!("kd-cli-to-worker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.to_string_lossy().into_owned();
        let src = Source::Model("Lighttpd".into());
        let fp = kaleidoscope_apps::model("Lighttpd")
            .expect("model")
            .module
            .fingerprint();
        let opts = WorkerOptions {
            jobs: 1,
            cache: Some(std::sync::Arc::new(DiskCache::open(&dir).unwrap())),
            unsafe_faults: false,
        };
        for (config, stats) in [(None, false), (Some("kd-ctx-pa"), true)] {
            let offline =
                cmd_analyze(&src, config, 1, stats, None, Some(&cache_dir), None, None).unwrap();
            let req = Request {
                id: "fp-only".into(),
                tenant: "default".into(),
                op: None,
                module: None,
                fingerprint: Some(fp),
                prev_fingerprint: None,
                config: config.map(str::to_string),
                stats,
                budget: None,
                solver_threads: None,
                fault: None,
            };
            let resp = handle_request(&req, &opts);
            let Response::Ok { report, cache, .. } = &resp else {
                panic!("expected ok, got {resp:?}");
            };
            assert_eq!(*cache, CacheDisposition::Hit, "{config:?}");
            assert_eq!(*report, offline, "{config:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cfi_sample_file() {
        let out = cmd_cfi(&sample("libevent_fig8.kir"), None).unwrap();
        assert!(out.contains("optimistic"));
        assert!(out.contains("fallback"));
        assert!(out.contains("cb1"));
    }

    #[test]
    fn run_sample_file() {
        let out = cmd_run(&sample("libevent_fig8.kir"), "main", &[], true).unwrap();
        assert!(out.contains("view=optimistic"), "{out}");
        assert!(out.contains("violations=0"));
    }

    #[test]
    fn introspect_sample_file() {
        let out = cmd_introspect(&sample("lighttpd_fig6.kir"), Some(2), Some(2)).unwrap();
        assert!(out.contains("introspection:"));
    }

    #[test]
    fn debloat_model() {
        let out = cmd_debloat(&Source::Model("Lighttpd".into()), "handle_request").unwrap();
        assert!(out.contains("debloated"));
    }

    #[test]
    fn fmt_roundtrips() {
        let a = cmd_fmt(&sample("lighttpd_fig6.kir")).unwrap();
        // Formatting the formatted output is a fixpoint.
        let tmp = std::env::temp_dir().join("kaleidoscope_fmt_test.kir");
        std::fs::write(&tmp, &a).unwrap();
        let b = cmd_fmt(&Source::File(tmp.to_string_lossy().into_owned())).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn errors_are_reported() {
        assert!(load(&Source::File("/no/such/file.kir".into())).is_err());
        assert!(load(&Source::Model("Nginx".into())).is_err());
        assert!(cmd_run(&sample("lighttpd_fig6.kir"), "nope", &[], false).is_err());
    }
}

#[cfg(test)]
mod c_tests {
    use super::*;

    fn sample_c(name: &str) -> Source {
        Source::File(format!("{}/samples/{name}", env!("CARGO_MANIFEST_DIR")))
    }

    #[test]
    fn analyze_c_source_end_to_end() {
        let out = cmd_analyze(&sample_c("fig6.c"), None, 1, false, None, None, None, None).unwrap();
        assert!(out.contains("PA@"), "PA invariant from C source:\n{out}");
    }

    #[test]
    fn run_c_source_hardened() {
        let out = cmd_run(&sample_c("fig6.c"), "main", &[2], true).unwrap();
        assert!(out.contains("violations=0"), "{out}");
    }

    #[test]
    fn fig7_c_emits_pwc_invariant() {
        let out = cmd_analyze(
            &sample_c("fig7.c"),
            Some("all"),
            1,
            false,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("PWC"), "{out}");
    }

    #[test]
    fn c_fmt_prints_ir() {
        let out = cmd_fmt(&sample_c("fig6.c")).unwrap();
        assert!(out.contains("module \"fig6\""));
        assert!(out.contains("= arith"));
    }
}
