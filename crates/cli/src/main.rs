//! The `kaleidoscope` binary: a thin argument dispatcher over the command
//! implementations in the library (see `lib.rs`).

use std::process::ExitCode;

use kaleidoscope_cli::{
    cmd_analyze_full, cmd_cfi, cmd_debloat, cmd_fmt, cmd_introspect, cmd_request, cmd_run,
    cmd_serve, cmd_worker, CliError, RequestArgs, ServeArgs, Source, USAGE,
};

struct Args {
    source: Option<Source>,
    config: Option<String>,
    entry: String,
    input: Vec<u8>,
    harden: bool,
    growth: Option<usize>,
    types: Option<usize>,
    jobs: usize,
    stats: bool,
    budget: Option<usize>,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    addr: Option<String>,
    /// The serve-only knobs; `addr`, `cache_dir`, `cache_max_bytes`,
    /// `jobs` and `unsafe_faults` are shared with other commands.
    serve: ServeArgs,
    tenant: String,
    fingerprint: Option<String>,
    incremental_from: Option<String>,
    prev_fingerprint: Option<String>,
    fault: Option<String>,
    unsafe_faults: bool,
    timeout_ms: Option<u64>,
    retries: u32,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), CliError> {
    let cmd = argv
        .next()
        .ok_or_else(|| CliError("missing command; see --help".into()))?;
    let mut args = Args {
        source: None,
        config: None,
        entry: "main".into(),
        input: Vec::new(),
        harden: false,
        growth: None,
        types: None,
        jobs: 0,
        stats: false,
        budget: None,
        cache_dir: None,
        cache_max_bytes: None,
        addr: None,
        serve: ServeArgs::default(),
        tenant: "default".into(),
        fingerprint: None,
        incremental_from: None,
        prev_fingerprint: None,
        fault: None,
        unsafe_faults: false,
        timeout_ms: None,
        retries: 0,
    };
    let need = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .ok_or_else(|| CliError(format!("{flag} needs a value")))
    };
    let number = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> Result<usize, CliError> {
        need(argv, flag)?
            .parse()
            .map_err(|_| CliError(format!("{flag} needs a number")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--model" => args.source = Some(Source::Model(need(&mut argv, "--model")?)),
            "--config" => args.config = Some(need(&mut argv, "--config")?),
            "--entry" => args.entry = need(&mut argv, "--entry")?,
            "--harden" => args.harden = true,
            "--stats" => args.stats = true,
            "--input" => {
                let raw = need(&mut argv, "--input")?;
                args.input = raw
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<u8>()
                            .map_err(|_| CliError(format!("bad input byte `{s}`")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--growth" => args.growth = Some(number(&mut argv, "--growth")?),
            "--types" => args.types = Some(number(&mut argv, "--types")?),
            "--jobs" => args.jobs = number(&mut argv, "--jobs")?,
            "--budget" => args.budget = Some(number(&mut argv, "--budget")?),
            "--cache-dir" => args.cache_dir = Some(need(&mut argv, "--cache-dir")?),
            "--cache-max-bytes" => {
                args.cache_max_bytes = Some(number(&mut argv, "--cache-max-bytes")? as u64);
            }
            "--addr" => args.addr = Some(need(&mut argv, "--addr")?),
            "--shards" => args.serve.shards = number(&mut argv, "--shards")?,
            "--max-concurrent" => {
                args.serve.max_concurrent = number(&mut argv, "--max-concurrent")?;
            }
            "--deadline-ms" => {
                args.serve.deadline_ms = number(&mut argv, "--deadline-ms")? as u64;
            }
            "--tenant-budget" => {
                args.serve.tenant_budget = Some(number(&mut argv, "--tenant-budget")?);
            }
            "--tenant" => args.tenant = need(&mut argv, "--tenant")?,
            "--fingerprint" => args.fingerprint = Some(need(&mut argv, "--fingerprint")?),
            "--incremental-from" => {
                args.incremental_from = Some(need(&mut argv, "--incremental-from")?);
            }
            "--prev-fingerprint" => {
                args.prev_fingerprint = Some(need(&mut argv, "--prev-fingerprint")?);
            }
            "--fault" => args.fault = Some(need(&mut argv, "--fault")?),
            "--unsafe-faults" => args.unsafe_faults = true,
            "--drain-ms" => args.serve.drain_ms = number(&mut argv, "--drain-ms")? as u64,
            "--breaker-strikes" => {
                args.serve.breaker_strikes = number(&mut argv, "--breaker-strikes")? as u32;
            }
            "--breaker-cooldown-ms" => {
                args.serve.breaker_cooldown_ms = number(&mut argv, "--breaker-cooldown-ms")? as u64;
            }
            "--timeout-ms" => args.timeout_ms = Some(number(&mut argv, "--timeout-ms")? as u64),
            "--retries" => args.retries = number(&mut argv, "--retries")? as u32,
            other if !other.starts_with('-') && args.source.is_none() => {
                args.source = Some(Source::File(other.to_string()));
            }
            other => return Err(CliError(format!("unexpected argument `{other}`"))),
        }
    }
    Ok((cmd, args))
}

fn dispatch(cmd: &str, args: &Args) -> Result<String, CliError> {
    // The serving commands manage their own io (daemon loop, pipe loop,
    // stderr metadata) rather than returning a report string.
    match cmd {
        "serve" => {
            return cmd_serve(&ServeArgs {
                addr: args.addr.clone().unwrap_or_else(|| args.serve.addr.clone()),
                cache_dir: args.cache_dir.clone(),
                jobs: args.jobs,
                cache_max_bytes: args.cache_max_bytes,
                unsafe_faults: args.unsafe_faults,
                ..args.serve.clone()
            })
            .map(|()| String::new());
        }
        "worker" => {
            return cmd_worker(args.jobs, args.cache_dir.as_deref(), args.unsafe_faults)
                .map(|()| String::new());
        }
        "request" => {
            let addr = args
                .addr
                .clone()
                .ok_or_else(|| CliError("request needs --addr <host:port>".into()))?;
            let out = cmd_request(&RequestArgs {
                addr,
                source: args.source.clone(),
                fingerprint: args.fingerprint.clone(),
                prev_fingerprint: args.prev_fingerprint.clone(),
                config: args.config.clone(),
                tenant: args.tenant.clone(),
                stats: args.stats,
                budget: args.budget,
                fault: args.fault.clone(),
                timeout_ms: args.timeout_ms,
                retries: args.retries,
            })?;
            eprintln!("{}", out.meta);
            return Ok(out.report);
        }
        _ => {}
    }
    let source = args
        .source
        .as_ref()
        .ok_or_else(|| CliError("no input: give a .kir file or --model <Name>".into()))?;
    match cmd {
        "analyze" => {
            let incremental_from = args
                .incremental_from
                .as_deref()
                .map(|hex| {
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| CliError(format!("bad --incremental-from value `{hex}`")))
                })
                .transpose()?;
            let out = cmd_analyze_full(
                source,
                args.config.as_deref(),
                args.jobs,
                args.stats,
                args.budget,
                args.cache_dir.as_deref(),
                args.cache_max_bytes,
                incremental_from,
            )?;
            // Frontend counters go to stderr, like `request` metadata: the
            // stdout report stays byte-identical across cold and warm runs.
            if args.stats {
                let fe = out.frontend;
                eprintln!(
                    "frontend: funcs={} fe_cache_hits={} fe_cache_misses={} parse_ms={} gen_ms={}",
                    fe.funcs, fe.fe_cache_hits, fe.fe_cache_misses, fe.parse_ms, fe.gen_ms
                );
            }
            Ok(out.report)
        }
        "cfi" => cmd_cfi(source, args.config.as_deref()),
        "introspect" => cmd_introspect(source, args.growth, args.types),
        "run" => cmd_run(source, &args.entry, &args.input, args.harden),
        "debloat" => cmd_debloat(source, &args.entry),
        "fmt" => cmd_fmt(source),
        other => Err(CliError(format!("unknown command `{other}`; see --help"))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // A panic anywhere below is a bug, but the user still gets a one-line
    // diagnostic and a nonzero exit, not a backtrace dump.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        parse_args(argv.into_iter()).and_then(|(cmd, args)| dispatch(&cmd, &args))
    });
    match outcome {
        Ok(Ok(report)) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "internal error".into());
            eprintln!("error: internal failure: {msg}");
            ExitCode::FAILURE
        }
    }
}
