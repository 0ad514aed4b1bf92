//! End-to-end serving tests against the real `kd` binary: a `kd serve`
//! daemon with process-mode worker shards, driven through `kd request`.
//!
//! These pin the acceptance criteria of the serving subsystem:
//! (a) served responses are byte-identical to offline `kd analyze`
//! artifacts, (b) a warm-cache repeat returns without a solve, and
//! (c) a worker crash or blown budget yields a tagged degraded-tier
//! response with the daemon still serving.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn kd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kd"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running daemon; killed (with its worker children reaping on pipe
/// EOF) when dropped, or drained gracefully via [`Daemon::terminate`].
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn start(cache_dir: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = kd()
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn kd serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("kd serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// SIGTERM the daemon and wait for its graceful exit; returns the
    /// exit status and everything it printed after startup (the drain
    /// summary line).
    fn terminate(&mut self) -> (std::process::ExitStatus, String) {
        let killed = Command::new("kill")
            .arg("-TERM")
            .arg(self.child.id().to_string())
            .status()
            .expect("run kill");
        assert!(killed.success(), "kill -TERM failed");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("daemon stdout");
        let status = self.child.wait().expect("wait for daemon");
        (status, rest)
    }
}

/// Every `.tmp` publish orphan under a cache directory, recursively.
fn tmp_litter(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.starts_with("tmp"))
            {
                found.push(p);
            }
        }
    }
    found
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `kd request` and return (stdout, stderr, success).
fn request(daemon: &Daemon, extra: &[&str]) -> (String, String, bool) {
    let out = kd()
        .arg("request")
        .arg("--addr")
        .arg(&daemon.addr)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("run kd request");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

fn offline_analyze(extra: &[&str]) -> String {
    let out = kd()
        .arg("analyze")
        .arg("--model")
        .arg("TinyDTLS")
        .args(extra)
        .output()
        .expect("run kd analyze");
    assert!(out.status.success(), "offline analyze failed");
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn served_bytes_match_offline_analyze_and_warm_repeats_skip_the_solve() {
    let cache = temp_dir("warm");
    let daemon = Daemon::start(&cache, &["--shards", "2"]);
    let offline = offline_analyze(&[]);

    // (a) Cold request: solved by a worker process, byte-identical.
    let (report, meta, ok) = request(&daemon, &["--model", "TinyDTLS"]);
    assert!(ok, "cold request failed: {meta}");
    assert_eq!(report, offline, "served bytes differ from offline analyze");
    assert!(meta.contains("tier=full"), "{meta}");
    assert!(meta.contains("cache=stored"), "{meta}");

    // (b) Warm repeat: cache hit, no solve, same bytes.
    let (report2, meta2, ok2) = request(&daemon, &["--model", "TinyDTLS"]);
    assert!(ok2);
    assert_eq!(report2, offline);
    assert!(meta2.contains("cache=hit"), "{meta2}");

    // Fingerprint-only repeat (no module bytes on the wire at all).
    let fp = meta
        .split_whitespace()
        .find_map(|w| w.strip_prefix("fingerprint="))
        .expect("fingerprint in meta")
        .to_string();
    let (report3, meta3, ok3) = request(&daemon, &["--fingerprint", &fp]);
    assert!(ok3, "fingerprint request failed: {meta3}");
    assert_eq!(report3, offline);
    assert!(meta3.contains("cache=hit"), "{meta3}");

    // The store is shared with the offline CLI: `kd analyze --cache-dir`
    // sees the daemon's artifact and serves the same bytes.
    let shared = offline_analyze(&["--cache-dir", cache.to_str().expect("utf8 path")]);
    assert_eq!(shared, offline);
}

#[test]
fn killed_worker_degrades_the_request_and_the_daemon_keeps_serving() {
    let cache = temp_dir("kill");
    let daemon = Daemon::start(&cache, &["--shards", "1", "--unsafe-faults"]);

    // (c) The fault directive kills the worker mid-request; the retry
    // replacement is killed too; the router then sheds. The client still
    // gets a well-formed, tier-tagged answer — never a dropped request.
    let (report, meta, ok) = request(&daemon, &["--model", "TinyDTLS", "--fault", "kill"]);
    assert!(ok, "faulted request must still be answered: {meta}");
    assert!(meta.contains("tier=steensgaard"), "{meta}");
    assert_eq!(
        report,
        offline_analyze(&["--budget", "1"]),
        "the shed answer is the reproducible budget-1 artifact"
    );

    // The daemon is still up and serves full-tier answers afterwards.
    let (report2, meta2, ok2) = request(&daemon, &["--model", "TinyDTLS"]);
    assert!(ok2, "daemon died after worker kill: {meta2}");
    assert!(meta2.contains("tier=full"), "{meta2}");
    assert_eq!(report2, offline_analyze(&[]));
}

#[test]
fn blown_tenant_budget_yields_a_tagged_degraded_response() {
    let cache = temp_dir("budget");
    let daemon = Daemon::start(&cache, &["--shards", "1", "--tenant-budget", "1"]);
    let (report, meta, ok) = request(&daemon, &["--model", "TinyDTLS"]);
    assert!(ok, "budgeted request failed: {meta}");
    assert!(meta.contains("tier=steensgaard"), "{meta}");
    assert!(meta.contains("degraded=8"), "{meta}");
    assert_eq!(report, offline_analyze(&["--budget", "1"]));
}

#[test]
fn sigterm_drains_gracefully_with_concurrent_clients_and_no_tmp_litter() {
    let cache = temp_dir("drain");
    let mut daemon = Daemon::start(
        &cache,
        &[
            "--shards",
            "4",
            "--max-concurrent",
            "64",
            "--drain-ms",
            "30000",
        ],
    );
    let offline = offline_analyze(&[]);

    // Four concurrent clients on a cold cache: full-matrix solves in
    // process workers, so they are genuinely in flight when the signal
    // lands.
    let addr = daemon.addr.clone();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let out = kd()
                    .arg("request")
                    .arg("--addr")
                    .arg(&addr)
                    .arg("--model")
                    .arg("TinyDTLS")
                    .output()
                    .expect("run kd request");
                (
                    String::from_utf8(out.stdout).expect("utf8"),
                    String::from_utf8(out.stderr).expect("utf8"),
                    out.status.success(),
                )
            })
        })
        .collect();
    // Give the clients time to connect and be admitted, then SIGTERM
    // mid-burst.
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let (status, summary) = daemon.terminate();

    // Exit 0, with a drain summary — not a killed process.
    assert!(status.success(), "drained daemon must exit 0: {status:?}");
    assert!(summary.contains("kd serve: drained"), "{summary:?}");
    assert!(summary.contains("complete=true"), "{summary:?}");

    // Every client got a complete, byte-identical answer.
    for c in clients {
        let (report, meta, ok) = c.join().expect("client thread");
        assert!(ok, "client dropped during drain: {meta}");
        assert_eq!(report, offline, "drained answer differs from offline");
    }

    // A clean exit leaves no torn publishes behind.
    assert_eq!(tmp_litter(&cache), Vec::<PathBuf>::new());
}

#[test]
fn worker_open_leaves_a_sibling_publish_alone() {
    // A sibling worker is mid-publish in the shared directory when the
    // supervisor spawns (or restarts) another worker. The new worker must
    // not sweep the sibling's temp file: that would lose its write-back.
    let cache = temp_dir("live-tmp");
    std::fs::create_dir_all(cache.join("fe")).expect("mkdir");
    let live = cache.join("fe").join("00000000000000ab-v2.tmp4242-0");
    std::fs::write(&live, "in-flight pack").expect("write tmp");
    let out = kd()
        .arg("worker")
        .arg("--cache-dir")
        .arg(&cache)
        .stdin(Stdio::null())
        .output()
        .expect("run kd worker");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(tmp_litter(&cache), vec![live]);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn torn_publish_is_recovered_and_swept_at_shutdown() {
    let cache = temp_dir("torn");
    let mut daemon = Daemon::start(&cache, &["--shards", "1", "--unsafe-faults"]);

    // The directive makes the worker die mid-publish, leaving a `.tmp`
    // orphan and a report with a truncated integrity line. The request
    // itself must still be answered from the ladder.
    let (report, meta, ok) = request(&daemon, &["--model", "TinyDTLS", "--fault", "torn"]);
    assert!(ok, "torn-publish request must still be answered: {meta}");
    assert!(meta.contains("tier=steensgaard"), "{meta}");
    assert_eq!(report, offline_analyze(&["--budget", "1"]));
    assert!(
        !tmp_litter(&cache).is_empty(),
        "the fault should have left a tmp orphan to recover"
    );

    // Graceful shutdown runs the recovery sweep: litter gone, counted.
    let (status, summary) = daemon.terminate();
    assert!(status.success(), "{status:?}");
    assert!(
        !summary.contains("cache_tmp_swept=0"),
        "sweep must report the orphan: {summary:?}"
    );
    assert_eq!(tmp_litter(&cache), Vec::<PathBuf>::new());
}

#[test]
fn client_timeout_and_retries_fail_fast_against_a_dead_address() {
    // Grab a free port, then close the listener: nothing is there.
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        probe.local_addr().expect("addr").to_string()
    };
    let started = std::time::Instant::now();
    let out = kd()
        .arg("request")
        .arg("--addr")
        .arg(&dead)
        .arg("--model")
        .arg("TinyDTLS")
        .arg("--timeout-ms")
        .arg("300")
        .arg("--retries")
        .arg("1")
        .output()
        .expect("run kd request");
    assert!(!out.status.success(), "dead address must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("connect"), "{stderr}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "timeouts must bound the failure, not hang"
    );
}

#[test]
fn malformed_wire_traffic_cannot_take_the_daemon_down() {
    use std::io::Write as _;
    let cache = temp_dir("garbage");
    let daemon = Daemon::start(&cache, &[]);
    {
        let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .write_all(b"complete garbage\n{\"id\":\"x\"}\n\x00\x01\n")
            .expect("send");
        let mut replies = String::new();
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        stream.read_to_string(&mut replies).expect("read");
        assert_eq!(replies.lines().count(), 3, "every line answered: {replies}");
        for line in replies.lines() {
            assert!(line.contains("\"status\":\"error\""), "{line}");
        }
    }
    let (_, meta, ok) = request(&daemon, &["--model", "TinyDTLS"]);
    assert!(ok, "daemon died after garbage: {meta}");
}
