//! Driving a real `kd serve` daemon: process lifecycle, its health
//! counters, and memory high-water marks read from `/proc`. Requests go
//! through `kaleidoscope_serve::request_over_tcp`, the client `kd request`
//! uses: one connection per request.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kaleidoscope_serve::{request_over_tcp, HealthReport, Request, Response};

/// Worker shards per tenant the daemon runs (process shards).
pub const SHARDS: usize = 2;
/// Executor threads per worker solve.
pub const JOBS: usize = 2;

/// How long a daemon gets to start listening or to drain on SIGTERM.
const LIFECYCLE_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `kd serve --shards 2 --jobs 2` with its own cache directory.
/// Dropping it stops the daemon and waits for it and its workers.
pub struct Daemon {
    child: Child,
    addr: String,
    cache_dir: PathBuf,
    /// Reads the daemon's stdout; ends when the daemon exits.
    reader: Option<std::thread::JoinHandle<()>>,
    stopped: bool,
}

impl Daemon {
    /// Start `kd` as a daemon over a fresh cache directory and wait until
    /// it listens.
    pub fn start(kd: &Path, cache_dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir)
            .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
        let mut child = Command::new(kd)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(&cache_dir)
            .arg("--shards")
            .arg(SHARDS.to_string())
            .arg("--jobs")
            .arg(JOBS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", kd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The daemon prints one line once its socket accepts; read it on a
        // helper thread so a daemon that never gets there cannot hang us.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let first = lines.next().and_then(Result::ok);
            let _ = tx.send(first);
            // Drain the rest (the drain summary) so the daemon never
            // blocks on a full pipe.
            for _ in lines {}
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            cache_dir,
            reader: Some(reader),
            stopped: false,
        };
        let line = rx.recv_timeout(LIFECYCLE_TIMEOUT).ok().flatten();
        match line
            .as_deref()
            .and_then(|l| l.strip_prefix("kd serve: listening on "))
        {
            Some(a) => daemon.addr = a.to_string(),
            None => return Err(format!("daemon did not start listening (got {line:?})")),
        }
        Ok(daemon)
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's `{"op":"health"}` counters.
    pub fn health(&self) -> Result<HealthReport, String> {
        match request_over_tcp(&self.addr, &Request::health("kdbench-health"))? {
            Response::Health { report, .. } => Ok(report),
            other => Err(format!("unexpected health answer: {other:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Largest `VmHWM` over the daemon and its worker processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let pid = self.pid();
        let mut pids = vec![pid];
        pids.extend(children_of(pid));
        pids.into_iter()
            .filter_map(vm_hwm_kb)
            .max()
            .map_or(0.0, |kb| kb as f64 / 1024.0)
    }

    /// SIGTERM the daemon, wait for its drain, then wait until every
    /// worker it spawned has exited too (SIGKILL after a timeout).
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        let workers = children_of(self.pid());
        signal(self.pid(), SIGTERM);
        let deadline = Instant::now() + LIFECYCLE_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if let Some(reader) = self.reader.take() {
            // The daemon has exited, so its stdout is closed.
            let _ = reader.join();
        }
        // Workers are the daemon's children; once it has exited they are
        // reparented, so wait on them through /proc.
        let deadline = Instant::now() + LIFECYCLE_TIMEOUT;
        for w in workers {
            while alive(w) {
                if Instant::now() >= deadline {
                    signal(w, SIGKILL);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

fn signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else { return };
    // SAFETY: `kill(2)` has no memory-safety preconditions; the pid is one
    // this process spawned (or a worker of it), and the result is ignored
    // because a process that already exited is the success case.
    unsafe {
        kill(pid, sig);
    }
}

/// Whether `pid` is still running (zombies count as ended).
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X"),
        Err(_) => false,
    }
}

/// Direct children of `pid`, by scanning `/proc/*/stat` for their ppid.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| {
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|stat| {
                    let rest = stat.rsplit(')').next()?.to_string();
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(pid)
        })
        .collect()
}

/// `VmHWM` (peak resident set) of `pid`, in kB.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    read_vm_hwm(&format!("/proc/{pid}/status"))
}

fn read_vm_hwm(path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// This process's peak resident set, in MB.
pub fn self_peak_rss_mb() -> f64 {
    read_vm_hwm("/proc/self/status").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set, so the next
/// reading covers only what follows.
pub fn reset_self_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}
