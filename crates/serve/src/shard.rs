//! A shard: one worker and the transport to reach it.
//!
//! Process shards are the production shape — a `kd worker` child per
//! shard, spoken to over stdin/stdout pipes with the same line protocol
//! the TCP front door uses. A dedicated reader thread pumps the child's
//! stdout into a channel so the dispatching thread can wait with a
//! deadline ([`mpsc::Receiver::recv_timeout`]); a child that misses its
//! deadline is killed, not waited on.
//!
//! Thread shards run [`handle_request`] in-process. They exist so the
//! protocol/supervisor stack can be tested (and load-benched) without
//! spawning processes, and they share the worker code path exactly — same
//! handler, same cache, same rendering.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::protocol::{decode_response, encode_request, Request, Response};
use crate::worker::{handle_request, WorkerOptions};

/// Why a shard failed to answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The worker died (EOF / broken pipe) before answering.
    Crashed(String),
    /// The worker did not answer within the deadline and was killed.
    DeadlineExceeded,
    /// Every eligible shard slot's circuit breaker is open: the request
    /// was short-circuited without spawning or contacting any worker.
    BreakerOpen,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Crashed(why) => write!(f, "worker crashed: {why}"),
            ShardError::DeadlineExceeded => write!(f, "worker missed its deadline"),
            ShardError::BreakerOpen => write!(f, "shard circuit breaker is open"),
        }
    }
}

/// How the supervisor materializes a shard's worker.
#[derive(Debug, Clone)]
pub enum ShardMode {
    /// Spawn `<bin> worker ...` child processes (the daemon's shape).
    Process {
        /// Path to the `kd` binary (normally `std::env::current_exe()`).
        bin: std::path::PathBuf,
        /// Cache directory forwarded to workers via `--cache-dir`.
        cache_dir: Option<std::path::PathBuf>,
        /// Forward `--unsafe-faults` so workers honor kill directives.
        unsafe_faults: bool,
        /// Worker `--jobs` (executor threads per solve).
        jobs: usize,
    },
    /// Serve requests on the calling thread (tests, bench).
    Thread(WorkerOptions),
}

/// A live shard: either a child process plus its stdout pump, or a
/// thread-mode stand-in.
pub enum Shard {
    /// Child-process worker.
    Process {
        child: Child,
        stdin: std::process::ChildStdin,
        replies: mpsc::Receiver<String>,
    },
    /// In-process worker.
    Thread(WorkerOptions),
}

impl Shard {
    /// Bring up a worker in the given mode.
    pub fn spawn(mode: &ShardMode) -> Result<Shard, ShardError> {
        match mode {
            ShardMode::Thread(opts) => Ok(Shard::Thread(opts.clone())),
            ShardMode::Process {
                bin,
                cache_dir,
                unsafe_faults,
                jobs,
            } => {
                let mut cmd = Command::new(bin);
                cmd.arg("worker")
                    .arg("--jobs")
                    .arg(jobs.to_string())
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit());
                if let Some(dir) = cache_dir {
                    cmd.arg("--cache-dir").arg(dir);
                }
                if *unsafe_faults {
                    cmd.arg("--unsafe-faults");
                }
                let mut child = cmd
                    .spawn()
                    .map_err(|e| ShardError::Crashed(format!("spawn failed: {e}")))?;
                let stdin = child
                    .stdin
                    .take()
                    .ok_or_else(|| ShardError::Crashed("no stdin pipe".into()))?;
                let stdout = child
                    .stdout
                    .take()
                    .ok_or_else(|| ShardError::Crashed("no stdout pipe".into()))?;
                let (tx, replies) = mpsc::channel();
                // The pump thread ends at child EOF; dropping `tx` then
                // surfaces as a Crashed error on the dispatch side.
                std::thread::spawn(move || {
                    for line in BufReader::new(stdout).lines() {
                        match line {
                            Ok(l) => {
                                if tx.send(l).is_err() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                });
                Ok(Shard::Process {
                    child,
                    stdin,
                    replies,
                })
            }
        }
    }

    /// Send one request and wait up to `deadline` for the response.
    ///
    /// On a missed deadline the child is killed (a stuck solve holds the
    /// shard's only lane); on either error the caller must discard this
    /// shard and spawn a replacement — the transport is one-request-deep,
    /// so a failed shard has no queued work to lose.
    pub fn request(&mut self, req: &Request, deadline: Duration) -> Result<Response, ShardError> {
        match self {
            Shard::Thread(opts) => {
                // Thread shards map the process-fatal fault directives to
                // their transport-level outcomes instead of taking down
                // the host process, so the supervisor's failure paths
                // (and the breaker) are testable without child spawns.
                if opts.unsafe_faults {
                    match req.fault.as_deref() {
                        Some("kill") | Some("crash") => {
                            return Err(ShardError::Crashed("injected crash directive".into()))
                        }
                        Some("stall") => return Err(ShardError::DeadlineExceeded),
                        _ => {}
                    }
                }
                Ok(handle_request(req, opts))
            }
            Shard::Process {
                child,
                stdin,
                replies,
            } => {
                let line = encode_request(req);
                if writeln!(stdin, "{line}")
                    .and_then(|_| stdin.flush())
                    .is_err()
                {
                    return Err(ShardError::Crashed("stdin pipe closed".into()));
                }
                match replies.recv_timeout(deadline) {
                    Ok(reply) => decode_response(&reply)
                        .map_err(|e| ShardError::Crashed(format!("bad worker reply: {e}"))),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(ShardError::DeadlineExceeded)
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        let status = child
                            .wait()
                            .map(|s| s.to_string())
                            .unwrap_or_else(|e| e.to_string());
                        Err(ShardError::Crashed(format!("worker exited ({status})")))
                    }
                }
            }
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        if let Shard::Process { child, .. } = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_shard_answers_through_the_worker_path() {
        let mode = ShardMode::Thread(WorkerOptions::default());
        let mut shard = Shard::spawn(&mode).expect("thread shard");
        let module = kaleidoscope_apps::model("TinyDTLS")
            .expect("model")
            .module
            .to_text();
        let resp = shard
            .request(&Request::inline("t", &module), Duration::from_secs(10))
            .expect("response");
        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    }
}
