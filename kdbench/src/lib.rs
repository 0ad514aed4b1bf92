//! `kdbench` — the end-to-end and per-layer benchmark of `kd analyze` and
//! the `kd serve` daemon.
//!
//! Four workloads ([`workload::Workload`]) exercise different layers: the
//! in-process batch matrix (`kd analyze`), never-seen corpora through the
//! daemon (solver-bound), watch-mode edit sessions (frontend, snapshot and
//! framing-bound), and an open loop of mostly repeated requests (cache
//! and serving-stack-bound). An untraced run reports the end-to-end
//! metrics of [`metrics::END_TO_END`]; a traced run replays each request
//! in-process with a span per public call ([`replay`], [`trace`]) and
//! reports the per-layer metrics of [`metrics::PER_LAYER`]. Every report
//! a run receives is checked against the cold, serial, cache-off
//! reference, and at the golden seed the references themselves are
//! checked against `golden.json`. See the crate README for how to read
//! the numbers.

pub mod daemon;
pub mod host;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;
