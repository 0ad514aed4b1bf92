//! `kaleidoscope-serve` — analysis-as-a-service.
//!
//! The batch executor answers "run this matrix once"; this crate answers
//! "keep answering analysis queries, from many tenants, forever". It is
//! a full client/server/supervisor stack:
//!
//! ```text
//!  client ──TCP──▶ Server ─▶ Router ─▶ Admission (per-tenant quota)
//!                                │           │ over quota
//!                                │ admitted  ▼
//!                                │        shed path: cache hit, else
//!                                │        Steensgaard-tier solve
//!                                ▼
//!                           Supervisor ──stdin/stdout──▶ kd worker
//!                           (restart w/ backoff)         (child process)
//!                                │
//!                                └─────── shared DiskCache ───────┘
//! ```
//!
//! * [`protocol`] — newline-delimited JSON frames, hand-rolled, used on
//!   both the TCP and worker-pipe hops.
//! * [`worker`] — the request handler (`kd worker` runs it over pipes;
//!   thread shards call it directly). It answers through
//!   [`kaleidoscope_exec::analyze_request`], the request function
//!   `kd analyze` uses, and keeps only the fault directives and the
//!   [`Response`].
//! * [`shard`] — one worker plus its transport; process or thread mode.
//! * [`supervisor`] — per-tenant shard pools; crashed or deadline-blown
//!   workers are respawned with bounded backoff and the request retried.
//! * [`admission`] — per-tenant quotas; over-quota requests shed to a
//!   cheaper tier instead of queueing or dropping.
//! * [`server`] — the TCP front door and the router that ties the
//!   pieces together. Its shed path is one call of the same request
//!   function, under [`SHED_BUDGET`] on one executor thread.
//!
//! The stack's contract, which the e2e tests pin down:
//!
//! 1. **Byte-identity** — a served report is byte-identical to
//!    `kd analyze` run offline with the same module, configuration, and
//!    effective budget, at any shard count. Every path answers through
//!    [`kaleidoscope_exec::analyze_request`].
//! 2. **Warm repeats don't solve** — healthy reports are published to
//!    the shared content-addressed [`kaleidoscope_exec::DiskCache`], so
//!    a repeat query (even naming only the fingerprint) is a cache hit
//!    in any worker process.
//! 3. **Degraded, never dropped** — worker crashes, blown deadlines,
//!    quota pressure, and open circuit breakers all produce a tagged
//!    response from a lower rung of the degradation ladder; the daemon
//!    keeps serving.
//! 4. **Crash-safe lifecycle** — shutdown drains: in-flight requests
//!    finish and their answers hit the wire, late requests get a typed
//!    `draining` response, connection threads are joined (never
//!    detached), and the disk cache's recovery sweep leaves no `.tmp`
//!    litter. The `health` operation reports lifecycle, breaker, and
//!    recovery state in every lifecycle state.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod admission;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod supervisor;
pub mod worker;

pub use admission::{Admission, Decision, Permit, TenantQuota};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, CacheDisposition,
    HealthReport, ParseError, Request, Response,
};
pub use server::{
    request_over_tcp, request_over_tcp_with, ClientOptions, DrainReport, RequestError, Router,
    RouterStats, ServeConfig, Server, SHED_BUDGET,
};
pub use shard::{Shard, ShardError, ShardMode};
pub use supervisor::{BreakerConfig, BreakerState, ShardHealth, Supervisor};
pub use worker::{handle_request, run_worker, tier_name, WorkerOptions};
