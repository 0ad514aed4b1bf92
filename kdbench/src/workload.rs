//! The four workloads and the seeded inputs they send.
//!
//! Everything a run sends is generated here, in setup, from `--seed`:
//! the same seed gives byte-identical request streams, and the daemon
//! receives only the generated text. Generation is split into a small
//! *pool* of distinct programs per workload (whose reference reports the
//! benchmark computes on the cold path) and a stream of requests over
//! that pool. A request that must look new to the daemon — every
//! serve-cold request, every fresh serve-mixed corpus, every watch session
//! — renames all functions of its pool program with a per-request tag
//! ([`tagged`]). The daemon then shares no `fe/` entry, report, snapshot
//! or tenant head with anything it saw before, while the report stays
//! byte-identical to the pool program's: reports name functions by id,
//! never by name, and every served report is checked against it.

use kaleidoscope_fuzz::{edit, scale};
use kaleidoscope_ir::{parse_module, Module};
use kaleidoscope_prng::Rng;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `kd analyze` path over the nine application models.
    BatchMatrix,
    /// Closed loop of never-seen scale corpora through the daemon.
    ServeCold,
    /// Watch-mode sessions: one base corpus, then single-function edits.
    ServeWatch,
    /// Open loop of independent users, mostly repeats of the models.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchMatrix,
        Workload::ServeCold,
        Workload::ServeWatch,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchMatrix => "batch-matrix",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWatch => "serve-watch",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives the `kd serve` daemon.
    pub fn served(self) -> bool {
        self != Workload::BatchMatrix
    }

    /// Whether the workload is a closed loop, whose goodput is one over
    /// its mean latency. serve-mixed is an open loop, whose goodput is
    /// bounded by its fixed arrival rate.
    pub fn closed_loop(self) -> bool {
        self != Workload::ServeMixed
    }

    /// The share of the workload's set-up and latency that follows the
    /// host's speed ([`crate::host`]). The closed loops are CPU-bound.
    /// serve-mixed's median request is a cache hit that mostly waits; in
    /// three ten-run calibrations its set-up and median latency followed
    /// the probe at about half its swing.
    pub fn host_share(self) -> f64 {
        if self.closed_loop() {
            1.0
        } else {
            0.5
        }
    }

    /// Stream of workload-specific random numbers for `seed`.
    fn rng(self, seed: u64) -> Rng {
        let salt = match self {
            Workload::BatchMatrix => 0xba7c_4a11,
            Workload::ServeCold => 0xc01d_c01d,
            Workload::ServeWatch => 0x3a7c_4ed1,
            Workload::ServeMixed => 0x41e5_0b1c,
        };
        Rng::seed_from_u64(seed ^ salt)
    }
}

/// Statements per serve-cold corpus: large enough that the solver is most
/// of a request, small enough for a p90 over 100+ requests per run.
pub const COLD_STMTS: usize = 3_000;
/// Distinct serve-cold programs (each sent many times under fresh tags).
pub const COLD_POOL: usize = 12;
/// serve-cold alternates between this many tenants.
pub const COLD_TENANTS: usize = 2;

/// Statements in the serve-watch base corpus. The 100k-statement corpus
/// of the solver benches cannot fit: one session (base solve plus 18
/// edits) and its cold references would take minutes per run.
pub const WATCH_BASE_STMTS: usize = 10_000;
/// Edit rounds per watch session; each round is a publishing append, a
/// leaf append and a modify edit.
pub const WATCH_ROUNDS: usize = 6;
/// Configuration watch requests ask for: full Kaleidoscope, so every
/// revision runs the fallback solve, the context plan and an optimistic
/// solve, each warm-started from the previous revision.
pub const WATCH_CONFIG: &str = "all";

/// serve-mixed arrival rate, requests per second (Poisson arrivals).
pub const MIXED_RATE: f64 = 25.0;
/// serve-mixed users are spread over this many tenants.
pub const MIXED_TENANTS: usize = 4;
/// Share of serve-mixed requests that carry a fresh corpus.
pub const MIXED_FRESH: f64 = 0.15;
/// Statements per fresh serve-mixed corpus.
pub const MIXED_STMTS: usize = 2_000;
/// Distinct fresh-corpus programs behind the serve-mixed stream.
pub const MIXED_POOL: usize = 16;
/// serve-mixed latency limit: an answer later than this (from the
/// request's due time) does not count toward goodput.
pub const MIXED_LIMIT_MS: f64 = 150.0;

/// `m` with every function renamed `<name>_<tag>`. Function ids, types,
/// globals and bodies are untouched, so the analysis — and the report,
/// which identifies functions by id — is the same as `m`'s.
pub fn tagged(m: &Module, tag: &str) -> Module {
    let mut out = Module::new(m.name.clone());
    out.types = m.types.clone();
    for g in &m.globals {
        out.add_global(g.name.clone(), g.ty.clone())
            .expect("global names are unique in the source module");
    }
    for f in &m.funcs {
        let mut f = f.clone();
        f.name = format!("{}_{tag}", f.name);
        out.add_func(f)
            .expect("tagging keeps function names unique");
    }
    out
}

/// A program that can be referenced by its canonical text.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display name (model name or corpus label).
    pub name: String,
    /// Canonical module text.
    pub text: String,
}

impl Program {
    fn of(name: String, m: &Module) -> Program {
        Program {
            name,
            text: m.to_text(),
        }
    }

    /// The parsed module.
    pub fn module(&self) -> Module {
        parse_module(&self.text).expect("generated programs parse")
    }
}

/// The nine application models, in Table 2 order.
pub fn models() -> Vec<Program> {
    kaleidoscope_apps::all_models()
        .iter()
        .map(|m| Program::of(m.name.to_string(), &m.module))
        .collect()
}

/// batch-matrix: the order each pass visits the models in — a seeded
/// shuffle per pass, so allocator and cache state differ between seeds.
#[derive(Debug, Clone)]
pub struct BatchOrders(Rng);

impl BatchOrders {
    /// The pass orders for `seed`.
    pub fn new(seed: u64) -> BatchOrders {
        BatchOrders(Workload::BatchMatrix.rng(seed))
    }

    /// The next pass's model order.
    pub fn next_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..kaleidoscope_apps::APP_NAMES.len()).collect();
        self.0.shuffle(&mut order);
        order
    }
}

fn corpus_pool(rng: &mut Rng, n: usize, stmts: usize, label: &str) -> Vec<(Module, Program)> {
    (0..n)
        .map(|k| {
            let m = scale::corpus_module(rng.next_u64(), stmts);
            let p = Program::of(format!("{label}{k}"), &m);
            (m, p)
        })
        .collect()
}

/// serve-cold inputs: the pool and the request stream over it.
#[derive(Debug)]
pub struct ColdInputs {
    /// Distinct programs (reference keys).
    pub pool: Vec<Program>,
    pool_modules: Vec<Module>,
    order: Vec<usize>,
}

impl ColdInputs {
    /// Generate the pool for `seed`.
    pub fn new(seed: u64) -> ColdInputs {
        let mut rng = Workload::ServeCold.rng(seed);
        let (pool_modules, pool) = corpus_pool(&mut rng, COLD_POOL, COLD_STMTS, "cold")
            .into_iter()
            .unzip();
        let mut order: Vec<usize> = (0..COLD_POOL).collect();
        rng.shuffle(&mut order);
        ColdInputs {
            pool,
            pool_modules,
            order,
        }
    }

    /// Request `i`: its pool program, its tenant and its module text
    /// (the pool program under tag `c<i>`).
    pub fn request(&self, i: usize) -> (usize, String, String) {
        let k = self.order[i % COLD_POOL];
        let tenant = format!("cold{}", i % COLD_TENANTS);
        (
            k,
            tenant,
            tagged(&self.pool_modules[k], &format!("c{i}")).to_text(),
        )
    }
}

/// What one watch revision did to its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// The session's base corpus.
    Base,
    /// A function that publishes into shared state was appended.
    Append,
    /// A leaf function (reads shared state, publishes nothing) was appended.
    Leaf,
    /// An earlier appended function was re-emitted from another seed, in
    /// place: the incremental solver's changed-function case.
    Modify,
}

impl EditKind {
    /// Short name for results.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Base => "base",
            EditKind::Append => "append",
            EditKind::Leaf => "leaf",
            EditKind::Modify => "modify",
        }
    }
}

/// One revision of the watch script.
#[derive(Debug, Clone)]
pub struct Revision {
    /// How it differs from the previous revision.
    pub kind: EditKind,
    /// The module at this revision (untagged).
    pub module: Module,
    /// Its canonical text (reference key).
    pub program: Program,
}

/// serve-watch inputs: one revision script, replayed once per session
/// under a session tag.
#[derive(Debug)]
pub struct WatchInputs {
    /// Base revision followed by `3 * WATCH_ROUNDS` edits.
    pub revisions: Vec<Revision>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    leaf: bool,
    id: u64,
    seed: u64,
}

/// The printed body of `slot`'s function in `m`.
fn slot_body(m: &Module, slot: &Slot) -> String {
    let name = if slot.leaf {
        format!("leaf{}", slot.id)
    } else {
        format!("watch{}", slot.id)
    };
    let id = m.func_by_name(&name).expect("slot function exists");
    format!("{:?}", m.func(id))
}

fn build_revision(base: &Module, slots: &[Slot]) -> Module {
    let mut m = base.clone();
    for s in slots {
        if s.leaf {
            edit::append_leaf_function(&mut m, s.seed, s.id);
        } else {
            edit::append_function(&mut m, s.seed, s.id);
        }
    }
    m
}

impl WatchInputs {
    /// Generate the script for `seed`.
    pub fn new(seed: u64) -> WatchInputs {
        let mut rng = Workload::ServeWatch.rng(seed);
        let base = scale::corpus_module(rng.next_u64(), WATCH_BASE_STMTS);
        let mut slots: Vec<Slot> = Vec::new();
        let mut revisions = vec![Revision {
            kind: EditKind::Base,
            program: Program::of("r0".into(), &base),
            module: base.clone(),
        }];
        let push = |kind: EditKind, m: Module, revisions: &mut Vec<Revision>| {
            let program = Program::of(format!("r{}", revisions.len()), &m);
            revisions.push(Revision {
                kind,
                module: m,
                program,
            });
        };
        // Every body each slot has had: a modify must produce a body the
        // session has never sent, or the daemon's `fe/` cache would
        // (rightly) serve it.
        let mut bodies: Vec<Vec<String>> = Vec::new();
        for round in 0..WATCH_ROUNDS as u64 {
            for leaf in [false, true] {
                slots.push(Slot {
                    leaf,
                    id: 2 * round + leaf as u64,
                    seed: rng.next_u64(),
                });
                let m = build_revision(&base, &slots);
                bodies.push(vec![slot_body(&m, slots.last().expect("just pushed"))]);
                let kind = if leaf {
                    EditKind::Leaf
                } else {
                    EditKind::Append
                };
                push(kind, m, &mut revisions);
            }
            // Modify: re-emit an earlier slot, in place, from new seeds
            // until its body is one the slot never had.
            let j = rng.gen_range(0..slots.len());
            let mut changed = None;
            for _ in 0..256 {
                slots[j].seed = rng.next_u64();
                let m = build_revision(&base, &slots);
                let body = slot_body(&m, &slots[j]);
                if !bodies[j].contains(&body) {
                    bodies[j].push(body);
                    changed = Some(m);
                    break;
                }
            }
            let m = changed.expect("a reseeded edit function gets a new body");
            push(EditKind::Modify, m, &mut revisions);
        }
        WatchInputs { revisions }
    }

    /// Module text of revision `r` in session `session`.
    pub fn text(&self, session: usize, r: usize) -> String {
        tagged(&self.revisions[r].module, &format!("w{session}")).to_text()
    }
}

/// How a serve-mixed request names its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedKind {
    /// Model `i`, sent inline.
    ModelInline(usize),
    /// Model `i`, named by its fingerprint only.
    ModelByFingerprint(usize),
    /// Pool corpus `k`, under a fresh tag.
    Fresh(usize),
}

/// One scheduled serve-mixed request.
#[derive(Debug, Clone)]
pub struct MixedRequest {
    /// When it is due, in seconds from the start of the measurement.
    pub due_s: f64,
    /// Tenant index.
    pub tenant: usize,
    /// What it asks for.
    pub kind: MixedKind,
}

/// serve-mixed inputs: models, fresh-corpus pool, and the arrival schedule.
#[derive(Debug)]
pub struct MixedInputs {
    /// The nine models.
    pub models: Vec<Program>,
    /// Fresh-corpus pool programs.
    pub pool: Vec<Program>,
    pool_modules: Vec<Module>,
    /// Arrivals over the measurement window, in due order.
    pub schedule: Vec<MixedRequest>,
}

impl MixedInputs {
    /// Generate inputs for `seed`, with arrivals covering one run.
    pub fn new(seed: u64) -> MixedInputs {
        let seconds = crate::run::RUN_SECONDS;
        let mut rng = Workload::ServeMixed.rng(seed);
        let (pool_modules, pool) = corpus_pool(&mut rng, MIXED_POOL, MIXED_STMTS, "fresh")
            .into_iter()
            .unzip();
        let models = models();
        // A Poisson process conditioned on its arrival count: exactly
        // `rate * seconds` arrivals at uniform random times. The request
        // mix is exact too (only its order is random), so runs on
        // different seeds differ in order and timing, not in composition.
        let n = (MIXED_RATE * seconds).round() as usize;
        let mut due: Vec<f64> = (0..n)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
            .collect();
        due.sort_by(f64::total_cmp);
        let fresh = (n as f64 * MIXED_FRESH).round() as usize;
        let mut kinds: Vec<MixedKind> = (0..n)
            .map(|j| {
                if j < fresh {
                    MixedKind::Fresh(j % MIXED_POOL)
                } else if j % 2 == 0 {
                    MixedKind::ModelInline(j / 2 % models.len())
                } else {
                    MixedKind::ModelByFingerprint(j / 2 % models.len())
                }
            })
            .collect();
        rng.shuffle(&mut kinds);
        let schedule = due
            .into_iter()
            .zip(kinds)
            .map(|(due_s, kind)| MixedRequest {
                due_s,
                tenant: rng.gen_range(0..MIXED_TENANTS),
                kind,
            })
            .collect();
        MixedInputs {
            models,
            pool,
            pool_modules,
            schedule,
        }
    }

    /// Module text of fresh request `i` on pool program `k`.
    pub fn fresh_text(&self, i: usize, k: usize) -> String {
        tagged(&self.pool_modules[k], &format!("m{i}")).to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagging_renames_every_function_and_nothing_else() {
        let m = scale::corpus_module(3, 1_000);
        let t = tagged(&m, "x1");
        assert_eq!(t.funcs.len(), m.funcs.len());
        assert!(t.funcs.iter().all(|f| f.name.ends_with("_x1")));
        assert_eq!(t.inst_count(), m.inst_count());
        assert_ne!(t.fingerprint(), m.fingerprint());
    }
}
