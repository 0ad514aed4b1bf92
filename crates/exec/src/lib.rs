//! `kaleidoscope-exec` — the batch analysis executor.
//!
//! Every evaluation artifact (Table 3, Figures 10–13, the ablation, the
//! HTML report) and the CLI runs the same job shape: the IGO pipeline over
//! a *matrix* of `(module, PolicyConfig)` cells — nine app models × the
//! eight configurations of Table 3. Run naively that is 72 independent
//! pipeline runs, even though within one module every configuration shares
//! the same constraint generation, the same baseline (fallback) solve, and
//! the same context plan.
//!
//! [`Executor`] exploits that structure:
//!
//! * **Parallelism** — cells are scheduled over a fixed pool of
//!   `std::thread` workers (`--jobs N` from the CLI and bench binaries).
//!   Results are collected by cell index, so output order — and therefore
//!   every printed table and figure — is byte-identical to the serial
//!   path regardless of worker count or interleaving.
//! * **Memoization** — per-module work is stored in a content-addressed
//!   [`ArtifactCache`] keyed by module fingerprint + solve options: the
//!   baseline solve and the context plan happen once per module, and the
//!   seven optimistic configurations reuse them.
//! * **A/B checking** — one worker ([`Executor::serial`], `--jobs 1`)
//!   bypasses both the pool and the cache and runs the legacy
//!   [`kaleidoscope::analyze`] per cell, as the reference for the
//!   determinism guarantee (taken only under the default budget with no
//!   fault plan, where the two paths are byte-identical by construction).
//!
//! Both paths compose the same stage functions from `core::pipeline`
//! (`fallback_analysis` / `ctx_plan_for` / `optimistic_analysis` /
//! `assemble_result`), which is what makes their outputs identical.
//!
//! # Fault domains and the degradation ladder
//!
//! Each cell is a fault domain: its pipeline runs under
//! [`std::panic::catch_unwind`], its solves run under the executor's
//! [`SolveBudget`], and its cached artifacts are content-verified on
//! fetch. A cell that panics, exhausts its budget, or reads a corrupt
//! artifact does not abort the matrix — it *degrades*, mirroring the
//! paper's runtime memory-view switch (§5):
//!
//! 1. **Fallback rung** — the cell serves the module's sound fallback
//!    artifact as both views, with no invariants to monitor (exactly the
//!    post-switch state of a monitored process).
//! 2. **Steensgaard rung** — if even the fallback solve fails, the cell
//!    serves the cheap unification-based tier (sound, imprecise, near
//!    linear time).
//!
//! Degraded cells are tagged via [`kaleidoscope::CellHealth`] on the
//! result, and surface in `kd analyze --stats`, the report dashboard, and
//! `BENCH_executor.json`. The `fault-injection` cargo feature adds
//! `FaultPlan` for deterministically injecting panics, budget
//! exhaustion, and cache corruption at chosen cells.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod diskcache;
#[cfg(feature = "fault-injection")]
mod fault;
mod frontend;
mod report;

pub use cache::{ArtifactCache, CacheStats, FetchError};
pub use diskcache::{DiskCache, DiskCacheStats, ReportScope, CACHE_DIR_ENV, FE_CACHE_VERSION};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultKind, FaultPlan};
pub use frontend::{load_frontend, FrontendStats, LoadedFrontend};
pub use report::{render_analyze, AnalyzeReport};

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use kaleidoscope::{
    analyze, assemble_degraded_fallback, assemble_degraded_steens, assemble_result, ctx_plan_for,
    try_fallback_analysis_fe, try_fallback_analysis_incr_fe, try_optimistic_analysis_fe,
    try_optimistic_analysis_incr_fe, KaleidoscopeResult, PolicyConfig,
};
use kaleidoscope_ir::{parse_module, Module};
use kaleidoscope_pta::{
    steens_analysis, CtxPlan, ModuleBlocks, SolveBudget, SolveError, SolveOptions, SolvedState,
};

/// Why a cell's configured pipeline could not produce its artifact. The
/// executor converts every variant into a degraded (never missing) cell.
#[derive(Debug)]
pub enum CellError {
    /// The optimistic solve exhausted its budget.
    OptimisticBudget(SolveError),
    /// The fallback solve exhausted its budget (skips the fallback rung).
    FallbackBudget(SolveError),
    /// The cell's pipeline panicked; the payload is preserved.
    Panic(String),
    /// A cached artifact failed content verification.
    CorruptArtifact,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::OptimisticBudget(e) => write!(f, "optimistic solve failed: {e}"),
            CellError::FallbackBudget(e) => write!(f, "fallback solve failed: {e}"),
            CellError::Panic(msg) => write!(f, "cell panicked: {msg}"),
            CellError::CorruptArtifact => {
                f.write_str("cached artifact failed content verification")
            }
        }
    }
}

impl std::error::Error for CellError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The batch analysis executor. See the crate docs for the design.
#[derive(Debug)]
pub struct Executor {
    jobs: usize,
    cache: ArtifactCache,
    budget: SolveBudget,
    state_store: Option<Arc<DiskCache>>,
    incremental_from: Option<u64>,
    /// Pre-recorded constraint blocks for the module fingerprinted by the
    /// first component (from [`load_frontend`]); solves of that module
    /// replay them instead of re-walking the IR.
    frontend: Option<(u64, Arc<ModuleBlocks>)>,
    /// Lazily parsed previous-revision module + blocks, shared across the
    /// solve families of one request (each family otherwise re-parses it).
    prev_memo: OnceLock<Option<(Arc<Module>, Arc<ModuleBlocks>)>>,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultPlan>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// Executor with one worker per available hardware thread.
    pub fn new() -> Executor {
        Executor::with_jobs(0)
    }

    /// Executor with a fixed worker count; `0` means available
    /// parallelism, `1` is the legacy serial path (no pool, no cache).
    pub fn with_jobs(jobs: usize) -> Executor {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Executor {
            jobs,
            cache: ArtifactCache::new(),
            budget: SolveBudget::default(),
            state_store: None,
            incremental_from: None,
            frontend: None,
            prev_memo: OnceLock::new(),
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// The legacy serial executor (`--jobs 1`).
    pub fn serial() -> Executor {
        Executor::with_jobs(1)
    }

    /// Set the per-solve budget every cell runs under. Budgets do not
    /// change artifact content (the fixpoint is unique), only whether a
    /// cell completes or degrades, so they are excluded from cache keys.
    pub fn with_budget(mut self, budget: SolveBudget) -> Executor {
        self.budget = budget;
        self
    }

    /// The per-solve budget cells run under.
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// Attach a shared on-disk store for solved-state snapshots. Every
    /// converged solve publishes its captured fixpoint there, and (with
    /// [`Executor::with_incremental_from`]) the previous revision's
    /// snapshot is fetched from it to warm-start incrementally.
    pub fn with_state_store(mut self, store: Arc<DiskCache>) -> Executor {
        self.state_store = Some(store);
        self
    }

    /// Warm-start every solve from the captured fixpoint of the module
    /// revision fingerprinted `prev_fp`, when its snapshot and canonical
    /// text are present in the state store. Missing or incompatible
    /// snapshots fall back to a sound full solve — output is byte-identical
    /// either way, only the solve time and the `incr-*` stats change.
    pub fn with_incremental_from(mut self, prev_fp: u64) -> Executor {
        self.incremental_from = Some(prev_fp);
        self
    }

    /// The configured previous-revision fingerprint, if any.
    pub fn incremental_from(&self) -> Option<u64> {
        self.incremental_from
    }

    /// Attach pre-recorded frontend constraint blocks for the module
    /// fingerprinted `fp` (from [`load_frontend`]). Solves of that exact
    /// module splice the blocks instead of regenerating constraints from
    /// the IR; any other module ignores them. Output is byte-identical
    /// either way.
    pub fn with_frontend(mut self, fp: u64, blocks: Arc<ModuleBlocks>) -> Executor {
        self.frontend = Some((fp, blocks));
        self
    }

    /// The attached frontend blocks, when they belong to `module`.
    fn frontend_blocks(&self, fp: u64) -> Option<&ModuleBlocks> {
        self.frontend
            .as_ref()
            .filter(|(ffp, _)| *ffp == fp)
            .map(|(_, b)| &**b)
    }

    /// Install a deterministic fault plan (testing/chaos harness).
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(mut self, plan: FaultPlan) -> Executor {
        self.faults = Some(plan);
        self
    }

    fn has_faults(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        if let Some(p) = &self.faults {
            return !p.is_empty();
        }
        false
    }

    /// The worker count this executor schedules onto.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Traffic counters of the artifact cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn optimistic_opts(&self, config: PolicyConfig) -> SolveOptions {
        SolveOptions {
            budget: self.budget.clone(),
            ..SolveOptions::optimistic(config.pa, config.pwc)
        }
    }

    /// Run the IGO pipeline for one cell through the artifact cache, with
    /// full fault isolation: on panic, budget exhaustion, or artifact
    /// corruption the cell degrades down the ladder instead of failing.
    pub fn run_one(&self, module: &Module, config: PolicyConfig) -> KaleidoscopeResult {
        self.run_cell(module, config, None)
    }

    /// The previous revision's parsed module and recorded constraint
    /// blocks, parsed/built once per executor and shared across all solve
    /// families of the request (each family used to re-parse it from the
    /// store). `None` when incremental inputs are absent or the stored
    /// text does not round-trip to the expected fingerprint.
    fn prev_module(&self) -> Option<(Arc<Module>, Arc<ModuleBlocks>)> {
        self.prev_memo
            .get_or_init(|| {
                let store = self.state_store.as_ref()?;
                let prev_fp = self.incremental_from?;
                let module = parse_module(&store.get_module(prev_fp)?).ok()?;
                if module.fingerprint() != prev_fp {
                    return None;
                }
                let blocks = ModuleBlocks::build(&module);
                Some((Arc::new(module), Arc::new(blocks)))
            })
            .clone()
    }

    /// The previous revision's module, blocks, and captured fixpoint for
    /// one solve family, when incremental inputs are configured and present
    /// in the state store. Any missing, stale, or mismatched piece yields
    /// `None` (the solve runs cold) — never a wrong warm-start: the
    /// snapshot and the re-parsed module must both round-trip to the
    /// stored fingerprint.
    fn prev_inputs(
        &self,
        opts_key: u64,
        with_ctx: bool,
    ) -> Option<(Arc<Module>, Arc<ModuleBlocks>, SolvedState)> {
        let store = self.state_store.as_ref()?;
        let prev_fp = self.incremental_from?;
        let state = SolvedState::from_bytes(&store.get_state(prev_fp, opts_key, with_ctx)?)?;
        if state.fingerprint != prev_fp {
            return None;
        }
        let (module, blocks) = self.prev_module()?;
        Some((module, blocks, state))
    }

    /// Publish a converged solve's snapshot to the state store (best
    /// effort: a failed disk write only costs the next edit its warm
    /// start).
    fn publish_state(&self, fp: u64, opts_key: u64, with_ctx: bool, state: Option<&SolvedState>) {
        if let (Some(store), Some(s)) = (self.state_store.as_ref(), state) {
            let _ = store.put_state(fp, opts_key, with_ctx, &s.to_bytes());
        }
    }

    fn run_cell(
        &self,
        module: &Module,
        config: PolicyConfig,
        cell: Option<(usize, usize)>,
    ) -> KaleidoscopeResult {
        match self.run_cell_isolated(module, config, cell) {
            Ok(r) => r,
            Err(e) => self.degrade(module, config, e),
        }
    }

    /// The configured pipeline for one cell, with panics caught and
    /// surfaced as typed errors.
    fn run_cell_isolated(
        &self,
        module: &Module,
        config: PolicyConfig,
        cell: Option<(usize, usize)>,
    ) -> Result<KaleidoscopeResult, CellError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.configured_cell(module, config, cell)
        }))
        .unwrap_or_else(|payload| Err(CellError::Panic(panic_message(payload.as_ref()))))
    }

    /// The configured (healthy-path) pipeline: cached fallback + context
    /// plan + cached optimistic solve, all under the executor's budget,
    /// all cache fetches content-verified. Failed solves are never cached.
    fn configured_cell(
        &self,
        module: &Module,
        config: PolicyConfig,
        cell: Option<(usize, usize)>,
    ) -> Result<KaleidoscopeResult, CellError> {
        #[cfg(feature = "fault-injection")]
        let fault = cell.and_then(|(mi, ci)| self.faults.as_ref().and_then(|p| p.fault_at(mi, ci)));
        #[cfg(not(feature = "fault-injection"))]
        let _ = cell;

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::CellPanic) {
            panic!("injected fault: cell panic at {cell:?}");
        }

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::WorkerKill) {
            // The in-process stand-in for a worker death: an abrupt
            // unwind out of the solve, caught by cell isolation.
            panic!("injected fault: worker killed mid-solve at {cell:?}");
        }

        let fp = module.fingerprint();

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::FallbackBudget) {
            // Solve uncached under an exhausted budget: the faulted
            // attempt must neither publish nor consume shared artifacts.
            return Err(CellError::FallbackBudget(synthesize_budget_failure(
                try_fallback_analysis_fe(module, &SolveBudget::iterations(0), 0, None),
            )));
        }

        let blocks = self.frontend_blocks(fp);
        let fallback = self
            .cache
            .try_analysis(fp, &SolveOptions::baseline(), false, || {
                if self.state_store.is_none() {
                    return try_fallback_analysis_fe(module, &self.budget, 0, blocks);
                }
                let key = SolveOptions::baseline().cache_key();
                let prev = self.prev_inputs(key, false);
                let (analysis, state) = try_fallback_analysis_incr_fe(
                    module,
                    &self.budget,
                    0,
                    prev.as_ref().map(|(m, _, s)| (&**m, s)),
                    prev.as_ref().map(|(_, b, _)| &**b),
                    blocks,
                )?;
                self.publish_state(fp, key, false, state.as_ref());
                Ok(analysis)
            })
            .map_err(|e| match e {
                FetchError::Corrupt => CellError::CorruptArtifact,
                FetchError::Solve(s) => CellError::FallbackBudget(s),
            })?;

        let ctx_plan = if config.ctx {
            self.cache.ctx_plan(fp, || ctx_plan_for(module, config))
        } else {
            Arc::new(CtxPlan::new())
        };

        let opts = self.optimistic_opts(config);

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::OptimisticBudget) {
            return Err(CellError::OptimisticBudget(synthesize_budget_failure(
                try_optimistic_analysis_fe(
                    module,
                    config,
                    &ctx_plan,
                    &SolveBudget::iterations(0),
                    0,
                    None,
                ),
            )));
        }

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::CacheCorruption) {
            // Ensure the artifact exists, then damage its recorded digest;
            // the verified fetch below must reject it.
            let _ = self.cache.try_analysis(fp, &opts, config.ctx, || {
                try_optimistic_analysis_fe(module, config, &ctx_plan, &self.budget, 0, None)
            });
            self.cache.corrupt_analysis_entry(fp, &opts, config.ctx);
        }

        let optimistic = self
            .cache
            .try_analysis(fp, &opts, config.ctx, || {
                if self.state_store.is_none() {
                    return try_optimistic_analysis_fe(
                        module,
                        config,
                        &ctx_plan,
                        &self.budget,
                        0,
                        blocks,
                    );
                }
                let key = opts.cache_key();
                let prev = self.prev_inputs(key, config.ctx);
                let (analysis, state) = try_optimistic_analysis_incr_fe(
                    module,
                    config,
                    &ctx_plan,
                    &self.budget,
                    0,
                    prev.as_ref().map(|(m, _, s)| (&**m, s)),
                    prev.as_ref().map(|(_, b, _)| &**b),
                    blocks,
                )?;
                self.publish_state(fp, key, config.ctx, state.as_ref());
                Ok(analysis)
            })
            .map_err(|e| match e {
                FetchError::Corrupt => CellError::CorruptArtifact,
                FetchError::Solve(s) => CellError::OptimisticBudget(s),
            })?;

        Ok(assemble_result(
            module,
            config,
            fallback,
            optimistic,
            (*ctx_plan).clone(),
        ))
    }

    /// The degradation ladder — the analysis-time analogue of the paper's
    /// runtime switch to the fallback memory view.
    fn degrade(&self, module: &Module, config: PolicyConfig, err: CellError) -> KaleidoscopeResult {
        let reason = err.to_string();
        let fp = module.fingerprint();

        // Rung 1: the module's sound fallback artifact serves as both
        // views. Skipped when the fallback stage itself failed; guarded
        // against its own faults so a failure here falls through.
        if !matches!(err, CellError::FallbackBudget(_)) {
            let rung1 = catch_unwind(AssertUnwindSafe(|| {
                let fallback =
                    self.cache
                        .try_analysis(fp, &SolveOptions::baseline(), false, || {
                            try_fallback_analysis_fe(module, &self.budget, 0, None)
                        })?;
                let ctx_plan = if config.ctx {
                    self.cache.ctx_plan(fp, || ctx_plan_for(module, config))
                } else {
                    Arc::new(CtxPlan::new())
                };
                Ok::<_, FetchError>(assemble_degraded_fallback(
                    config,
                    fallback,
                    (*ctx_plan).clone(),
                    reason.clone(),
                ))
            }));
            if let Ok(Ok(r)) = rung1 {
                return r;
            }
        }

        // Rung 2: the Steensgaard unification tier — sound, cheap, and
        // independent of the Andersen solver entirely.
        let steens = self.cache.steens(fp, || steens_analysis(module));
        assemble_degraded_steens(config, steens, reason)
    }

    /// Run the full `modules × configs` matrix and return results in
    /// matrix order (`out[m][c]` for `modules[m]` under `configs[c]`),
    /// independent of worker count. Always completes: faulted cells come
    /// back degraded, not missing.
    pub fn run_matrix(
        &self,
        modules: &[&Module],
        configs: &[PolicyConfig],
    ) -> Vec<Vec<KaleidoscopeResult>> {
        self.run_matrix_map(modules, configs, |_, _, r| r.clone())
    }

    /// [`run_matrix`](Executor::run_matrix), but each cell's result is
    /// reduced to `f(module_idx, config_idx, &result)` inside the worker —
    /// use this when the full `KaleidoscopeResult` per cell is not needed
    /// (e.g. the bench harness keeps only statistics).
    pub fn run_matrix_map<T, F>(
        &self,
        modules: &[&Module],
        configs: &[PolicyConfig],
        f: F,
    ) -> Vec<Vec<T>>
    where
        T: Send,
        F: Fn(usize, usize, &KaleidoscopeResult) -> T + Sync,
    {
        let n_cells = modules.len() * configs.len();
        if n_cells == 0 {
            return modules.iter().map(|_| Vec::new()).collect();
        }

        let legacy = self.jobs <= 1
            && self.budget == SolveBudget::default()
            && !self.has_faults()
            && self.state_store.is_none()
            && self.frontend.is_none();
        let results: Vec<T> = if legacy {
            // Legacy serial path: the original per-cell pipeline, no pool,
            // no cache — the A/B reference for byte-identical output.
            // Only equivalent to the isolated path under the default
            // budget with no faults, so it is only taken there.
            let mut out = Vec::with_capacity(n_cells);
            for (mi, module) in modules.iter().enumerate() {
                for (ci, config) in configs.iter().enumerate() {
                    out.push(f(mi, ci, &analyze(module, *config)));
                }
            }
            out
        } else if self.jobs <= 1 {
            // Serial but isolated: budgets, faults, and degradation apply
            // exactly as on the pooled path.
            let mut out = Vec::with_capacity(n_cells);
            for (mi, module) in modules.iter().enumerate() {
                for (ci, config) in configs.iter().enumerate() {
                    out.push(f(mi, ci, &self.run_cell(module, *config, Some((mi, ci)))));
                }
            }
            out
        } else {
            // Cells are claimed config-major (all modules under config 0
            // first), so early on the workers solve *different* modules'
            // baselines in parallel instead of blocking on one module's
            // shared artifacts.
            let cells: Vec<(usize, usize)> = (0..configs.len())
                .flat_map(|ci| (0..modules.len()).map(move |mi| (mi, ci)))
                .collect();
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<T>>> = (0..n_cells).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..self.jobs.min(n_cells) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(mi, ci)) = cells.get(i) else { break };
                        let result = self.run_cell(modules[mi], configs[ci], Some((mi, ci)));
                        let t = f(mi, ci, &result);
                        // A panicking reducer on another worker may poison
                        // a slot lock; recover the data — a slot is only
                        // ever written whole.
                        *slots[mi * configs.len() + ci]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner()) = Some(t);
                    });
                }
            });
            slots
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    s.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .unwrap_or_else(|| {
                            // Unreachable while cells degrade instead of
                            // failing; kept as a typed diagnostic rather
                            // than an unwrap on principle.
                            panic!("matrix cell {i} missing: worker died outside cell isolation")
                        })
                })
                .collect()
        };

        // Reassemble the flat, cell-indexed vector into matrix shape.
        let mut out: Vec<Vec<T>> = Vec::with_capacity(modules.len());
        let mut it = results.into_iter();
        for _ in 0..modules.len() {
            out.push(it.by_ref().take(configs.len()).collect());
        }
        out
    }
}

/// Injected budget faults run a real solve under a zero budget; on the
/// off-chance the module is trivial enough to finish anyway, synthesize
/// the error so the fault still fires deterministically.
#[cfg(feature = "fault-injection")]
fn synthesize_budget_failure(
    outcome: Result<kaleidoscope_pta::Analysis, SolveError>,
) -> SolveError {
    outcome.err().unwrap_or_else(|| SolveError::BudgetExceeded {
        kind: kaleidoscope_pta::BudgetKind::Iterations,
        stats: Box::new(kaleidoscope_pta::SolveStats::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope::CellHealth;
    use kaleidoscope_ir::{FunctionBuilder, Type};
    use kaleidoscope_pta::PtsStats;

    fn small_module(name: &str) -> Module {
        let mut m = Module::new(name);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let p = b.alloca("p", Type::ptr(Type::Int));
        b.store(p, o);
        let v = b.load("v", p);
        let i = b.input("i");
        let w = b.ptr_arith("w", v, i);
        b.store(w, 0i64);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn jobs_zero_means_available_parallelism() {
        assert!(Executor::new().jobs() >= 1);
        assert_eq!(Executor::with_jobs(3).jobs(), 3);
        assert_eq!(Executor::serial().jobs(), 1);
    }

    #[test]
    fn matrix_shape_and_order() {
        let m1 = small_module("a");
        let m2 = small_module("b");
        let configs = PolicyConfig::table3_order();
        let ex = Executor::with_jobs(4);
        let out = ex.run_matrix_map(&[&m1, &m2], &configs, |mi, ci, r| {
            assert_eq!(r.config, configs[ci]);
            (mi, ci, r.config.name())
        });
        assert_eq!(out.len(), 2);
        for (mi, row) in out.iter().enumerate() {
            assert_eq!(row.len(), 8);
            for (ci, cell) in row.iter().enumerate() {
                assert_eq!(*cell, (mi, ci, configs[ci].name()));
            }
        }
    }

    #[test]
    fn cache_shares_baseline_across_configs() {
        let m = small_module("shared");
        let ex = Executor::with_jobs(2);
        let configs = PolicyConfig::table3_order();
        ex.run_matrix(&[&m], &configs);
        let stats = ex.cache_stats();
        // Artifacts actually solved: 1 baseline (shared by the fallback of
        // all 8 configs and the Baseline optimistic view), 1 ctx plan, and
        // ≤ 7 optimistic solves — never 8 × 2 separate pipeline runs.
        assert!(
            stats.misses <= 9,
            "misses {} exceed distinct artifacts",
            stats.misses
        );
        assert!(stats.hits() >= 8, "hits {} too low", stats.hits());
        assert_eq!(stats.verify_failures, 0);
    }

    #[test]
    fn parallel_equals_serial_on_small_module() {
        let m = small_module("ab");
        let configs = PolicyConfig::table3_order();
        let serial = Executor::serial().run_matrix(&[&m], &configs);
        let parallel = Executor::with_jobs(4).run_matrix(&[&m], &configs);
        for (s, p) in serial[0].iter().zip(&parallel[0]) {
            let ss = PtsStats::collect(&s.optimistic, &m);
            let ps = PtsStats::collect(&p.optimistic, &m);
            assert_eq!(ss.sizes, ps.sizes);
            assert_eq!(format!("{:?}", s.invariants), format!("{:?}", p.invariants));
            assert_eq!(s.health, CellHealth::Healthy);
            assert_eq!(p.health, CellHealth::Healthy);
        }
    }

    #[test]
    fn identical_content_shares_artifacts_across_modules() {
        // Two separately built but identical modules: content addressing
        // means the second contributes zero additional misses.
        let m1 = small_module("twin");
        let m2 = small_module("twin");
        let ex = Executor::with_jobs(2);
        ex.run_matrix(&[&m1], &PolicyConfig::table3_order());
        let misses_before = ex.cache_stats().misses;
        ex.run_matrix(&[&m2], &PolicyConfig::table3_order());
        assert_eq!(ex.cache_stats().misses, misses_before);
    }

    #[test]
    fn incremental_executor_reuses_state_and_matches_cold() {
        let dir = std::env::temp_dir().join(format!("kd-exec-incr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskCache::open(&dir).expect("open store"));

        let v1 = small_module("watch");
        let mut v2 = small_module("watch");
        {
            let mut b = FunctionBuilder::new(&mut v2, "extra", vec![], Type::Void);
            let y = b.alloca("y", Type::Int);
            let q = b.alloca("q", Type::ptr(Type::Int));
            b.store(q, y);
            b.ret(None);
            b.finish();
        }
        store.put_module(v1.fingerprint(), &v1.to_text()).unwrap();

        let configs = PolicyConfig::table3_order();
        // Cold solve of v1 publishes its snapshots.
        Executor::with_jobs(2)
            .with_state_store(Arc::clone(&store))
            .run_matrix(&[&v1], &configs);
        assert!(store.stats().state_lookups == 0 || store.stats().state_hits == 0);

        // Warm solve of v2 from v1's fingerprint reuses them...
        let warm_ex = Executor::with_jobs(2)
            .with_state_store(Arc::clone(&store))
            .with_incremental_from(v1.fingerprint());
        let warm = warm_ex.run_matrix(&[&v2], &configs);
        assert!(store.stats().state_hits > 0, "snapshots were fetched");

        // ...and matches a from-scratch solve of v2 exactly.
        let cold = Executor::with_jobs(2).run_matrix(&[&v2], &configs);
        for (w, c) in warm[0].iter().zip(&cold[0]) {
            assert_eq!(w.health, CellHealth::Healthy);
            let ws = &w.optimistic.result.stats;
            assert_eq!(ws.incr_fallback_full, 0, "append edit must warm-start");
            assert!(ws.incr_reused > 0);
            assert!(ws.incr_seeded_nodes < ws.node_count);
            assert_eq!(
                PtsStats::collect(&w.optimistic, &v2).sizes,
                PtsStats::collect(&c.optimistic, &v2).sizes
            );
            assert_eq!(format!("{:?}", w.invariants), format!("{:?}", c.invariants));
        }

        // An unknown previous fingerprint degrades gracefully to cold.
        let orphan = Executor::serial()
            .with_state_store(Arc::clone(&store))
            .with_incremental_from(0xDEAD_BEEF)
            .run_one(&v2, PolicyConfig::all());
        assert_eq!(orphan.health, CellHealth::Healthy);
        assert_eq!(orphan.optimistic.result.stats.incr_reused, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frontend_blocks_do_not_change_output() {
        let m = small_module("fe-exec");
        let text = m.to_text();
        let lf = load_frontend(&text, None, 2).expect("frontend load");
        assert_eq!(lf.module.fingerprint(), m.fingerprint());

        let configs = PolicyConfig::table3_order();
        let plain = Executor::with_jobs(2).run_matrix(&[&m], &configs);
        let ex = Executor::with_jobs(2).with_frontend(lf.module.fingerprint(), lf.blocks);
        let spliced = ex.run_matrix(&[&lf.module], &configs);
        for (p, s) in plain[0].iter().zip(&spliced[0]) {
            assert_eq!(s.health, CellHealth::Healthy);
            assert_eq!(
                PtsStats::collect(&p.optimistic, &m).sizes,
                PtsStats::collect(&s.optimistic, &m).sizes
            );
            assert_eq!(format!("{:?}", p.invariants), format!("{:?}", s.invariants));
        }

        // Blocks for a *different* module are ignored, not misapplied.
        let other = small_module("fe-other-name");
        let ex = Executor::serial().with_frontend(m.fingerprint(), ModuleBlocks::build(&m).into());
        let r = ex.run_one(&other, PolicyConfig::all());
        assert_eq!(r.health, CellHealth::Healthy);
    }

    #[test]
    fn exhausted_budget_degrades_instead_of_panicking() {
        let m = small_module("tiny-budget");
        let configs = PolicyConfig::table3_order();
        // One iteration is not enough for any stage: the fallback solve
        // fails, so every cell lands on the Steensgaard rung.
        let ex = Executor::with_jobs(2).with_budget(SolveBudget::iterations(1));
        let out = ex.run_matrix(&[&m], &configs);
        assert_eq!(out[0].len(), 8, "matrix completed");
        for r in &out[0] {
            match &r.health {
                CellHealth::Degraded { tier, reason } => {
                    assert_eq!(*tier, kaleidoscope::DegradedTier::Steensgaard);
                    assert!(reason.contains("fallback solve failed"), "{reason}");
                }
                CellHealth::Healthy => panic!("cell unexpectedly healthy"),
            }
            assert!(r.invariants.is_empty());
        }
    }

    #[test]
    fn degraded_steens_cells_match_the_genuine_steens_tier() {
        let m = small_module("steens-eq");
        let ex = Executor::serial().with_budget(SolveBudget::iterations(1));
        let out = ex.run_matrix(&[&m], &PolicyConfig::table3_order());
        let genuine = kaleidoscope_pta::steens_analysis(&m);
        for r in &out[0] {
            let got = PtsStats::collect(&r.optimistic, &m);
            let want = PtsStats::collect(&genuine, &m);
            assert_eq!(got.sizes, want.sizes, "degraded artifact == steens tier");
        }
    }

    #[test]
    fn budget_on_executor_does_not_change_healthy_output() {
        let m = small_module("roomy-budget");
        let configs = PolicyConfig::table3_order();
        let reference = Executor::with_jobs(2).run_matrix(&[&m], &configs);
        let budgeted = Executor::with_jobs(2)
            .with_budget(SolveBudget::iterations(10_000_000))
            .run_matrix(&[&m], &configs);
        for (a, b) in reference[0].iter().zip(&budgeted[0]) {
            assert_eq!(b.health, CellHealth::Healthy);
            assert_eq!(
                PtsStats::collect(&a.optimistic, &m).sizes,
                PtsStats::collect(&b.optimistic, &m).sizes
            );
        }
    }
}
