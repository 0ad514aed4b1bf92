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
//! * **One solve per effective key** — each module of a matrix is a
//!   row, and the row holds one slot per *effective key*: a cell's
//!   configuration without each invariant that cannot act on the module.
//!   The solver reads each invariant's flag at one decision point, so a
//!   flag it never reads leaves the solve unchanged. Ctx is dropped when
//!   the module's context plan is empty, PA when no instruction is pointer
//!   arithmetic, and PWC when the solve without it degraded no Field-Of
//!   constraint (a witness read only from a solve the matrix runs anyway).
//!   The first cell to ask for a key solves it in the slot; cells racing on
//!   it wait for that solve, and later cells read it. So the baseline solve
//!   and the context plan happen once per module, and each distinct
//!   configuration is solved once: the nine models' 72 cells take 54
//!   solves, a `scale` corpus's eight take one. Snapshots are published
//!   under the effective key too. A row lives for one matrix run, and
//!   every production caller runs one matrix per executor, so nothing is
//!   kept across runs.
//! * **Shared generation** — with a module's stored plan-free program
//!   from [`load_frontend`] attached ([`Executor::with_frontend`]), every
//!   solve without a context plan clones that program instead of
//!   generating constraints again; a non-empty plan generates afresh.
//! * **Warm starts** — with a state store and a previous revision
//!   ([`Executor::with_previous_revision`]), each solve of the module that
//!   extends that revision restores the revision's snapshot of its key. The
//!   caller resolves the revision once, before any solve
//!   ([`resolve_previous_revision`], from [`analyze_request`]): it compares
//!   the named revision's stored text with the module's canonical text
//!   ([`kaleidoscope_ir::revision_prefix`]), and when the module does not
//!   extend it, takes the longest stored revision both extend, checking
//!   that the module's first that many items stand alone
//!   ([`Module::prefix_closed`]). The revision is never parsed, cut or
//!   generated: an edit that extends it hands over only its counts, from
//!   which each solve derives the translation onto its own program
//!   ([`kaleidoscope_pta::ConstraintDiff::derive`]); an edit that extends
//!   no stored revision solves cold, counted as a fallback.
//! * **A/B checking** — one worker ([`Executor::serial`], `--jobs 1`)
//!   bypasses both the pool and the row slots and runs the legacy
//!   [`kaleidoscope::analyze`] per cell, as the reference for the
//!   determinism guarantee. It is taken only under the default budget
//!   with no fault plan, state store or stored program; otherwise one
//!   worker runs the pooled loop.
//!
//! The legacy path composes the stage functions of `core::pipeline`
//! (`fallback_analysis` / `ctx_plan_for` / `optimistic_analysis` /
//! `assemble_result`). The executor calls `detect_ctx_plan` and
//! `assemble_result` itself and runs every solve through one helper that
//! calls [`kaleidoscope_pta::Analysis::try_run`]. Both paths end in the one
//! `Solver::try_solve`, which is what makes their outputs identical.
//!
//! # Fault domains and the degradation ladder
//!
//! Each cell is a fault domain: its pipeline runs under
//! [`std::panic::catch_unwind`] and its solves run under the executor's
//! [`SolveBudget`]. A cell that panics or exhausts its budget does not
//! abort the matrix — it *degrades*, mirroring the paper's runtime
//! memory-view switch (§5):
//!
//! 1. **Fallback rung** — the cell serves the module's sound fallback
//!    solve as both views, with no invariants to monitor (exactly the
//!    post-switch state of a monitored process). If no cell has solved it
//!    yet, it is solved like any other fallback solve: warm-started, with
//!    its snapshot published.
//! 2. **Steensgaard rung** — if even the fallback solve fails, the cell
//!    serves the cheap unification-based tier (sound, imprecise, near
//!    linear time), solved once per row.
//!
//! A failed solve stays in its slot: every reader runs under the same
//! budget, so a retry could only fail again. Degraded cells are tagged via
//! [`kaleidoscope::CellHealth`] on the result, and surface in
//! `kd analyze --stats`, the report dashboard, and the executor bench. The
//! `fault-injection` cargo feature adds `FaultPlan` for deterministically
//! injecting panics, budget exhaustion and worker deaths at chosen cells.
//! An injected budget fault solves outside the slots, so cells that share
//! the faulted cell's effective key stay healthy.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod diskcache;
#[cfg(feature = "fault-injection")]
mod fault;
mod frontend;
mod memo;
mod report;

pub use diskcache::{DiskCache, DiskCacheStats, ReportScope, CACHE_DIR_ENV, FE_CACHE_VERSION};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultKind, FaultPlan};
pub use frontend::{load_frontend, FrontendStats, LoadedFrontend};
pub use memo::ArtifactCache;
pub use report::{
    analyze_request, render_analyze, resolve_previous_revision, AnalyzeAnswer, AnalyzeError,
    AnalyzeReport, AnalyzeRequest, CacheDisposition, ModuleSource,
};

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use kaleidoscope::{
    analyze, assemble_degraded_fallback, assemble_degraded_steens, assemble_result,
    detect_ctx_plan, KaleidoscopeResult, PolicyConfig,
};
use kaleidoscope_ir::{Inst, Module, PrefixCounts};
use kaleidoscope_pta::{
    steens_analysis, Analysis, CtxPlan, FallbackReason, ModuleBlocks, NullObserver, SolveBudget,
    SolveError, SolveOptions, SolvedState, WarmStart,
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
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::OptimisticBudget(e) => write!(f, "optimistic solve failed: {e}"),
            CellError::FallbackBudget(e) => write!(f, "fallback solve failed: {e}"),
            CellError::Panic(msg) => write!(f, "cell panicked: {msg}"),
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
    budget: SolveBudget,
    state_store: Option<Arc<DiskCache>>,
    /// The stored plan-free program of the module fingerprinted by the
    /// first component (from [`load_frontend`]); plan-free solves of that
    /// module clone it instead of generating constraints.
    frontend: Option<(u64, Arc<ModuleBlocks>)>,
    /// The previous revision the solves of one module warm-start from.
    prev: Option<PrevRevision>,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultPlan>,
}

/// The previous revision warm starts of one module read: its fingerprint
/// (its snapshots carry it), the fingerprint of the module that extends
/// it, and its item counts (`None` when the module does not extend it).
#[derive(Debug)]
struct PrevRevision {
    fp: u64,
    of: u64,
    prefix: Option<PrefixCounts>,
}

/// One module of a matrix, as each of its cells sees it. A row exists once
/// per module per matrix run and holds that run's solves of the module.
#[derive(Debug)]
struct Row<'a> {
    module: &'a Module,
    /// `module`'s fingerprint, computed once per module, not per cell.
    fp: u64,
    /// Whether `module` has a `PtrArith` instruction (the solver reads
    /// `pa_filter` nowhere else); computed only when a cell asks for PA.
    ptr_arith: bool,
    /// The configurations the matrix asks of `module`.
    configs: &'a [PolicyConfig],
    /// The module's context plan, detected on first use.
    plan: OnceLock<CtxPlan>,
    /// The solve of each effective key, indexed by [`slot`]: the first
    /// reader solves it, and every other reader gets the same outcome.
    solves: [OnceLock<Result<Arc<Analysis>, SolveError>>; 8],
    /// The Steensgaard tier, solved for the first cell that needs it.
    steens: OnceLock<Arc<Analysis>>,
}

/// The index of effective key `key` in [`Row::solves`].
fn slot(key: PolicyConfig) -> usize {
    usize::from(key.ctx) << 2 | usize::from(key.pa) << 1 | usize::from(key.pwc)
}

impl<'a> Row<'a> {
    fn new(module: &'a Module, fp: u64, configs: &'a [PolicyConfig]) -> Row<'a> {
        let ptr_arith = configs.iter().any(|c| c.pa)
            && module
                .iter_locs()
                .any(|(_, inst)| matches!(inst, Inst::PtrArith { .. }));
        Row {
            module,
            fp,
            ptr_arith,
            configs,
            plan: OnceLock::new(),
            solves: Default::default(),
            steens: OnceLock::new(),
        }
    }

    /// The module's context plan, detected once per row.
    fn plan(&self) -> &CtxPlan {
        self.plan.get_or_init(|| detect_ctx_plan(self.module))
    }

    /// The context plan `config` runs with (empty when the ctx policy is
    /// off).
    fn plan_of(&self, config: PolicyConfig) -> CtxPlan {
        if config.ctx {
            self.plan().clone()
        } else {
            CtxPlan::new()
        }
    }

    /// `config` without the invariants no solve of this module can read:
    /// `ctx` when the context plan is empty (an empty plan generates the
    /// plan-free program) and `pa` when no instruction is pointer
    /// arithmetic.
    fn statically_effective(&self, config: PolicyConfig) -> PolicyConfig {
        PolicyConfig {
            ctx: config.ctx && !self.plan().is_empty(),
            pa: config.pa && self.ptr_arith,
            pwc: config.pwc,
        }
    }
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
    /// parallelism. With `1` and no budget, faults, state store or stored
    /// program, a matrix runs the legacy serial path (no pool, no slots);
    /// otherwise the pool runs on one worker.
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
            budget: SolveBudget::default(),
            state_store: None,
            frontend: None,
            prev: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// One worker (`--jobs 1`): the legacy serial reference, unless a
    /// budget, faults, a state store or a stored program need the pool.
    pub fn serial() -> Executor {
        Executor::with_jobs(1)
    }

    /// Set the per-solve budget every cell runs under. Budgets do not
    /// change a solve's result (the fixpoint is unique), only whether a
    /// cell completes or degrades, so they are excluded from effective keys
    /// and snapshot names.
    pub fn with_budget(mut self, budget: SolveBudget) -> Executor {
        self.budget = budget;
        self
    }

    /// Attach a shared on-disk store for solved-state snapshots. Every
    /// converged solve publishes its captured fixpoint there, and (with
    /// [`Executor::with_previous_revision`]) the previous revision's
    /// snapshot is fetched from it to warm-start incrementally.
    pub fn with_state_store(mut self, store: Arc<DiskCache>) -> Executor {
        self.state_store = Some(store);
        self
    }

    /// Warm-start the solves of the module fingerprinted `fp` from the
    /// captured fixpoints of its previous revision, fingerprinted
    /// `prev_fp`, in the state store. `prefix` is the revision's item
    /// counts, when the caller has shown that the module's first that many
    /// items are the revision's (see [`analyze_request`]), or `None` when
    /// the module does not extend the revision: then every solve whose
    /// snapshot exists runs cold, counted as a fallback. A missing or
    /// mismatched snapshot, or a changed context plan of a kept function,
    /// solves cold too, and any other module ignores the revision. Output
    /// is byte-identical either way; only the solve time and the `incr-*`
    /// stats change.
    pub fn with_previous_revision(
        mut self,
        prev_fp: u64,
        fp: u64,
        prefix: Option<PrefixCounts>,
    ) -> Executor {
        self.prev = Some(PrevRevision {
            fp: prev_fp,
            of: fp,
            prefix,
        });
        self
    }

    /// Attach the stored plan-free program of the module fingerprinted
    /// `fp` (from [`load_frontend`]). Solves of that exact module without
    /// a context plan, or with an empty one, clone it instead of
    /// generating constraints from the IR; any other module ignores it.
    /// Output is byte-identical either way.
    pub fn with_frontend(mut self, fp: u64, blocks: Arc<ModuleBlocks>) -> Executor {
        self.frontend = Some((fp, blocks));
        self
    }

    /// The attached stored program, when it belongs to `module`.
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

    /// The options of `config`'s optimistic solve under the executor's
    /// budget. [`PolicyConfig::none`]'s are the fallback solve's.
    fn opts(&self, config: PolicyConfig) -> SolveOptions {
        SolveOptions {
            budget: self.budget.clone(),
            ..SolveOptions::optimistic(config.pa, config.pwc)
        }
    }

    /// Run the IGO pipeline for one cell, with full fault isolation: on
    /// panic or budget exhaustion the cell degrades down the ladder instead
    /// of failing.
    pub fn run_one(&self, module: &Module, config: PolicyConfig) -> KaleidoscopeResult {
        let configs = [config];
        self.run_cell(
            &Row::new(module, module.fingerprint(), &configs),
            config,
            None,
        )
    }

    /// Every Andersen solve the executor runs, of `row`'s module under
    /// `opts`, with its context plan when `with_ctx`.
    ///
    /// With a state store, a solve of the module that extends the previous
    /// revision warm-starts from the revision's snapshot for the same
    /// options and ctx flag. A missing, stale or mismatched snapshot solves
    /// cold, never from a wrong state: it must carry the revision's
    /// fingerprint. An edit that does not extend the revision solves cold
    /// too, counted as a fallback. A converged solve then publishes its own
    /// snapshot, tagged with the module's fingerprint.
    /// Publishing is best effort: a failed disk write only costs the next
    /// edit its warm start.
    fn solve(
        &self,
        row: &Row<'_>,
        opts: &SolveOptions,
        with_ctx: bool,
    ) -> Result<Analysis, SolveError> {
        let store = self.state_store.as_deref();
        let opts_key = opts.cache_key();
        let prev = store
            .zip(self.prev.as_ref().filter(|prev| prev.of == row.fp))
            .and_then(|(store, prev)| {
                let state = store
                    .get_state(prev.fp, opts_key, with_ctx)
                    .and_then(|bytes| SolvedState::from_bytes(&bytes))
                    .filter(|state| state.fingerprint == prev.fp)?;
                Some((prev, state))
            });
        let warm = prev.as_ref().map(|(prev, state)| WarmStart {
            prefix: prev.prefix.ok_or(FallbackReason::NotExtended),
            state,
        });
        let (analysis, state) = Analysis::try_run(
            row.module,
            opts,
            with_ctx.then(|| row.plan()),
            self.frontend_blocks(row.fp),
            warm,
            store.map(|_| row.fp),
            &mut NullObserver,
        )?;
        if let (Some(store), Some(state)) = (store, state) {
            let _ = store.put_state(row.fp, opts_key, with_ctx, &state.to_bytes());
        }
        Ok(analysis)
    }

    /// The solve of `key`, an effective key, from `row`'s slot, solving it
    /// there if no cell has. Racing cells wait for one solve. A failed
    /// solve stays in the slot: every reader runs under the same budget, so
    /// under a pop-count budget a retry could only fail again.
    fn fetch(&self, row: &Row<'_>, key: PolicyConfig) -> Result<Arc<Analysis>, SolveError> {
        row.solves[slot(key)]
            .get_or_init(|| self.solve(row, &self.opts(key), key.ctx).map(Arc::new))
            .clone()
    }

    /// The effective key of `config` on `row`'s module: the configuration
    /// whose solve answers for it. The solver reads each invariant's flag
    /// at one decision point only, and two solves that differ in one flag
    /// stay identical until its first read. So each flag that is never
    /// read is dropped:
    ///
    /// * `ctx` and `pa` by [`Row::statically_effective`];
    /// * `pwc` when the solve of the key without it degraded no Field-Of
    ///   constraint. Without `pwc_defer`, the first read of the flag (a
    ///   cycle or self-loop with a live Field-Of edge) always degrades one.
    ///
    /// The `pwc` witness is read only from a solve the matrix runs anyway:
    /// the fallback, or the effective key of another requested cell.
    /// Without such a solve, or when it fails, `pwc` stays.
    fn effective_key(
        &self,
        row: &Row<'_>,
        config: PolicyConfig,
        fallback: &Analysis,
    ) -> PolicyConfig {
        let key = row.statically_effective(config);
        if !key.pwc {
            return key;
        }
        let witness = PolicyConfig { pwc: false, ..key };
        let degraded = if witness == PolicyConfig::none() {
            Some(fallback.result.stats.degraded_fields)
        } else if row
            .configs
            .iter()
            .any(|&c| !c.pwc && row.statically_effective(c) == witness)
        {
            self.fetch(row, witness)
                .ok()
                .map(|a| a.result.stats.degraded_fields)
        } else {
            None
        };
        if degraded == Some(0) {
            witness
        } else {
            key
        }
    }

    /// One cell of `row`'s module.
    fn run_cell(
        &self,
        row: &Row<'_>,
        config: PolicyConfig,
        cell: Option<(usize, usize)>,
    ) -> KaleidoscopeResult {
        match self.run_cell_isolated(row, config, cell) {
            Ok(r) => r,
            Err(e) => self.degrade(row, config, e),
        }
    }

    /// The configured pipeline for one cell, with panics caught and
    /// surfaced as typed errors.
    fn run_cell_isolated(
        &self,
        row: &Row<'_>,
        config: PolicyConfig,
        cell: Option<(usize, usize)>,
    ) -> Result<KaleidoscopeResult, CellError> {
        catch_unwind(AssertUnwindSafe(|| self.configured_cell(row, config, cell)))
            .unwrap_or_else(|payload| Err(CellError::Panic(panic_message(payload.as_ref()))))
    }

    /// The configured (healthy-path) pipeline: the row's fallback solve,
    /// context plan and solve of the cell's effective key, all under the
    /// executor's budget.
    fn configured_cell(
        &self,
        row: &Row<'_>,
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

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::FallbackBudget) {
            // Solve outside the slots under an exhausted budget: the
            // faulted attempt must neither fill nor read the row's solve.
            let opts = exhausted(&self.opts(PolicyConfig::none()));
            return Err(CellError::FallbackBudget(synthesize_budget_failure(
                self.solve(row, &opts, false),
            )));
        }

        let fallback = self
            .fetch(row, PolicyConfig::none())
            .map_err(CellError::FallbackBudget)?;
        let key = self.effective_key(row, config, &fallback);

        #[cfg(feature = "fault-injection")]
        if fault == Some(FaultKind::OptimisticBudget) {
            let opts = exhausted(&self.opts(key));
            return Err(CellError::OptimisticBudget(synthesize_budget_failure(
                self.solve(row, &opts, key.ctx),
            )));
        }

        let optimistic = self.fetch(row, key).map_err(CellError::OptimisticBudget)?;
        Ok(assemble_result(
            row.module,
            config,
            fallback,
            optimistic,
            row.plan_of(config),
        ))
    }

    /// The degradation ladder — the analysis-time analogue of the paper's
    /// runtime switch to the fallback memory view.
    fn degrade(&self, row: &Row<'_>, config: PolicyConfig, err: CellError) -> KaleidoscopeResult {
        let reason = err.to_string();

        // Rung 1: the module's sound fallback solve serves as both views.
        // Skipped when the fallback stage itself failed; guarded against
        // its own faults so a failure here falls through.
        if !matches!(err, CellError::FallbackBudget(_)) {
            let rung1 = catch_unwind(AssertUnwindSafe(|| {
                let fallback = self.fetch(row, PolicyConfig::none())?;
                Ok::<_, SolveError>(assemble_degraded_fallback(
                    config,
                    fallback,
                    row.plan_of(config),
                    reason.clone(),
                ))
            }));
            if let Ok(Ok(r)) = rung1 {
                return r;
            }
        }

        // Rung 2: the Steensgaard unification tier — sound, cheap, and
        // independent of the Andersen solver entirely.
        let steens = row
            .steens
            .get_or_init(|| Arc::new(steens_analysis(row.module)));
        assemble_degraded_steens(config, Arc::clone(steens), reason)
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
        self.run_fingerprinted(modules, None, configs, f)
    }

    /// [`run_matrix_map`](Executor::run_matrix_map) over modules whose
    /// fingerprints the caller already holds (`fps[m]` is `modules[m]`'s);
    /// with `None` the pool fingerprints each module once.
    pub(crate) fn run_fingerprinted<T, F>(
        &self,
        modules: &[&Module],
        fps: Option<&[u64]>,
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
            // no slots — the A/B reference for byte-identical output.
            // Budgets, faults, warm starts and a stored program need the
            // pool's fault-isolated cells, so it is only taken without
            // them; with them, one worker runs the pool.
            let mut out = Vec::with_capacity(n_cells);
            for (mi, module) in modules.iter().enumerate() {
                for (ci, config) in configs.iter().enumerate() {
                    out.push(f(mi, ci, &analyze(module, *config)));
                }
            }
            out
        } else {
            // Cells are claimed config-major (all modules under config 0
            // first), so early on the workers solve *different* modules'
            // baselines in parallel instead of blocking on one module's
            // shared solves.
            let cells: Vec<(usize, usize)> = (0..configs.len())
                .flat_map(|ci| (0..modules.len()).map(move |mi| (mi, ci)))
                .collect();
            let rows: Vec<Row<'_>> = modules
                .iter()
                .enumerate()
                .map(|(mi, &m)| {
                    let fp = fps.map_or_else(|| m.fingerprint(), |fps| fps[mi]);
                    Row::new(m, fp, configs)
                })
                .collect();
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<T>>> = (0..n_cells).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..self.jobs.min(n_cells) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(mi, ci)) = cells.get(i) else { break };
                        let result = self.run_cell(&rows[mi], configs[ci], Some((mi, ci)));
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

/// `opts` under a budget of zero pops, for injected budget faults.
#[cfg(feature = "fault-injection")]
fn exhausted(opts: &SolveOptions) -> SolveOptions {
    SolveOptions {
        budget: SolveBudget::iterations(0),
        ..opts.clone()
    }
}

/// Injected budget faults run a real solve under a zero budget; on the
/// off-chance the module is trivial enough to finish anyway, synthesize
/// the error so the fault still fires deterministically.
#[cfg(feature = "fault-injection")]
fn synthesize_budget_failure(outcome: Result<Analysis, SolveError>) -> SolveError {
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

    /// The solves `ex` attempts over `m`'s eight configurations. With a
    /// state store and a named previous revision, each attempt looks up
    /// the revision's snapshot once.
    fn solve_attempts(ex: Executor, m: &Module, store: &Arc<DiskCache>) -> u64 {
        let before = store.stats().state_lookups;
        ex.with_state_store(Arc::clone(store))
            .with_previous_revision(0xDEAD_BEEF, m.fingerprint(), None)
            .run_matrix(&[m], &PolicyConfig::table3_order());
        store.stats().state_lookups - before
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<DiskCache>) {
        let dir = std::env::temp_dir().join(format!("kd-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskCache::open(&dir).expect("open store"));
        (dir, store)
    }

    #[test]
    fn cache_shares_baseline_across_configs() {
        // The module has pointer arithmetic, an empty context plan and no
        // Field-Of constraint, so its eight configurations reduce to two
        // effective keys: the baseline (the fallback of all 8 configs and
        // the optimistic view of the four without PA) and the PA solve
        // (the other four). Never 8 × 2 separate pipeline runs, and never
        // a second solve of a key two workers race on.
        let m = small_module("shared");
        let (dir, store) = temp_store("shared");
        for jobs in [2, 4] {
            for run in 0..20 {
                let attempts = solve_attempts(Executor::with_jobs(jobs), &m, &store);
                assert_eq!(attempts, 2, "jobs {jobs} run {run}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_solve_is_attempted_once_per_row() {
        // Under one pop every cell's fallback solve fails; the eight cells
        // read the one failed attempt from the row's slot.
        let m = small_module("failed-once");
        let (dir, store) = temp_store("failed-once");
        let ex = Executor::with_jobs(2).with_budget(SolveBudget::iterations(1));
        assert_eq!(solve_attempts(ex, &m, &store), 1);
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The revision `module` warm-starts from when `prev` is named, as
    /// [`analyze_request`] resolves it, after storing `prev`'s text.
    fn resolve(store: &DiskCache, prev: &Module, module: &Module) -> (u64, Option<PrefixCounts>) {
        store
            .put_module(prev.fingerprint(), &prev.to_text())
            .expect("store text");
        let fp = module.fingerprint();
        resolve_previous_revision(store, prev.fingerprint(), module, fp, &module.to_text())
            .expect("stored text")
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

        let configs = PolicyConfig::table3_order();
        // Cold solve of v1 publishes its snapshots.
        Executor::with_jobs(2)
            .with_state_store(Arc::clone(&store))
            .run_matrix(&[&v1], &configs);
        assert!(store.stats().state_lookups == 0 || store.stats().state_hits == 0);

        // The previous revision is v2's first v1-many items.
        let (rev, counts) = resolve(&store, &v1, &v2);
        assert_eq!(rev, v1.fingerprint());
        let counts = counts.expect("an append extends v1");
        assert_eq!(
            (counts.funcs, counts.globals, counts.types),
            (v1.funcs.len(), v1.globals.len(), v1.types.len())
        );

        // Warm solve of v2 from v1 reuses its snapshots...
        let warm_ex = Executor::with_jobs(2)
            .with_state_store(Arc::clone(&store))
            .with_previous_revision(v1.fingerprint(), v2.fingerprint(), Some(counts));
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

        // A revision without snapshots, or one handed for another module,
        // degrades gracefully to cold.
        for (prev_fp, of) in [
            (0xDEAD_BEEF, v2.fingerprint()),
            (v1.fingerprint(), 0xDEAD_BEEF),
        ] {
            let orphan = Executor::serial()
                .with_state_store(Arc::clone(&store))
                .with_previous_revision(prev_fp, of, Some(counts))
                .run_one(&v2, PolicyConfig::all());
            assert_eq!(orphan.health, CellHealth::Healthy);
            let stats = &orphan.optimistic.result.stats;
            assert_eq!((stats.incr_reused, stats.incr_fallback_full), (0, 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rejected_warm_start_has_no_prefix() {
        let dir = std::env::temp_dir().join(format!("kd-exec-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskCache::open(&dir).expect("open store"));
        let model = |name| {
            kaleidoscope_apps::model(name)
                .expect("bundled model")
                .module
        };
        let (prev, next) = (model("TinyDTLS"), model("Wget"));
        let configs = PolicyConfig::table3_order();
        Executor::with_jobs(2)
            .with_state_store(Arc::clone(&store))
            .run_matrix(&[&prev], &configs);

        // An unrelated module does not extend the stored text: no solve
        // warm-starts, and the attempt on the fallback's key (which has a
        // snapshot) is counted.
        assert_eq!(resolve(&store, &prev, &next), (prev.fingerprint(), None));
        let ex = Executor::with_jobs(2)
            .with_state_store(Arc::clone(&store))
            .with_previous_revision(prev.fingerprint(), next.fingerprint(), None);
        for r in &ex.run_matrix(&[&next], &configs)[0] {
            assert_eq!(r.health, CellHealth::Healthy);
            assert_eq!(r.fallback.result.stats.incr_fallback_full, 1);
            assert_eq!(r.optimistic.result.stats.incr_reused, 0);
        }
        let rejected = ex.prev.as_ref().expect("revision kept");
        assert!(rejected.prefix.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frontend_blocks_do_not_change_output() {
        let m = small_module("fe-exec");
        let text = m.to_text();
        let lf = load_frontend(&text, None, 1).expect("frontend load");
        assert_eq!(lf.module.fingerprint(), m.fingerprint());

        let configs = PolicyConfig::table3_order();
        let plain = Executor::with_jobs(2).run_matrix(&[&m], &configs);
        let ex = Executor::with_jobs(2).with_frontend(lf.module.fingerprint(), lf.blocks);
        let stored = ex.run_matrix(&[&lf.module], &configs);
        for (p, s) in plain[0].iter().zip(&stored[0]) {
            assert_eq!(s.health, CellHealth::Healthy);
            assert_eq!(
                PtsStats::collect(&p.optimistic, &m).sizes,
                PtsStats::collect(&s.optimistic, &m).sizes
            );
            assert_eq!(format!("{:?}", p.invariants), format!("{:?}", s.invariants));
        }

        // A *different* module's program is ignored, not misapplied.
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
