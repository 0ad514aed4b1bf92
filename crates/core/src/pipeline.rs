//! The three-stage IGO pipeline (paper §3, Figure 4).
//!
//! ❶ Run the standard pointer analysis → the **fallback memory view**.
//! ❷ Run it again with the selected likely invariants → the **optimistic
//!   memory view**.
//! ❸ Package the invariant descriptors for runtime monitoring.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use kaleidoscope_ir::{InstLoc, Module};
use kaleidoscope_pta::{
    Analysis, CriticalFlow, CtxPlan, ModuleBlocks, ObjSite, SolveBudget, SolveError, SolveOptions,
    SolvedState,
};

use crate::invariant::LikelyInvariant;
use crate::policy::{detect_ctx_plan, direct_callsites};

/// Which likely-invariant policies are enabled — the `Kd-*` configurations
/// of Table 3 / Figures 10–13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyConfig {
    /// Context-sensitivity likely invariant (§4.4).
    pub ctx: bool,
    /// Arbitrary-pointer-arithmetic likely invariant (§4.2).
    pub pa: bool,
    /// Positive-weight-cycle likely invariant (§4.3).
    pub pwc: bool,
}

impl PolicyConfig {
    /// No policies: the baseline analysis.
    pub fn none() -> Self {
        PolicyConfig {
            ctx: false,
            pa: false,
            pwc: false,
        }
    }

    /// All three policies: full Kaleidoscope.
    pub fn all() -> Self {
        PolicyConfig {
            ctx: true,
            pa: true,
            pwc: true,
        }
    }

    /// The paper's display name for this configuration (`Baseline`,
    /// `Kd-Ctx`, …, `Kaleidoscope`).
    pub fn name(&self) -> &'static str {
        match (self.ctx, self.pa, self.pwc) {
            (false, false, false) => "Baseline",
            (true, false, false) => "Kd-Ctx",
            (false, true, false) => "Kd-PA",
            (false, false, true) => "Kd-PWC",
            (true, true, false) => "Kd-Ctx-PA",
            (true, false, true) => "Kd-Ctx-PWC",
            (false, true, true) => "Kd-PA-PWC",
            (true, true, true) => "Kaleidoscope",
        }
    }

    /// All eight configurations in the column order of Table 3.
    pub fn table3_order() -> [PolicyConfig; 8] {
        let c = |ctx, pa, pwc| PolicyConfig { ctx, pa, pwc };
        [
            c(false, false, false),
            c(true, false, false),
            c(false, true, false),
            c(false, false, true),
            c(true, true, false),
            c(true, false, true),
            c(false, true, true),
            c(true, true, true),
        ]
    }

    /// Whether any policy is enabled.
    pub fn any(&self) -> bool {
        self.ctx || self.pa || self.pwc
    }

    /// Parse a configuration name: `baseline`/`none`, `all`/`kaleidoscope`/
    /// `full`, or policy parts joined by `-` (`ctx`, `pa`, `pwc`, with an
    /// optional leading `kd`), case-insensitive. This is the one parser
    /// shared by the CLI and the serve protocol, so a config name means the
    /// same thing to `kd analyze` and to a daemon request.
    pub fn parse(name: &str) -> Result<PolicyConfig, String> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "baseline" | "none" => return Ok(PolicyConfig::none()),
            "all" | "kaleidoscope" | "full" => return Ok(PolicyConfig::all()),
            _ => {}
        }
        let mut c = PolicyConfig::none();
        for part in lower.split('-') {
            match part {
                "kd" => {}
                "ctx" => c.ctx = true,
                "pa" => c.pa = true,
                "pwc" => c.pwc = true,
                other => return Err(format!("unknown policy `{other}` in `{name}`")),
            }
        }
        Ok(c)
    }

    /// Stable wire/cache key for a configuration (`ctx`/`pa`/`pwc` bits).
    pub fn key(&self) -> u8 {
        (self.ctx as u8) | (self.pa as u8) << 1 | (self.pwc as u8) << 2
    }
}

impl fmt::Display for PolicyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rung of the degradation ladder a degraded cell landed on.
///
/// The ladder is the analysis-time analogue of the paper's runtime memory
/// view switch (§5): when the optimistic solve misbehaves we serve the
/// sound fallback view; when even the fallback solve fails we serve the
/// cheap Steensgaard unification tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedTier {
    /// The optimistic view was replaced by the (sound) fallback view.
    Fallback,
    /// Both views were replaced by the Steensgaard unification analysis.
    Steensgaard,
}

impl fmt::Display for DegradedTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradedTier::Fallback => "fallback",
            DegradedTier::Steensgaard => "steensgaard",
        })
    }
}

/// How a matrix cell's artifacts were produced: by the requested
/// configuration, or degraded down the ladder after a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellHealth {
    /// Every stage completed as configured.
    Healthy,
    /// A stage faulted; the cell serves the given lower tier instead.
    Degraded {
        /// The tier the cell was degraded to.
        tier: DegradedTier,
        /// One-line cause (budget kind, panic payload, corrupt artifact).
        reason: String,
    },
}

impl CellHealth {
    /// Whether this cell degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, CellHealth::Degraded { .. })
    }
}

impl fmt::Display for CellHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellHealth::Healthy => f.write_str("healthy"),
            CellHealth::Degraded { tier, reason } => {
                write!(f, "degraded to {tier} ({reason})")
            }
        }
    }
}

/// The output of the IGO pipeline: both memory views plus the likely
/// invariants connecting them.
#[derive(Debug, Clone)]
pub struct KaleidoscopeResult {
    /// The configuration that produced this result.
    pub config: PolicyConfig,
    /// ❶ The conservative analysis (fallback memory view). Shared, not
    /// owned: warm executor cells hand out the cached artifact without
    /// deep-copying hundreds of megabytes of points-to bitmaps, and a
    /// degraded cell's two views alias one allocation.
    pub fallback: Arc<Analysis>,
    /// ❷ The optimistic analysis (optimistic memory view).
    pub optimistic: Arc<Analysis>,
    /// ❸ The optimistic assumptions to monitor at runtime.
    pub invariants: Vec<LikelyInvariant>,
    /// The context plan used (empty when `config.ctx` is off).
    pub ctx_plan: CtxPlan,
    /// Whether the cell ran as configured or degraded down the ladder.
    pub health: CellHealth,
}

impl KaleidoscopeResult {
    /// Number of invariants per policy tag, for reports.
    pub fn invariant_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for inv in &self.invariants {
            *m.entry(inv.policy()).or_insert(0) += 1;
        }
        m
    }
}

/// Run the full IGO pipeline over a module with the given policies.
///
/// With [`PolicyConfig::none`], both views are the same baseline analysis
/// and no invariants are produced.
///
/// This is a composition of the cacheable stages below; the parallel
/// executor (`kaleidoscope-exec`) runs the same stages but memoizes
/// [`fallback_analysis`], [`ctx_plan_for`], and [`optimistic_analysis`]
/// per module in its content-addressed artifact cache. Keeping both paths
/// on one set of stage functions is what makes their outputs
/// byte-identical.
pub fn analyze(module: &Module, config: PolicyConfig) -> KaleidoscopeResult {
    let fallback = Arc::new(fallback_analysis(module));
    let ctx_plan = ctx_plan_for(module, config);
    let optimistic = Arc::new(optimistic_analysis(module, config, &ctx_plan));
    assemble_result(module, config, fallback, optimistic, ctx_plan)
}

/// ❶ Stage: the standard (conservative) analysis — the fallback view.
///
/// Independent of `config`, so every configuration of one module shares a
/// single fallback solve.
pub fn fallback_analysis(module: &Module) -> Analysis {
    Analysis::run(module, &SolveOptions::baseline())
}

/// Budgeted variant of [`fallback_analysis`]: a typed error instead of a
/// panic when the budget is exhausted. With `blocks`, constraint
/// generation replays the pre-recorded frontend constraint blocks instead
/// of re-walking the IR; the generated program — and hence the analysis —
/// is identical either way.
///
/// `_solver_threads` is ignored. It selected a second solver schedule that
/// has since been removed; the parameter stays so existing callers compile.
pub fn try_fallback_analysis_fe(
    module: &Module,
    budget: &SolveBudget,
    _solver_threads: usize,
    blocks: Option<&ModuleBlocks>,
) -> Result<Analysis, SolveError> {
    let opts = SolveOptions::baseline_with_budget(budget.clone());
    Analysis::try_run_full_fe(
        module,
        &opts,
        None,
        &mut kaleidoscope_pta::NullObserver,
        blocks,
    )
}

/// Incremental-aware variant of [`try_fallback_analysis_fe`]: when `prev`
/// supplies the previous revision's module and captured fixpoint, the
/// solve warm-starts from it (falling back to a sound full solve on any
/// incompatible edit); either way a fresh [`SolvedState`] snapshot of the
/// new fixpoint is captured when the solve converges. `prev_blocks` and
/// `blocks` are the previous and current revisions' frontend constraint
/// blocks. `_solver_threads` is ignored, as in [`try_fallback_analysis_fe`].
pub fn try_fallback_analysis_incr_fe(
    module: &Module,
    budget: &SolveBudget,
    _solver_threads: usize,
    prev: Option<(&Module, &SolvedState)>,
    prev_blocks: Option<&ModuleBlocks>,
    blocks: Option<&ModuleBlocks>,
) -> Result<(Analysis, Option<SolvedState>), SolveError> {
    let opts = SolveOptions::baseline_with_budget(budget.clone());
    match prev {
        Some((prev_module, prev_state)) => Analysis::try_run_incremental_fe(
            prev_module,
            None,
            prev_state,
            module,
            &opts,
            None,
            &mut kaleidoscope_pta::NullObserver,
            prev_blocks,
            blocks,
        ),
        None => Analysis::try_run_captured_fe(
            module,
            &opts,
            None,
            &mut kaleidoscope_pta::NullObserver,
            blocks,
        ),
    }
}

/// Stage: the context plan feeding constraint generation (empty when the
/// ctx policy is off).
pub fn ctx_plan_for(module: &Module, config: PolicyConfig) -> CtxPlan {
    if config.ctx {
        detect_ctx_plan(module)
    } else {
        CtxPlan::new()
    }
}

/// ❷ Stage: the optimistic analysis under `config`'s policies.
///
/// Depends on the module content, the `(pa, pwc)` solve options, and —
/// when `config.ctx` is on — the context plan.
pub fn optimistic_analysis(module: &Module, config: PolicyConfig, ctx_plan: &CtxPlan) -> Analysis {
    let opts = SolveOptions::optimistic(config.pa, config.pwc);
    Analysis::run_full(
        module,
        &opts,
        if config.ctx { Some(ctx_plan) } else { None },
        &mut kaleidoscope_pta::NullObserver,
    )
}

/// Budgeted variant of [`optimistic_analysis`], with optional
/// pre-recorded frontend constraint blocks. Blocks are plan-free:
/// functions the context plan touches are recorded afresh under the plan
/// during the splice. `_solver_threads` is ignored, as in
/// [`try_fallback_analysis_fe`].
pub fn try_optimistic_analysis_fe(
    module: &Module,
    config: PolicyConfig,
    ctx_plan: &CtxPlan,
    budget: &SolveBudget,
    _solver_threads: usize,
    blocks: Option<&ModuleBlocks>,
) -> Result<Analysis, SolveError> {
    let opts = SolveOptions {
        budget: budget.clone(),
        ..SolveOptions::optimistic(config.pa, config.pwc)
    };
    Analysis::try_run_full_fe(
        module,
        &opts,
        if config.ctx { Some(ctx_plan) } else { None },
        &mut kaleidoscope_pta::NullObserver,
        blocks,
    )
}

/// Incremental-aware variant of [`try_optimistic_analysis_fe`]. The
/// previous revision's context plan is derived from its module here (plan
/// detection is deterministic), so callers only have to thread the module
/// and the captured state. See [`try_fallback_analysis_incr_fe`] for the
/// semantics. Blocks are plan-free: functions the context plan touches are
/// recorded afresh under the plan during the splice, so the optimistic
/// program is identical to one generated without cached blocks.
/// `_solver_threads` is ignored.
#[allow(clippy::too_many_arguments)]
pub fn try_optimistic_analysis_incr_fe(
    module: &Module,
    config: PolicyConfig,
    ctx_plan: &CtxPlan,
    budget: &SolveBudget,
    _solver_threads: usize,
    prev: Option<(&Module, &SolvedState)>,
    prev_blocks: Option<&ModuleBlocks>,
    blocks: Option<&ModuleBlocks>,
) -> Result<(Analysis, Option<SolvedState>), SolveError> {
    let opts = SolveOptions {
        budget: budget.clone(),
        ..SolveOptions::optimistic(config.pa, config.pwc)
    };
    let plan = if config.ctx { Some(ctx_plan) } else { None };
    match prev {
        Some((prev_module, prev_state)) => {
            let prev_plan = if config.ctx {
                Some(ctx_plan_for(prev_module, config))
            } else {
                None
            };
            Analysis::try_run_incremental_fe(
                prev_module,
                prev_plan.as_ref(),
                prev_state,
                module,
                &opts,
                plan,
                &mut kaleidoscope_pta::NullObserver,
                prev_blocks,
                blocks,
            )
        }
        None => Analysis::try_run_captured_fe(
            module,
            &opts,
            plan,
            &mut kaleidoscope_pta::NullObserver,
            blocks,
        ),
    }
}

/// ❸ Stage: derive the likely-invariant descriptors and package the
/// result. Pure over its inputs — given the same views it always produces
/// the same invariants, so cached and freshly solved views assemble to
/// identical results.
pub fn assemble_result(
    module: &Module,
    config: PolicyConfig,
    fallback: Arc<Analysis>,
    optimistic: Arc<Analysis>,
    ctx_plan: CtxPlan,
) -> KaleidoscopeResult {
    let mut invariants = Vec::new();

    // PA: group filter events by instruction.
    let mut by_loc: BTreeMap<InstLoc, Vec<ObjSite>> = BTreeMap::new();
    for ev in &optimistic.result.pa_filters {
        let site = optimistic.result.nodes.obj_info(ev.obj).site;
        by_loc.entry(ev.loc).or_default().push(site);
    }
    for (loc, mut sites) in by_loc {
        sites.sort_unstable();
        sites.dedup();
        invariants.push(LikelyInvariant::PtrArith {
            loc,
            filtered_sites: sites,
        });
    }

    // PWC: one invariant per deferred cycle (deduplicated by field set and
    // ordered by it, so the report does not depend on discovery order —
    // incremental warm-starts replay stored events before new detections).
    let mut seen_pwc: Vec<Vec<InstLoc>> = optimistic
        .result
        .pwcs
        .iter()
        .filter(|pwc| !pwc.field_locs.is_empty())
        .map(|pwc| pwc.field_locs.clone())
        .collect();
    seen_pwc.sort();
    seen_pwc.dedup();
    for field_locs in seen_pwc {
        invariants.push(LikelyInvariant::Pwc { field_locs });
    }

    // Ctx: one invariant per critical flow.
    if config.ctx && !ctx_plan.is_empty() {
        let callsites = direct_callsites(module);
        let mut funcs: Vec<_> = ctx_plan.funcs.iter().collect();
        funcs.sort_by_key(|(f, _)| **f);
        for (fid, plan) in funcs {
            let sites = callsites.get(fid).cloned().unwrap_or_default();
            for flow in &plan.flows {
                match flow {
                    CriticalFlow::Store {
                        loc,
                        base_param,
                        src_param,
                        ..
                    } => invariants.push(LikelyInvariant::CtxStore {
                        func: *fid,
                        store_loc: *loc,
                        base_param: *base_param,
                        src_param: *src_param,
                        callsites: sites.clone(),
                    }),
                    CriticalFlow::Ret { param } => invariants.push(LikelyInvariant::CtxRet {
                        func: *fid,
                        param: *param,
                        callsites: sites.clone(),
                    }),
                }
            }
        }
    }

    KaleidoscopeResult {
        config,
        fallback,
        optimistic,
        invariants,
        ctx_plan,
        health: CellHealth::Healthy,
    }
}

/// Assemble a cell degraded to the **fallback** tier: the optimistic view
/// *is* the sound fallback view, so there are no optimistic assumptions to
/// monitor and the invariant list is empty — exactly the state the runtime
/// switch leaves a process in after a violation.
pub fn assemble_degraded_fallback(
    config: PolicyConfig,
    fallback: Arc<Analysis>,
    ctx_plan: CtxPlan,
    reason: String,
) -> KaleidoscopeResult {
    KaleidoscopeResult {
        config,
        optimistic: Arc::clone(&fallback),
        fallback,
        invariants: Vec::new(),
        ctx_plan,
        health: CellHealth::Degraded {
            tier: DegradedTier::Fallback,
            reason,
        },
    }
}

/// Assemble a cell degraded to the **Steensgaard** tier: both views are the
/// unification analysis (sound, cheap, imprecise), used when even the
/// fallback solve failed. `steens` must come from
/// [`kaleidoscope_pta::steens_analysis`] so degraded artifacts are
/// byte-comparable across runs.
pub fn assemble_degraded_steens(
    config: PolicyConfig,
    steens: Arc<Analysis>,
    reason: String,
) -> KaleidoscopeResult {
    KaleidoscopeResult {
        config,
        fallback: Arc::clone(&steens),
        optimistic: steens,
        invariants: Vec::new(),
        ctx_plan: CtxPlan::new(),
        health: CellHealth::Degraded {
            tier: DegradedTier::Steensgaard,
            reason,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{FunctionBuilder, LocalId, Type};
    use kaleidoscope_pta::PtsStats;

    /// The Figure 6 (Lighttpd) shape: arbitrary arithmetic on a char buffer
    /// whose points-to set was polluted with struct plugins.
    fn lighttpd_module() -> Module {
        let mut m = Module::new("lighttpd");
        let plugin = m
            .types
            .declare(
                "plugin",
                vec![
                    Type::ptr(Type::Int),
                    Type::fn_ptr(vec![], Type::Void),
                    Type::fn_ptr(vec![], Type::Void),
                ],
            )
            .unwrap();
        let mut b = FunctionBuilder::new(&mut m, "http_write_header", vec![], Type::Void);
        let buff = b.alloca("buff", Type::array(Type::Int, 16));
        let mod_auth = b.alloca("mod_auth", Type::Struct(plugin));
        let mod_cgi = b.alloca("mod_cgi", Type::Struct(plugin));
        // Imprecision source: s may point to buff, mod_auth, or mod_cgi.
        let s = b.alloca("s", Type::ptr(Type::Int));
        let buffc = b.copy_typed("buffc", buff, Type::ptr(Type::Int));
        b.store(s, buffc);
        let mac = b.copy_typed("mac", mod_auth, Type::ptr(Type::Int));
        b.store(s, mac);
        let mcc = b.copy_typed("mcc", mod_cgi, Type::ptr(Type::Int));
        b.store(s, mcc);
        let sv = b.load("sv", s);
        let i = b.input("i");
        let w = b.ptr_arith("w", sv, i); // *(s+i)
        b.store(w, 0i64);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn all_config_produces_pa_invariants_on_lighttpd_shape() {
        let m = lighttpd_module();
        let r = analyze(&m, PolicyConfig::all());
        let pa: Vec<_> = r
            .invariants
            .iter()
            .filter(|i| matches!(i, LikelyInvariant::PtrArith { .. }))
            .collect();
        assert_eq!(pa.len(), 1, "one monitored arithmetic site");
        if let LikelyInvariant::PtrArith { filtered_sites, .. } = pa[0] {
            assert_eq!(filtered_sites.len(), 2, "mod_auth and mod_cgi filtered");
        }
    }

    #[test]
    fn optimistic_view_keeps_field_sensitivity() {
        let m = lighttpd_module();
        let base = analyze(&m, PolicyConfig::none());
        let opt = analyze(&m, PolicyConfig::all());
        let f = m.func_by_name("http_write_header").unwrap();
        // `w` is local 9 (buff,mod_auth,mod_cgi,s,buffc,mac,mcc,sv,i,w).
        let w = LocalId(9);
        let base_w = base.optimistic.pts_of_local(f, w);
        let opt_w = opt.optimistic.pts_of_local(f, w);
        assert!(opt_w.len() < base_w.len(), "filtering shrank pts(w)");
        assert_eq!(opt_w.len(), 1, "only the array remains");
    }

    #[test]
    fn baseline_config_has_no_invariants_and_equal_views() {
        let m = lighttpd_module();
        let r = analyze(&m, PolicyConfig::none());
        assert!(r.invariants.is_empty());
        let s1 = PtsStats::collect(&r.fallback, &m);
        let s2 = PtsStats::collect(&r.optimistic, &m);
        assert_eq!(s1.sizes, s2.sizes);
    }

    #[test]
    fn optimistic_subset_of_fallback_sitewise() {
        let m = lighttpd_module();
        let r = analyze(&m, PolicyConfig::all());
        for (fid, f) in m.iter_funcs() {
            for l in 0..f.locals.len() as u32 {
                let opt = r.optimistic.pts_of_local(fid, LocalId(l));
                let fall = r.fallback.pts_of_local(fid, LocalId(l));
                let opt_sites = r.optimistic.sites_of(&opt);
                let fall_sites = r.fallback.sites_of(&fall);
                for s in opt_sites {
                    assert!(
                        fall_sites.contains(&s),
                        "{}::{} optimistic site {s} not in fallback",
                        f.name,
                        f.locals[l as usize].name
                    );
                }
            }
        }
    }

    #[test]
    fn config_names_match_paper() {
        let names: Vec<_> = PolicyConfig::table3_order()
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "Baseline",
                "Kd-Ctx",
                "Kd-PA",
                "Kd-PWC",
                "Kd-Ctx-PA",
                "Kd-Ctx-PWC",
                "Kd-PA-PWC",
                "Kaleidoscope"
            ]
        );
    }

    #[test]
    fn degraded_fallback_serves_sound_view_with_no_invariants() {
        let m = lighttpd_module();
        let healthy = analyze(&m, PolicyConfig::all());
        assert_eq!(healthy.health, CellHealth::Healthy);
        let r = assemble_degraded_fallback(
            PolicyConfig::all(),
            Arc::new(fallback_analysis(&m)),
            CtxPlan::new(),
            "iteration budget exceeded".into(),
        );
        assert!(r.health.is_degraded());
        assert!(r.invariants.is_empty(), "nothing optimistic to monitor");
        // The served optimistic view is exactly the fallback view.
        let f = m.func_by_name("http_write_header").unwrap();
        for l in 0..m.func(f).locals.len() as u32 {
            assert_eq!(
                r.optimistic.pts_of_local(f, LocalId(l)).len(),
                r.fallback.pts_of_local(f, LocalId(l)).len()
            );
        }
    }

    #[test]
    fn degraded_steens_tier_tags_health() {
        let m = lighttpd_module();
        let steens = kaleidoscope_pta::steens_analysis(&m);
        let r = assemble_degraded_steens(PolicyConfig::all(), Arc::new(steens), "panic".into());
        assert!(matches!(
            r.health,
            CellHealth::Degraded {
                tier: DegradedTier::Steensgaard,
                ..
            }
        ));
        assert_eq!(r.health.to_string(), "degraded to steensgaard (panic)");
        assert!(r.ctx_plan.is_empty());
    }

    #[test]
    fn budgeted_stages_match_unbudgeted_when_sufficient() {
        let m = lighttpd_module();
        let a = fallback_analysis(&m);
        let b =
            try_fallback_analysis_fe(&m, &SolveBudget::default(), 0, None).expect("default budget");
        let f = m.func_by_name("http_write_header").unwrap();
        for l in 0..m.func(f).locals.len() as u32 {
            assert_eq!(
                a.pts_of_local(f, LocalId(l)).len(),
                b.pts_of_local(f, LocalId(l)).len()
            );
        }
        let tiny = SolveBudget::iterations(1);
        assert!(try_fallback_analysis_fe(&m, &tiny, 0, None).is_err());
        let cfg = PolicyConfig::all();
        let plan = ctx_plan_for(&m, cfg);
        assert!(try_optimistic_analysis_fe(&m, cfg, &plan, &tiny, 0, None).is_err());
        assert!(
            try_optimistic_analysis_fe(&m, cfg, &plan, &SolveBudget::default(), 0, None).is_ok()
        );
    }

    #[test]
    fn invariant_counts_grouped_by_policy() {
        let m = lighttpd_module();
        let r = analyze(&m, PolicyConfig::all());
        let counts = r.invariant_counts();
        assert_eq!(counts.get("PA"), Some(&1));
        assert_eq!(counts.get("Ctx"), None);
    }
}
