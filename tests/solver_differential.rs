//! Differential test for the solver's worklist schedules.
//!
//! The topology-ordered priority worklist is a pure scheduling optimization:
//! the inclusion fixpoint is unique, so solving with it must produce exactly
//! the same *analysis facts* as the legacy FIFO worklist it replaced. Node
//! numbering is allowed to differ (field nodes are created lazily, in
//! discovery order), so the comparison projects every result onto stable
//! identities: allocation sites per local, collapsed-object sites, PWC /
//! PA-filter event locations, and the call graph.

use kaleidoscope_suite::apps;
use kaleidoscope_suite::ir::{FuncId, InstLoc, LocalId, Module};
use kaleidoscope_suite::kaleidoscope::{detect_ctx_plan, PolicyConfig};
use kaleidoscope_suite::pta::gen::generate;
use kaleidoscope_suite::pta::{Analysis, CtxPlan, NullObserver, ObjSite, SolveOptions, Solver};

/// A solver result projected onto schedule-independent identities.
#[derive(Debug, PartialEq)]
struct StableView {
    /// Allocation sites per named local, for locals with non-empty pts.
    pts: Vec<(String, Vec<ObjSite>)>,
    /// Sites of objects made field-insensitive, sorted and deduped.
    collapsed: Vec<ObjSite>,
    /// Per PWC event, the sorted Field-Of locations; events sorted.
    pwcs: Vec<Vec<InstLoc>>,
    /// PA-filter events as (location, filtered object's site).
    pa_filters: Vec<(InstLoc, ObjSite)>,
    /// Indirect callsites with their resolved target sets.
    callgraph: Vec<(InstLoc, Vec<FuncId>)>,
}

fn stable_view(module: &Module, a: &Analysis) -> StableView {
    let nodes = &a.result.nodes;
    let mut pts = Vec::new();
    for (fid, f) in module.iter_funcs() {
        for l in 0..f.locals.len() as u32 {
            let set = a.pts_of_local(fid, LocalId(l));
            if !set.is_empty() {
                let name = format!("{}::{}", f.name, f.locals[l as usize].name);
                pts.push((name, a.sites_of(&set)));
            }
        }
    }
    let mut collapsed: Vec<ObjSite> = a
        .result
        .collapsed_objects
        .iter()
        .map(|&o| nodes.obj_info(o).site)
        .collect();
    collapsed.sort_unstable();
    collapsed.dedup();
    let mut pwcs: Vec<Vec<InstLoc>> = a
        .result
        .pwcs
        .iter()
        .map(|e| {
            let mut locs = e.field_locs.clone();
            locs.sort_unstable();
            locs.dedup();
            locs
        })
        .collect();
    pwcs.sort_unstable();
    let mut pa_filters: Vec<(InstLoc, ObjSite)> = a
        .result
        .pa_filters
        .iter()
        .map(|e| (e.loc, nodes.obj_info(e.obj).site))
        .collect();
    pa_filters.sort_unstable();
    pa_filters.dedup();
    let callgraph = a
        .result
        .callgraph
        .indirect_sites()
        .map(|(l, ts)| (l, ts.to_vec()))
        .collect();
    StableView {
        pts,
        collapsed,
        pwcs,
        pa_filters,
        callgraph,
    }
}

fn solve(module: &Module, opts: &SolveOptions, ctx_plan: Option<&CtxPlan>, fifo: bool) -> Analysis {
    let program = generate(module, ctx_plan);
    let mut solver = Solver::new(module, program, opts.clone());
    if fifo {
        solver = solver.use_fifo_worklist();
    }
    let (result, _) = solver
        .try_solve(None, None, &mut NullObserver)
        .expect("unbudgeted solve");
    Analysis { result }
}

fn assert_schedules_agree(
    module: &Module,
    opts: &SolveOptions,
    ctx_plan: Option<&CtxPlan>,
    label: &str,
) {
    let topo = solve(module, opts, ctx_plan, false);
    let fifo = solve(module, opts, ctx_plan, true);
    assert_eq!(
        stable_view(module, &topo),
        stable_view(module, &fifo),
        "{label}: topology-ordered and FIFO schedules disagree"
    );
}

/// All 9 models x 8 configurations: the fallback and optimistic solves of
/// each configuration must be schedule-independent.
#[test]
fn topo_and_fifo_worklists_reach_identical_fixpoints() {
    for model in apps::all_models() {
        let module = &model.module;
        assert_schedules_agree(
            module,
            &SolveOptions::baseline(),
            None,
            &format!("{}/fallback", model.name),
        );
        let plan = detect_ctx_plan(module);
        for config in PolicyConfig::table3_order() {
            let opts = SolveOptions::optimistic(config.pa, config.pwc);
            assert_schedules_agree(
                module,
                &opts,
                if config.ctx { Some(&plan) } else { None },
                &format!("{}/{}", model.name, config.name()),
            );
        }
    }
}
