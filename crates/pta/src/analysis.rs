//! High-level analysis facade.
//!
//! [`Analysis`] bundles constraint generation and solving, and offers the
//! queries the rest of the system needs: per-variable points-to sets,
//! indirect-callsite targets, and the "top-level pointer" enumeration the
//! paper's Table 3 statistics are computed over.

use kaleidoscope_ir::{FuncId, InstLoc, LocalId, Module};

use crate::block::ModuleBlocks;
use crate::ctxplan::CtxPlan;
use crate::gen::generate_spliced;
use crate::incr::{ConstraintDiff, SolvedState};
use crate::node::{NodeId, ObjSite};
use crate::observer::{NullObserver, SolverObserver};
use crate::pts::PtsSet;
use crate::solver::{SolveError, SolveOptions, SolveResult, Solver};

/// A completed pointer analysis over one module.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The raw solver result.
    pub result: SolveResult,
}

/// The parallel executor shares modules and finished analyses across worker
/// threads; these types must stay `Send + Sync` (plain owned data, no
/// interior mutability).
#[allow(dead_code)]
fn _assert_shareable() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Module>();
    send_sync::<Analysis>();
    send_sync::<SolveResult>();
    send_sync::<SolveOptions>();
    send_sync::<CtxPlan>();
}

impl Analysis {
    /// Generate constraints and solve, without a context plan or observer.
    pub fn run(module: &Module, opts: &SolveOptions) -> Analysis {
        Self::run_full(module, opts, None, &mut NullObserver)
    }

    /// Generate constraints (honouring `ctx_plan` if given) and solve,
    /// reporting events to `obs`.
    pub fn run_full(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
    ) -> Analysis {
        let program = generate_spliced(module, ctx_plan, None);
        let result = Solver::new(module, program, opts.clone()).solve(obs);
        Analysis { result }
    }

    /// Fallible variant of [`Analysis::run`]: returns the typed budget
    /// error instead of panicking when the solve budget is exhausted.
    pub fn try_run(module: &Module, opts: &SolveOptions) -> Result<Analysis, SolveError> {
        Self::try_run_full(module, opts, None, &mut NullObserver)
    }

    /// Fallible variant of [`Analysis::run_full`].
    pub fn try_run_full(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
    ) -> Result<Analysis, SolveError> {
        Self::try_run_full_fe(module, opts, ctx_plan, obs, None)
    }

    /// [`Analysis::try_run_full`] with pre-recorded frontend constraint
    /// blocks: constraint generation replays `blocks` for every function
    /// the context plan does not affect, producing a program identical to
    /// one generated without them.
    pub fn try_run_full_fe(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
        blocks: Option<&ModuleBlocks>,
    ) -> Result<Analysis, SolveError> {
        let program = generate_spliced(module, ctx_plan, blocks);
        let result = Solver::new(module, program, opts.clone()).try_solve(obs)?;
        Ok(Analysis { result })
    }

    /// Like [`Analysis::try_run_full`], but also captures a [`SolvedState`]
    /// snapshot when the solve converges, for later incremental re-solves
    /// of edited revisions of the same module.
    pub fn try_run_captured(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
    ) -> Result<(Analysis, Option<SolvedState>), SolveError> {
        Self::try_run_captured_fe(module, opts, ctx_plan, obs, None)
    }

    /// [`Analysis::try_run_captured`] with pre-recorded frontend blocks.
    pub fn try_run_captured_fe(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
        blocks: Option<&ModuleBlocks>,
    ) -> Result<(Analysis, Option<SolvedState>), SolveError> {
        let program = generate_spliced(module, ctx_plan, blocks);
        let (result, state) = Solver::new(module, program, opts.clone())
            .try_solve_captured(module.fingerprint(), obs)?;
        Ok((Analysis { result }, state))
    }

    /// Incremental re-solve: warm-start from `prev` (the captured fixpoint
    /// of `prev_module` under the same options) and seed the worklist with
    /// only the touched nodes. Any incompatible edit falls back to a sound
    /// full solve, visible as `stats.incr_fallback_full == 1`. Captures a
    /// fresh snapshot of the new fixpoint for chained edits.
    pub fn try_run_incremental(
        prev_module: &Module,
        prev_plan: Option<&CtxPlan>,
        prev: &SolvedState,
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
    ) -> Result<(Analysis, Option<SolvedState>), SolveError> {
        Self::try_run_incremental_fe(
            prev_module,
            prev_plan,
            prev,
            module,
            opts,
            ctx_plan,
            obs,
            None,
            None,
        )
    }

    /// [`Analysis::try_run_incremental`] with pre-recorded frontend blocks
    /// for the previous and current revisions. Both generations (the
    /// previous program regenerated for diffing, and the new program)
    /// splice their blocks when given.
    #[allow(clippy::too_many_arguments)]
    pub fn try_run_incremental_fe(
        prev_module: &Module,
        prev_plan: Option<&CtxPlan>,
        prev: &SolvedState,
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
        prev_blocks: Option<&ModuleBlocks>,
        blocks: Option<&ModuleBlocks>,
    ) -> Result<(Analysis, Option<SolvedState>), SolveError> {
        let prev_program = generate_spliced(prev_module, prev_plan, prev_blocks);
        let program = generate_spliced(module, ctx_plan, blocks);
        let diff = ConstraintDiff::compute(prev_module, &prev_program, module, &program);
        let (result, state) = Solver::new(module, program, opts.clone())
            .try_resolve_incremental_captured(module.fingerprint(), prev, &diff, obs)?;
        Ok((Analysis { result }, state))
    }

    /// Canonical points-to set of a local variable (empty if the local
    /// never participated in a pointer constraint).
    pub fn pts_of_local(&self, func: FuncId, local: LocalId) -> PtsSet {
        match self.result.nodes.local_node_opt(func, local) {
            Some(n) => self.result.pts_of(n),
            None => PtsSet::new(),
        }
    }

    /// Canonical points-to set of an arbitrary node.
    pub fn pts_of(&self, n: NodeId) -> PtsSet {
        self.result.pts_of(n)
    }

    /// Allocation sites of the objects in a points-to set (deduplicated;
    /// field sub-objects map to their root object's site).
    pub fn sites_of(&self, pts: &PtsSet) -> Vec<ObjSite> {
        let mut sites: Vec<ObjSite> = pts
            .iter()
            .filter_map(|n| self.result.nodes.node_obj(n))
            .map(|o| self.result.nodes.obj_info(o).site)
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// Resolved targets of an indirect callsite.
    pub fn callsite_targets(&self, site: InstLoc) -> &[FuncId] {
        self.result.callgraph.indirect_targets(site)
    }

    /// Enumerate the module's *top-level pointers* — pointer-typed locals
    /// (SVF's notion; what Table 3 measures) — with their points-to set
    /// sizes. Pointers that never received a points-to set are skipped.
    pub fn top_level_pointer_sizes(&self, module: &Module) -> Vec<(FuncId, LocalId, usize)> {
        let mut out = Vec::new();
        for (fid, f) in module.iter_funcs() {
            for (i, l) in f.locals.iter().enumerate() {
                if !l.ty.is_ptr() {
                    continue;
                }
                let lid = LocalId(i as u32);
                if let Some(n) = self.result.nodes.local_node_opt(fid, lid) {
                    let size = self.result.pts_of(n).len();
                    if size > 0 {
                        out.push((fid, lid, size));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{FunctionBuilder, Type};

    #[test]
    fn facade_runs_and_queries() {
        let mut m = Module::new("facade");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let c = b.copy("c", o);
        let _ = c;
        b.ret(None);
        let main = b.finish();
        let a = Analysis::run(&m, &SolveOptions::baseline());
        let pts = a.pts_of_local(main, LocalId(1));
        assert_eq!(pts.len(), 1);
        let sites = a.sites_of(&pts);
        assert_eq!(sites.len(), 1);
        assert!(matches!(sites[0], ObjSite::Stack(_)));
        let tlp = a.top_level_pointer_sizes(&m);
        assert_eq!(tlp.len(), 2); // o and c both hold &obj
    }

    #[test]
    fn unused_pointer_locals_are_skipped() {
        let mut m = Module::new("skip");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let _unused = b.local("unused", Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
        let a = Analysis::run(&m, &SolveOptions::baseline());
        assert!(a.top_level_pointer_sizes(&m).is_empty());
    }
}
