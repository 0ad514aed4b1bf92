//! High-level analysis facade.
//!
//! [`Analysis`] bundles constraint generation and solving, and offers the
//! queries the rest of the system needs: per-variable points-to sets,
//! indirect-callsite targets, and the "top-level pointer" enumeration the
//! paper's Table 3 statistics are computed over.

use kaleidoscope_ir::{FuncId, InstLoc, LocalId, Module};

use crate::ctxplan::CtxPlan;
use crate::gen::{stored_or_generated, ModuleBlocks};
use crate::incr::{ConstraintDiff, FallbackReason, SolvedState};
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

/// The previous revision a solve warm-starts from.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// The previous revision's module; `None` when the caller already
    /// found that the new module does not extend it (the solve then falls
    /// back, as for an edit [`ConstraintDiff::precheck`] rejects).
    pub module: Option<&'a Module>,
    /// The context plan its captured solve generated constraints with.
    pub plan: Option<&'a CtxPlan>,
    /// Its stored plan-free program, which the diff borrows when `plan`
    /// is absent or empty instead of generating the program again.
    pub blocks: Option<&'a ModuleBlocks>,
    /// Its captured fixpoint.
    pub state: &'a SolvedState,
}

impl Analysis {
    /// Generate constraints and solve, without a context plan or observer.
    pub fn run(module: &Module, opts: &SolveOptions) -> Analysis {
        Self::run_full(module, opts, None, &mut NullObserver)
    }

    /// Generate constraints (honouring `ctx_plan` if given) and solve,
    /// reporting events to `obs`. Panics if the solve budget is exhausted;
    /// the default budget is effectively unlimited.
    pub fn run_full(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        obs: &mut dyn SolverObserver,
    ) -> Analysis {
        Self::try_run(module, opts, ctx_plan, None, None, None, obs)
            .unwrap_or_else(|e| panic!("likely divergence: {e}"))
            .0
    }

    /// Generate constraints and solve: the one fallible solve every other
    /// entry point calls.
    ///
    /// * `ctx_plan` feeds constraint generation.
    /// * With `blocks`, the module's stored plan-free program, a solve whose
    ///   plan is absent or empty clones that program instead of generating
    ///   it. The program is the same either way (see
    ///   [`stored_or_generated`]).
    /// * With `warm`, the solve warm-starts from the previous revision's
    ///   captured fixpoint and seeds only the touched nodes. The diff reads
    ///   the previous revision's program only when
    ///   [`ConstraintDiff::precheck`] finds the two modules compatible, and
    ///   borrows its stored program under the same rule. Any incompatible
    ///   edit, including one the caller rejected before handing over a
    ///   module, falls back to a cold solve, visible as
    ///   `stats.incr_fallback_full == 1`.
    /// * With `capture`, a converged solve also returns a [`SolvedState`]
    ///   snapshot tagged with that fingerprint, which must be `module`'s.
    ///
    /// Returns the typed budget error when the solve budget is exhausted.
    pub fn try_run(
        module: &Module,
        opts: &SolveOptions,
        ctx_plan: Option<&CtxPlan>,
        blocks: Option<&ModuleBlocks>,
        warm: Option<WarmStart<'_>>,
        capture: Option<u64>,
        obs: &mut dyn SolverObserver,
    ) -> Result<(Analysis, Option<SolvedState>), SolveError> {
        let program = stored_or_generated(module, ctx_plan, blocks).into_owned();
        let diff = warm.map(|prev| {
            let Some(prev_module) = prev.module else {
                return ConstraintDiff::rejected(FallbackReason::NotExtended);
            };
            let diff = ConstraintDiff::precheck(prev_module, module);
            if diff.fallback.is_some() {
                return diff;
            }
            let prev_program = stored_or_generated(prev_module, prev.plan, prev.blocks);
            diff.check_programs(&prev_program, &program)
        });
        let warm = warm
            .zip(diff.as_ref())
            .map(|(prev, diff)| (prev.state, diff));
        let (result, state) =
            Solver::new(module, program, opts.clone()).try_solve(warm, capture, obs)?;
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
                    let size = self.result.canonical_len(n);
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
