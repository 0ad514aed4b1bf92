//! High-level analysis facade.
//!
//! [`Analysis`] bundles constraint generation and solving, and offers the
//! queries the rest of the system needs: per-variable points-to sets,
//! indirect-callsite targets, and the "top-level pointer" enumeration the
//! paper's Table 3 statistics are computed over.

use kaleidoscope_ir::{FuncId, InstLoc, LocalId, Module, PrefixCounts};

use crate::ctxplan::{plan_digest, CtxPlan};
use crate::gen::{stored_or_generated, ModuleBlocks, Program};
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

/// The previous revision a solve warm-starts from: how much of the module
/// it was, and its captured fixpoint. Nothing of the revision itself is
/// built: the translation onto the module's program is derived from the
/// counts ([`ConstraintDiff::derive`]).
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// The revision's item counts, when the caller has shown the module
    /// extends it: its first that many structs, globals and functions are
    /// the revision's, byte for byte. Callers show it from the revision's
    /// stored text (`kaleidoscope_ir::revision_prefix` and
    /// [`Module::prefix_closed`]) or from its module
    /// ([`WarmStart::between`]). `Err` names why the module does not
    /// extend the revision; the solve then falls back.
    pub prefix: Result<PrefixCounts, FallbackReason>,
    /// Its captured fixpoint.
    pub state: &'a SolvedState,
}

impl<'a> WarmStart<'a> {
    /// The warm start from `prev`, the revision whose solve captured
    /// `state`, onto `module`: `prev`'s item counts when
    /// [`ConstraintDiff::precheck`] finds `module` extends it, else the
    /// precheck's reason.
    pub fn between(prev: &Module, module: &Module, state: &'a SolvedState) -> WarmStart<'a> {
        let prefix = match ConstraintDiff::precheck(prev, module).fallback {
            Some(reason) => Err(reason),
            None => Ok(prev.item_counts()),
        };
        WarmStart { prefix, state }
    }

    /// The translation of the snapshot onto `program`, `module`'s program
    /// under `ctx_plan`. It falls back when the module does not extend the
    /// revision, when the current plan of a kept function differs from the
    /// one the snapshot's program was generated with
    /// ([`FallbackReason::PlanChanged`]), and when the snapshot does not
    /// have the node count the counts derive
    /// ([`FallbackReason::StateMismatch`]).
    pub fn diff(
        &self,
        module: &Module,
        ctx_plan: Option<&CtxPlan>,
        program: &Program,
    ) -> ConstraintDiff {
        match self.prefix {
            Err(reason) => ConstraintDiff::rejected(reason),
            Ok(prefix) if plan_digest(ctx_plan, prefix.funcs) != self.state.plan_digest => {
                ConstraintDiff::rejected(FallbackReason::PlanChanged)
            }
            Ok(prefix) => {
                let diff = ConstraintDiff::derive(module, program, prefix);
                if diff.fallback.is_none() && diff.node_map.len() != self.state.gen_len as usize {
                    return ConstraintDiff::rejected(FallbackReason::StateMismatch);
                }
                diff
            }
        }
    }
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
    ///   captured fixpoint and seeds only the touched nodes, through the
    ///   translation [`WarmStart::diff`] derives from the revision's counts
    ///   and this program. Any incompatible edit, including one the caller
    ///   rejected before handing over counts, falls back to a cold solve,
    ///   visible as `stats.incr_fallback_full == 1`.
    /// * With `capture`, the solve also returns a [`SolvedState`]
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
        let diff = warm.map(|prev| prev.diff(module, ctx_plan, &program));
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
