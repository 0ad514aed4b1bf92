//! Context-sensitivity bypass plans.
//!
//! The paper's third likely invariant (§4.4) singles out *precision-critical
//! arguments*: pointer parameters that flow to the return value or are
//! stored through another parameter. The `kaleidoscope` core crate detects
//! those flows; this module defines the *plan* the constraint generator
//! executes: which in-function statements to skip, and how to replicate them
//! per callsite through dummy nodes (the `cbs0`/`cbs1` nodes of Figure 8).

use std::collections::HashMap;

use kaleidoscope_ir::{fnv1a64, FuncId, InstLoc};

/// One step of the address chain from a base parameter to the location a
/// critical store writes to (e.g. `b->cbs[i]` is `[Field(cbs), Load, Elem]`
/// when `cbs` is a pointer-to-array field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// Take the address of field `k` of the current pointer's target.
    Field(usize),
    /// Load the pointer stored at the current address.
    Load,
    /// Take an element address (array smashing makes this a no-op copy).
    Elem,
}

/// A context-critical data flow inside a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriticalFlow {
    /// `store src_param -> chain(base_param)` at `loc`: a parameter is
    /// copied into memory reachable from another parameter.
    Store {
        /// Location of the store instruction to bypass.
        loc: InstLoc,
        /// Index of the parameter the address chain starts from.
        base_param: usize,
        /// Address chain from the base parameter to the stored-to slot.
        addr_chain: Vec<ChainStep>,
        /// Index of the parameter whose value is stored.
        src_param: usize,
    },
    /// The function returns (a copy of) parameter `param`.
    Ret {
        /// Index of the returned parameter.
        param: usize,
    },
}

/// Per-function bypass instructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncCtxPlan {
    /// The critical flows to bypass and replicate per callsite.
    pub flows: Vec<CriticalFlow>,
}

impl FuncCtxPlan {
    /// Locations of store instructions this plan bypasses.
    pub fn bypassed_stores(&self) -> impl Iterator<Item = InstLoc> + '_ {
        self.flows.iter().filter_map(|f| match f {
            CriticalFlow::Store { loc, .. } => Some(*loc),
            CriticalFlow::Ret { .. } => None,
        })
    }

    /// Whether the plan bypasses the function's return edge.
    pub fn bypasses_ret(&self) -> bool {
        self.flows
            .iter()
            .any(|f| matches!(f, CriticalFlow::Ret { .. }))
    }
}

/// A whole-module context bypass plan.
///
/// Only functions that are *not* address-taken may appear: the per-callsite
/// replication covers direct callsites only, so a function reachable through
/// an indirect call must keep its original constraints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtxPlan {
    /// Plans keyed by function.
    pub funcs: HashMap<FuncId, FuncCtxPlan>,
}

impl CtxPlan {
    /// Create an empty plan (no bypassing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for a function, if any.
    pub fn for_func(&self, f: FuncId) -> Option<&FuncCtxPlan> {
        self.funcs.get(&f)
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Total number of critical flows across all functions.
    pub fn flow_count(&self) -> usize {
        self.funcs.values().map(|p| p.flows.len()).sum()
    }
}

/// A digest of how `plan` treats the functions `0..funcs`: the plans of
/// those functions, in function order, over their `Debug` text (stable
/// within a build; a snapshot another build wrote can at worst fall back).
/// No plan digests as the empty plan, which generates the same program.
///
/// Constraint generation reads a function's plan only while walking that
/// function and its direct callers, so two plans with equal digests over a
/// module's first `funcs` functions generate the same walk of those
/// functions (up to a 64-bit hash collision). A warm start compares the
/// digest its snapshot was generated with against the current plan's over
/// the kept functions (see [`crate::SolvedState::plan_digest`]).
pub fn plan_digest(plan: Option<&CtxPlan>, funcs: usize) -> u64 {
    let mut kept: Vec<(&FuncId, &FuncCtxPlan)> = plan
        .map(|p| p.funcs.iter().filter(|(f, _)| f.index() < funcs).collect())
        .unwrap_or_default();
    kept.sort_unstable_by_key(|(f, _)| **f);
    fnv1a64(&[format!("{kept:?}").as_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::BlockId;

    #[test]
    fn plan_queries() {
        let mut plan = CtxPlan::new();
        assert!(plan.is_empty());
        let loc = InstLoc::new(FuncId(1), BlockId(0), 3);
        plan.funcs.insert(
            FuncId(1),
            FuncCtxPlan {
                flows: vec![
                    CriticalFlow::Store {
                        loc,
                        base_param: 0,
                        addr_chain: vec![ChainStep::Field(2), ChainStep::Load, ChainStep::Elem],
                        src_param: 1,
                    },
                    CriticalFlow::Ret { param: 0 },
                ],
            },
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.flow_count(), 2);
        let fp = plan.for_func(FuncId(1)).unwrap();
        assert_eq!(fp.bypassed_stores().collect::<Vec<_>>(), vec![loc]);
        assert!(fp.bypasses_ret());
        assert!(plan.for_func(FuncId(2)).is_none());
    }

    #[test]
    fn plan_digest_covers_only_the_kept_functions() {
        let ret = |param| FuncCtxPlan {
            flows: vec![CriticalFlow::Ret { param }],
        };
        let empty = plan_digest(None, 9);
        assert_eq!(plan_digest(Some(&CtxPlan::new()), 9), empty);
        let mut plan = CtxPlan::new();
        plan.funcs.insert(FuncId(3), ret(0));
        // Function 3 is past a three-function prefix.
        assert_eq!(plan_digest(Some(&plan), 3), empty);
        let four = plan_digest(Some(&plan), 4);
        assert_ne!(four, empty);
        // A plan for an appended function leaves the kept digest alone; a
        // changed plan of a kept function moves it.
        plan.funcs.insert(FuncId(7), ret(1));
        assert_eq!(plan_digest(Some(&plan), 4), four);
        plan.funcs.insert(FuncId(3), ret(1));
        assert_ne!(plan_digest(Some(&plan), 4), four);
        // Insertion order does not matter.
        let mut a = CtxPlan::new();
        let mut b = CtxPlan::new();
        for f in 0..20 {
            a.funcs.insert(FuncId(f), ret(f as usize));
            b.funcs.insert(FuncId(19 - f), ret(19 - f as usize));
        }
        assert_eq!(plan_digest(Some(&a), 20), plan_digest(Some(&b), 20));
    }
}
