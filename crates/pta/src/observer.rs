//! Solver observation hooks.
//!
//! The paper's introspection framework (§4.1) instruments SVF's resolution
//! rules and cycle-collapse code "to record the number of objects that are
//! added to the target pointer's points-to set" and to track the origins of
//! derived constraint edges. [`SolverObserver`] is that instrumentation
//! surface: the solver reports every points-to growth, derived copy edge,
//! cycle collapse, and object collapse as it happens.

use kaleidoscope_ir::InstLoc;

use crate::gen::CopyProvenance;
use crate::node::{NodeId, NodeTable, ObjId};

/// Why an object was made field-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseReason {
    /// Arbitrary pointer arithmetic reached the object (baseline handling
    /// of `*(p+i)`; paper §4.2).
    PtrArith(InstLoc),
    /// The object was a target of a Field-Of edge inside a positive weight
    /// cycle (baseline PWC handling; paper §4.3).
    Pwc,
}

/// Instrumentation surface of the Andersen solver.
///
/// All methods have empty default bodies, so an observer only implements
/// what it needs. Observers must not assume canonical node ids: the solver
/// reports representative ids valid at event time.
pub trait SolverObserver {
    /// `target` gained the objects in `added`.
    fn pts_grew(&mut self, nodes: &NodeTable, target: NodeId, added: &[NodeId]) {
        let _ = (nodes, target, added);
    }

    /// A derived copy edge `from → to` was added while resolving a Load,
    /// Store, or indirect call; `why` records the derivation origin.
    fn derived_copy(&mut self, nodes: &NodeTable, from: NodeId, to: NodeId, why: &CopyProvenance) {
        let _ = (nodes, from, to, why);
    }

    /// A cycle of `members` was collapsed into one representative.
    fn cycle_collapsed(&mut self, nodes: &NodeTable, members: &[NodeId], pwc: bool) {
        let _ = (nodes, members, pwc);
    }

    /// `obj` was turned field-insensitive.
    fn object_collapsed(&mut self, nodes: &NodeTable, obj: ObjId, why: CollapseReason) {
        let _ = (nodes, obj, why);
    }
}

/// An observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SolverObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_a_noop() {
        let nodes = NodeTable::new();
        let mut n = NullObserver;
        n.pts_grew(&nodes, NodeId(0), &[]);
        n.cycle_collapsed(&nodes, &[], false);
    }
}
