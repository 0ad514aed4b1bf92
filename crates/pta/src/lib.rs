//! Inclusion-based (Andersen) and unification-based (Steensgaard) pointer
//! analyses over the Kaleidoscope IR.
//!
//! This crate is the reproduction's stand-in for SVF: it implements the
//! field-sensitive, flow- and context-insensitive Andersen's algorithm the
//! paper instruments (Table 1's constraints and resolution rules), including
//! online cycle detection/collapse and the positive-weight-cycle (PWC)
//! handling of Pearce et al. that the paper's second likely invariant
//! targets.
//!
//! The solver is *policy-parameterized*: the optimistic behaviours of
//! Kaleidoscope's likely invariants (filtering struct objects at arbitrary
//! pointer arithmetic, deferring PWC collapse, bypassing context-critical
//! statements) are switched on through [`solver::SolveOptions`] and the
//! [`ctxplan`] module, while the *decision* of where to apply them lives in
//! the `kaleidoscope` core crate.
//!
//! # Example
//!
//! Solve the Figure 2 program of the paper and observe `PTS(r) = {o}`:
//!
//! ```
//! use kaleidoscope_ir::{FunctionBuilder, Module, Type};
//! use kaleidoscope_pta::{Analysis, SolveOptions};
//!
//! let mut module = Module::new("fig2");
//! let mut b = FunctionBuilder::new(&mut module, "main", vec![], Type::Void);
//! let o = b.alloca("o", Type::Int);             // o: int*  (the object)
//! let p = b.copy("p", o);                       // p = &o
//! let q = b.alloca("q", Type::ptr(Type::Int));  // q holds p's value
//! b.store(q, p);                                // *q = p
//! let r = b.load("r", q);                       // r = *q
//! let _ = r;
//! b.ret(None);
//! let main = b.finish();
//! let analysis = Analysis::run(&module, &SolveOptions::baseline());
//! let r_pts = analysis.pts_of_local(main, kaleidoscope_ir::LocalId(3));
//! assert_eq!(r_pts.len(), 1); // r points exactly to the `o` allocation
//! ```

pub mod analysis;
pub mod bitvec;
pub mod callgraph;
pub mod ctxplan;
pub mod gen;
pub mod incr;
pub mod node;
pub mod observer;
pub mod pts;
pub mod scc;
pub mod solver;
pub mod stats;
pub mod steens;

/// Version of the points-to set representation and propagation order.
///
/// Written into every [`SolvedState`] snapshot and mixed into the
/// `kaleidoscope-exec` disk cache's report and snapshot names: any change
/// to the set representation, delta encoding, or worklist ordering that
/// could shift discovery-order-dependent output (lazily created field-node
/// ids, PWC event order) must bump this so stale stored artifacts are never
/// reused across representations.
///
/// v3: adaptive demotion of shrunken bitmap sets back to the inline
/// representation, plus the wave-front parallel propagation schedule.
///
/// v4: deterministic PWC invariant ordering in reports (sorted by field
/// locations) and the incremental re-solve counters in [`SolveStats`].
pub const PTS_REPR_VERSION: u32 = 4;

pub use analysis::{Analysis, WarmStart};
pub use callgraph::CallGraph;
pub use ctxplan::{ChainStep, CriticalFlow, CtxPlan};
pub use gen::ModuleBlocks;
pub use incr::{ConstraintDiff, FallbackReason, SolvedState, INCR_STATE_VERSION};
pub use node::{NodeId, NodeKind, NodeTable, ObjId, ObjInfo, ObjSite};
pub use observer::{NullObserver, SolverObserver};
pub use pts::{PtsSet, DEMOTE_AT, SMALL_MAX};
pub use solver::{
    BudgetKind, PaFilterEvent, PwcEvent, SolveBudget, SolveError, SolveOptions, SolveResult,
    SolveStats, Solver,
};
pub use stats::PtsStats;
pub use steens::steens_analysis;
