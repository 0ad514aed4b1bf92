//! Kaleidoscope: invariant-guided optimistic (IGO) pointer analysis.
//!
//! This crate is the paper's primary contribution. It orchestrates two runs
//! of the underlying Andersen analysis — a conservative *fallback* run and
//! an optimistic run under up to three *likely invariants* — and packages
//! the results as a pair of **memory views** plus the invariant descriptors
//! a runtime must monitor (paper §3, Figure 4):
//!
//! 1. **Arbitrary pointer arithmetic (PA)** — pointers with dynamic offsets
//!    never address struct fields (§4.2).
//! 2. **Positive weight cycles (PWC)** — PWCs in the constraint graph are
//!    imprecision artifacts and never form at runtime (§4.3).
//! 3. **Context sensitivity (Ctx)** — precision-critical arguments are not
//!    repointed inside the callee (§4.4).
//!
//! # Example
//!
//! ```
//! use kaleidoscope::{analyze, PolicyConfig};
//! use kaleidoscope_ir::{FunctionBuilder, Module, Type};
//!
//! let mut module = Module::new("demo");
//! let mut b = FunctionBuilder::new(&mut module, "main", vec![], Type::Void);
//! let o = b.alloca("o", Type::Int);
//! let _p = b.copy("p", o);
//! b.ret(None);
//! b.finish();
//!
//! let result = analyze(&module, PolicyConfig::all());
//! assert!(result.invariants.is_empty()); // nothing optimistic to assume
//! assert_eq!(result.config.name(), "Kaleidoscope");
//! ```

pub mod heaptype;
pub mod introspect;
pub mod invariant;
pub mod pipeline;
pub mod policy;

pub use heaptype::{infer_heap_types, HeapTypeReport};
pub use introspect::{Alert, AlertReason, IntrospectionConfig, IntrospectionReport, Introspector};
pub use invariant::{InvariantId, LikelyInvariant};
pub use pipeline::{
    analyze, assemble_degraded_fallback, assemble_degraded_steens, assemble_result, ctx_plan_for,
    fallback_analysis, optimistic_analysis, try_fallback_analysis_fe,
    try_fallback_analysis_incr_fe, try_optimistic_analysis_fe, try_optimistic_analysis_incr_fe,
    CellHealth, DegradedTier, KaleidoscopeResult, PolicyConfig,
};
pub use policy::detect_ctx_plan;
