//! A replay-only memo for kdbench's in-process replay of `kd analyze`.
//!
//! The executor holds its solves in per-row slots (see the crate docs) and
//! does not use this type. kdbench's replay keeps its own per-request memo
//! with this surface until the benchmark's next change moves it onto the
//! executor; then this file goes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use kaleidoscope_pta::{Analysis, CtxPlan, SolveError, SolveOptions};

/// Solves and context plans by module fingerprint, computed on first use.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    solves: RefCell<HashMap<(u64, u64, bool), Arc<Analysis>>>,
    plans: RefCell<HashMap<u64, Arc<CtxPlan>>>,
}

impl ArtifactCache {
    /// An empty memo.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// The solve of `fingerprint` under `opts`, with its context plan when
    /// `with_ctx`, computing it on first use. A failed solve is not kept.
    pub fn try_analysis(
        &self,
        fingerprint: u64,
        opts: &SolveOptions,
        with_ctx: bool,
        compute: impl FnOnce() -> Result<Analysis, SolveError>,
    ) -> Result<Arc<Analysis>, SolveError> {
        let key = (fingerprint, opts.cache_key(), with_ctx);
        if let Some(a) = self.solves.borrow().get(&key) {
            return Ok(Arc::clone(a));
        }
        let a = Arc::new(compute()?);
        self.solves.borrow_mut().insert(key, Arc::clone(&a));
        Ok(a)
    }

    /// The context plan of `fingerprint`, computing it on first use.
    pub fn ctx_plan(&self, fingerprint: u64, compute: impl FnOnce() -> CtxPlan) -> Arc<CtxPlan> {
        let plan = self.plans.borrow().get(&fingerprint).cloned();
        plan.unwrap_or_else(|| {
            let plan = Arc::new(compute());
            self.plans
                .borrow_mut()
                .insert(fingerprint, Arc::clone(&plan));
            plan
        })
    }
}
