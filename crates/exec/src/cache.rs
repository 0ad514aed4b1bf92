//! Content-addressed artifact cache for analysis stages.
//!
//! Artifacts are keyed by the *content* of their inputs — the module's
//! [`fingerprint`](kaleidoscope_ir::Module::fingerprint) plus the
//! [`SolveOptions::cache_key`] of the solve — never by identity or
//! insertion order. Two modules that print identically share artifacts;
//! any content change misses. The paper frames fallback and optimistic as
//! two solves over one constraint program (§3, Figure 4); here that shows
//! up as the eight `PolicyConfig`s of one module sharing a single baseline
//! solve and a single context plan.
//!
//! Concurrency: each key maps to an [`OnceLock`] slot that the first
//! finished compute fills. Workers racing on a cold key may each compute
//! (content addressing makes the results identical); all of them then
//! share the stored artifact.
//!
//! Integrity: every entry carries a content digest taken when the artifact
//! was stored. Every fetch goes through one path that re-digests on each
//! hit and reports [`FetchError::Corrupt`] on mismatch, so a damaged entry
//! degrades the one cell that reads it instead of silently serving a wrong
//! memory view. Failed solves are never stored — a budget-exhausted
//! attempt leaves the slot empty for a retry with a bigger budget.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use kaleidoscope_pta::{Analysis, CtxPlan, SolveError, SolveOptions};

/// Which stage artifact a key addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stage {
    /// The context plan (§4.4 detection over the module).
    CtxPlan,
    /// A solved analysis: options key plus whether a context plan fed
    /// constraint generation.
    Solve { opts_key: u64, with_ctx: bool },
    /// The Steensgaard unification tier (last rung of the degradation
    /// ladder; one per module).
    Steens,
}

/// Full cache key: module content fingerprint + stage + the points-to
/// representation version. Solve artifacts embed representation-dependent
/// detail (lazily numbered field nodes, discovery-order event lists), so a
/// representation or propagation-order change must invalidate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: u64,
    stage: Stage,
    repr_version: u32,
}

impl Key {
    fn new(fingerprint: u64, stage: Stage) -> Key {
        Key {
            fingerprint,
            stage,
            repr_version: kaleidoscope_pta::PTS_REPR_VERSION,
        }
    }
}

/// A cached artifact.
#[derive(Debug, Clone)]
enum Slot {
    Analysis(Arc<Analysis>),
    Plan(Arc<CtxPlan>),
}

/// One cache entry: the once-initialized artifact plus the content digest
/// recorded when it was stored (`0` = not yet digested).
#[derive(Debug, Default)]
struct Entry {
    cell: OnceLock<Slot>,
    digest: AtomicU64,
}

/// Why a fallible artifact fetch did not return an artifact.
#[derive(Debug, Clone)]
pub enum FetchError {
    /// The cached entry failed content verification.
    Corrupt,
    /// The artifact had to be computed and the solve failed.
    Solve(SolveError),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Corrupt => f.write_str("cached artifact failed content verification"),
            FetchError::Solve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Cache traffic counters (monotonic; totals are deterministic for a given
/// job matrix even though interleaving is not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifact lookups performed.
    pub lookups: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Hits whose entry failed content verification.
    pub verify_failures: u64,
}

impl CacheStats {
    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.lookups - self.misses
    }
}

/// The content-addressed artifact cache.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    slots: Mutex<HashMap<Key, Arc<Entry>>>,
    lookups: AtomicU64,
    misses: AtomicU64,
    verify_failures: AtomicU64,
}

/// Deterministic digest of an analysis: folds every points-to set's raw
/// representation (inline slots / bitmap words, never decoded members)
/// plus the node count. The entry this digest guards is an immutable
/// in-memory `Arc<Analysis>` — store-time and hit-time digest the *same
/// object* — so representation sensitivity is fine, and the word-level
/// fold keeps re-verification O(backing words) instead of O(members)
/// (member iteration cost seconds per hit on mesh-heavy 100k-corpus
/// fixpoints whose sets carry hundreds of millions of members).
fn analysis_digest(a: &Analysis) -> u64 {
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23)
    }
    let mut h = 0xA076_1D64_78BD_642Fu64;
    for s in &a.result.pts {
        h = mix(h, s.fold_digest(s.len() as u64));
    }
    h = mix(h, a.result.stats.node_count as u64);
    // 0 is the "not yet digested" sentinel.
    if h == 0 {
        1
    } else {
        h
    }
}

fn slot_digest(slot: &Slot) -> u64 {
    match slot {
        Slot::Analysis(a) => analysis_digest(a),
        // Plans are small pure derivations; corruption detection targets
        // the solve artifacts.
        Slot::Plan(_) => 1,
    }
}

impl ArtifactCache {
    /// Fresh, empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Current traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<Key, Arc<Entry>>> {
        // A worker that panicked mid-insert cannot leave the map in a bad
        // state (insertion is a single HashMap op), so a poisoned lock is
        // recovered rather than propagated.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of distinct artifacts held.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the cache holds no artifacts yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry(&self, key: Key) -> Arc<Entry> {
        Arc::clone(self.entries().entry(key).or_default())
    }

    /// The one fetch path every artifact goes through.
    ///
    /// * On a hit, the entry is re-digested and compared against the
    ///   digest recorded at store time; a mismatch returns
    ///   [`FetchError::Corrupt`] (and bumps `verify_failures`).
    /// * On a miss, `compute` runs; an `Err` is returned as
    ///   [`FetchError::Solve`] and **nothing is cached**, so a failed
    ///   budgeted solve never masks a later, better-budgeted one.
    fn fetch(
        &self,
        key: Key,
        compute: impl FnOnce() -> Result<Slot, SolveError>,
    ) -> Result<Slot, FetchError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let entry = self.entry(key);
        let stored = match entry.cell.get() {
            Some(slot) => slot.clone(),
            None => {
                // Compute outside `get_or_init` so a failed solve leaves
                // the slot empty. If another worker races us to the slot,
                // its (identical, content-addressed) artifact wins.
                self.misses.fetch_add(1, Ordering::Relaxed);
                let slot = compute().map_err(FetchError::Solve)?;
                entry.cell.get_or_init(|| slot).clone()
            }
        };
        let digest = slot_digest(&stored);
        match entry
            .digest
            .compare_exchange(0, digest, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {}
            Err(recorded) if recorded == digest => {}
            Err(_) => {
                self.verify_failures.fetch_add(1, Ordering::Relaxed);
                return Err(FetchError::Corrupt);
            }
        }
        Ok(stored)
    }

    /// Verified analysis fetch for `(fingerprint, opts, with_ctx)`; see
    /// [`FetchError`] for how it can fail.
    pub fn try_analysis(
        &self,
        fingerprint: u64,
        opts: &SolveOptions,
        with_ctx: bool,
        compute: impl FnOnce() -> Result<Analysis, SolveError>,
    ) -> Result<Arc<Analysis>, FetchError> {
        let key = Key::new(
            fingerprint,
            Stage::Solve {
                opts_key: opts.cache_key(),
                with_ctx,
            },
        );
        match self.fetch(key, || Ok(Slot::Analysis(Arc::new(compute()?))))? {
            Slot::Analysis(a) => Ok(a),
            Slot::Plan(_) => unreachable!("solve key holds an analysis"),
        }
    }

    /// The Steensgaard-tier analysis for `fingerprint`, computing it on a
    /// miss. One per module; the unification solve cannot fail, and only
    /// solve entries can be corrupted.
    pub fn steens(&self, fingerprint: u64, compute: impl FnOnce() -> Analysis) -> Arc<Analysis> {
        let key = Key::new(fingerprint, Stage::Steens);
        match self.fetch(key, || Ok(Slot::Analysis(Arc::new(compute())))) {
            Ok(Slot::Analysis(a)) => a,
            _ => unreachable!("steens key holds a verified analysis"),
        }
    }

    /// The context plan for `fingerprint`, computing it on a miss.
    pub fn ctx_plan(&self, fingerprint: u64, compute: impl FnOnce() -> CtxPlan) -> Arc<CtxPlan> {
        let key = Key::new(fingerprint, Stage::CtxPlan);
        match self.fetch(key, || Ok(Slot::Plan(Arc::new(compute())))) {
            Ok(Slot::Plan(p)) => p,
            _ => unreachable!("ctx-plan key holds a verified plan"),
        }
    }

    /// Fault hook: flip the recorded digest of the solve entry for
    /// `(fingerprint, opts, with_ctx)`, so the next verified fetch reports
    /// [`FetchError::Corrupt`]. Returns whether a stored entry existed.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn corrupt_analysis_entry(
        &self,
        fingerprint: u64,
        opts: &SolveOptions,
        with_ctx: bool,
    ) -> bool {
        let key = Key::new(
            fingerprint,
            Stage::Solve {
                opts_key: opts.cache_key(),
                with_ctx,
            },
        );
        let Some(entry) = self.entries().get(&key).cloned() else {
            return false;
        };
        if entry.cell.get().is_none() {
            return false;
        }
        entry
            .digest
            .fetch_xor(0xDEAD_BEEF_DEAD_BEEF, Ordering::AcqRel);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_pta::{BudgetKind, SolveStats};

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = ArtifactCache::new();
        let mut computes = 0;
        for _ in 0..3 {
            let p = cache.ctx_plan(7, || {
                computes += 1;
                CtxPlan::new()
            });
            assert!(p.is_empty());
        }
        assert_eq!(computes, 1, "one compute, two hits");
        let s = cache.stats();
        assert_eq!((s.lookups, s.misses, s.hits()), (3, 1, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_separate_by_content_options_and_ctx() {
        let cache = ArtifactCache::new();
        let mk = || {
            Ok(Analysis::run(
                &kaleidoscope_ir::Module::new("empty"),
                &SolveOptions::baseline(),
            ))
        };
        let base = SolveOptions::baseline();
        let opt = SolveOptions::optimistic(true, false);
        for (fp, opts, with_ctx) in [
            (1, &base, false),
            (1, &base, false), // hit
            (2, &base, false), // new fingerprint
            (1, &opt, false),  // new options
            (1, &base, true),  // ctx plan fed generation
        ] {
            cache.try_analysis(fp, opts, with_ctx, mk).unwrap();
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits(), 1);
    }

    #[test]
    fn failed_solves_are_not_cached() {
        let cache = ArtifactCache::new();
        let base = SolveOptions::baseline();
        let m = kaleidoscope_ir::Module::new("empty");
        let fail = cache.try_analysis(9, &base, false, || {
            Err(SolveError::BudgetExceeded {
                kind: BudgetKind::Iterations,
                stats: Box::new(SolveStats::default()),
            })
        });
        assert!(matches!(fail, Err(FetchError::Solve(_))));
        assert_eq!(cache.len(), 1, "slot allocated");
        // The retry with a working compute succeeds — the failure did not
        // poison the slot.
        let ok = cache.try_analysis(9, &base, false, || Ok(Analysis::run(&m, &base)));
        assert!(ok.is_ok());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn corrupted_entry_is_detected_on_fetch() {
        let cache = ArtifactCache::new();
        let base = SolveOptions::baseline();
        let m = kaleidoscope_ir::Module::new("empty");
        let ok = cache.try_analysis(3, &base, false, || Ok(Analysis::run(&m, &base)));
        assert!(ok.is_ok());
        assert!(!cache.corrupt_analysis_entry(4, &base, false), "no entry");
        assert!(cache.corrupt_analysis_entry(3, &base, false));
        let fetched = cache.try_analysis(3, &base, false, || Ok(Analysis::run(&m, &base)));
        assert!(matches!(fetched, Err(FetchError::Corrupt)));
        assert_eq!(cache.stats().verify_failures, 1);
    }
}
