//! Deterministic fault injection for the executor (compiled only with the
//! `fault-injection` cargo feature).
//!
//! A [`FaultPlan`] names matrix cells `(module_idx, config_idx)` and the
//! fault to fire there. Plans are plain data: the same plan against the
//! same matrix produces the same degraded cells, the same degradation
//! tiers, and byte-identical artifacts, which is what lets the integration
//! tests compare faulted runs against fault-free references. Seeded plans
//! draw cells from the in-repo `kaleidoscope-prng` xoshiro generator so a
//! CI seed matrix explores different cell/fault placements reproducibly.

use std::collections::BTreeMap;

use kaleidoscope_prng::Rng;

/// What to inject at a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell's pipeline panics outright (isolation test).
    CellPanic,
    /// The optimistic solve runs under an exhausted budget — the cell
    /// must degrade to the module's fallback artifact.
    OptimisticBudget,
    /// The fallback solve for this cell runs under an exhausted budget —
    /// the cell must degrade past the fallback rung to the Steensgaard
    /// tier.
    FallbackBudget,
    /// The cell reads its optimistic artifact through a damaged copy of
    /// the entry's digest, so content verification rejects it. Other
    /// cells that share the entry still verify it.
    CacheCorruption,
    /// The worker hosting the cell dies mid-solve. In the in-process
    /// executor this is an abrupt unwind out of the solve (caught by
    /// cell isolation, degrading to the fallback rung); the serve
    /// daemon's process shards reproduce the same class of failure with
    /// a real `exit()` via the request-level `fault:"kill"` directive.
    WorkerKill,
    /// The serving side accepts a request and never replies (a hung
    /// solve or a stalled connection). Reproduced by the request-level
    /// `fault:"stall"` directive; the shard deadline (server side) and
    /// the read timeout (client side) are the defenses under test.
    ConnStall,
    /// The worker is killed while the daemon is draining — the in-flight
    /// request must still be retried-or-degraded and counted in the
    /// drain, never dropped. Reproduced in the chaos soak by mixing
    /// `fault:"kill"` traffic with a mid-burst SIGTERM.
    KillDuringDrain,
    /// A cache publish is cut short, leaving a `.tmp` orphan and a
    /// report whose integrity line is truncated. Reproduced by the
    /// request-level `fault:"torn"` directive (and
    /// `DiskCache::inject_torn_publish`); `DiskCache::recover`, the sweep
    /// the serve daemon runs at start and at drain, is the defense under
    /// test.
    TornPublish,
}

impl FaultKind {
    /// The matrix-cell faults [`FaultPlan::seeded`] cycles through. The
    /// serve-lifecycle kinds ([`FaultKind::SERVE`]) are excluded: they
    /// target the request/process/disk lifecycle, not a matrix cell.
    const ALL: [FaultKind; 5] = [
        FaultKind::CellPanic,
        FaultKind::OptimisticBudget,
        FaultKind::CacheCorruption,
        FaultKind::FallbackBudget,
        FaultKind::WorkerKill,
    ];

    /// The serve-lifecycle faults, exercised by the daemon chaos soak
    /// and the serve integration tests rather than by matrix plans.
    pub const SERVE: [FaultKind; 3] = [
        FaultKind::ConnStall,
        FaultKind::KillDuringDrain,
        FaultKind::TornPublish,
    ];

    /// The request-level fault directive (`fault:"..."`) that reproduces
    /// this kind against a live daemon, if one exists.
    pub fn directive(self) -> Option<&'static str> {
        match self {
            FaultKind::WorkerKill => Some("kill"),
            FaultKind::ConnStall => Some("stall"),
            FaultKind::KillDuringDrain => Some("kill"),
            FaultKind::TornPublish => Some("torn"),
            _ => None,
        }
    }
}

/// A deterministic set of cell faults for one matrix run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize), FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Inject `kind` at cell `(module_idx, config_idx)`.
    ///
    /// Any cell may be faulted. A corruption damages only the faulted
    /// cell's read, so at `config_idx == 0`, where the Baseline
    /// configuration's optimistic artifact is the module's fallback
    /// artifact, the ladder's first rung still serves.
    pub fn inject(mut self, module_idx: usize, config_idx: usize, kind: FaultKind) -> FaultPlan {
        self.faults.insert((module_idx, config_idx), kind);
        self
    }

    /// The fault registered at a cell, if any.
    pub fn fault_at(&self, module_idx: usize, config_idx: usize) -> Option<FaultKind> {
        self.faults.get(&(module_idx, config_idx)).copied()
    }

    /// Number of faulted cells.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterate the faulted cells in (module, config) order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), FaultKind)> + '_ {
        self.faults.iter().map(|(&cell, &kind)| (cell, kind))
    }

    /// A seeded plan: `n` faults at distinct cells of a
    /// `modules × configs` matrix, cycling through the fault kinds so
    /// every plan of `n ≥ 5` exercises every kind. Config column 0
    /// (Baseline, whose optimistic view is the fallback artifact itself)
    /// is never picked. `n` is clamped to the number of eligible cells.
    pub fn seeded(seed: u64, modules: usize, configs: usize, n: usize) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if modules == 0 || configs < 2 {
            return plan;
        }
        let eligible = modules * (configs - 1);
        let n = n.min(eligible);
        let mut rng = Rng::seed_from_u64(seed);
        let mut kind = 0usize;
        while plan.faults.len() < n {
            let mi = (rng.next_u64() % modules as u64) as usize;
            let ci = 1 + (rng.next_u64() % (configs as u64 - 1)) as usize;
            if plan.faults.contains_key(&(mi, ci)) {
                continue;
            }
            plan.faults
                .insert((mi, ci), FaultKind::ALL[kind % FaultKind::ALL.len()]);
            kind += 1;
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_avoid_column_zero() {
        let a = FaultPlan::seeded(42, 9, 8, 5);
        let b = FaultPlan::seeded(42, 9, 8, 5);
        assert_eq!(a.len(), 5);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "same seed, same plan"
        );
        for ((mi, ci), _) in a.iter() {
            assert!(mi < 9);
            assert!((1..8).contains(&ci), "column 0 excluded");
        }
        let c = FaultPlan::seeded(43, 9, 8, 5);
        assert_ne!(
            a.iter().collect::<Vec<_>>(),
            c.iter().collect::<Vec<_>>(),
            "different seed, different plan"
        );
    }

    #[test]
    fn seeded_plan_covers_all_kinds_and_clamps() {
        let p = FaultPlan::seeded(7, 9, 8, 5);
        let kinds: Vec<FaultKind> = p.iter().map(|(_, k)| k).collect();
        for k in FaultKind::ALL {
            assert!(kinds.contains(&k), "{k:?} missing from a 5-fault plan");
        }
        assert_eq!(FaultPlan::seeded(7, 2, 8, 100).len(), 14, "clamped");
        assert!(FaultPlan::seeded(7, 0, 8, 3).is_empty());
        assert!(FaultPlan::seeded(7, 3, 1, 3).is_empty());
    }

    #[test]
    fn explicit_injection_round_trips() {
        let p = FaultPlan::new().inject(2, 3, FaultKind::CellPanic).inject(
            4,
            1,
            FaultKind::CacheCorruption,
        );
        assert_eq!(p.fault_at(2, 3), Some(FaultKind::CellPanic));
        assert_eq!(p.fault_at(4, 1), Some(FaultKind::CacheCorruption));
        assert_eq!(p.fault_at(0, 0), None);
        assert_eq!(p.len(), 2);
    }
}
