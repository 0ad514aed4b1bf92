//! The worklist Andersen solver (the "solving phase" of paper §2.1).
//!
//! Implements the resolution rules of Table 1 with difference ("delta")
//! propagation, on-the-fly indirect-call resolution, periodic cycle
//! detection/collapse, and Pearce-style positive-weight-cycle handling.
//!
//! The two solver-level likely invariants of the paper plug in here:
//!
//! * [`SolveOptions::pa_filter`] — at arbitrary pointer arithmetic, struct
//!   objects are *filtered* from the result instead of being collapsed
//!   field-insensitive (§4.2); every filtered `(site, object)` pair is
//!   reported in [`SolveResult::pa_filters`] so a runtime monitor can watch
//!   it.
//! * [`SolveOptions::pwc_defer`] — positive weight cycles are *not*
//!   collapsed; the participating Field-Of locations are reported in
//!   [`SolveResult::pwcs`] for monitoring (§4.3). Termination still holds
//!   because field sub-objects only materialize along declared struct
//!   types, whose nesting is finite.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

use kaleidoscope_ir::{InstLoc, Module, Type};

use crate::callgraph::CallGraph;
use crate::gen::{Constraint, ConstraintKind, CopyProvenance, IndirectCall, Origin, Program};
use crate::node::{NodeId, NodeKind, NodeTable, ObjId, ObjSite};
use crate::observer::{CollapseReason, SolverObserver};
use crate::pts::PtsSet;
use crate::scc;

/// Resource budget for one solver run — the analysis-time analogue of the
/// paper's runtime degradation discipline (§5). A solve that exhausts its
/// budget aborts with a typed [`SolveError::BudgetExceeded`] instead of
/// panicking, so callers (the batch executor in particular) can degrade to
/// a sound fallback artifact rather than take the whole process down.
///
/// The default budget is effectively unlimited (it preserves the historic
/// 500M-iteration divergence valve) so `Analysis::run` behaves as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum worklist pops before the solve aborts.
    pub max_iterations: usize,
    /// Maximum live heap bytes held by the points-to + propagated-frontier
    /// sets (checked at propagation-round boundaries and periodically
    /// inside a drain).
    pub max_pts_bytes: usize,
    /// Wall-clock deadline measured from solve start. Unlike the two
    /// deterministic limits above, tripping this depends on the machine;
    /// leave it `None` when byte-stable degradation decisions matter.
    pub deadline: Option<Duration>,
}

impl SolveBudget {
    /// The effectively-unlimited default (historic divergence valve only).
    pub fn unlimited() -> Self {
        SolveBudget {
            max_iterations: 500_000_000,
            max_pts_bytes: usize::MAX,
            deadline: None,
        }
    }

    /// A budget capped at `max_iterations` worklist pops.
    pub fn iterations(max_iterations: usize) -> Self {
        SolveBudget {
            max_iterations,
            ..Self::unlimited()
        }
    }
}

impl Default for SolveBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Which budget axis a solve exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Worklist pops exceeded [`SolveBudget::max_iterations`].
    Iterations,
    /// Live set bytes exceeded [`SolveBudget::max_pts_bytes`].
    PtsBytes,
    /// Wall clock passed [`SolveBudget::deadline`].
    Deadline,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Iterations => write!(f, "iteration budget"),
            BudgetKind::PtsBytes => write!(f, "points-to memory budget"),
            BudgetKind::Deadline => write!(f, "deadline"),
        }
    }
}

/// Typed solver failure. Carries the statistics at the abort point so the
/// caller can report how far the solve got before degrading.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// The solve exhausted its [`SolveBudget`].
    BudgetExceeded {
        /// The axis that was exhausted.
        kind: BudgetKind,
        /// Counter snapshot at the abort point.
        stats: Box<SolveStats>,
    },
}

impl SolveError {
    /// Mutable access to the stats snapshot (to stamp the duration).
    fn stats_mut(&mut self) -> &mut SolveStats {
        match self {
            SolveError::BudgetExceeded { stats, .. } => stats,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::BudgetExceeded { kind, stats } => write!(
                f,
                "solve aborted: {kind} exceeded after {} pops ({} live pts bytes)",
                stats.iterations, stats.peak_pts_bytes
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solver configuration: which optimistic policies are active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveOptions {
    /// Filter struct objects at arbitrary pointer arithmetic (the PA likely
    /// invariant) instead of collapsing them field-insensitive.
    pub pa_filter: bool,
    /// Defer positive-weight-cycle collapse (the PWC likely invariant)
    /// instead of turning Field-Of targets field-insensitive.
    pub pwc_defer: bool,
    /// Collapse pure-copy cycles (precision-neutral optimization).
    pub collapse_cycles: bool,
    /// Upper bound on fixpoint/cycle-detection passes (safety valve).
    pub max_passes: usize,
    /// Resource budget; exhausting it turns the solve into a typed
    /// [`SolveError`] instead of a panic.
    pub budget: SolveBudget,
}

impl SolveOptions {
    /// The conservative baseline configuration (what SVF would do).
    pub fn baseline() -> Self {
        SolveOptions {
            pa_filter: false,
            pwc_defer: false,
            collapse_cycles: true,
            max_passes: 128,
            budget: SolveBudget::unlimited(),
        }
    }

    /// Baseline options under a custom budget.
    pub fn baseline_with_budget(budget: SolveBudget) -> Self {
        SolveOptions {
            budget,
            ..Self::baseline()
        }
    }

    /// Baseline with the given optimistic policies enabled.
    pub fn optimistic(pa_filter: bool, pwc_defer: bool) -> Self {
        SolveOptions {
            pa_filter,
            pwc_defer,
            ..Self::baseline()
        }
    }

    /// Stable key distinguishing solve configurations, for content-addressed
    /// artifact caches: equal *result-affecting* options ⇔ equal key. Packs
    /// the flags into the low bits and `max_passes` above them.
    ///
    /// [`SolveOptions::budget`] is deliberately excluded: the fixpoint is
    /// unique, so a solve that *succeeds* produces the same result under any
    /// budget, and budget-exceeded solves are never cached — a cached
    /// artifact therefore satisfies a request under any budget.
    ///
    /// Bit 3 is retired (it once partitioned a second solver schedule);
    /// leaving it clear keeps every existing key unchanged.
    pub fn cache_key(&self) -> u64 {
        (self.pa_filter as u64)
            | (self.pwc_defer as u64) << 1
            | (self.collapse_cycles as u64) << 2
            | (self.max_passes as u64) << 8
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self::baseline()
    }
}

/// A `(arithmetic site, filtered object)` pair produced by the PA policy:
/// the optimistic analysis removed `obj` from the points-to set at `loc`,
/// so a runtime monitor must verify the pointer never actually refers to
/// `obj` there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PaFilterEvent {
    /// The `PtrArith` instruction.
    pub loc: InstLoc,
    /// The filtered struct object.
    pub obj: ObjId,
}

/// A positive weight cycle the optimistic analysis refused to collapse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PwcEvent {
    /// Canonical member nodes of the cycle at detection time.
    pub members: Vec<NodeId>,
    /// Locations of the Field-Of instructions participating in the cycle
    /// (the instructions the runtime monitor instruments).
    pub field_locs: Vec<InstLoc>,
}

/// Aggregate statistics of one solver run.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Total nodes (including merged).
    pub node_count: usize,
    /// Abstract objects.
    pub obj_count: usize,
    /// Primitive constraints.
    pub constraint_count: usize,
    /// Indirect callsites.
    pub icall_count: usize,
    /// Worklist pops.
    pub iterations: usize,
    /// Copy edges at fixpoint (including derived).
    pub copy_edges: usize,
    /// Cycle-detection passes run.
    pub scc_passes: usize,
    /// Cycles collapsed.
    pub collapsed_cycles: usize,
    /// Objects turned field-insensitive.
    pub collapsed_objects: usize,
    /// 64-bit words touched by set union/difference operations (inline
    /// merges count one word per two u32 slots). Deterministic proxy for
    /// propagation cost, unlike wall-clock.
    pub union_words: u64,
    /// Peak heap bytes held by the points-to and propagated-frontier sets,
    /// sampled at each propagation-round boundary.
    pub peak_pts_bytes: usize,
    /// Incremental re-solve only: previous-fixpoint nodes translated and
    /// reused as the warm-start state (zero for from-scratch solves).
    pub incr_reused: usize,
    /// Incremental re-solve only: nodes seeded onto the initial worklist —
    /// the touched frontier of the edit, ≪ `node_count` on small edits.
    pub incr_seeded_nodes: usize,
    /// 1 when an incremental request had to fall back to a sound full
    /// re-solve (removed/changed constraints, version or option mismatch).
    pub incr_fallback_full: usize,
    /// Wall-clock solving time.
    pub duration: Duration,
}

/// The result of a solver run.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The node arena (extended with field/dummy nodes created during
    /// solving). Use [`SolveResult::pts_of`] for canonical points-to sets.
    pub nodes: NodeTable,
    /// Raw per-node points-to sets (indexed by node id; meaningful on
    /// representatives).
    pub pts: Vec<PtsSet>,
    /// The call graph (direct + on-the-fly indirect).
    pub callgraph: CallGraph,
    /// PA-policy filter events (empty unless `pa_filter` was on).
    pub pa_filters: Vec<PaFilterEvent>,
    /// Deferred PWCs (empty unless `pwc_defer` was on).
    pub pwcs: Vec<PwcEvent>,
    /// Objects turned field-insensitive (baseline collapse events).
    pub collapsed_objects: Vec<ObjId>,
    /// Run statistics.
    pub stats: SolveStats,
}

impl SolveResult {
    /// The canonical points-to set of a node: representative-resolved and
    /// deduplicated.
    pub fn pts_of(&self, n: NodeId) -> PtsSet {
        let rep = self.nodes.find_ref(n);
        PtsSet::from_iter_unsorted(self.pts[rep.index()].iter().map(|m| self.nodes.find_ref(m)))
    }
}

/// Reusable scratch buffers for the propagation loop. Each worklist pop
/// borrows these via `mem::take`/restore instead of allocating: the delta,
/// the canonicalized delta, the per-union added-elements buffer, and copies
/// of the popped node's constraint lists (copies are still required for
/// correctness — a merge triggered mid-pop moves the solver's own per-node
/// lists — but they now reuse one allocation across all pops).
#[derive(Debug, Default)]
struct Scratch {
    delta: Vec<NodeId>,
    delta_canon: Vec<NodeId>,
    added: Vec<NodeId>,
    copy_added: Vec<NodeId>,
    merge_added: Vec<NodeId>,
    loads: Vec<(NodeId, u32)>,
    stores: Vec<(NodeId, u32)>,
    fields: Vec<(NodeId, usize, u32)>,
    ariths: Vec<(NodeId, InstLoc, u32)>,
    elems: Vec<(NodeId, u32)>,
    icalls: Vec<u32>,
    outs: Vec<NodeId>,
}

/// Disjoint mutable borrows of two slots of one slice.
fn two_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(i, j);
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

/// The Andersen worklist solver.
///
/// Fields are `pub(crate)` so the incremental module (`crate::incr`) can
/// capture and restore solved state; external callers go through the
/// public `solve`/`try_solve`/`resolve_incremental` entry points.
#[derive(Debug)]
pub struct Solver<'m> {
    pub(crate) module: &'m Module,
    pub(crate) opts: SolveOptions,
    pub(crate) nodes: NodeTable,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) icalls: Vec<IndirectCall>,
    /// Node count of the generated [`Program`] at construction time; nodes
    /// at indices ≥ this were lazily created by the solver itself.
    pub(crate) gen_node_len: usize,

    pub(crate) pts: Vec<PtsSet>,
    pub(crate) prop: Vec<PtsSet>,
    pub(crate) copy_out: Vec<Vec<NodeId>>,
    pub(crate) copy_set: HashSet<(u32, u32)>,
    pub(crate) loads: Vec<Vec<(NodeId, u32)>>,
    pub(crate) stores: Vec<Vec<(NodeId, u32)>>,
    pub(crate) fields: Vec<Vec<(NodeId, usize, u32)>>,
    pub(crate) ariths: Vec<Vec<(NodeId, InstLoc, u32)>>,
    pub(crate) elems: Vec<Vec<(NodeId, u32)>>,
    pub(crate) icalls_by_fnptr: Vec<Vec<u32>>,
    pub(crate) icall_wired: Vec<PtsSet>,

    /// Priority worklist: min-heap on `(topological rank, node id)`. Ranks
    /// come from the SCC condensation (recomputed each `scc_pass`), so
    /// upstream nodes propagate before downstream ones — the Hardekopf–Lin
    /// ordering that cuts re-propagation. The `queued` dirty bits guarantee
    /// at most one live entry per node, so stale ranks can't duplicate work.
    worklist: BinaryHeap<Reverse<(u32, u32)>>,
    /// Legacy FIFO worklist, used when [`Solver::use_fifo_worklist`] is set
    /// (kept for differential testing against the ordered path).
    fifo: VecDeque<NodeId>,
    use_fifo: bool,
    rank: Vec<u32>,
    pub(crate) queued: Vec<bool>,
    scratch: Scratch,
    /// Absolute deadline derived from `opts.budget.deadline` at solve start.
    deadline_at: Option<Instant>,

    pub(crate) degraded_fields: HashSet<u32>,
    pub(crate) pa_seen: HashSet<(InstLoc, ObjId)>,
    pub(crate) pwc_seen: HashSet<Vec<NodeId>>,

    pub(crate) callgraph: CallGraph,
    pub(crate) pa_filters: Vec<PaFilterEvent>,
    pub(crate) pwcs: Vec<PwcEvent>,
    pub(crate) collapsed_objects: Vec<ObjId>,
    pub(crate) stats: SolveStats,
}

impl<'m> Solver<'m> {
    /// Create a solver for a generated constraint program.
    pub fn new(module: &'m Module, program: Program, opts: SolveOptions) -> Self {
        let Program {
            nodes,
            constraints,
            icalls,
        } = program;
        let gen_node_len = nodes.len();
        let mut s = Solver {
            module,
            opts,
            nodes,
            constraints,
            icalls,
            gen_node_len,
            pts: Vec::new(),
            prop: Vec::new(),
            copy_out: Vec::new(),
            copy_set: HashSet::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            fields: Vec::new(),
            ariths: Vec::new(),
            elems: Vec::new(),
            icalls_by_fnptr: Vec::new(),
            icall_wired: Vec::new(),
            worklist: BinaryHeap::new(),
            fifo: VecDeque::new(),
            use_fifo: false,
            rank: Vec::new(),
            queued: Vec::new(),
            scratch: Scratch::default(),
            deadline_at: None,
            degraded_fields: HashSet::new(),
            pa_seen: HashSet::new(),
            pwc_seen: HashSet::new(),
            callgraph: CallGraph::new(),
            pa_filters: Vec::new(),
            pwcs: Vec::new(),
            collapsed_objects: Vec::new(),
            stats: SolveStats::default(),
        };
        s.ensure_capacity();
        s
    }

    pub(crate) fn ensure_capacity(&mut self) {
        let n = self.nodes.len();
        if self.pts.len() >= n {
            return;
        }
        self.pts.resize_with(n, PtsSet::new);
        self.prop.resize_with(n, PtsSet::new);
        self.copy_out.resize_with(n, Vec::new);
        self.loads.resize_with(n, Vec::new);
        self.stores.resize_with(n, Vec::new);
        self.fields.resize_with(n, Vec::new);
        self.ariths.resize_with(n, Vec::new);
        self.elems.resize_with(n, Vec::new);
        self.icalls_by_fnptr.resize_with(n, Vec::new);
        self.rank.resize(n, 0);
        self.queued.resize(n, false);
    }

    /// Use the legacy FIFO worklist instead of the topology-ordered one.
    /// Results are equivalent (the fixpoint is unique); this exists so
    /// differential tests can compare the two schedules.
    pub fn use_fifo_worklist(mut self) -> Self {
        self.use_fifo = true;
        self
    }

    pub(crate) fn push(&mut self, n: NodeId) {
        let n = self.nodes.find(n);
        if !self.queued[n.index()] {
            self.queued[n.index()] = true;
            if self.use_fifo {
                self.fifo.push_back(n);
            } else {
                self.worklist.push(Reverse((self.rank[n.index()], n.0)));
            }
        }
    }

    fn pop(&mut self) -> Option<NodeId> {
        if self.use_fifo {
            self.fifo.pop_front()
        } else {
            self.worklist.pop().map(|Reverse((_, id))| NodeId(id))
        }
    }

    /// Run the analysis to fixpoint, panicking if the budget is exhausted.
    ///
    /// With the default (effectively unlimited) budget this behaves exactly
    /// like the historic API; callers that thread real budgets should use
    /// [`Solver::try_solve`] and handle the typed error.
    pub fn solve(self, obs: &mut dyn SolverObserver) -> SolveResult {
        self.try_solve(obs)
            .unwrap_or_else(|e| panic!("likely divergence: {e}"))
    }

    /// Run the analysis to fixpoint, aborting with a typed error when the
    /// [`SolveBudget`] is exhausted.
    pub fn try_solve(mut self, obs: &mut dyn SolverObserver) -> Result<SolveResult, SolveError> {
        let start = Instant::now();
        self.prepare(start);
        self.init(obs);
        self.run_loop(start, obs)?;
        Ok(self.finish())
    }

    /// Stamp the pre-solve statistics and arm the deadline. Shared by the
    /// from-scratch and incremental entry points.
    pub(crate) fn prepare(&mut self, start: Instant) {
        self.deadline_at = self.opts.budget.deadline.map(|d| start + d);
        self.stats.constraint_count = self.constraints.len();
        self.stats.icall_count = self.icalls.len();
        self.stats.obj_count = self.nodes.obj_count();
    }

    /// Drive the drain/cycle-detect loop to fixpoint. Returns whether the
    /// solve *converged* (exited because a cycle-detection pass found
    /// nothing left to change) as opposed to hitting the `max_passes`
    /// safety valve — only converged states are safe to snapshot for
    /// incremental reuse. Stamps the final statistics on success.
    pub(crate) fn run_loop(
        &mut self,
        start: Instant,
        obs: &mut dyn SolverObserver,
    ) -> Result<bool, SolveError> {
        let mut passes = 0usize;
        let mut converged = false;
        let run = loop {
            if let Err(e) = self.drain_worklist(obs) {
                break Err(e);
            }
            let live_bytes = self.live_pts_bytes();
            self.stats.peak_pts_bytes = self.stats.peak_pts_bytes.max(live_bytes);
            if live_bytes > self.opts.budget.max_pts_bytes {
                break Err(self.budget_error(BudgetKind::PtsBytes));
            }
            if let Some(at) = self.deadline_at {
                if Instant::now() >= at {
                    break Err(self.budget_error(BudgetKind::Deadline));
                }
            }
            passes += 1;
            self.stats.scc_passes = passes;
            if passes >= self.opts.max_passes {
                break Ok(());
            }
            if !self.scc_pass(obs) {
                converged = true;
                break Ok(());
            }
        };
        if let Err(mut e) = run {
            e.stats_mut().duration = start.elapsed();
            return Err(e);
        }

        self.stats.node_count = self.nodes.len();
        self.stats.copy_edges = self.copy_set.len();
        self.stats.duration = start.elapsed();
        Ok(converged)
    }

    /// Consume the solver into its result.
    pub(crate) fn finish(self) -> SolveResult {
        SolveResult {
            nodes: self.nodes,
            pts: self.pts,
            callgraph: self.callgraph,
            pa_filters: self.pa_filters,
            pwcs: self.pwcs,
            collapsed_objects: self.collapsed_objects,
            stats: self.stats,
        }
    }

    /// Live heap bytes held by the points-to + propagated-frontier sets.
    fn live_pts_bytes(&self) -> usize {
        self.pts
            .iter()
            .chain(self.prop.iter())
            .map(|s| s.heap_bytes())
            .sum()
    }

    /// A budget error carrying the current counter snapshot.
    fn budget_error(&self, kind: BudgetKind) -> SolveError {
        let mut stats = self.stats.clone();
        stats.node_count = self.nodes.len();
        stats.copy_edges = self.copy_set.len();
        SolveError::BudgetExceeded {
            kind,
            stats: Box::new(stats),
        }
    }

    pub(crate) fn init(&mut self, obs: &mut dyn SolverObserver) {
        for i in 0..self.constraints.len() {
            let c = self.constraints[i].clone();
            let cid = i as u32;
            match c.kind {
                ConstraintKind::AddrOf { dst, obj } => {
                    let root = self.nodes.obj_root(obj);
                    let dst = self.nodes.find(dst);
                    if self.pts[dst.index()].insert(root) {
                        obs.pts_grew(&self.nodes, dst, &[root]);
                        self.push(dst);
                    }
                }
                ConstraintKind::Copy { dst, src } => {
                    self.add_copy(src, dst, CopyProvenance::Primitive(c.origin), obs);
                }
                ConstraintKind::Load { dst, addr } => {
                    let addr = self.nodes.find(addr);
                    self.loads[addr.index()].push((dst, cid));
                    self.push(addr);
                }
                ConstraintKind::Store { addr, src } => {
                    let addr = self.nodes.find(addr);
                    self.stores[addr.index()].push((src, cid));
                    self.push(addr);
                }
                ConstraintKind::Field { dst, base, idx } => {
                    let base = self.nodes.find(base);
                    self.fields[base.index()].push((dst, idx, cid));
                    self.push(base);
                }
                ConstraintKind::PtrArith { dst, base, loc } => {
                    let base = self.nodes.find(base);
                    self.ariths[base.index()].push((dst, loc, cid));
                    self.push(base);
                }
                ConstraintKind::Elem { dst, base } => {
                    let base = self.nodes.find(base);
                    self.elems[base.index()].push((dst, cid));
                    self.push(base);
                }
            }
        }
        for i in 0..self.icalls.len() {
            let site = self.icalls[i].site;
            let fnptr = self.nodes.find(self.icalls[i].fnptr);
            self.icalls_by_fnptr[fnptr.index()].push(i as u32);
            self.icall_wired.push(PtsSet::new());
            self.callgraph.add_indirect_site(site);
            self.push(fnptr);
        }
        // Direct call edges for the call graph.
        for (loc, inst) in self.module.iter_locs() {
            if let kaleidoscope_ir::Inst::Call { callee, .. } = inst {
                self.callgraph.add_direct(loc, *callee);
            }
        }
    }

    pub(crate) fn add_copy(
        &mut self,
        from: NodeId,
        to: NodeId,
        why: CopyProvenance,
        obs: &mut dyn SolverObserver,
    ) {
        let from = self.nodes.find(from);
        let to = self.nodes.find(to);
        if from == to {
            return;
        }
        if !self.copy_set.insert((from.0, to.0)) {
            return;
        }
        self.copy_out[from.index()].push(to);
        obs.derived_copy(&self.nodes, from, to, &why);
        // Propagate the full current set across the new edge, in place:
        // disjoint borrows of the two slots, no clone of the source set.
        let mut added = std::mem::take(&mut self.scratch.copy_added);
        added.clear();
        let (src, dst) = two_mut(&mut self.pts, from.index(), to.index());
        self.stats.union_words += dst.union_from(src, &mut added);
        if !added.is_empty() {
            obs.pts_grew(&self.nodes, to, &added);
            self.push(to);
        }
        self.scratch.copy_added = added;
    }

    fn drain_worklist(&mut self, obs: &mut dyn SolverObserver) -> Result<(), SolveError> {
        // Cooperative budget checks. Iterations are exact (every pop); the
        // deadline is sampled every 1024 pops; live set bytes (an O(nodes)
        // scan) every 65536 pops plus the pass boundary in `try_solve`. All
        // but the deadline are deterministic for a fixed schedule, so a
        // given module + budget always degrades (or not) the same way.
        const DEADLINE_MASK: usize = 1024 - 1;
        const BYTES_MASK: usize = 65536 - 1;
        while let Some(n) = self.pop() {
            self.queued[n.index()] = false;
            let n = self.nodes.find(n);
            self.stats.iterations += 1;
            if self.stats.iterations >= self.opts.budget.max_iterations {
                return Err(self.budget_error(BudgetKind::Iterations));
            }
            if self.stats.iterations & DEADLINE_MASK == 0 {
                if let Some(at) = self.deadline_at {
                    if Instant::now() >= at {
                        return Err(self.budget_error(BudgetKind::Deadline));
                    }
                }
            }
            if self.stats.iterations & BYTES_MASK == 0 {
                let live = self.live_pts_bytes();
                self.stats.peak_pts_bytes = self.stats.peak_pts_bytes.max(live);
                if live > self.opts.budget.max_pts_bytes {
                    return Err(self.budget_error(BudgetKind::PtsBytes));
                }
            }
            // O(1) early exit. `prop[n] ⊆ pts[n]` is an invariant (pts only
            // grows during a drain; merges and canonicalization clear prop),
            // so equal cardinality means the delta is empty — no set walk,
            // no allocation.
            if self.pts[n.index()].len() == self.prop[n.index()].len() {
                continue;
            }
            let mut delta = std::mem::take(&mut self.scratch.delta);
            delta.clear();
            self.stats.union_words +=
                self.pts[n.index()].diff_into(&self.prop[n.index()], &mut delta);
            debug_assert!(!delta.is_empty(), "prop ⊆ pts violated");
            // Refresh the propagated frontier in place (reuses the bitmap
            // allocation instead of cloning a fresh set).
            self.prop[n.index()].clone_from(&self.pts[n.index()]);

            self.apply_complex(n, &delta, obs);

            // Copy propagation along out-edges.
            let mut delta_canon = std::mem::take(&mut self.scratch.delta_canon);
            delta_canon.clear();
            delta_canon.extend(delta.iter().map(|&o| self.nodes.find(o)));
            delta_canon.sort_unstable();
            delta_canon.dedup();
            let mut outs = std::mem::take(&mut self.scratch.outs);
            outs.clear();
            outs.extend_from_slice(&self.copy_out[n.index()]);
            let mut added = std::mem::take(&mut self.scratch.added);
            for &to in &outs {
                let to = self.nodes.find(to);
                if to == n {
                    continue;
                }
                added.clear();
                self.stats.union_words +=
                    self.pts[to.index()].union_slice_from(&delta_canon, &mut added);
                if !added.is_empty() {
                    obs.pts_grew(&self.nodes, to, &added);
                    self.push(to);
                }
            }

            self.scratch.delta = delta;
            self.scratch.delta_canon = delta_canon;
            self.scratch.added = added;
            self.scratch.outs = outs;
        }
        Ok(())
    }

    /// Apply the complex (non-copy) constraints gated on `pts(n)` to the
    /// `delta` of newly discovered pointees: loads and stores through the
    /// new objects derive copy edges, field/arith/elem constraints
    /// materialize or collapse targets, and function objects wire indirect
    /// calls. The per-node constraint lists are copied into reusable
    /// scratch first because a merge triggered mid-processing moves the
    /// solver's own lists.
    fn apply_complex(&mut self, n: NodeId, delta: &[NodeId], obs: &mut dyn SolverObserver) {
        let mut loads = std::mem::take(&mut self.scratch.loads);
        let mut stores = std::mem::take(&mut self.scratch.stores);
        let mut fields = std::mem::take(&mut self.scratch.fields);
        let mut ariths = std::mem::take(&mut self.scratch.ariths);
        let mut elems = std::mem::take(&mut self.scratch.elems);
        let mut icalls = std::mem::take(&mut self.scratch.icalls);
        loads.clear();
        loads.extend_from_slice(&self.loads[n.index()]);
        stores.clear();
        stores.extend_from_slice(&self.stores[n.index()]);
        fields.clear();
        fields.extend_from_slice(&self.fields[n.index()]);
        ariths.clear();
        ariths.extend_from_slice(&self.ariths[n.index()]);
        elems.clear();
        elems.extend_from_slice(&self.elems[n.index()]);
        icalls.clear();
        icalls.extend_from_slice(&self.icalls_by_fnptr[n.index()]);

        for &o in delta {
            let on = self.nodes.find(o);
            for &(dst, cid) in &loads {
                let origin = self.constraints[cid as usize].origin;
                self.add_copy(
                    on,
                    dst,
                    CopyProvenance::LoadDeref {
                        load: origin,
                        through: on,
                    },
                    obs,
                );
            }
            for &(src, cid) in &stores {
                let origin = self.constraints[cid as usize].origin;
                self.add_copy(
                    src,
                    on,
                    CopyProvenance::StoreDeref {
                        store: origin,
                        through: on,
                    },
                    obs,
                );
            }
            for &(dst, idx, cid) in &fields {
                self.process_field(on, dst, idx, cid, obs);
            }
            for &(dst, loc, _cid) in &ariths {
                self.process_arith(on, dst, loc, obs);
            }
            for &(dst, _cid) in &elems {
                let dst = self.nodes.find(dst);
                if self.pts[dst.index()].insert(on) {
                    obs.pts_grew(&self.nodes, dst, &[on]);
                    self.push(dst);
                }
            }
            for &ic in &icalls {
                self.process_icall_target(ic as usize, on, obs);
            }
        }

        self.scratch.loads = loads;
        self.scratch.stores = stores;
        self.scratch.fields = fields;
        self.scratch.ariths = ariths;
        self.scratch.elems = elems;
        self.scratch.icalls = icalls;
    }

    fn process_field(
        &mut self,
        obj_node: NodeId,
        dst: NodeId,
        idx: usize,
        cid: u32,
        obs: &mut dyn SolverObserver,
    ) {
        let degraded = self.degraded_fields.contains(&cid);
        let target = if degraded {
            // Baseline PWC handling: the Field-Of edge behaves like a Copy
            // edge, and objects flowing through it lose field sensitivity.
            if let Some(obj) = self.nodes.node_obj(obj_node) {
                self.collapse_object(obj, CollapseReason::Pwc, obs);
                self.nodes.find(self.nodes.obj_root(obj))
            } else {
                self.nodes.find(obj_node)
            }
        } else {
            match self.nodes.field_struct_of(obj_node) {
                Some(sid) => {
                    // `module` is a shared reference with the solver's
                    // lifetime, so the type table can be borrowed alongside
                    // the mutable node-table borrow — no clone.
                    let module: &Module = self.module;
                    let field_tys = &module.types.def(sid.0).fields;
                    let f = self.nodes.field_node_typed(obj_node, idx, field_tys);
                    self.ensure_capacity();
                    f
                }
                None => self.nodes.find(obj_node),
            }
        };
        let dst = self.nodes.find(dst);
        if self.pts[dst.index()].insert(target) {
            obs.pts_grew(&self.nodes, dst, &[target]);
            self.push(dst);
        }
    }

    fn process_arith(
        &mut self,
        obj_node: NodeId,
        dst: NodeId,
        loc: InstLoc,
        obs: &mut dyn SolverObserver,
    ) {
        let struct_typed = matches!(self.nodes.ty(obj_node), Some(Type::Struct(_)));
        let dst = self.nodes.find(dst);
        if struct_typed {
            if let Some(obj) = self.nodes.node_obj(obj_node) {
                if self.opts.pa_filter {
                    // PA likely invariant: assume the arithmetic never lands
                    // on a struct field; drop the object and report it for
                    // runtime monitoring (paper §4.2, Figure 6).
                    if self.pa_seen.insert((loc, obj)) {
                        self.pa_filters.push(PaFilterEvent { loc, obj });
                    }
                    return;
                }
                // Baseline: the whole object loses field sensitivity.
                self.collapse_object(obj, CollapseReason::PtrArith(loc), obs);
                let root = self.nodes.find(self.nodes.obj_root(obj));
                if self.pts[dst.index()].insert(root) {
                    obs.pts_grew(&self.nodes, dst, &[root]);
                    self.push(dst);
                }
                return;
            }
        }
        // Arrays (element traversal — explicitly exempted by the paper's
        // invariant), scalars, and untyped heap objects: flows through.
        let on = self.nodes.find(obj_node);
        if self.pts[dst.index()].insert(on) {
            obs.pts_grew(&self.nodes, dst, &[on]);
            self.push(dst);
        }
    }

    fn process_icall_target(&mut self, ic: usize, obj_node: NodeId, obs: &mut dyn SolverObserver) {
        let kind = self.nodes.kind(obj_node).clone();
        let NodeKind::Obj(obj) = kind else {
            return;
        };
        let ObjSite::Func(callee) = self.nodes.obj_info(obj).site else {
            return;
        };
        let root = self.nodes.obj_root(obj);
        if self.icall_wired[ic].contains(root) {
            return;
        }
        let call = self.icalls[ic].clone();
        let callee_func = self.module.func(callee);
        if callee_func.param_count != call.args.len() {
            // Arity-incompatible: cannot be a real target.
            return;
        }
        self.icall_wired[ic].insert(root);
        self.callgraph.add_indirect(call.site, callee);
        for (idx, arg) in call.args.iter().enumerate() {
            if let Some(a) = arg {
                let param = self
                    .nodes
                    .local_node(callee, kaleidoscope_ir::LocalId(idx as u32));
                self.ensure_capacity();
                self.add_copy(
                    *a,
                    param,
                    CopyProvenance::ICallArg {
                        site: call.site,
                        callee,
                        idx,
                    },
                    obs,
                );
            }
        }
        if let Some(dst) = call.dst {
            if callee_func.ret_ty != Type::Void {
                let ret = self.nodes.ret_node(callee);
                self.ensure_capacity();
                self.add_copy(
                    ret,
                    dst,
                    CopyProvenance::ICallRet {
                        site: call.site,
                        callee,
                    },
                    obs,
                );
            }
        }
    }

    fn collapse_object(&mut self, obj: ObjId, why: CollapseReason, obs: &mut dyn SolverObserver) {
        if self.nodes.obj_info(obj).collapsed {
            return;
        }
        self.nodes.set_collapsed(obj);
        self.collapsed_objects.push(obj);
        self.stats.collapsed_objects += 1;
        obs.object_collapsed(&self.nodes, obj, why);
        let root = self.nodes.obj_root(obj);
        let fields: Vec<NodeId> = self.nodes.fields_of_obj(obj).to_vec();
        for f in fields {
            self.merge_into(f, root, obs);
        }
        self.push(root);
    }

    /// Batched merge of one collapsed SCC's mergeable members.
    ///
    /// [`merge_into`](Solver::merge_into) merges pairwise, so collapsing a
    /// k-cycle one member at a time cascades: an intermediate winner's
    /// accumulated points-to set and constraint lists can be copied again
    /// when a later merge picks the other side as representative. Here the
    /// union-find merges happen first, so the final representative is known
    /// before any set moves, and every loser's points-to set and constraint
    /// lists are unioned/moved into that representative exactly once per
    /// cycle. The fixpoint is unchanged (set union is associative and
    /// commutative); only the number of words touched shrinks.
    fn merge_cycle_members(&mut self, mergeable: &[NodeId], obs: &mut dyn SolverObserver) {
        debug_assert!(mergeable.len() > 1);
        // Phase 1: union-find only. Track the surviving representative and
        // the losers whose solver state still needs to move.
        let mut rep = mergeable[0];
        let mut losers: Vec<NodeId> = Vec::with_capacity(mergeable.len() - 1);
        for &m in &mergeable[1..] {
            if let Some((winner, loser)) = self.nodes.merge(m, rep) {
                rep = winner;
                losers.push(loser);
            }
        }
        if losers.is_empty() {
            return;
        }
        // Phase 2: move points-to sets and constraint lists straight into
        // the final representative — one union per loser, no cascade.
        let w = rep.index();
        let mut added = std::mem::take(&mut self.scratch.merge_added);
        added.clear();
        for &loser in &losers {
            let l = loser.index();
            debug_assert_ne!(l, w);
            let (loser_pts, winner_pts) = two_mut(&mut self.pts, l, w);
            self.stats.union_words += winner_pts.union_from(loser_pts, &mut added);
            // The loser's slots are dead for the rest of the solve:
            // release their bitmap allocations instead of keeping them
            // warm, so merged-away cycles stop counting toward
            // `peak_pts_bytes`.
            loser_pts.release();
            self.prop[l].release();
            let moved = std::mem::take(&mut self.copy_out[l]);
            self.copy_out[w].extend(moved);
            let moved = std::mem::take(&mut self.loads[l]);
            self.loads[w].extend(moved);
            let moved = std::mem::take(&mut self.stores[l]);
            self.stores[w].extend(moved);
            let moved = std::mem::take(&mut self.fields[l]);
            self.fields[w].extend(moved);
            let moved = std::mem::take(&mut self.ariths[l]);
            self.ariths[w].extend(moved);
            let moved = std::mem::take(&mut self.elems[l]);
            self.elems[w].extend(moved);
            let moved = std::mem::take(&mut self.icalls_by_fnptr[l]);
            self.icalls_by_fnptr[w].extend(moved);
        }
        if !added.is_empty() {
            obs.pts_grew(&self.nodes, rep, &added);
        }
        self.scratch.merge_added = added;
        self.prop[w].clear();
        self.push(rep);
    }

    /// Merge node `a` into `b` (union-find + solver state).
    fn merge_into(&mut self, a: NodeId, b: NodeId, obs: &mut dyn SolverObserver) {
        let Some((winner, loser)) = self.nodes.merge(a, b) else {
            return;
        };
        let (w, l) = (winner.index(), loser.index());
        let mut added = std::mem::take(&mut self.scratch.merge_added);
        added.clear();
        let (loser_pts, winner_pts) = two_mut(&mut self.pts, l, w);
        self.stats.union_words += winner_pts.union_from(loser_pts, &mut added);
        // Dead for the rest of the solve — drop the allocation, not just
        // the contents (see `merge_cycle_members`).
        loser_pts.release();
        if !added.is_empty() {
            obs.pts_grew(&self.nodes, winner, &added);
        }
        self.scratch.merge_added = added;
        self.prop[w].clear();
        self.prop[l].release();
        let moved = std::mem::take(&mut self.copy_out[l]);
        self.copy_out[w].extend(moved);
        let moved = std::mem::take(&mut self.loads[l]);
        self.loads[w].extend(moved);
        let moved = std::mem::take(&mut self.stores[l]);
        self.stores[w].extend(moved);
        let moved = std::mem::take(&mut self.fields[l]);
        self.fields[w].extend(moved);
        let moved = std::mem::take(&mut self.ariths[l]);
        self.ariths[w].extend(moved);
        let moved = std::mem::take(&mut self.elems[l]);
        self.elems[w].extend(moved);
        let moved = std::mem::take(&mut self.icalls_by_fnptr[l]);
        self.icalls_by_fnptr[w].extend(moved);
        self.push(winner);
    }

    /// One cycle-detection pass at fixpoint. Returns whether anything
    /// changed (requiring another propagation round).
    fn scc_pass(&mut self, obs: &mut dyn SolverObserver) -> bool {
        // Build the constraint graph over canonical nodes: copy edges plus
        // (weighted) field edges.
        let n = self.nodes.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(from, to) in &self.copy_set {
            let f = self.nodes.find(NodeId(from));
            let t = self.nodes.find(NodeId(to));
            if f != t {
                adj[f.index()].push(t.0);
            }
        }
        // Field constraints: base -> dst edges with positive weight.
        let mut field_edges: Vec<(NodeId, NodeId, u32)> = Vec::new(); // (base, dst, cid)
        for base_raw in 0..n {
            for &(dst, _idx, cid) in &self.fields[base_raw] {
                if self.degraded_fields.contains(&cid) {
                    continue;
                }
                let b = self.nodes.find(NodeId(base_raw as u32));
                let d = self.nodes.find(dst);
                if b != d {
                    adj[b.index()].push(d.0);
                }
                field_edges.push((b, d, cid));
            }
        }
        // `copy_set` iterates in hash order, which varies per solver
        // instance; DFS order (and therefore SCC/PWC enumeration order)
        // must not, or repeated solves of one module disagree on the
        // order of emitted invariants.
        for out in &mut adj {
            out.sort_unstable();
            out.dedup();
        }
        let all_comps = scc::sccs(&adj);
        // Refresh the worklist priorities: `sccs` yields the condensation
        // sinks-first, so rank 0 lands on the sources and the min-heap pops
        // upstream nodes before the nodes they feed. The worklist is empty
        // here (scc_pass only runs between drains), so no entry holds a
        // stale rank.
        debug_assert!(self.worklist.is_empty() && self.fifo.is_empty());
        let comp_count = all_comps.len() as u32;
        for (i, comp) in all_comps.iter().enumerate() {
            let r = comp_count - 1 - i as u32;
            for &v in comp {
                self.rank[v as usize] = r;
            }
        }
        let comps: Vec<Vec<u32>> = all_comps.into_iter().filter(|c| c.len() > 1).collect();
        // Self-loop field edges count as (degenerate) PWCs.
        let mut pwc_selfloops: Vec<(NodeId, u32)> = field_edges
            .iter()
            .filter(|(b, d, _)| b == d)
            .map(|(b, _, cid)| (*b, *cid))
            .collect();
        pwc_selfloops.dedup();

        let mut changed = false;
        for comp in comps {
            let members: Vec<NodeId> = comp.iter().map(|&v| NodeId(v)).collect();
            let inside: Vec<u32> = field_edges
                .iter()
                .filter(|(b, d, _)| {
                    comp.binary_search(&b.0).is_ok() && comp.binary_search(&d.0).is_ok()
                })
                .map(|(_, _, cid)| *cid)
                .collect();
            let is_pwc = !inside.is_empty();
            if is_pwc {
                if self.opts.pwc_defer {
                    changed |= self.record_pwc(&members, &inside);
                } else {
                    changed |= self.degrade_pwc(&members, &inside, obs);
                }
            } else if self.opts.collapse_cycles {
                // Merge only non-object members: object nodes double as
                // object *identities* inside points-to sets, and merging
                // them would conflate distinct objects (unsound for alias
                // queries). The cycle's pointer nodes still share one
                // representative; edges through object members remain.
                let mergeable: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|&n| !self.nodes.is_object_node(n))
                    .collect();
                if mergeable.len() > 1 {
                    obs.cycle_collapsed(&self.nodes, &mergeable, false);
                    self.merge_cycle_members(&mergeable, obs);
                    self.stats.collapsed_cycles += 1;
                    changed = true;
                }
            }
        }
        for (node, cid) in pwc_selfloops {
            let members = vec![node];
            let inside = vec![cid];
            if self.opts.pwc_defer {
                changed |= self.record_pwc(&members, &inside);
            } else {
                changed |= self.degrade_pwc(&members, &inside, obs);
            }
        }

        if changed {
            self.canonicalize_and_requeue(obs);
        }
        changed
    }

    fn record_pwc(&mut self, members: &[NodeId], inside: &[u32]) -> bool {
        let key: Vec<NodeId> = members.to_vec();
        if !self.pwc_seen.insert(key) {
            return false;
        }
        let mut field_locs: Vec<InstLoc> = inside
            .iter()
            .filter_map(|&cid| match self.constraints[cid as usize].origin {
                Origin::Inst(loc) => Some(loc),
                Origin::CtxBypass { site } => Some(site),
                _ => None,
            })
            .collect();
        field_locs.sort_unstable();
        field_locs.dedup();
        self.pwcs.push(PwcEvent {
            members: members.to_vec(),
            field_locs,
        });
        // Recording alone does not change the constraint system.
        false
    }

    fn degrade_pwc(
        &mut self,
        members: &[NodeId],
        inside: &[u32],
        obs: &mut dyn SolverObserver,
    ) -> bool {
        let mut changed = false;
        for &cid in inside {
            if self.degraded_fields.insert(cid) {
                changed = true;
                // Collapse the objects currently flowing through the edge.
                if let ConstraintKind::Field { base, .. } = self.constraints[cid as usize].kind {
                    let base = self.nodes.find(base);
                    let objs: Vec<ObjId> = self.pts[base.index()]
                        .iter()
                        .filter_map(|o| {
                            let on = self.nodes.find_ref(o);
                            self.nodes.node_obj(on)
                        })
                        .collect();
                    for obj in objs {
                        if matches!(
                            self.nodes.ty(self.nodes.obj_root(obj)),
                            Some(Type::Struct(_))
                        ) {
                            self.collapse_object(obj, CollapseReason::Pwc, obs);
                        }
                    }
                    self.push(base);
                }
            }
        }
        if changed && members.len() > 1 {
            let mergeable: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|&n| !self.nodes.is_object_node(n))
                .collect();
            if mergeable.len() > 1 {
                obs.cycle_collapsed(&self.nodes, &mergeable, true);
                self.merge_cycle_members(&mergeable, obs);
                self.stats.collapsed_cycles += 1;
            }
        }
        changed
    }

    /// After merges, rewrite points-to sets over canonical ids and requeue
    /// every live node for (re-)propagation.
    fn canonicalize_and_requeue(&mut self, _obs: &mut dyn SolverObserver) {
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            if self.nodes.find(id) != id {
                continue;
            }
            if !self.pts[i].is_empty() {
                let remapped: Vec<NodeId> =
                    self.pts[i].iter().map(|m| self.nodes.find_ref(m)).collect();
                self.pts[i] = PtsSet::from_iter_unsorted(remapped);
                self.prop[i].clear();
                self.push(id);
            }
            if !self.loads[i].is_empty()
                || !self.stores[i].is_empty()
                || !self.fields[i].is_empty()
                || !self.ariths[i].is_empty()
                || !self.elems[i].is_empty()
                || !self.icalls_by_fnptr[i].is_empty()
            {
                self.prop[i].clear();
                self.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::observer::NullObserver;
    use kaleidoscope_ir::{FunctionBuilder, LocalId, Module, Operand};

    fn solve(m: &Module, opts: SolveOptions) -> SolveResult {
        let program = generate(m, None);
        Solver::new(m, program, opts).solve(&mut NullObserver)
    }

    fn local_pts(m: &Module, r: &SolveResult, func: &str, local: u32) -> PtsSet {
        let f = m.func_by_name(func).unwrap();
        let n = r
            .nodes
            .local_node_opt(f, LocalId(local))
            .expect("local has a node");
        r.pts_of(n)
    }

    #[test]
    fn figure2_r_points_to_o() {
        // P1: p = &o; P2: q = &p; P3: r = *q  =>  PTS(r) = {o}
        let mut m = Module::new("fig2");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let o = b.alloca("o", kaleidoscope_ir::Type::Int); // node for &o
        let q = b.alloca("q", kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int));
        b.store(q, o); // *q = p (p == the &o value)
        let r = b.load("r", q);
        let _ = r;
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::baseline());
        let r_pts = local_pts(&m, &res, "main", 2);
        assert_eq!(r_pts.len(), 1);
        // And it is exactly the stack object allocated first.
        let o_obj = res
            .nodes
            .object_at(ObjSite::Stack(InstLoc::new(
                m.func_by_name("main").unwrap(),
                kaleidoscope_ir::BlockId(0),
                0,
            )))
            .unwrap();
        assert!(r_pts.contains(res.nodes.find_ref(res.nodes.obj_root(o_obj))));
    }

    #[test]
    fn field_sensitivity_distinguishes_fields() {
        let mut m = Module::new("fs");
        let s = m
            .types
            .declare(
                "pair",
                vec![
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                ],
            )
            .unwrap();
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let obj = b.alloca("obj", kaleidoscope_ir::Type::Struct(s));
        let x = b.alloca("x", kaleidoscope_ir::Type::Int);
        let y = b.alloca("y", kaleidoscope_ir::Type::Int);
        let f0 = b.field_addr("f0", obj, 0);
        let f1 = b.field_addr("f1", obj, 1);
        b.store(f0, x);
        b.store(f1, y);
        let p = b.load("p", f0);
        let q = b.load("q", f1);
        let (_, _) = (p, q);
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::baseline());
        let p_pts = local_pts(&m, &res, "main", 5);
        let q_pts = local_pts(&m, &res, "main", 6);
        assert_eq!(p_pts.len(), 1, "p sees only x");
        assert_eq!(q_pts.len(), 1, "q sees only y");
        assert_ne!(p_pts, q_pts);
    }

    #[test]
    fn baseline_ptr_arith_collapses_struct() {
        let mut m = Module::new("pa");
        let s = m
            .types
            .declare(
                "pair",
                vec![
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                ],
            )
            .unwrap();
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let obj = b.alloca("obj", kaleidoscope_ir::Type::Struct(s));
        let x = b.alloca("x", kaleidoscope_ir::Type::Int);
        let y = b.alloca("y", kaleidoscope_ir::Type::Int);
        let f0 = b.field_addr("f0", obj, 0);
        let f1 = b.field_addr("f1", obj, 1);
        b.store(f0, x);
        b.store(f1, y);
        let i = b.input("i");
        let c = b.copy("c", obj);
        let _pa = b.ptr_arith("pa", c, i);
        let p = b.load("p", f0);
        let _ = p;
        b.ret(None);
        b.finish();

        let base = solve(&m, SolveOptions::baseline());
        assert_eq!(base.collapsed_objects.len(), 1, "struct collapsed");
        let p_pts = local_pts(&m, &base, "main", 8);
        assert_eq!(p_pts.len(), 2, "collapsed object merges x and y");

        let opt = solve(&m, SolveOptions::optimistic(true, false));
        assert!(opt.collapsed_objects.is_empty());
        assert_eq!(opt.pa_filters.len(), 1, "one filtered (site, obj) pair");
        let p_pts = local_pts(&m, &opt, "main", 8);
        assert_eq!(p_pts.len(), 1, "field sensitivity retained");
    }

    #[test]
    fn ptr_arith_on_array_is_not_filtered() {
        let mut m = Module::new("arr");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let arr = b.alloca(
            "arr",
            kaleidoscope_ir::Type::array(kaleidoscope_ir::Type::Int, 8),
        );
        let i = b.input("i");
        let pa = b.ptr_arith("pa", arr, i);
        let _v = b.load("v", pa);
        b.ret(None);
        b.finish();
        for opts in [
            SolveOptions::baseline(),
            SolveOptions::optimistic(true, true),
        ] {
            let res = solve(&m, opts);
            assert!(res.pa_filters.is_empty());
            assert!(res.collapsed_objects.is_empty());
            let pa_pts = local_pts(&m, &res, "main", 2);
            assert_eq!(pa_pts.len(), 1, "array flows through");
        }
    }

    #[test]
    fn untyped_heap_never_filtered() {
        let mut m = Module::new("heap");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let h = b.heap_alloc_untyped("h");
        let i = b.input("i");
        let pa = b.ptr_arith("pa", h, i);
        let _ = pa;
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::optimistic(true, false));
        assert!(
            res.pa_filters.is_empty(),
            "no type metadata => never filter"
        );
        let pa_pts = local_pts(&m, &res, "main", 2);
        assert_eq!(pa_pts.len(), 1);
    }

    #[test]
    fn indirect_call_resolves_and_builds_callgraph() {
        let mut m = Module::new("icall");
        let t = kaleidoscope_ir::Type::Int;
        let h1 = {
            let mut b = FunctionBuilder::new(&mut m, "h1", vec![("x", t.clone())], t.clone());
            let x = b.param(0);
            b.ret(Some(x.into()));
            b.finish()
        };
        let _h2 = {
            let mut b = FunctionBuilder::new(&mut m, "h2", vec![("x", t.clone())], t.clone());
            let x = b.param(0);
            b.ret(Some(x.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let fp = b.copy("fp", Operand::Func(h1));
        b.call_ind("r", fp, vec![Operand::ConstInt(1)], t);
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::baseline());
        let sites: Vec<_> = res.callgraph.indirect_sites().collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, &[h1], "only h1 flows into fp");
    }

    #[test]
    fn arity_mismatch_not_wired() {
        let mut m = Module::new("arity");
        let h = {
            let b = FunctionBuilder::new(
                &mut m,
                "h",
                vec![
                    ("a", kaleidoscope_ir::Type::Int),
                    ("b", kaleidoscope_ir::Type::Int),
                ],
                kaleidoscope_ir::Type::Void,
            );
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let fp = b.copy("fp", Operand::Func(h));
        b.call_ind(
            "r",
            fp,
            vec![Operand::ConstInt(1)],
            kaleidoscope_ir::Type::Void,
        );
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::baseline());
        let sites: Vec<_> = res.callgraph.indirect_sites().collect();
        assert!(sites[0].1.is_empty(), "2-arg fn can't take 1-arg call");
    }

    #[test]
    fn copy_cycle_collapses() {
        // a = b; b = c; c = a; a = &o.
        let mut m = Module::new("cycle");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let o = b.alloca("o", kaleidoscope_ir::Type::Int);
        let pa = b.alloca("pa", kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int));
        let pb = b.alloca("pb", kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int));
        let pc = b.alloca("pc", kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int));
        b.store(pa, o);
        // cycle through memory: a <- b <- c <- a via loads/stores on locals
        let va = b.load("va", pa);
        b.store(pb, va);
        let vb = b.load("vb", pb);
        b.store(pc, vb);
        let vc = b.load("vc", pc);
        b.store(pa, vc);
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::baseline());
        // All three loaded values hold &o at fixpoint.
        for local in [4u32, 5, 6] {
            let pts = local_pts(&m, &res, "main", local);
            assert_eq!(pts.len(), 1);
        }
    }

    #[test]
    fn pwc_baseline_collapses_and_defer_keeps_precision() {
        // Figure 7 of the paper: heap imprecision creates a PWC.
        // s1 and q get the same heap object H1; the loop
        //   s2 = *s1; b = &s2->f2; *q = b;
        // creates a cycle with a Field-Of edge once pts(q) == pts(s1).
        let mut m = Module::new("pwc");
        let cs = m
            .types
            .declare(
                "compression_state",
                vec![
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                ],
            )
            .unwrap();
        // png_malloc: one return site shared by both callers => one heap obj.
        let png_malloc = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "png_malloc",
                vec![],
                kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Struct(cs)),
            );
            let h = b.heap_alloc("h", kaleidoscope_ir::Type::Struct(cs));
            b.ret(Some(h.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let s1 = b.call("s1", png_malloc, vec![]).unwrap();
        let q = b.call("q", png_malloc, vec![]).unwrap();
        // P9: *s1 = ... — seed the heap cell with a struct object.
        let init = b.alloca("init", kaleidoscope_ir::Type::Struct(cs));
        b.store(s1, init);
        let s2 = b.load("s2", s1);
        let fb = b.field_addr("b", s2, 1);
        b.store(q, fb);
        b.ret(None);
        b.finish();

        let base = solve(&m, SolveOptions::baseline());
        assert!(
            !base.collapsed_objects.is_empty(),
            "baseline collapses the object flowing through the PWC"
        );
        assert!(base.pwcs.is_empty());

        let opt = solve(&m, SolveOptions::optimistic(false, true));
        assert!(opt.collapsed_objects.is_empty(), "deferred, not collapsed");
        assert!(!opt.pwcs.is_empty(), "PWC recorded for monitoring");
        assert!(!opt.pwcs[0].field_locs.is_empty());
    }

    #[test]
    fn optimistic_pts_subset_of_baseline() {
        // On the PA example, optimistic sets must be subsets node-by-node.
        let mut m = Module::new("subset");
        let s = m
            .types
            .declare(
                "s",
                vec![
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                    kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
                ],
            )
            .unwrap();
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let obj = b.alloca("obj", kaleidoscope_ir::Type::Struct(s));
        let x = b.alloca("x", kaleidoscope_ir::Type::Int);
        let f0 = b.field_addr("f0", obj, 0);
        b.store(f0, x);
        let i = b.input("i");
        let pa = b.ptr_arith("pa", obj, i);
        let _v = b.load("v", pa);
        b.ret(None);
        b.finish();
        let base = solve(&m, SolveOptions::baseline());
        let opt = solve(&m, SolveOptions::optimistic(true, true));
        let f = m.func_by_name("main").unwrap();
        for l in 0..m.func(f).locals.len() as u32 {
            let (Some(nb), Some(no)) = (
                base.nodes.local_node_opt(f, LocalId(l)),
                opt.nodes.local_node_opt(f, LocalId(l)),
            ) else {
                continue;
            };
            let bp = base.pts_of(nb);
            let op = opt.pts_of(no);
            // Compare by object identity via sites.
            let site_of =
                |r: &SolveResult, n: NodeId| r.nodes.node_obj(n).map(|o| r.nodes.obj_info(o).site);
            let bsites: Vec<_> = bp.iter().filter_map(|n| site_of(&base, n)).collect();
            for n in op.iter() {
                if let Some(s) = site_of(&opt, n) {
                    assert!(
                        bsites.contains(&s),
                        "optimistic pts ⊄ baseline pts for local {l}"
                    );
                }
            }
        }
    }

    fn try_solve(m: &Module, opts: SolveOptions) -> Result<SolveResult, SolveError> {
        let program = generate(m, None);
        Solver::new(m, program, opts).try_solve(&mut NullObserver)
    }

    /// A module with enough pointer flow to need several worklist pops and
    /// to promote at least one set past the inline representation.
    fn busy_module() -> Module {
        let mut m = Module::new("busy");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let slot = b.alloca(
            "slot",
            kaleidoscope_ir::Type::ptr(kaleidoscope_ir::Type::Int),
        );
        for i in 0..24 {
            let o = b.alloca(&format!("o{i}"), kaleidoscope_ir::Type::Int);
            b.store(slot, o);
        }
        let v = b.load("v", slot);
        let _ = v;
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn iteration_budget_is_typed_error_not_panic() {
        let m = busy_module();
        let opts = SolveOptions {
            budget: SolveBudget::iterations(1),
            ..SolveOptions::baseline()
        };
        let err = try_solve(&m, opts).expect_err("budget of 1 pop must trip");
        let SolveError::BudgetExceeded { kind, stats } = &err;
        assert_eq!(*kind, BudgetKind::Iterations);
        assert!(stats.iterations >= 1, "snapshot taken at abort");
        assert!(stats.node_count > 0, "snapshot carries node counts");
        assert!(err.to_string().contains("iteration budget"), "{err}");
    }

    #[test]
    fn default_budget_reaches_fixpoint() {
        let m = busy_module();
        let res = try_solve(&m, SolveOptions::baseline()).expect("unlimited budget");
        let v = local_pts(&m, &res, "main", 25);
        assert_eq!(v.len(), 24, "all stored objects reach the load");
    }

    #[test]
    fn zero_deadline_trips_at_pass_boundary() {
        let m = busy_module();
        let opts = SolveOptions {
            budget: SolveBudget {
                deadline: Some(Duration::ZERO),
                ..SolveBudget::unlimited()
            },
            ..SolveOptions::baseline()
        };
        let err = try_solve(&m, opts).expect_err("zero deadline must trip");
        let SolveError::BudgetExceeded { kind, .. } = &err;
        assert_eq!(*kind, BudgetKind::Deadline);
    }

    #[test]
    fn pts_bytes_budget_trips_on_promoted_sets() {
        // 24 objects in one set forces a bitmap promotion (heap bytes > 0),
        // so a zero-byte budget must abort at the pass boundary.
        let m = busy_module();
        let opts = SolveOptions {
            budget: SolveBudget {
                max_pts_bytes: 0,
                ..SolveBudget::unlimited()
            },
            ..SolveOptions::baseline()
        };
        let err = try_solve(&m, opts).expect_err("zero byte budget must trip");
        let SolveError::BudgetExceeded { kind, stats } = &err;
        assert_eq!(*kind, BudgetKind::PtsBytes);
        assert!(stats.peak_pts_bytes > 0);
    }

    #[test]
    fn budget_does_not_change_the_fixpoint_or_cache_key() {
        // Same module, wildly different (but sufficient) budgets: identical
        // results and identical cache keys.
        let m = busy_module();
        let tight = SolveOptions {
            budget: SolveBudget::iterations(400_000),
            ..SolveOptions::baseline()
        };
        assert_eq!(tight.cache_key(), SolveOptions::baseline().cache_key());
        let a = try_solve(&m, SolveOptions::baseline()).expect("unlimited");
        let b = try_solve(&m, tight).expect("sufficient");
        assert_eq!(
            local_pts(&m, &a, "main", 25).len(),
            local_pts(&m, &b, "main", 25).len()
        );
    }

    #[test]
    fn stats_populated() {
        let mut m = Module::new("stats");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], kaleidoscope_ir::Type::Void);
        let o = b.alloca("o", kaleidoscope_ir::Type::Int);
        let _c = b.copy("c", o);
        b.ret(None);
        b.finish();
        let res = solve(&m, SolveOptions::baseline());
        assert!(res.stats.constraint_count >= 2);
        assert!(res.stats.iterations > 0);
        assert!(res.stats.node_count > 0);
        assert_eq!(res.stats.obj_count, 2); // the alloca + main's func object
    }
}
