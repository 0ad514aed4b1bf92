//! Incremental re-solve for watch-mode traffic.
//!
//! A finished solve can be *captured* as a [`SolvedState`] snapshot: the
//! canonical points-to sets, the union-find condensation, the copy-edge
//! set, and the invariant/degradation events, all expressed over identities
//! that survive regeneration (node kinds, [`ObjSite`]s, constraint prefix
//! indices). When the next revision of a module arrives and its caller has
//! shown that the previous revision is a byte-identical *prefix* of it (the
//! append-only edit shape watch-mode traffic overwhelmingly produces: new
//! functions, new globals, new struct defs — shared definitions unchanged),
//! a [`ConstraintDiff`] translates the previous program onto the new one
//! without generating it: [`ConstraintDiff::derive`] reads the translation
//! off the new program's generation watermarks. The solver then warm-starts
//! from the snapshot and seeds its worklist with only the touched nodes.
//! Anything else — a removed or edited shared function, a changed global or
//! struct, a changed context plan of a kept function, mismatched solve
//! options or state versions — triggers a *sound full re-solve*, counted
//! in `SolveStats::incr_fallback_full`.
//!
//! # Soundness
//!
//! The restored state is the least fixpoint of the previous (sub-)system,
//! translated onto the new node arena. Because the previous constraints are
//! a prefix of the new ones under that translation and every propagation
//! rule is monotone, the warm-started worklist converges to the least
//! fixpoint of the *new* system — the same fixpoint a from-scratch solve
//! reaches. [`ConstraintDiff::compute`] verifies the prefix property
//! constraint by constraint; it is kept as the test oracle that the derived
//! diff equals. The CI `incremental-differential` job enforces the result
//! empirically: report bytes and canonical identities must match a cold
//! solve at every step of seeded edit scripts, at thread counts 1 and 4.

use std::collections::HashMap;

use kaleidoscope_ir::{
    BlockId, ByteReader, ByteWriter, CodecError, FuncId, InstLoc, LocalId, Module, PrefixCounts,
};

use crate::gen::{ConstraintKind, IndirectCall, Program};
use crate::node::{NodeId, NodeKind, ObjId, ObjSite};
use crate::pts::PtsSet;
use crate::solver::{PaFilterEvent, PwcEvent, Solver};

/// Version of the incremental snapshot layout. Bumped on any change to
/// [`SolvedState`] serialization or to the restore semantics; stale
/// snapshots are rejected at decode time and the caller falls back to a
/// full solve. Composed with [`crate::PTS_REPR_VERSION`] in cache keys —
/// a snapshot is only meaningful for the representation that produced it.
///
/// v3: the digest of the context plan the snapshot's program was
/// generated with ([`SolvedState::plan_digest`]).
pub const INCR_STATE_VERSION: u32 = 3;

const STATE_MAGIC: [u8; 4] = *b"KDIS";

/// A solver-created node, recorded in creation order so a restore can
/// replay the lazily materialized suffix of the node arena. Only field
/// sub-objects (from Field-Of resolution) and locals/return slots (from
/// indirect-call wiring) are ever created after generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CreatedNode {
    /// `field_node_typed(parent, idx)` — `parent` is a previous-arena id.
    Field {
        /// Previous-arena id of the base node at creation time.
        parent: u32,
        /// Field index.
        idx: u32,
    },
    /// `local_node(func, local)` from indirect-call argument wiring.
    Local {
        /// Function id.
        func: u32,
        /// Local id.
        local: u32,
    },
    /// `ret_node(func)` from indirect-call return wiring.
    Ret {
        /// Function id.
        func: u32,
    },
}

/// A captured fixpoint: everything needed to warm-start the solver on the
/// next revision of the same module. Every successful solve ends at its
/// fixpoint, so every one can be captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolvedState {
    /// Fingerprint of the module revision this state solves.
    pub fingerprint: u64,
    /// [`crate::SolveOptions::cache_key`] of the producing solve; a
    /// snapshot never warms a solve under different result-affecting
    /// options.
    pub opts_key: u64,
    /// [`crate::ctxplan::plan_digest`] of the context plan the producing
    /// solve generated its program with, over all of the revision's
    /// functions. A warm start needs the current plan to digest the same
    /// over those functions.
    pub plan_digest: u64,
    /// Node count of the generated program (the gen/solver-created split).
    pub gen_len: u32,
    created: Vec<CreatedNode>,
    /// Total node count: `gen_len` plus the created nodes.
    node_count: u32,
    /// Union-find at fixpoint, flattened: each merged-away node with its
    /// final representative, in ascending node order. Kept sparse, so a
    /// decoded snapshot is never sized by the node count it claims.
    merged: Vec<(u32, u32)>,
    /// Per live representative: index into `pts_sets`. Watch-mode corpora
    /// show heavy set sharing at the fixpoint (copy meshes converge many
    /// nodes onto identical sets), so sets are interned — capture,
    /// serialization, and restore all scale with *unique* sets.
    pts: Vec<(u32, u32)>,
    /// Unique canonical points-to sets (members sorted), shared by `pts`.
    pts_sets: Vec<Vec<u32>>,
    /// Canonical copy edges (deduplicated, self-edges dropped).
    copy_edges: Vec<(u32, u32)>,
    /// Degraded Field-Of constraint ids (identical indices by the prefix
    /// property), sorted.
    degraded: Vec<u32>,
    /// PA filter events in emission order: `(arith site, object)`.
    pa_events: Vec<(InstLoc, u32)>,
    /// Deferred PWC events: `(canonical members, field locations)`.
    pwc_events: Vec<(Vec<u32>, Vec<InstLoc>)>,
    /// Objects collapsed field-insensitive, in event order.
    collapsed: Vec<u32>,
    /// Per indirect callsite: resolved callee function ids, sorted.
    icall_wired: Vec<Vec<u32>>,
}

impl SolvedState {
    /// Capture the state of a solver at its fixpoint. Returns `None`
    /// when the arena contains a node shape the replay cannot reproduce
    /// (defensive; does not occur with the current solver).
    pub(crate) fn capture(solver: &Solver<'_>, fingerprint: u64) -> Option<SolvedState> {
        let n = solver.nodes.len();
        let gen_len = solver.gen_node_len;
        let mut created = Vec::with_capacity(n - gen_len);
        for i in gen_len..n {
            match solver.nodes.kind(NodeId(i as u32)) {
                NodeKind::Field { parent, idx, .. } => created.push(CreatedNode::Field {
                    parent: parent.0,
                    idx: *idx as u32,
                }),
                NodeKind::Local(f, l) => created.push(CreatedNode::Local {
                    func: f.0,
                    local: l.0,
                }),
                NodeKind::Ret(f) => created.push(CreatedNode::Ret { func: f.0 }),
                _ => return None,
            }
        }
        let rep_of: Vec<u32> = (0..n as u32)
            .map(|i| solver.nodes.find_ref(NodeId(i)).0)
            .collect();
        // Canonicalize members through the flattened table (not per-member
        // union-find walks) and intern duplicate sets: at a mesh-heavy
        // fixpoint the same set recurs thousands of times, and everything
        // downstream (snapshot bytes, restore) pays per *unique* set.
        let mut pts = Vec::new();
        let mut pts_sets: Vec<Vec<u32>> = Vec::new();
        let mut interned: HashMap<Vec<u32>, u32> = HashMap::new();
        // Raw-representation pre-dedup: duplicate sets are built by
        // identical propagation (`clone_from`), so they are bit-identical
        // — a word-level hash spots them and they skip member
        // canonicalization entirely. Raw-distinct but content-equal sets
        // fall through to the exact canonical intern below.
        let mut raw_seen: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
        let mut scratch: Vec<u32> = Vec::new();
        for (i, &rep) in rep_of.iter().enumerate() {
            if rep as usize != i || solver.pts[i].is_empty() {
                continue;
            }
            let cands = raw_seen.entry(solver.pts[i].repr_hash()).or_default();
            if let Some(&(_, si)) = cands
                .iter()
                .find(|&&(n0, _)| solver.pts[n0 as usize].repr_eq(&solver.pts[i]))
            {
                pts.push((i as u32, si));
                continue;
            }
            scratch.clear();
            scratch.extend(solver.pts[i].iter().map(|m| rep_of[m.index()]));
            // Set iteration is ascending and members are mostly already
            // canonical, so the common case skips the sort entirely.
            if !scratch.is_sorted() {
                scratch.sort_unstable();
            }
            scratch.dedup();
            let idx = match interned.get(scratch.as_slice()) {
                Some(&ix) => ix,
                None => {
                    let ix = pts_sets.len() as u32;
                    interned.insert(scratch.clone(), ix);
                    pts_sets.push(scratch.clone());
                    ix
                }
            };
            cands.push((i as u32, idx));
            pts.push((i as u32, idx));
        }
        let mut copy_edges: Vec<(u32, u32)> = solver
            .copy_set
            .iter()
            .map(|&(a, b)| (rep_of[a as usize], rep_of[b as usize]))
            .filter(|(a, b)| a != b)
            .collect();
        copy_edges.sort_unstable();
        copy_edges.dedup();
        let mut degraded: Vec<u32> = solver.degraded_fields.iter().copied().collect();
        degraded.sort_unstable();
        let pa_events = solver.pa_filters.iter().map(|e| (e.loc, e.obj.0)).collect();
        let pwc_events = solver
            .pwcs
            .iter()
            .map(|e| {
                let mut ms: Vec<u32> = e.members.iter().map(|&m| rep_of[m.index()]).collect();
                ms.sort_unstable();
                ms.dedup();
                (ms, e.field_locs.clone())
            })
            .collect();
        let collapsed = solver.collapsed_objects.iter().map(|o| o.0).collect();
        let merged = rep_of
            .iter()
            .enumerate()
            .filter(|&(i, &r)| i as u32 != r)
            .map(|(i, &r)| (i as u32, r))
            .collect();
        let mut icall_wired = Vec::with_capacity(solver.icall_wired.len());
        for wired in &solver.icall_wired {
            let mut fids: Vec<u32> = wired
                .iter()
                .filter_map(|root| {
                    let o = solver.nodes.node_obj(NodeId(rep_of[root.index()]))?;
                    match solver.nodes.obj_info(o).site {
                        ObjSite::Func(f) => Some(f.0),
                        _ => None,
                    }
                })
                .collect();
            fids.sort_unstable();
            fids.dedup();
            icall_wired.push(fids);
        }
        Some(SolvedState {
            fingerprint,
            opts_key: solver.opts.cache_key(),
            plan_digest: solver.plan_digest,
            gen_len: gen_len as u32,
            created,
            node_count: n as u32,
            merged,
            pts,
            pts_sets,
            copy_edges,
            degraded,
            pa_events,
            pwc_events,
            collapsed,
            icall_wired,
        })
    }

    /// Total node count of the captured arena.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Serialize to a stable binary blob (for the on-disk snapshot store):
    /// the magic, fixed-width fingerprint and keys, and LEB128 integers
    /// otherwise.
    pub fn to_bytes(&self) -> Vec<u8> {
        let items = self.created.len() + self.merged.len() + self.pts.len() + self.copy_edges.len();
        let mut w = ByteWriter::with_capacity(64 + items * 4);
        let loc = |w: &mut ByteWriter, l: InstLoc| {
            w.uint(l.func.0.into());
            w.uint(l.block.0.into());
            w.uint(l.inst.into());
        };
        w.raw(&STATE_MAGIC);
        w.uint(INCR_STATE_VERSION.into());
        w.uint(crate::PTS_REPR_VERSION.into());
        w.u64_le(self.fingerprint);
        w.u64_le(self.opts_key);
        w.u64_le(self.plan_digest);
        w.uint(self.gen_len.into());
        w.uint(self.created.len() as u64);
        for c in &self.created {
            match *c {
                CreatedNode::Field { parent, idx } => {
                    w.u8(0);
                    w.uint(parent.into());
                    w.uint(idx.into());
                }
                CreatedNode::Local { func, local } => {
                    w.u8(1);
                    w.uint(func.into());
                    w.uint(local.into());
                }
                CreatedNode::Ret { func } => {
                    w.u8(2);
                    w.uint(func.into());
                }
            }
        }
        // Union-find: only the non-trivial entries.
        w.uint(self.node_count.into());
        w.uint(self.merged.len() as u64);
        for &(i, r) in &self.merged {
            w.uint(i.into());
            w.uint(r.into());
        }
        w.uint(self.pts_sets.len() as u64);
        for members in &self.pts_sets {
            w.uint(members.len() as u64);
            let mut prev = 0u32;
            for &m in members {
                // Sorted ascending: delta-encode for compactness.
                w.uint(m.wrapping_sub(prev).into());
                prev = m;
            }
        }
        w.uint(self.pts.len() as u64);
        for &(rep, set) in &self.pts {
            w.uint(rep.into());
            w.uint(set.into());
        }
        w.uint(self.copy_edges.len() as u64);
        for &(a, b) in &self.copy_edges {
            w.uint(a.into());
            w.uint(b.into());
        }
        w.uint(self.degraded.len() as u64);
        for &c in &self.degraded {
            w.uint(c.into());
        }
        w.uint(self.pa_events.len() as u64);
        for &(l, obj) in &self.pa_events {
            loc(&mut w, l);
            w.uint(obj.into());
        }
        w.uint(self.pwc_events.len() as u64);
        for (members, locs) in &self.pwc_events {
            w.uint(members.len() as u64);
            for &m in members {
                w.uint(m.into());
            }
            w.uint(locs.len() as u64);
            for &l in locs {
                loc(&mut w, l);
            }
        }
        w.uint(self.collapsed.len() as u64);
        for &o in &self.collapsed {
            w.uint(o.into());
        }
        w.uint(self.icall_wired.len() as u64);
        for fids in &self.icall_wired {
            w.uint(fids.len() as u64);
            for &f in fids {
                w.uint(f.into());
            }
        }
        w.into_bytes()
    }

    /// Decode a snapshot. Returns `None` on truncation, version skew, or
    /// structurally invalid indices — the caller treats all three as "no
    /// previous state" and solves from scratch. Memory is bounded by the
    /// input: no count read from it sizes anything beyond the bytes left,
    /// and the claimed node count is checked against the program's extent
    /// only at the warm start ([`crate::WarmStart::diff`]).
    pub fn from_bytes(bytes: &[u8]) -> Option<SolvedState> {
        Self::decode(&mut ByteReader::new(bytes)).ok()
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<SolvedState, CodecError> {
        let check = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(CodecError(format!("snapshot: {what}")))
            }
        };
        let count = |r: &mut ByteReader<'_>| r.u32().map(|n| n as usize);
        let loc = |r: &mut ByteReader<'_>| {
            Ok::<_, CodecError>(InstLoc::new(FuncId(r.u32()?), BlockId(r.u32()?), r.u32()?))
        };
        check(r.take(4)? == STATE_MAGIC, "magic")?;
        check(r.u32()? == INCR_STATE_VERSION, "version")?;
        check(r.u32()? == crate::PTS_REPR_VERSION, "set representation")?;
        let fingerprint = r.u64_le()?;
        let opts_key = r.u64_le()?;
        let plan_digest = r.u64_le()?;
        let gen_len = r.u32()?;
        let ncreated = count(r)?;
        let mut created = Vec::with_capacity(r.capacity_for(ncreated));
        for _ in 0..ncreated {
            created.push(match r.u8()? {
                0 => CreatedNode::Field {
                    parent: r.u32()?,
                    idx: r.u32()?,
                },
                1 => CreatedNode::Local {
                    func: r.u32()?,
                    local: r.u32()?,
                },
                2 => CreatedNode::Ret { func: r.u32()? },
                _ => return Err(CodecError("snapshot: created-node tag".into())),
            });
        }
        let node_count = r.u32()?;
        let total = node_count as usize;
        check(total == gen_len as usize + created.len(), "node count")?;
        let nmerged = count(r)?;
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(r.capacity_for(nmerged));
        for _ in 0..nmerged {
            let i = r.u32()?;
            let rep = r.u32()?;
            // Written in ascending node order, never as an identity.
            check(
                i.max(rep) < node_count && i != rep && merged.last().is_none_or(|&(l, _)| l < i),
                "merged entry",
            )?;
            merged.push((i, rep));
        }
        let nsets = count(r)?;
        let mut pts_sets = Vec::with_capacity(r.capacity_for(nsets));
        for _ in 0..nsets {
            let nm = count(r)?;
            let mut members = Vec::with_capacity(r.capacity_for(nm));
            let mut prev = 0u32;
            for _ in 0..nm {
                prev = prev.wrapping_add(r.u32()?);
                check((prev as usize) < total, "set member")?;
                members.push(prev);
            }
            pts_sets.push(members);
        }
        let npts = count(r)?;
        let mut pts = Vec::with_capacity(r.capacity_for(npts));
        for _ in 0..npts {
            let rep = r.u32()?;
            let set = r.u32()?;
            check(
                (rep as usize) < total && (set as usize) < pts_sets.len(),
                "set entry",
            )?;
            pts.push((rep, set));
        }
        let nce = count(r)?;
        let mut copy_edges = Vec::with_capacity(r.capacity_for(nce));
        for _ in 0..nce {
            let a = r.u32()?;
            let b = r.u32()?;
            check((a as usize) < total && (b as usize) < total, "copy edge")?;
            copy_edges.push((a, b));
        }
        let nd = count(r)?;
        let mut degraded = Vec::with_capacity(r.capacity_for(nd));
        for _ in 0..nd {
            degraded.push(r.u32()?);
        }
        let npa = count(r)?;
        let mut pa_events = Vec::with_capacity(r.capacity_for(npa));
        for _ in 0..npa {
            let l = loc(r)?;
            pa_events.push((l, r.u32()?));
        }
        let npwc = count(r)?;
        let mut pwc_events = Vec::with_capacity(r.capacity_for(npwc));
        for _ in 0..npwc {
            let nm = count(r)?;
            let mut members = Vec::with_capacity(r.capacity_for(nm));
            for _ in 0..nm {
                let m = r.u32()?;
                check((m as usize) < total, "cycle member")?;
                members.push(m);
            }
            let nl = count(r)?;
            let mut locs = Vec::with_capacity(r.capacity_for(nl));
            for _ in 0..nl {
                locs.push(loc(r)?);
            }
            pwc_events.push((members, locs));
        }
        let nco = count(r)?;
        let mut collapsed = Vec::with_capacity(r.capacity_for(nco));
        for _ in 0..nco {
            collapsed.push(r.u32()?);
        }
        let nic = count(r)?;
        let mut icall_wired = Vec::with_capacity(r.capacity_for(nic));
        for _ in 0..nic {
            let nf = count(r)?;
            let mut fids = Vec::with_capacity(r.capacity_for(nf));
            for _ in 0..nf {
                fids.push(r.u32()?);
            }
            icall_wired.push(fids);
        }
        Ok(SolvedState {
            fingerprint,
            opts_key,
            plan_digest,
            gen_len,
            created,
            node_count,
            merged,
            pts,
            pts_sets,
            copy_edges,
            degraded,
            pa_events,
            pwc_events,
            collapsed,
            icall_wired,
        })
    }
}

/// Why an incremental request must fall back to a full re-solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The new module has fewer functions than the previous revision.
    RemovedFunc,
    /// A shared function's definition changed.
    ChangedFunc,
    /// A global was removed or a shared global's declaration changed.
    ChangedGlobal,
    /// A struct was removed or a shared struct's definition changed.
    ChangedStruct,
    /// A previous-revision node has no counterpart in the new arena.
    NodeMiss,
    /// The previous constraints are not a prefix of the new ones.
    ConstraintMismatch,
    /// The previous indirect calls are not a prefix of the new ones.
    IcallMismatch,
    /// The caller found, before any module was compared, that the new
    /// module does not extend the previous revision.
    NotExtended,
    /// The context plan of a kept function changed: the snapshot's plan
    /// digest is not the current plan's over the kept functions.
    PlanChanged,
    /// The snapshot's node count is not the previous node count the kept
    /// prefix derives (a snapshot handed with another revision's counts).
    StateMismatch,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FallbackReason::RemovedFunc => "function removed",
            FallbackReason::ChangedFunc => "shared function changed",
            FallbackReason::ChangedGlobal => "global removed or changed",
            FallbackReason::ChangedStruct => "struct removed or changed",
            FallbackReason::NodeMiss => "node has no counterpart",
            FallbackReason::ConstraintMismatch => "constraint prefix mismatch",
            FallbackReason::IcallMismatch => "indirect-call prefix mismatch",
            FallbackReason::NotExtended => "edit does not extend the previous revision",
            FallbackReason::PlanChanged => "context plan of a kept function changed",
            FallbackReason::StateMismatch => "snapshot does not match the kept prefix",
        };
        f.write_str(s)
    }
}

/// The difference between two generated constraint programs, oriented for
/// warm-starting: either the previous program is a prefix of the new one
/// (with the node/object translation maps onto it), or `fallback` names why
/// a full re-solve is required.
///
/// Warm starts [`derive`](ConstraintDiff::derive) it from the kept
/// prefix's counts; [`compute`](ConstraintDiff::compute) builds it by
/// comparing both programs and is the oracle the derivation is tested
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintDiff {
    /// `Some(reason)` when incremental reuse is impossible and the solve
    /// must run from scratch (always sound).
    pub fallback: Option<FallbackReason>,
    /// Index of the first constraint with no previous counterpart.
    pub first_new_constraint: usize,
    /// Index of the first indirect call with no previous counterpart.
    pub first_new_icall: usize,
    /// Previous generated node id → new generated node id.
    pub(crate) node_map: Vec<u32>,
    /// Previous object id → new object id.
    pub(crate) obj_map: Vec<u32>,
}

impl ConstraintDiff {
    fn fail(mut self, reason: FallbackReason) -> ConstraintDiff {
        self.fallback = Some(reason);
        self
    }

    /// A diff that compared nothing yet and found no reason to fall back.
    fn unchecked() -> ConstraintDiff {
        ConstraintDiff {
            fallback: None,
            first_new_constraint: 0,
            first_new_icall: 0,
            node_map: Vec::new(),
            obj_map: Vec::new(),
        }
    }

    /// A diff that falls back for `reason`, found before any program was
    /// compared.
    pub(crate) fn rejected(reason: FallbackReason) -> ConstraintDiff {
        Self::unchecked().fail(reason)
    }

    /// The diff of an edit that keeps the first `prefix.globals` globals
    /// and `prefix.funcs` functions of `module` as the previous revision
    /// had them, read off `new`, `module`'s program. `generate` creates
    /// every global's object, then every function's, then walks the
    /// functions in order, so the kept walk is the previous one shifted:
    /// for `G` appended globals and `F` appended functions, both maps are
    /// +0 below `g`, +G below `g + k`, and +G+F up to the kept walk's end,
    /// `new.walk_marks[k]`, which also gives the first new constraint and
    /// indirect call. Struct types are not numbered.
    ///
    /// The caller vouches for the prefix and for the kept functions'
    /// context plan ([`crate::WarmStart::diff`] checks the plan and the
    /// snapshot's extent; `restore` checks the rest of the snapshot).
    /// Counts beyond the module's, or a program with another function
    /// count, fall back as [`FallbackReason::NotExtended`].
    pub fn derive(module: &Module, new: &Program, prefix: PrefixCounts) -> ConstraintDiff {
        let (globals, funcs) = (module.globals.len(), module.funcs.len());
        if prefix.globals > globals || prefix.funcs > funcs || new.walk_marks.len() != funcs + 1 {
            return Self::rejected(FallbackReason::NotExtended);
        }
        let (added_globals, added_funcs) = (globals - prefix.globals, funcs - prefix.funcs);
        let kept_objects = prefix.globals + prefix.funcs;
        let shift = |i: usize| {
            let by = if i < prefix.globals {
                0
            } else if i < kept_objects {
                added_globals
            } else {
                added_globals + added_funcs
            };
            (i + by) as u32
        };
        let end = new.walk_marks[prefix.funcs];
        let added = added_globals + added_funcs;
        ConstraintDiff {
            fallback: None,
            first_new_constraint: end.constraints,
            first_new_icall: end.icalls,
            node_map: (0..end.nodes - added).map(shift).collect(),
            obj_map: (0..end.objs - added).map(shift).collect(),
        }
    }

    /// The module-level half of [`ConstraintDiff::compute`], which needs
    /// no constraint program: the shared prefix of the two modules must be
    /// byte-identical (appends only). A removed or changed function, a
    /// removed or changed global and a removed or changed struct each set
    /// `fallback` here; an accepted precheck makes the previous module's
    /// item counts a prefix [`ConstraintDiff::derive`] can translate (see
    /// [`crate::WarmStart::between`]). The program-level fields of the
    /// returned diff stay zero.
    pub fn precheck(prev_module: &Module, new_module: &Module) -> ConstraintDiff {
        let diff = Self::unchecked();
        if new_module.funcs.len() < prev_module.funcs.len() {
            return diff.fail(FallbackReason::RemovedFunc);
        }
        if prev_module
            .funcs
            .iter()
            .zip(&new_module.funcs)
            .any(|(a, b)| a != b)
        {
            return diff.fail(FallbackReason::ChangedFunc);
        }
        if new_module.globals.len() < prev_module.globals.len()
            || prev_module
                .globals
                .iter()
                .zip(&new_module.globals)
                .any(|(a, b)| a != b)
        {
            return diff.fail(FallbackReason::ChangedGlobal);
        }
        if new_module.types.len() < prev_module.types.len()
            || prev_module
                .types
                .iter()
                .zip(new_module.types.iter())
                .any(|((_, a), (_, b))| a != b)
        {
            return diff.fail(FallbackReason::ChangedStruct);
        }
        diff
    }

    /// Compare the previous revision's generated program against the new
    /// one, after [`ConstraintDiff::precheck`] on their modules. Both
    /// programs must have been generated with the context plan actually
    /// used for their respective solves — any divergence in the shared
    /// prefix (including plan-induced divergence) is detected and reported
    /// as a fallback.
    ///
    /// No solve calls this: it is the test oracle for
    /// [`ConstraintDiff::derive`], which must agree with it on every edit
    /// it accepts.
    pub fn compute(
        prev_module: &Module,
        prev: &Program,
        new_module: &Module,
        new: &Program,
    ) -> ConstraintDiff {
        let mut diff = Self::precheck(prev_module, new_module);
        diff.first_new_constraint = prev.constraints.len();
        diff.first_new_icall = prev.icalls.len();
        if diff.fallback.is_some() {
            return diff;
        }

        // Translation maps: previous generated nodes/objects → new, keyed
        // by their regeneration-stable identities.
        let mut ctx_map: HashMap<(InstLoc, u32), NodeId> = HashMap::new();
        for id in new.nodes.iter_ids() {
            if let NodeKind::CtxDummy { site, seq } = new.nodes.kind(id) {
                ctx_map.insert((*site, *seq), id);
            }
        }
        diff.obj_map = Vec::with_capacity(prev.nodes.obj_count());
        for o in 0..prev.nodes.obj_count() as u32 {
            let site = prev.nodes.obj_info(ObjId(o)).site;
            match new.nodes.object_at(site) {
                Some(no) => diff.obj_map.push(no.0),
                None => return diff.fail(FallbackReason::NodeMiss),
            }
        }
        diff.node_map = Vec::with_capacity(prev.nodes.len());
        for id in prev.nodes.iter_ids() {
            let mapped = match prev.nodes.kind(id) {
                NodeKind::Local(f, l) => new.nodes.local_node_opt(*f, *l),
                NodeKind::Ret(f) => new.nodes.ret_node_opt(*f),
                NodeKind::AddrConst(o) => new.nodes.addr_node_opt(ObjId(diff.obj_map[o.index()])),
                NodeKind::Obj(o) => Some(new.nodes.obj_root(ObjId(diff.obj_map[o.index()]))),
                // Generation never creates field nodes.
                NodeKind::Field { .. } => None,
                NodeKind::CtxDummy { site, seq } => ctx_map.get(&(*site, *seq)).copied(),
            };
            match mapped {
                Some(n) => diff.node_map.push(n.0),
                None => return diff.fail(FallbackReason::NodeMiss),
            }
        }

        // Exact prefix verification: previous constraint i must equal new
        // constraint i under the translation. This is what licenses the
        // identity mapping of constraint ids (degraded-field sets) and
        // indirect-call indices during restore.
        if new.constraints.len() < prev.constraints.len() {
            return diff.fail(FallbackReason::ConstraintMismatch);
        }
        for (pc, nc) in prev.constraints.iter().zip(&new.constraints) {
            if pc.origin != nc.origin || !diff.kind_matches(&pc.kind, &nc.kind) {
                return diff.fail(FallbackReason::ConstraintMismatch);
            }
        }
        if new.icalls.len() < prev.icalls.len() {
            return diff.fail(FallbackReason::IcallMismatch);
        }
        for (pi, ni) in prev.icalls.iter().zip(&new.icalls) {
            if !diff.icall_matches(pi, ni) {
                return diff.fail(FallbackReason::IcallMismatch);
            }
        }
        diff
    }

    fn tr(&self, n: NodeId) -> NodeId {
        NodeId(self.node_map[n.index()])
    }

    fn kind_matches(&self, p: &ConstraintKind, n: &ConstraintKind) -> bool {
        use ConstraintKind::*;
        match (p, n) {
            (AddrOf { dst: d1, obj: o1 }, AddrOf { dst: d2, obj: o2 }) => {
                self.tr(*d1) == *d2 && self.obj_map[o1.index()] == o2.0
            }
            (Copy { dst: d1, src: s1 }, Copy { dst: d2, src: s2 }) => {
                self.tr(*d1) == *d2 && self.tr(*s1) == *s2
            }
            (Load { dst: d1, addr: a1 }, Load { dst: d2, addr: a2 }) => {
                self.tr(*d1) == *d2 && self.tr(*a1) == *a2
            }
            (Store { addr: a1, src: s1 }, Store { addr: a2, src: s2 }) => {
                self.tr(*a1) == *a2 && self.tr(*s1) == *s2
            }
            (
                Field {
                    dst: d1,
                    base: b1,
                    idx: i1,
                },
                Field {
                    dst: d2,
                    base: b2,
                    idx: i2,
                },
            ) => self.tr(*d1) == *d2 && self.tr(*b1) == *b2 && i1 == i2,
            (
                PtrArith {
                    dst: d1,
                    base: b1,
                    loc: l1,
                },
                PtrArith {
                    dst: d2,
                    base: b2,
                    loc: l2,
                },
            ) => self.tr(*d1) == *d2 && self.tr(*b1) == *b2 && l1 == l2,
            (Elem { dst: d1, base: b1 }, Elem { dst: d2, base: b2 }) => {
                self.tr(*d1) == *d2 && self.tr(*b1) == *b2
            }
            _ => false,
        }
    }

    fn icall_matches(&self, p: &IndirectCall, n: &IndirectCall) -> bool {
        p.site == n.site
            && self.tr(p.fnptr) == n.fnptr
            && p.args.len() == n.args.len()
            && p.args
                .iter()
                .zip(&n.args)
                .all(|(a, b)| a.map(|x| self.tr(x)) == *b)
            && p.dst.map(|d| self.tr(d)) == n.dst
    }
}

impl<'m> Solver<'m> {
    /// Warm-start from `prev`: when the diff, the options and the state
    /// are compatible, restore the previous fixpoint translated onto this
    /// solver's arena and return `true`; on `false` the caller solves cold.
    /// All fallible checks and replays run before any derived state
    /// (points-to sets, copy edges, events) is written, so a `false` leaves
    /// the solver safe for a cold `init` — the only residue is
    /// pre-materialized nodes.
    pub(crate) fn restore(&mut self, prev: &SolvedState, diff: &ConstraintDiff) -> bool {
        if diff.fallback.is_some()
            || prev.opts_key != self.opts.cache_key()
            || prev.gen_len as usize != diff.node_map.len()
        {
            return false;
        }
        let gen_len = prev.gen_len as usize;
        let total = gen_len + prev.created.len();
        if prev.node_count() != total
            || prev.merged.iter().any(|&(i, r)| i.max(r) as usize >= total)
            || prev
                .pts
                .iter()
                .any(|&(r, s)| r as usize >= total || s as usize >= prev.pts_sets.len())
            || prev
                .degraded
                .iter()
                .any(|&c| c as usize >= diff.first_new_constraint)
            || prev.icall_wired.len() != diff.first_new_icall
            || prev
                .collapsed
                .iter()
                .chain(prev.pa_events.iter().map(|(_, o)| o))
                .any(|&o| o as usize >= diff.obj_map.len())
        {
            return false;
        }
        // Full previous-node map: the generated prefix comes from the
        // diff, the solver-created suffix is replayed in creation order.
        let mut map: Vec<NodeId> = diff.node_map.iter().map(|&v| NodeId(v)).collect();
        for c in &prev.created {
            let n = match *c {
                CreatedNode::Local { func, local } => {
                    self.nodes.local_node(FuncId(func), LocalId(local))
                }
                CreatedNode::Ret { func } => self.nodes.ret_node(FuncId(func)),
                CreatedNode::Field { parent, idx } => {
                    let Some(&p) = map.get(parent as usize) else {
                        return false;
                    };
                    let Some(sid) = self.nodes.field_struct_of(p) else {
                        return false;
                    };
                    let field_tys = self.module.types.def(sid.0).fields.clone();
                    self.nodes.field_node_typed(p, idx as usize, &field_tys)
                }
            };
            map.push(n);
        }
        self.ensure_capacity();
        // Indirect-call targets must still exist in the new module.
        for fids in &prev.icall_wired {
            for &f in fids {
                if self.nodes.object_at(ObjSite::Func(FuncId(f))).is_none() {
                    return false;
                }
            }
        }

        // --- infallible from here on ---

        // Union-find merges: every loser was captured pointing directly at
        // its final representative, so one merge each replays the exact
        // condensation (representatives never lose).
        for &(i, r) in &prev.merged {
            self.nodes.merge(map[i as usize], map[r as usize]);
        }
        // Collapsed-object flags and events.
        for &po in &prev.collapsed {
            let o = ObjId(diff.obj_map[po as usize]);
            self.nodes.set_collapsed(o);
            self.collapsed_objects.push(o);
            self.stats.collapsed_objects += 1;
        }
        // Points-to sets at the previous fixpoint; the propagated frontier
        // equals the set, so restored nodes start with a zero delta. Each
        // unique set is translated once, then shared by bitmap clone.
        let sets: Vec<PtsSet> = prev
            .pts_sets
            .iter()
            .map(|members| {
                PtsSet::from_iter_unsorted(
                    members.iter().map(|&m| self.nodes.find(map[m as usize])),
                )
            })
            .collect();
        for &(r, si) in &prev.pts {
            let nr = self.nodes.find(map[r as usize]);
            let set = &sets[si as usize];
            self.prop[nr.index()].clone_from(set);
            self.pts[nr.index()].clone_from(set);
        }
        // Copy edges, inserted directly: the restored sets already satisfy
        // every edge (they are a fixpoint), so no unions are needed.
        for &(a, b) in &prev.copy_edges {
            let f = self.nodes.find(map[a as usize]);
            let t = self.nodes.find(map[b as usize]);
            if f != t && self.copy_set.insert((f.0, t.0)) {
                self.copy_out[f.index()].push(t);
            }
        }
        // Degraded Field-Of constraints: identity indices (prefix).
        self.degraded_fields.extend(prev.degraded.iter().copied());
        // PA filter events.
        for &(loc, po) in &prev.pa_events {
            let obj = ObjId(diff.obj_map[po as usize]);
            if self.pa_seen.insert((loc, obj)) {
                self.pa_filters.push(PaFilterEvent { loc, obj });
            }
        }
        // Deferred PWC events, re-canonicalized for dedup against future
        // detections in the resumed solve.
        for (members, field_locs) in &prev.pwc_events {
            let mut ms: Vec<NodeId> = members
                .iter()
                .map(|&m| self.nodes.find(map[m as usize]))
                .collect();
            ms.sort_unstable();
            ms.dedup();
            self.pwc_seen.insert(ms.clone());
            self.pwcs.push(PwcEvent {
                members: ms,
                field_locs: field_locs.clone(),
            });
        }
        // Indirect-call wiring (identity icall indices by the prefix).
        for (i, fids) in prev.icall_wired.iter().enumerate() {
            let site = self.icalls[i].site;
            let mut wired = PtsSet::new();
            for &f in fids {
                let o = self
                    .nodes
                    .object_at(ObjSite::Func(FuncId(f)))
                    .expect("validated above");
                wired.insert(self.nodes.obj_root(o));
                self.callgraph.add_indirect(site, FuncId(f));
            }
            self.icall_wired.push(wired);
        }
        self.stats.incr_reused = prev.node_count();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::observer::NullObserver;
    use crate::solver::{SolveOptions, SolveResult};
    use kaleidoscope_ir::{FunctionBuilder, Operand, Type};

    /// v1: a handler, a dispatcher global, and a main that stores the
    /// handler into the global and calls through it.
    fn base_module() -> Module {
        let mut m = Module::new("watch");
        let s = m
            .types
            .declare("pair", vec![Type::ptr(Type::Int), Type::ptr(Type::Int)])
            .unwrap();
        let handler = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "handler",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = b.param(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        m.add_global("slot", Type::ptr(Type::Func(m.func(handler).sig())))
            .unwrap();
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let x = b.alloca("x", Type::Int);
        let st = b.alloca("st", Type::Struct(s));
        let f0 = b.field_addr("f0", st, 0);
        b.store(f0, x);
        let g = Operand::Global(b.module().global_by_name("slot").unwrap());
        let fp = b.copy("fp", Operand::Func(handler));
        b.store(g, fp);
        let fp2 = b.load("fp2", g);
        b.call_ind("r", fp2, vec![x.into()], Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
        m
    }

    /// Append one function that reads the shared global, calls the shared
    /// handler directly, and allocates its own state.
    fn append_extra(m: &mut Module) {
        let handler = m.func_by_name("handler").unwrap();
        let g = Operand::Global(m.global_by_name("slot").unwrap());
        let mut b = FunctionBuilder::new(m, "extra", vec![], Type::Void);
        let y = b.alloca("y", Type::Int);
        b.call("h", handler, vec![y.into()]);
        let fp = b.load("fp", g);
        b.call_ind("r2", fp, vec![y.into()], Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
    }

    fn canon_pts(m: &Module, r: &SolveResult) -> Vec<(String, Vec<String>)> {
        let mut out = Vec::new();
        for (fid, f) in m.iter_funcs() {
            for (i, l) in f.locals.iter().enumerate() {
                let lid = kaleidoscope_ir::LocalId(i as u32);
                if let Some(n) = r.nodes.local_node_opt(fid, lid) {
                    let mut members: Vec<String> =
                        r.pts_of(n).iter().map(|p| r.nodes.describe(p, m)).collect();
                    members.sort();
                    out.push((format!("{}::{}", f.name, l.name), members));
                }
            }
        }
        out
    }

    fn solve_cold(m: &Module, opts: &SolveOptions) -> (SolveResult, Option<SolvedState>) {
        let program = generate(m, None);
        Solver::new(m, program, opts.clone())
            .try_solve(None, Some(m.fingerprint()), &mut NullObserver)
            .expect("unbudgeted")
    }

    fn solve_incr(
        prev_m: &Module,
        prev: &SolvedState,
        new_m: &Module,
        opts: &SolveOptions,
    ) -> (SolveResult, Option<SolvedState>) {
        let (a, state) = crate::Analysis::try_run(
            new_m,
            opts,
            None,
            None,
            Some(crate::WarmStart::between(prev_m, new_m, prev)),
            Some(new_m.fingerprint()),
            &mut NullObserver,
        )
        .expect("unbudgeted");
        (a.result, state)
    }

    /// `m` with a global appended and a function that stores the shared
    /// handler's address into it.
    fn append_global(m: &mut Module) {
        let handler = m.func_by_name("handler").unwrap();
        let ty = Type::ptr(Type::Func(m.func(handler).sig()));
        let g = Operand::Global(m.add_global("spare", ty).unwrap());
        let mut b = FunctionBuilder::new(m, "publish", vec![], Type::Void);
        let fp = b.copy("fp", Operand::Func(handler));
        b.store(g, fp);
        b.ret(None);
        b.finish();
    }

    #[test]
    fn derived_diff_is_the_computed_one() {
        let v1 = base_module();
        let mut v2 = base_module();
        append_extra(&mut v2);
        let mut v3 = v2.clone();
        append_global(&mut v3);
        let counts = Module::item_counts;
        for (prev, next) in [(&v1, &v2), (&v1, &v3), (&v2, &v3), (&v3, &v3)] {
            let (p, n) = (generate(prev, None), generate(next, None));
            let computed = ConstraintDiff::compute(prev, &p, next, &n);
            assert_eq!(computed.fallback, None);
            assert_eq!(ConstraintDiff::derive(next, &n, counts(prev)), computed);
        }
        // v3's global shifts the kept functions' objects by one.
        let derived = ConstraintDiff::derive(&v3, &generate(&v3, None), counts(&v2));
        assert_eq!(derived.obj_map[..4], [0, 2, 3, 4]);
        // Counts past the module's, or of another module's program.
        let over = PrefixCounts {
            funcs: v2.funcs.len() + 1,
            ..counts(&v2)
        };
        let v1_program = generate(&v1, None);
        for diff in [
            ConstraintDiff::derive(&v2, &generate(&v2, None), over),
            ConstraintDiff::derive(&v2, &v1_program, counts(&v1)),
        ] {
            assert_eq!(diff.fallback, Some(FallbackReason::NotExtended));
        }
    }

    #[test]
    fn append_edit_reuses_and_matches_cold() {
        for opts in [
            SolveOptions::baseline(),
            SolveOptions::optimistic(true, true),
        ] {
            let v1 = base_module();
            let mut v2 = base_module();
            append_extra(&mut v2);

            let (_, state1) = solve_cold(&v1, &opts);
            let state1 = state1.expect("converged solve captures");
            let (cold, _) = solve_cold(&v2, &opts);
            let (warm, state2) = solve_incr(&v1, &state1, &v2, &opts);

            assert_eq!(warm.stats.incr_fallback_full, 0, "append edit must reuse");
            assert!(warm.stats.incr_reused > 0);
            assert!(
                warm.stats.incr_seeded_nodes < warm.stats.node_count,
                "seeded {} of {} nodes",
                warm.stats.incr_seeded_nodes,
                warm.stats.node_count
            );
            assert_eq!(canon_pts(&v2, &cold), canon_pts(&v2, &warm));
            let edges = |r: &SolveResult| {
                let mut e: Vec<(InstLoc, Vec<FuncId>)> = r
                    .callgraph
                    .indirect_sites()
                    .map(|(l, ts)| (l, ts.to_vec()))
                    .collect();
                e.sort();
                e
            };
            assert_eq!(edges(&cold), edges(&warm));
            assert!(state2.is_some(), "incremental solve re-captures");
        }
    }

    #[test]
    fn chained_edits_stay_exact() {
        let opts = SolveOptions::optimistic(true, true);
        let v1 = base_module();
        let mut v2 = base_module();
        append_extra(&mut v2);
        let mut v3 = base_module();
        append_extra(&mut v3);
        {
            let mut b = FunctionBuilder::new(&mut v3, "extra2", vec![], Type::Void);
            let z = b.alloca("z", Type::Int);
            let h = b.module().func_by_name("handler").unwrap();
            b.call("h2", h, vec![z.into()]);
            b.ret(None);
            b.finish();
        }

        let (_, s1) = solve_cold(&v1, &opts);
        let (warm2, s2) = solve_incr(&v1, &s1.unwrap(), &v2, &opts);
        assert_eq!(warm2.stats.incr_fallback_full, 0);
        let (warm3, _) = solve_incr(&v2, &s2.unwrap(), &v3, &opts);
        assert_eq!(warm3.stats.incr_fallback_full, 0);
        let (cold3, _) = solve_cold(&v3, &opts);
        assert_eq!(canon_pts(&v3, &cold3), canon_pts(&v3, &warm3));
    }

    /// A fallen-back solve is a cold solve: every counter but the
    /// fallback flag (and the wall time) matches, and so does the captured
    /// snapshot, byte for byte.
    fn assert_same_solve(
        fell_back: &SolveResult,
        fell_back_state: &Option<SolvedState>,
        cold: &SolveResult,
        cold_state: &Option<SolvedState>,
        what: &str,
    ) {
        let counters = |r: &SolveResult| {
            let mut s = r.stats.clone();
            s.incr_fallback_full = 0;
            s.duration = std::time::Duration::ZERO;
            format!("{s:?}")
        };
        assert_eq!(counters(fell_back), counters(cold), "{what}: counters");
        let bytes = |s: &Option<SolvedState>| s.as_ref().expect("converged").to_bytes();
        assert_eq!(
            bytes(fell_back_state),
            bytes(cold_state),
            "{what}: snapshot"
        );
    }

    /// `base_module` printed, with `from` replaced by `to` (which must
    /// occur), and parsed back.
    fn edited_base(from: &str, to: &str) -> Module {
        let text = base_module().to_text();
        assert!(text.contains(from), "{from:?} not in:\n{text}");
        kaleidoscope_ir::parse_module(&text.replace(from, to)).expect("edit parses")
    }

    #[test]
    fn incompatible_edits_fall_back_to_a_cold_solve() {
        let opts = SolveOptions::baseline();
        let mut with_extra = base_module();
        append_extra(&mut with_extra);
        let cases = [
            (
                "removed function",
                with_extra,
                base_module(),
                FallbackReason::RemovedFunc,
            ),
            (
                "changed function",
                base_module(),
                edited_base(" fp2: ", " fp3: "),
                FallbackReason::ChangedFunc,
            ),
            (
                "changed global",
                base_module(),
                edited_base("slot", "slot2"),
                FallbackReason::ChangedGlobal,
            ),
            (
                "changed struct",
                base_module(),
                edited_base(
                    "struct pair { int*, int* }",
                    "struct pair { int*, int*, int }",
                ),
                FallbackReason::ChangedStruct,
            ),
        ];
        for (what, prev_m, new_m, reason) in cases {
            let pre = ConstraintDiff::precheck(&prev_m, &new_m);
            let full = ConstraintDiff::compute(
                &prev_m,
                &generate(&prev_m, None),
                &new_m,
                &generate(&new_m, None),
            );
            assert_eq!(pre.fallback, Some(reason), "{what}: precheck");
            assert_eq!(full.fallback, Some(reason), "{what}: compute");

            let (_, state) = solve_cold(&prev_m, &opts);
            let state = state.expect("converged solve captures");
            let warm = crate::WarmStart::between(&prev_m, &new_m, &state);
            assert_eq!(warm.prefix, Err(reason), "{what}");
            let (warm, warm_state) = crate::Analysis::try_run(
                &new_m,
                &opts,
                None,
                None,
                Some(warm),
                Some(new_m.fingerprint()),
                &mut NullObserver,
            )
            .expect("unbudgeted");
            assert_eq!(warm.result.stats.incr_fallback_full, 1, "{what}");
            let (cold, cold_state) = solve_cold(&new_m, &opts);
            assert_eq!(
                canon_pts(&new_m, &cold),
                canon_pts(&new_m, &warm.result),
                "{what}"
            );
            assert_same_solve(&warm.result, &warm_state, &cold, &cold_state, what);
        }
        // An append passes the precheck and the program check.
        let mut appended = base_module();
        append_extra(&mut appended);
        assert_eq!(
            ConstraintDiff::precheck(&base_module(), &appended).fallback,
            None
        );
    }

    #[test]
    fn opts_mismatch_falls_back() {
        let v1 = base_module();
        let mut v2 = base_module();
        append_extra(&mut v2);
        let opts = SolveOptions::optimistic(true, true);
        let (_, s1) = solve_cold(&v1, &SolveOptions::baseline());
        let (warm, warm_state) = solve_incr(&v1, &s1.unwrap(), &v2, &opts);
        assert_eq!(warm.stats.incr_fallback_full, 1, "cache key mismatch");
        let (cold, cold_state) = solve_cold(&v2, &opts);
        assert_same_solve(&warm, &warm_state, &cold, &cold_state, "opts mismatch");
    }

    #[test]
    fn state_roundtrips_through_bytes() {
        let v1 = base_module();
        let (_, s1) = solve_cold(&v1, &SolveOptions::optimistic(true, true));
        let s1 = s1.unwrap();
        let bytes = s1.to_bytes();
        let back = SolvedState::from_bytes(&bytes).expect("decodes");
        assert_eq!(s1, back);
        // Truncations never panic, they decode to None.
        for cut in 0..bytes.len() {
            assert!(SolvedState::from_bytes(&bytes[..cut]).is_none());
        }
        assert!(SolvedState::from_bytes(b"XXXX").is_none());
        // Nor do bit flips, whatever they decode to.
        let mut rng = kaleidoscope_prng::Rng::seed_from_u64(0x5eed_f11b);
        for _ in 0..64 {
            let bit = rng.gen_range(0..bytes.len() * 8);
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(state) = SolvedState::from_bytes(&flipped) {
                assert_ne!(state, s1, "bit {bit} flipped");
            }
        }
    }
}
