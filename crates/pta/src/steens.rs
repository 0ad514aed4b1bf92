//! Steensgaard's unification-based pointer analysis.
//!
//! Runs in near-linear time but is markedly less precise than Andersen's —
//! the paper cites it (§9, "Scalability Improvements") as the fast/imprecise
//! end of the design space. We use it in the benchmark suite as an extra
//! comparison point and in tests as a soundness upper bound (every
//! Andersen's set is a subset of the Steensgaard set for the same program).

use std::collections::HashMap;
use std::time::Instant;

use kaleidoscope_ir::{FuncId, Inst, LocalId, Module, Type};

use crate::analysis::Analysis;
use crate::callgraph::CallGraph;
use crate::gen::{generate, ConstraintKind, IndirectCall};
use crate::node::{NodeId, NodeTable};
use crate::pts::PtsSet;
use crate::solver::{SolveResult, SolveStats};

/// Result of a Steensgaard run: equivalence classes with pointee links.
#[derive(Debug, Clone)]
pub struct SteensResult {
    nodes: NodeTable,
    parent: Vec<u32>,
    pointee: HashMap<u32, u32>,
    /// Object members of each class representative.
    members: HashMap<u32, Vec<NodeId>>,
}

impl SteensResult {
    fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// The points-to set of a local: all object nodes in the pointee class.
    pub fn pts_of_local(&self, module: &Module, func: FuncId, local: LocalId) -> PtsSet {
        let _ = module;
        let Some(n) = self.nodes.local_node_opt(func, local) else {
            return PtsSet::new();
        };
        let class = self.find(n.0);
        let Some(&ptee) = self.pointee.get(&class) else {
            return PtsSet::new();
        };
        let ptee = self.find(ptee);
        self.members
            .get(&ptee)
            .map(|v| v.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Borrow the node table (to resolve object identities).
    pub fn nodes(&self) -> &NodeTable {
        &self.nodes
    }
}

struct Steens {
    parent: Vec<u32>,
    pointee: HashMap<u32, u32>,
}

impl Steens {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return a;
        }
        self.parent[a as usize] = b;
        // Merge pointee links recursively (the classic cjoin).
        let pa = self.pointee.remove(&a);
        match (pa, self.pointee.get(&b).copied()) {
            (Some(pa), Some(pb)) => {
                self.union(pa, pb);
            }
            (Some(pa), None) => {
                let b = self.find(b);
                self.pointee.insert(b, pa);
            }
            _ => {}
        }
        self.find(b)
    }

    /// The pointee class of `x`, creating a fresh placeholder if missing.
    fn deref(&mut self, x: u32, fresh: &mut u32) -> u32 {
        let x = self.find(x);
        if let Some(&p) = self.pointee.get(&x) {
            return self.find(p);
        }
        let p = *fresh;
        *fresh += 1;
        self.parent.push(p);
        self.pointee.insert(x, p);
        p
    }

    fn join_pointees(&mut self, a: u32, b: u32, fresh: &mut u32) {
        let pa = self.deref(a, fresh);
        let pb = self.deref(b, fresh);
        self.union(pa, pb);
    }
}

/// Run Steensgaard's analysis over a module.
pub fn steensgaard(module: &Module) -> SteensResult {
    steens_core(module).0
}

/// The shared unification pass; also hands back the indirect-call records
/// and constraint count so [`steens_analysis`] can fill in a call graph and
/// stats without generating constraints twice.
fn steens_core(module: &Module) -> (SteensResult, Vec<IndirectCall>, usize) {
    let program = generate(module, None);
    let nodes = program.nodes;
    let mut fresh = nodes.len() as u32;
    let mut s = Steens {
        parent: (0..fresh).collect(),
        pointee: HashMap::new(),
    };

    for c in &program.constraints {
        match c.kind {
            ConstraintKind::AddrOf { dst, obj } => {
                let root = nodes.obj_root(obj);
                let p = s.deref(dst.0, &mut fresh);
                s.union(p, root.0);
            }
            ConstraintKind::Copy { dst, src }
            | ConstraintKind::Elem { dst, base: src }
            | ConstraintKind::PtrArith { dst, base: src, .. }
            | ConstraintKind::Field { dst, base: src, .. } => {
                s.join_pointees(dst.0, src.0, &mut fresh);
            }
            ConstraintKind::Load { dst, addr } => {
                let a = s.deref(addr.0, &mut fresh);
                s.join_pointees(dst.0, a, &mut fresh);
            }
            ConstraintKind::Store { addr, src } => {
                let a = s.deref(addr.0, &mut fresh);
                s.join_pointees(a, src.0, &mut fresh);
            }
        }
    }

    // Indirect calls: unify with every arity-compatible address-taken
    // function (the conservative unification treatment).
    let taken = module.address_taken_funcs();
    for ic in &program.icalls {
        for &fid in &taken {
            let f = module.func(fid);
            if f.param_count != ic.args.len() {
                continue;
            }
            for (idx, arg) in ic.args.iter().enumerate() {
                if let (Some(a), Some(p)) = (arg, nodes.local_node_opt(fid, LocalId(idx as u32))) {
                    s.join_pointees(a.0, p.0, &mut fresh);
                }
            }
            if let Some(dst) = ic.dst {
                if f.ret_ty != Type::Void {
                    // Best effort: unify dst with every address-taken return.
                    // Return nodes may not exist if the function never
                    // returns a pointer-relevant value.
                    let _ = dst;
                }
            }
        }
    }

    // Collect class members (object nodes only).
    let mut members: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for id in nodes.iter_ids() {
        if nodes.is_object_node(id) {
            let class = s.find(id.0);
            members.entry(class).or_default().push(id);
        }
    }
    for v in members.values_mut() {
        v.sort_unstable();
    }

    let res = SteensResult {
        nodes,
        parent: s.parent,
        pointee: s.pointee,
        members,
    };
    let n_constraints = program.constraints.len();
    (res, program.icalls, n_constraints)
}

/// Run Steensgaard and package the result as a canonical [`Analysis`], so
/// the unification tier can stand in wherever an Andersen analysis is
/// expected — it is the last rung of the executor's degradation ladder.
///
/// The packaging is deterministic: each node's points-to set is the sorted
/// object-member list of its pointee class, and the call graph carries the
/// module's direct edges plus the conservative arity-compatible indirect
/// wiring. Two calls on the same module produce identical artifacts.
pub fn steens_analysis(module: &Module) -> Analysis {
    let start = Instant::now();
    let (res, icalls, constraint_count) = steens_core(module);

    let n = res.nodes.len();
    let mut pts = vec![PtsSet::new(); n];
    for id in res.nodes.iter_ids() {
        let class = res.find(id.0);
        let Some(&ptee) = res.pointee.get(&class) else {
            continue;
        };
        let ptee = res.find(ptee);
        if let Some(m) = res.members.get(&ptee) {
            pts[id.0 as usize] = m.iter().copied().collect();
        }
    }

    let mut callgraph = CallGraph::new();
    for (loc, inst) in module.iter_locs() {
        if let Inst::Call { callee, .. } = inst {
            callgraph.add_direct(loc, *callee);
        }
    }
    let taken = module.address_taken_funcs();
    for ic in &icalls {
        callgraph.add_indirect_site(ic.site);
        for &fid in &taken {
            if module.func(fid).param_count == ic.args.len() {
                callgraph.add_indirect(ic.site, fid);
            }
        }
    }

    let obj_count = res
        .nodes
        .iter_ids()
        .filter(|&id| res.nodes.is_object_node(id))
        .count();
    let stats = SolveStats {
        node_count: n,
        obj_count,
        constraint_count,
        icall_count: icalls.len(),
        duration: start.elapsed(),
        ..SolveStats::default()
    };

    Analysis {
        result: SolveResult {
            merged: res.nodes.any_merged(),
            nodes: res.nodes,
            pts,
            callgraph,
            pa_filters: Vec::new(),
            pwcs: Vec::new(),
            collapsed_objects: Vec::new(),
            stats,
        },
    }
}

/// Convenience: average points-to set size over pointer-typed locals (for
/// the comparison benches).
pub fn avg_pts_size(module: &Module, res: &SteensResult) -> f64 {
    let mut total = 0usize;
    let mut count = 0usize;
    for (fid, f) in module.iter_funcs() {
        for (i, l) in f.locals.iter().enumerate() {
            if !l.ty.is_ptr() {
                continue;
            }
            let size = res.pts_of_local(module, fid, LocalId(i as u32)).len();
            if size > 0 {
                total += size;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::node::ObjSite;
    use crate::solver::SolveOptions;
    use kaleidoscope_ir::{FunctionBuilder, Module, Operand};

    /// Two unrelated pointers end up unified by Steensgaard but separate
    /// under Andersen's — the textbook precision gap.
    #[test]
    fn steensgaard_less_precise_than_andersen() {
        let mut m = Module::new("gap");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o1 = b.alloca("o1", Type::Int);
        let o2 = b.alloca("o2", Type::Int);
        let p = b.copy("p", o1);
        let q = b.copy("q", o2);
        // r = p; r = q;  — unification merges o1 and o2's classes.
        let r = b.copy("r", p);
        let r2 = b.copy_typed("r2", q, Type::ptr(Type::Int));
        let _ = (r, r2);
        // Write both into one slot so Steensgaard's cjoin really merges.
        let slot = b.alloca("slot", Type::ptr(Type::Int));
        b.store(slot, p);
        b.store(slot, q);
        b.ret(None);
        let main = b.finish();

        let steens = steensgaard(&m);
        let andersen = Analysis::run(&m, &SolveOptions::baseline());
        // `p` under Andersen's: just o1.
        let ap = andersen.pts_of_local(main, LocalId(2));
        assert_eq!(ap.len(), 1);
        // `p` under Steensgaard: o1 and o2 are in the same class.
        let sp = steens.pts_of_local(&m, main, LocalId(2));
        assert!(sp.len() >= 2, "unification merged the objects: {sp:?}");
    }

    /// Soundness cross-check: every object Andersen's reports for a local
    /// is in the Steensgaard class for that local.
    #[test]
    fn andersen_subset_of_steensgaard() {
        let mut m = Module::new("subset");
        let h = {
            let mut b = FunctionBuilder::new(&mut m, "h", vec![("x", Type::Int)], Type::Void);
            b.output(Operand::Local(b.param(0)));
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let slot = b.alloca("slot", Type::ptr(Type::Int));
        b.store(slot, o);
        let v = b.load("v", slot);
        let fp = b.copy("fp", Operand::Func(h));
        b.call_ind("r", fp, vec![v.into()], Type::Void);
        b.ret(None);
        let main = b.finish();

        let steens = steensgaard(&m);
        let andersen = Analysis::run(&m, &SolveOptions::baseline());
        for l in 0..m.func(main).locals.len() as u32 {
            let a = andersen.pts_of_local(main, LocalId(l));
            if a.is_empty() {
                continue;
            }
            let s = steens.pts_of_local(&m, main, LocalId(l));
            let asites = andersen.sites_of(&a);
            let ssites: Vec<ObjSite> = s
                .iter()
                .filter_map(|n| steens.nodes().node_obj(n))
                .map(|o| steens.nodes().obj_info(o).site)
                .collect();
            for site in asites {
                assert!(
                    ssites.contains(&site),
                    "local {l}: Andersen object {site} missing from Steensgaard class"
                );
            }
        }
    }

    #[test]
    fn steens_analysis_is_deterministic_and_conservative() {
        let mut m = Module::new("canon");
        let h = {
            let mut b = FunctionBuilder::new(&mut m, "h", vec![("x", Type::Int)], Type::Void);
            b.output(Operand::Local(b.param(0)));
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let p = b.copy("p", o);
        let fp = b.copy("fp", Operand::Func(h));
        b.call_ind("r", fp, vec![p.into()], Type::Void);
        b.ret(None);
        let main = b.finish();

        let a = steens_analysis(&m);
        let b2 = steens_analysis(&m);
        // Same classes, same member order: identical canonical sets.
        for l in 0..m.func(main).locals.len() as u32 {
            let x = a.pts_of_local(main, LocalId(l));
            let y = b2.pts_of_local(main, LocalId(l));
            assert_eq!(x.iter().collect::<Vec<_>>(), y.iter().collect::<Vec<_>>());
        }
        // Indirect call conservatively resolves to the arity-compatible fn.
        let sites: Vec<_> = a.result.callgraph.indirect_sites().collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(a.callsite_targets(sites[0].0), &[h]);
        // The canonical facade agrees with the raw Steensgaard classes.
        let raw = steensgaard(&m);
        assert_eq!(
            a.pts_of_local(main, LocalId(1)).len(),
            raw.pts_of_local(&m, main, LocalId(1)).len()
        );
        assert!(a.result.stats.node_count > 0);
    }

    #[test]
    fn avg_size_nonzero() {
        let mut m = Module::new("avg");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let _p = b.copy("p", o);
        b.ret(None);
        b.finish();
        let res = steensgaard(&m);
        assert!(avg_pts_size(&m, &res) >= 1.0);
    }
}
