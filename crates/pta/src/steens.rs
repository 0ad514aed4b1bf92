//! Steensgaard's unification-based pointer analysis.
//!
//! Runs in near-linear time but is markedly less precise than Andersen's —
//! the paper cites it (§9, "Scalability Improvements") as the fast/imprecise
//! end of the design space. It is the last rung of the executor's
//! degradation ladder, an extra comparison point in the benchmark suite,
//! and in tests a soundness upper bound (every Andersen's set is a subset
//! of the Steensgaard set for the same program). [`steens_analysis`] is
//! its one entry point.

use std::collections::HashMap;
use std::time::Instant;

use kaleidoscope_ir::{Inst, LocalId, Module};

use crate::analysis::Analysis;
use crate::callgraph::CallGraph;
use crate::gen::{generate, ConstraintKind};
use crate::node::NodeId;
use crate::pts::PtsSet;
use crate::solver::{SolveResult, SolveStats};

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

/// Run Steensgaard's analysis and package the result as a canonical
/// [`Analysis`], so the unification tier can stand in wherever an Andersen
/// analysis is expected — it is the last rung of the executor's
/// degradation ladder.
///
/// Each indirect call is unified with every arity-compatible address-taken
/// function: actuals with formals, and the destination with the callee's
/// return. The packaging is deterministic: each node's points-to set is
/// the sorted object-member list of its pointee class, and the call graph
/// carries the module's direct edges plus that indirect wiring. Two calls
/// on the same module produce identical artifacts.
pub fn steens_analysis(module: &Module) -> Analysis {
    let start = Instant::now();
    let program = generate(module, None);
    let nodes = program.nodes;
    let n = nodes.len();
    let mut fresh = n as u32;
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

    let mut callgraph = CallGraph::new();
    for (loc, inst) in module.iter_locs() {
        if let Inst::Call { callee, .. } = inst {
            callgraph.add_direct(loc, *callee);
        }
    }
    let taken = module.address_taken_funcs();
    for ic in &program.icalls {
        callgraph.add_indirect_site(ic.site);
        for &fid in &taken {
            if module.func(fid).param_count != ic.args.len() {
                continue;
            }
            callgraph.add_indirect(ic.site, fid);
            // A formal or a return the generated program never names has
            // no node: nothing reads it, so nothing needs to flow into it.
            for (idx, arg) in ic.args.iter().enumerate() {
                if let (Some(a), Some(p)) = (arg, nodes.local_node_opt(fid, LocalId(idx as u32))) {
                    s.join_pointees(a.0, p.0, &mut fresh);
                }
            }
            if let (Some(dst), Some(ret)) = (ic.dst, nodes.ret_node_opt(fid)) {
                s.join_pointees(dst.0, ret.0, &mut fresh);
            }
        }
    }

    // Object members of each class, then each node's pointee class.
    let mut members: HashMap<u32, Vec<NodeId>> = HashMap::new();
    let mut obj_count = 0;
    for id in nodes.iter_ids() {
        if nodes.is_object_node(id) {
            obj_count += 1;
            members.entry(s.find(id.0)).or_default().push(id);
        }
    }
    let mut pts = vec![PtsSet::new(); n];
    for id in nodes.iter_ids() {
        let class = s.find(id.0);
        let Some(&ptee) = s.pointee.get(&class) else {
            continue;
        };
        if let Some(m) = members.get(&s.find(ptee)) {
            pts[id.index()] = m.iter().copied().collect();
        }
    }

    let stats = SolveStats {
        node_count: n,
        obj_count,
        constraint_count: program.constraints.len(),
        icall_count: program.icalls.len(),
        duration: start.elapsed(),
        ..SolveStats::default()
    };
    Analysis {
        result: SolveResult {
            merged: nodes.any_merged(),
            nodes,
            pts,
            callgraph,
            pa_filters: Vec::new(),
            pwcs: Vec::new(),
            collapsed_objects: Vec::new(),
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveOptions;
    use crate::stats::PtsStats;
    use kaleidoscope_ir::{FunctionBuilder, Operand, Type};

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

        let steens = steens_analysis(&m);
        let andersen = Analysis::run(&m, &SolveOptions::baseline());
        // `p` under Andersen's: just o1.
        let ap = andersen.pts_of_local(main, LocalId(2));
        assert_eq!(ap.len(), 1);
        // `p` under Steensgaard: o1 and o2 are in the same class.
        let sp = steens.pts_of_local(main, LocalId(2));
        assert!(sp.len() >= 2, "unification merged the objects: {sp:?}");
    }

    /// Soundness cross-check of `module`: every allocation site Andersen's
    /// baseline finds for a pointer local is in its Steensgaard set, and
    /// every indirect callsite's Andersen targets are among its Steensgaard
    /// targets. Returns the pointer locals and callsites that fail.
    fn steens_misses(m: &Module) -> Vec<String> {
        let steens = steens_analysis(m);
        let andersen = Analysis::run(m, &SolveOptions::baseline());
        let mut misses = Vec::new();
        for (fid, f) in m.iter_funcs() {
            for (l, decl) in f.locals.iter().enumerate() {
                let l = LocalId(l as u32);
                if !decl.ty.is_ptr() {
                    continue;
                }
                let ssites = steens.sites_of(&steens.pts_of_local(fid, l));
                let asites = andersen.sites_of(&andersen.pts_of_local(fid, l));
                if let Some(site) = asites.iter().find(|s| !ssites.contains(s)) {
                    misses.push(format!("{}: local {l}: object {site}", f.name));
                }
            }
        }
        for (site, targets) in andersen.result.callgraph.indirect_sites() {
            let st = steens.callsite_targets(site);
            if let Some(t) = targets.iter().find(|t| !st.contains(t)) {
                misses.push(format!("icall {site}: target {}", m.func(*t).name));
            }
        }
        misses
    }

    /// Every Andersen fact is a Steensgaard fact: on an indirect call's
    /// argument, on its destination (which holds what the callees
    /// return), and on the nine models.
    #[test]
    fn andersen_subset_of_steensgaard() {
        let mut arg = Module::new("icall-arg");
        let h = {
            let mut b = FunctionBuilder::new(&mut arg, "h", vec![("x", Type::Int)], Type::Void);
            b.output(Operand::Local(b.param(0)));
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut arg, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let slot = b.alloca("slot", Type::ptr(Type::Int));
        b.store(slot, o);
        let v = b.load("v", slot);
        let fp = b.copy("fp", Operand::Func(h));
        b.call_ind("r", fp, vec![v.into()], Type::Void);
        b.ret(None);
        b.finish();

        let mut ret = Module::new("icall-ret");
        let mk = {
            let mut b = FunctionBuilder::new(&mut ret, "mk", vec![], Type::ptr(Type::Int));
            let o = b.alloca("o", Type::Int);
            b.ret(Some(o.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut ret, "main", vec![], Type::Void);
        let fp = b.copy("fp", Operand::Func(mk));
        b.call_ind("r", fp, vec![], Type::ptr(Type::Int));
        b.ret(None);
        b.finish();

        let models = kaleidoscope_apps::all_models();
        let named = [("icall-arg", &arg), ("icall-ret", &ret)]
            .into_iter()
            .chain(models.iter().map(|m| (m.name, &m.module)));
        for (name, m) in named {
            let misses = steens_misses(m);
            assert!(
                misses.is_empty(),
                "{name}: {} Andersen facts missing from Steensgaard, first {}",
                misses.len(),
                misses[0]
            );
        }
    }

    /// A function whose address escapes only through a `ret` is an
    /// indirect-call target of the unification tier too.
    #[test]
    fn returned_function_is_an_indirect_target() {
        let mut m = Module::new("ret-handler");
        let handler = {
            let mut b = FunctionBuilder::new(&mut m, "handler", vec![], Type::Void);
            b.ret(None);
            b.finish()
        };
        let get = {
            let fn_ty = Type::fn_ptr(vec![], Type::Void);
            let mut b = FunctionBuilder::new(&mut m, "get", vec![], fn_ty);
            b.ret(Some(Operand::Func(handler)));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let fp = b.call("fp", get, vec![]).expect("non-void call");
        b.call_ind("r", fp, vec![], Type::Void);
        b.ret(None);
        b.finish();
        let andersen = Analysis::run(&m, &SolveOptions::baseline());
        let (site, targets) = andersen.result.callgraph.indirect_sites().next().unwrap();
        assert_eq!(targets, &[handler]);
        assert_eq!(steens_analysis(&m).callsite_targets(site), &[handler]);
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
        assert_eq!(a.pts_of_local(main, LocalId(1)).len(), 1);
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
        assert!(PtsStats::collect(&steens_analysis(&m), &m).avg >= 1.0);
    }
}
