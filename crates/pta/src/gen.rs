//! Constraint generation (the "modeling phase" of paper §2.1).
//!
//! Produces the primitive constraints of Table 1 — Addr-Of, Copy, Load,
//! Store, and Field-Of, plus the two forms the solver treats specially
//! (arbitrary pointer arithmetic and array element addresses) — and the
//! indirect-call records resolved on the fly.
//!
//! [`generate`] is the one mapping from instructions to constraints: it
//! walks each function's IR once, in function order, and emits constraints
//! over the node ids of one fresh [`NodeTable`]. When a [`CtxPlan`] is
//! supplied (the optimistic context-sensitivity policy), the critical
//! store/return statements it names are skipped in their function and
//! replicated per direct callsite through fresh dummy nodes.
//!
//! Most solves run without a context plan, so a module's plan-free
//! program is generated once and kept in [`ModuleBlocks`];
//! [`stored_or_generated`] hands a solve that stored program (cloned by
//! the caller that consumes it) unless a non-empty plan forces a fresh
//! generation.

use std::borrow::Cow;

use kaleidoscope_ir::{FuncId, Inst, InstLoc, LocalId, Module, Operand, Terminator, Type};

use crate::ctxplan::{ChainStep, CriticalFlow, CtxPlan, FuncCtxPlan};
use crate::node::{NodeId, NodeTable, ObjId, ObjSite};

/// Why a primitive constraint exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Added during initialization (address constants).
    Init,
    /// Corresponds to the instruction (or terminator) at this location.
    Inst(InstLoc),
    /// Parameter passing at a direct callsite.
    CallArg {
        /// The callsite.
        site: InstLoc,
        /// Parameter index.
        idx: usize,
    },
    /// Return-value flow at a direct callsite.
    CallRet {
        /// The callsite.
        site: InstLoc,
    },
    /// Added by the context-sensitivity bypass for this callsite.
    CtxBypass {
        /// The callsite whose actuals the bypass wires.
        site: InstLoc,
    },
}

/// Why a *derived* copy edge was added during solving — the origin
/// information the paper's introspection backtracks through (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyProvenance {
    /// A primitive Copy constraint.
    Primitive(Origin),
    /// Resolving a Load `p = *q` against object `through ∈ pts(q)`.
    LoadDeref {
        /// Origin of the Load constraint.
        load: Origin,
        /// The object the load was resolved against.
        through: NodeId,
    },
    /// Resolving a Store `*p = q` against object `through ∈ pts(p)`.
    StoreDeref {
        /// Origin of the Store constraint.
        store: Origin,
        /// The object the store was resolved against.
        through: NodeId,
    },
    /// Argument wiring of an indirect call resolved to `callee`.
    ICallArg {
        /// The callsite.
        site: InstLoc,
        /// The resolved callee.
        callee: FuncId,
        /// Parameter index.
        idx: usize,
    },
    /// Return wiring of an indirect call resolved to `callee`.
    ICallRet {
        /// The callsite.
        site: InstLoc,
        /// The resolved callee.
        callee: FuncId,
    },
    /// Node merging during cycle collapse.
    CycleMerge,
}

/// A primitive constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `obj ∈ pts(dst)`.
    AddrOf {
        /// Pointer gaining the object.
        dst: NodeId,
        /// The object.
        obj: ObjId,
    },
    /// `pts(dst) ⊇ pts(src)`.
    Copy {
        /// Destination.
        dst: NodeId,
        /// Source.
        src: NodeId,
    },
    /// `dst = *addr`.
    Load {
        /// Destination.
        dst: NodeId,
        /// Dereferenced pointer.
        addr: NodeId,
    },
    /// `*addr = src`.
    Store {
        /// Dereferenced pointer.
        addr: NodeId,
        /// Stored value.
        src: NodeId,
    },
    /// `dst = &base->idx` (Field-Of).
    Field {
        /// Destination.
        dst: NodeId,
        /// Base pointer.
        base: NodeId,
        /// Field index.
        idx: usize,
    },
    /// `dst = base ⊕ unknown` — arbitrary pointer arithmetic. `loc` is kept
    /// so the PA likely invariant can attach its runtime monitor.
    PtrArith {
        /// Destination.
        dst: NodeId,
        /// Base pointer.
        base: NodeId,
        /// The arithmetic instruction.
        loc: InstLoc,
    },
    /// `dst = &base[i]` — array element address (array smashing).
    Elem {
        /// Destination.
        dst: NodeId,
        /// Base pointer.
        base: NodeId,
    },
}

/// A primitive constraint with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The constraint.
    pub kind: ConstraintKind,
    /// Why it exists.
    pub origin: Origin,
}

/// An indirect call awaiting on-the-fly resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectCall {
    /// The callsite.
    pub site: InstLoc,
    /// Node holding the function pointer.
    pub fnptr: NodeId,
    /// Actual-argument nodes (`None` for constants).
    pub args: Vec<Option<NodeId>>,
    /// Destination node for the return value, if any.
    pub dst: Option<NodeId>,
}

/// The generated constraint program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The node arena (owned; the solver continues extending it).
    pub nodes: NodeTable,
    /// Primitive constraints.
    pub constraints: Vec<Constraint>,
    /// Indirect calls.
    pub icalls: Vec<IndirectCall>,
}

/// A module's plan-free constraint program, generated once per module
/// revision and shared by every solve that runs without a context plan.
///
/// Named for the per-function constraint blocks it used to hold; the name
/// and [`ModuleBlocks::build_parallel`] stay because kdbench builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleBlocks {
    /// `generate(module, None)`.
    pub program: Program,
}

impl ModuleBlocks {
    /// Generate `module`'s plan-free program.
    pub fn build(module: &Module) -> ModuleBlocks {
        ModuleBlocks {
            program: generate(module, None),
        }
    }

    /// [`ModuleBlocks::build`]. `_threads` is ignored: it sized a
    /// work-claiming pool that no caller ran with more than one thread;
    /// the parameter stays so existing callers compile.
    pub fn build_parallel(module: &Module, _threads: usize) -> ModuleBlocks {
        ModuleBlocks::build(module)
    }
}

/// The program of `module` under `ctx_plan`: `stored`'s plan-free program,
/// borrowed, when the plan is absent or empty, else a fresh [`generate`].
///
/// `stored` must have been built from `module`. An empty plan generates
/// exactly the plan-free program, so the answer is the same program either
/// way; a solve takes ownership with [`Cow::into_owned`], which clones a
/// borrowed program.
pub fn stored_or_generated<'a>(
    module: &Module,
    ctx_plan: Option<&CtxPlan>,
    stored: Option<&'a ModuleBlocks>,
) -> Cow<'a, Program> {
    match stored {
        Some(s) if ctx_plan.is_none_or(CtxPlan::is_empty) => Cow::Borrowed(&s.program),
        _ => Cow::Owned(generate(module, ctx_plan)),
    }
}

/// Generate the constraint program for a module.
///
/// `ctx_plan` carries the optimistic context-sensitivity bypass; pass
/// `None` for the baseline analysis. Node ids follow the order operands
/// are resolved in: a source before its destination, both store operands
/// before either is checked, call actuals before callee parameters.
pub fn generate(module: &Module, ctx_plan: Option<&CtxPlan>) -> Program {
    let mut g = Gen {
        module,
        plan: ctx_plan,
        nodes: NodeTable::new(),
        constraints: Vec::new(),
        icalls: Vec::new(),
    };
    // Pre-create objects for globals and functions so their ids are stable
    // regardless of reference order.
    for (gid, decl) in module.iter_globals() {
        g.nodes.object(ObjSite::Global(gid), Some(decl.ty.clone()));
    }
    for (fid, f) in module.iter_funcs() {
        g.nodes
            .object(ObjSite::Func(fid), Some(Type::Func(f.sig())));
    }
    for (fid, _) in module.iter_funcs() {
        g.func(fid);
    }
    Program {
        nodes: g.nodes,
        constraints: g.constraints,
        icalls: g.icalls,
    }
}

struct Gen<'m> {
    module: &'m Module,
    plan: Option<&'m CtxPlan>,
    nodes: NodeTable,
    constraints: Vec<Constraint>,
    icalls: Vec<IndirectCall>,
}

impl Gen<'_> {
    fn push(&mut self, kind: ConstraintKind, origin: Origin) {
        self.constraints.push(Constraint { kind, origin });
    }

    fn addr_const(&mut self, obj: ObjId) -> NodeId {
        let existed = self.nodes.len();
        let n = self.nodes.addr_node(obj);
        if self.nodes.len() != existed {
            // Newly created: seed it with the object.
            self.push(ConstraintKind::AddrOf { dst: n, obj }, Origin::Init);
        }
        n
    }

    /// The node of an operand of function `fid`, created if needed; `None`
    /// for constants.
    fn operand(&mut self, fid: FuncId, op: Operand) -> Option<NodeId> {
        let site = match op {
            Operand::Local(l) => return Some(self.nodes.local_node(fid, l)),
            Operand::Global(g) => ObjSite::Global(g),
            Operand::Func(f) => ObjSite::Func(f),
            Operand::ConstInt(_) | Operand::Null => return None,
        };
        let obj = self
            .nodes
            .object_at(site)
            .expect("globals and functions are pre-created");
        Some(self.addr_const(obj))
    }

    fn func(&mut self, fid: FuncId) {
        let module = self.module;
        let own = self.plan.and_then(|p| p.for_func(fid));
        // A bypassed store or return emits nothing here, not even its
        // operands' nodes: every direct callsite replicates it instead.
        let bypass_ret = own.is_some_and(FuncCtxPlan::bypasses_ret);
        for (bid, block) in module.func(fid).iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let loc = InstLoc::new(fid, bid, i as u32);
                if matches!(inst, Inst::Store { .. })
                    && own.is_some_and(|p| p.bypassed_stores().any(|l| l == loc))
                {
                    continue;
                }
                self.inst(fid, loc, inst);
            }
            // Return-value flow: the terminator's location is one past the
            // last instruction of its block.
            match &block.term {
                Terminator::Ret(Some(op)) if !bypass_ret => {
                    if let Some(src) = self.operand(fid, *op) {
                        let dst = self.nodes.ret_node(fid);
                        let loc = InstLoc::new(fid, bid, block.insts.len() as u32);
                        self.push(ConstraintKind::Copy { dst, src }, Origin::Inst(loc));
                    }
                }
                _ => {}
            }
        }
    }

    /// A one-source instruction: resolve the source, then the destination
    /// local, then emit.
    fn flow(
        &mut self,
        fid: FuncId,
        loc: InstLoc,
        src: Operand,
        dst: LocalId,
        mk: impl FnOnce(NodeId, NodeId) -> ConstraintKind,
    ) {
        if let Some(src) = self.operand(fid, src) {
            let dst = self.nodes.local_node(fid, dst);
            self.push(mk(dst, src), Origin::Inst(loc));
        }
    }

    fn inst(&mut self, fid: FuncId, loc: InstLoc, inst: &Inst) {
        match inst {
            Inst::Alloca { dst, ty } => {
                let obj = self.nodes.object(ObjSite::Stack(loc), Some(ty.clone()));
                let dst = self.nodes.local_node(fid, *dst);
                self.push(ConstraintKind::AddrOf { dst, obj }, Origin::Inst(loc));
            }
            Inst::HeapAlloc { dst, ty } => {
                let obj = self.nodes.object(ObjSite::Heap(loc), ty.clone());
                let dst = self.nodes.local_node(fid, *dst);
                self.push(ConstraintKind::AddrOf { dst, obj }, Origin::Inst(loc));
            }
            Inst::Copy { dst, src } => {
                self.flow(fid, loc, *src, *dst, |dst, src| ConstraintKind::Copy {
                    dst,
                    src,
                });
            }
            Inst::Load { dst, src } => {
                self.flow(fid, loc, *src, *dst, |dst, addr| ConstraintKind::Load {
                    dst,
                    addr,
                });
            }
            Inst::Store { dst, src } => {
                // Both operands are resolved before either is checked.
                let addr = self.operand(fid, *dst);
                let src = self.operand(fid, *src);
                if let (Some(addr), Some(src)) = (addr, src) {
                    self.push(ConstraintKind::Store { addr, src }, Origin::Inst(loc));
                }
            }
            Inst::FieldAddr { dst, base, field } => {
                let idx = *field;
                self.flow(fid, loc, *base, *dst, |dst, base| ConstraintKind::Field {
                    dst,
                    base,
                    idx,
                });
            }
            Inst::PtrArith { dst, base, .. } => {
                self.flow(fid, loc, *base, *dst, |dst, base| {
                    ConstraintKind::PtrArith { dst, base, loc }
                });
            }
            Inst::ElemAddr { dst, base, .. } => {
                self.flow(fid, loc, *base, *dst, |dst, base| ConstraintKind::Elem {
                    dst,
                    base,
                });
            }
            Inst::BinOp { .. } | Inst::Input { .. } | Inst::Output { .. } => {}
            Inst::Call { dst, callee, args } => self.direct_call(fid, loc, *dst, *callee, args),
            Inst::CallInd { dst, callee, args } => {
                if let Some(fnptr) = self.operand(fid, *callee) {
                    let args = args.iter().map(|a| self.operand(fid, *a)).collect();
                    let dst = dst.map(|d| self.nodes.local_node(fid, d));
                    self.icalls.push(IndirectCall {
                        site: loc,
                        fnptr,
                        args,
                        dst,
                    });
                }
            }
        }
    }

    fn direct_call(
        &mut self,
        fid: FuncId,
        site: InstLoc,
        dst: Option<LocalId>,
        callee: FuncId,
        args: &[Operand],
    ) {
        let callee_func = self.module.func(callee);
        let n = args.len().min(callee_func.param_count);
        for (idx, arg) in args.iter().take(n).enumerate() {
            if let Some(src) = self.operand(fid, *arg) {
                let dst = self.nodes.local_node(callee, LocalId(idx as u32));
                self.push(
                    ConstraintKind::Copy { dst, src },
                    Origin::CallArg { site, idx },
                );
            }
        }
        let planned = self.plan.and_then(|p| p.for_func(callee));
        if let Some(dst) = dst {
            // The destination local is resolved even when nothing flows
            // into it (a void callee, constant actuals).
            let dst = self.nodes.local_node(fid, dst);
            match planned.filter(|p| p.bypasses_ret()) {
                // The callee's return edge is bypassed: copy each returned
                // actual straight into the destination.
                Some(p) => {
                    for flow in &p.flows {
                        let CriticalFlow::Ret { param } = flow else {
                            continue;
                        };
                        if let Some(src) = args.get(*param).and_then(|a| self.operand(fid, *a)) {
                            self.push(
                                ConstraintKind::Copy { dst, src },
                                Origin::CtxBypass { site },
                            );
                        }
                    }
                }
                None if callee_func.ret_ty != Type::Void => {
                    let src = self.nodes.ret_node(callee);
                    self.push(ConstraintKind::Copy { dst, src }, Origin::CallRet { site });
                }
                None => {}
            }
        }
        if let Some(p) = planned {
            self.store_replicas(fid, site, args, p);
        }
    }

    /// Replicate a planned callee's critical stores at one callsite: rebuild
    /// each address chain from the *actual* base argument through fresh
    /// per-callsite dummies (numbered across the callsite's chains), then
    /// store the actual source argument through it.
    fn store_replicas(&mut self, fid: FuncId, site: InstLoc, args: &[Operand], plan: &FuncCtxPlan) {
        let origin = Origin::CtxBypass { site };
        let mut seq = 0u32;
        for flow in &plan.flows {
            let CriticalFlow::Store {
                base_param,
                addr_chain,
                src_param,
                ..
            } = flow
            else {
                continue;
            };
            // Both actuals are resolved before either is checked.
            let base = args.get(*base_param).and_then(|a| self.operand(fid, *a));
            let src = args.get(*src_param).and_then(|a| self.operand(fid, *a));
            let (Some(mut cur), Some(src)) = (base, src) else {
                continue;
            };
            for step in addr_chain {
                let dst = self.nodes.ctx_dummy(site, seq, None);
                seq += 1;
                let kind = match *step {
                    ChainStep::Field(idx) => ConstraintKind::Field {
                        dst,
                        base: cur,
                        idx,
                    },
                    ChainStep::Load => ConstraintKind::Load { dst, addr: cur },
                    ChainStep::Elem => ConstraintKind::Elem { dst, base: cur },
                };
                self.push(kind, origin);
                cur = dst;
            }
            self.push(ConstraintKind::Store { addr: cur, src }, origin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{FunctionBuilder, GlobalId};

    fn count_kind(p: &Program, pred: impl Fn(&ConstraintKind) -> bool) -> usize {
        p.constraints.iter().filter(|c| pred(&c.kind)).count()
    }

    #[test]
    fn fig2_constraints() {
        // p = &o; q = &p; r = *q — Figure 2 of the paper.
        let mut m = Module::new("fig2");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int); // o plays double duty: alloca gives &o
        let q = b.alloca("q", Type::ptr(Type::Int));
        b.store(q, o);
        let _r = b.load("r", q);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::AddrOf { .. })),
            2
        );
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::Store { .. })),
            1
        );
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::Load { .. })),
            1
        );
        assert!(p.icalls.is_empty());
    }

    #[test]
    fn direct_call_wires_params_and_ret() {
        let mut m = Module::new("call");
        let callee = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "callee",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = b.param(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let x = b.alloca("x", Type::Int);
        b.call("r", callee, vec![x.into()]);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        let arg_edges = p
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CallArg { .. }))
            .count();
        let ret_edges = p
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CallRet { .. }))
            .count();
        assert_eq!(arg_edges, 1);
        assert_eq!(ret_edges, 1);
    }

    #[test]
    fn indirect_call_recorded() {
        let mut m = Module::new("icall");
        let f = {
            let b = FunctionBuilder::new(&mut m, "handler", vec![], Type::Void);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let fp = b.copy("fp", Operand::Func(f));
        b.call_ind("r", fp, vec![], Type::Void);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        assert_eq!(p.icalls.len(), 1);
        assert!(p.icalls[0].dst.is_none());
    }

    /// `ev_queue_insert(b, cb) { *(&b->0) = cb }` called from two sites of
    /// `main`, planned with its store bypassed, plus an `unrelated`
    /// function the plan does not affect.
    fn store_flow_module() -> (Module, CtxPlan) {
        let mut m = Module::new("ctx");
        let s = m
            .types
            .declare("ev_base", vec![Type::ptr(Type::Int)])
            .unwrap();
        let insert = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "ev_queue_insert",
                vec![
                    ("b", Type::ptr(Type::Struct(s))),
                    ("cb", Type::ptr(Type::Int)),
                ],
                Type::Void,
            );
            let base = b.param(0);
            let cb = b.param(1);
            let slot = b.field_addr("slot", base, 0);
            b.store(slot, cb);
            b.ret(None);
            b.finish()
        };
        {
            let mut b = FunctionBuilder::new(&mut m, "unrelated", vec![], Type::Void);
            let a = b.alloca("a", Type::Int);
            b.copy("p", a);
            b.ret(None);
            b.finish();
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let g1 = b.alloca("g1", Type::Struct(s));
        let g2 = b.alloca("g2", Type::Struct(s));
        let c1 = b.alloca("c1", Type::Int);
        let c2 = b.alloca("c2", Type::Int);
        b.call("r1", insert, vec![g1.into(), c1.into()]);
        b.call("r2", insert, vec![g2.into(), c2.into()]);
        b.ret(None);
        b.finish();

        // The store to bypass is instruction 1 of block 0 of `insert`
        // (0 = field_addr, 1 = store).
        let store = CriticalFlow::Store {
            loc: InstLoc::new(insert, kaleidoscope_ir::BlockId(0), 1),
            base_param: 0,
            addr_chain: vec![ChainStep::Field(0)],
            src_param: 1,
        };
        let mut plan = CtxPlan::new();
        let flows = vec![store];
        plan.funcs.insert(insert, FuncCtxPlan { flows });
        (m, plan)
    }

    #[test]
    fn ctx_plan_skips_store_and_replicates_per_callsite() {
        let (m, plan) = store_flow_module();
        let without = generate(&m, None);
        let with = generate(&m, Some(&plan));
        let stores = |p: &Program| count_kind(p, |k| matches!(k, ConstraintKind::Store { .. }));
        // Baseline: 1 in-function store. Plan: 0 in-function + 2 replicas.
        assert_eq!(stores(&without), 1);
        assert_eq!(stores(&with), 2);
        let bypass_edges = with
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CtxBypass { .. }))
            .count();
        // Per callsite: 1 Field dummy + 1 Store = 2, times 2 callsites.
        assert_eq!(bypass_edges, 4);
    }

    #[test]
    fn ctx_plan_bypasses_returns_at_each_callsite() {
        // `id` is planned with a Ret flow. `sink` is a void callee, called
        // with a destination, whose Ret flow names an out-of-range
        // parameter. `other` is not planned and calls nothing planned.
        let m = kaleidoscope_ir::parse_module(
            "module \"ret\"\nglobal g: int\n\
             func id(%0 p: int*) -> int* {\nbb0:\n  ret %0\n}\n\
             func sink(%0 p: int*) -> void {\nbb0:\n  ret\n}\n\
             func other() -> void {\n  local %0 a: int*\nbb0:\n  %0 = alloca int\n  ret\n}\n\
             func main() -> void {\n  local %0 x: int*\n  local %1 r1: int*\n  \
             local %2 r2: int*\n  local %3 r3: int*\nbb0:\n  %0 = alloca int\n  \
             %1 = call @id(%0)\n  %2 = call @id($g)\n  %3 = call @sink(%0)\n  ret\n}\n",
        )
        .unwrap();
        let f = |name| m.func_by_name(name).unwrap();
        let mut plan = CtxPlan::new();
        for (callee, param) in [("id", 0), ("sink", 7)] {
            let flows = vec![CriticalFlow::Ret { param }];
            plan.funcs.insert(f(callee), FuncCtxPlan { flows });
        }

        let p = generate(&m, Some(&plan));
        // `id`'s own `ret %0` is bypassed and no callsite reads a return
        // slot: each `id` call copies its actual into its result, and the
        // void call's resolved destination receives nothing.
        assert!(p.nodes.ret_node_opt(f("id")).is_none());
        let local = |l| p.nodes.local_node_opt(f("main"), LocalId(l)).unwrap();
        let site = |i| InstLoc::new(f("main"), kaleidoscope_ir::BlockId(0), i);
        let bypass = |i, dst, src| Constraint {
            kind: ConstraintKind::Copy { dst, src },
            origin: Origin::CtxBypass { site: site(i) },
        };
        let g = p.nodes.object_at(ObjSite::Global(GlobalId(0))).unwrap();
        let g_addr = p.nodes.addr_node_opt(g).unwrap();
        let bypasses: Vec<Constraint> = p
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CtxBypass { .. }))
            .cloned()
            .collect();
        assert_eq!(
            bypasses,
            [bypass(1, local(1), local(0)), bypass(2, local(2), g_addr)]
        );
        assert!(!p
            .constraints
            .iter()
            .any(|c| matches!(c.origin, Origin::CallRet { .. })
                || matches!(c.kind, ConstraintKind::Copy { dst, .. } if dst == local(3))));
        // Without the plan both `id` results flow through its return slot.
        let base = generate(&m, None);
        let call_rets = base
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CallRet { .. }));
        assert_eq!(call_rets.count(), 2);
    }

    #[test]
    fn globals_and_functions_get_address_constants() {
        let mut m = Module::new("g");
        m.add_global("g", Type::Int).unwrap();
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let g = m_op(&b);
        let _v = b.load("v", g);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        // One AddrOf for the address constant of `g`.
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::AddrOf { .. })),
            1
        );
    }

    fn m_op(b: &FunctionBuilder<'_>) -> Operand {
        Operand::Global(b.module().global_by_name("g").unwrap())
    }

    /// A callee `callee(p) -> p` and a `main` with one direct and one
    /// indirect call of it.
    fn call_module() -> Module {
        let mut m = Module::new("calls");
        m.add_global("g", Type::ptr(Type::Int)).unwrap();
        let callee = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "callee",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = b.param(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let x = b.alloca("x", Type::Int);
        let h = b.heap_alloc("h", Type::Int);
        let q = b.alloca("q", Type::ptr(Type::Int));
        b.store(q, x);
        let l = b.load("l", q);
        let c = b.copy("c", l);
        b.call("r", callee, vec![c.into()]);
        let fp = b.copy("fp", Operand::Func(callee));
        b.call_ind("ri", fp, vec![h.into()], Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn planned_callsite_generates_the_bypass() {
        // `callee` planned with a three-step Store chain from its parameter
        // into itself, and its return bypassed.
        let m = call_module();
        let callee = m.func_by_name("callee").unwrap();
        let store = CriticalFlow::Store {
            loc: InstLoc::new(callee, kaleidoscope_ir::BlockId(0), 0),
            base_param: 0,
            addr_chain: vec![ChainStep::Field(0), ChainStep::Load, ChainStep::Elem],
            src_param: 0,
        };
        let mut plan = CtxPlan::new();
        let flows = vec![store, CriticalFlow::Ret { param: 0 }];
        plan.funcs.insert(callee, FuncCtxPlan { flows });

        let p = generate(&m, Some(&plan));
        let dummies = p
            .nodes
            .iter_ids()
            .filter(|&n| matches!(p.nodes.kind(n), crate::node::NodeKind::CtxDummy { .. }))
            .count();
        assert_eq!(dummies, 3, "one dummy per chain step");
        let bypass = p
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CtxBypass { .. }))
            .count();
        assert_eq!(bypass, 5, "three chain steps, the store, the return copy");
        assert!(p.nodes.ret_node_opt(callee).is_none(), "no return edge");
    }

    #[test]
    fn stored_program_answers_only_plan_free_solves() {
        let (m, plan) = store_flow_module();
        let stored = ModuleBlocks::build(&m);
        assert_eq!(stored.program, generate(&m, None));
        let empty = CtxPlan::new();
        for p in [None, Some(&empty)] {
            let program = stored_or_generated(&m, p, Some(&stored));
            assert!(matches!(program, Cow::Borrowed(b) if std::ptr::eq(b, &stored.program)));
        }
        let planned = stored_or_generated(&m, Some(&plan), Some(&stored));
        assert!(matches!(planned, Cow::Owned(_)));
        assert_eq!(*planned, generate(&m, Some(&plan)));
        assert_ne!(*planned, stored.program);
        assert!(matches!(stored_or_generated(&m, None, None), Cow::Owned(_)));
    }
}
