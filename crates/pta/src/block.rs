//! Per-function constraint blocks: the one place IR instructions are mapped
//! to the primitive constraints of Table 1 (paper §2.1).
//!
//! [`ModuleBlocks::build`] records each function as a [`FuncBlock`]: the
//! exact sequence of node-table resolutions and constraint emissions that
//! generating it performs. Every module-position-dependent value is
//! symbolic: locals of the function itself become [`SymRef::SelfLocal`],
//! its allocation sites and callsites become self-relative [`SelfLoc`]s,
//! and only the identities a body *textually* names (callee functions,
//! globals) remain absolute. [`generate_spliced`](crate::gen::generate_spliced)
//! replays blocks against one fresh node table to build the
//! [`Program`](crate::gen::Program). The op order is the order node ids are
//! assigned in, so replaying a module's blocks yields the program that
//! generating it directly would.
//!
//! Blocks live in memory only: the frontend loader records every function
//! of every module it loads, whether its lowered IR was parsed or decoded
//! from the `fe/` cache. Under a [`CtxPlan`] (the §4.4
//! context-sensitivity bypass) recording differs in exactly the functions
//! [`plan_affected`] names: a planned function skips its critical stores
//! and returns, and each direct caller replicates them per callsite
//! through fresh [`SymRef::CtxDummy`] nodes. The loader records
//! *plan-free* blocks; the generator re-records the affected functions
//! under the plan and replays the blocks of all others. With an empty
//! plan — the baseline every solve family starts from — the affected set
//! is empty and every block replays.

use std::collections::HashSet;

use kaleidoscope_ir::{
    BlockId, FuncId, GlobalId, Inst, InstLoc, LocalId, Module, Operand, Terminator, Type,
};

use crate::ctxplan::{ChainStep, CriticalFlow, CtxPlan, FuncCtxPlan};

/// A `(block, instruction)` coordinate within the block's own function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelfLoc {
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block (`insts.len()` addresses the
    /// terminator, the location of the return-value flow).
    pub inst: u32,
}

impl SelfLoc {
    /// Rebase onto a concrete function id.
    #[inline]
    pub fn rebase(self, fid: FuncId) -> InstLoc {
        InstLoc::new(fid, BlockId(self.block), self.inst)
    }
}

/// An allocation site owned by the block's function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymSite {
    /// `alloca` at the given self-relative location.
    Stack(SelfLoc),
    /// `halloc` at the given self-relative location.
    Heap(SelfLoc),
}

/// A node reference, self-relative for the block's own function.
///
/// Callee/global/function references are absolute: a body names them
/// textually, so a cached block is only valid while those names still
/// resolve to the same ids — the frontend cache checks exactly that via its
/// per-entry import list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymRef {
    /// A local of the block's own function.
    SelfLocal(LocalId),
    /// The return slot of the block's own function.
    SelfRet,
    /// A parameter local of a direct callee.
    CalleeLocal(FuncId, LocalId),
    /// The return slot of a direct callee.
    CalleeRet(FuncId),
    /// The address constant of a global.
    GlobalAddr(GlobalId),
    /// The address constant of a function.
    FuncAddr(FuncId),
    /// The `seq`-th context dummy of a callsite (the `cbs0`/`cbs1` nodes of
    /// Figure 8). Replay creates it on its first resolution.
    CtxDummy {
        /// The callsite.
        site: SelfLoc,
        /// Index of the dummy within the callsite.
        seq: u32,
    },
}

/// Self-relative [`Origin`](crate::gen::Origin). `Init` never appears:
/// address-constant seeding is implied by reference resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOrigin {
    /// The instruction (or terminator) at this self-relative location.
    Inst(SelfLoc),
    /// Parameter passing at a direct callsite.
    CallArg {
        /// The callsite.
        site: SelfLoc,
        /// Parameter index.
        idx: usize,
    },
    /// Return-value flow at a direct callsite.
    CallRet {
        /// The callsite.
        site: SelfLoc,
    },
    /// Added by the context-sensitivity bypass for this callsite.
    CtxBypass {
        /// The callsite.
        site: SelfLoc,
    },
}

/// Self-relative [`ConstraintKind`](crate::gen::ConstraintKind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymConstraintKind {
    /// `obj ∈ pts(dst)` for a self-owned allocation site.
    AddrOf {
        /// Pointer gaining the object.
        dst: SymRef,
        /// The self-owned allocation site.
        obj: SymSite,
    },
    /// `pts(dst) ⊇ pts(src)`.
    Copy {
        /// Destination.
        dst: SymRef,
        /// Source.
        src: SymRef,
    },
    /// `dst = *addr`.
    Load {
        /// Destination.
        dst: SymRef,
        /// Dereferenced pointer.
        addr: SymRef,
    },
    /// `*addr = src`.
    Store {
        /// Dereferenced pointer.
        addr: SymRef,
        /// Stored value.
        src: SymRef,
    },
    /// `dst = &base->idx`.
    Field {
        /// Destination.
        dst: SymRef,
        /// Base pointer.
        base: SymRef,
        /// Field index.
        idx: usize,
    },
    /// `dst = base ⊕ unknown`.
    PtrArith {
        /// Destination.
        dst: SymRef,
        /// Base pointer.
        base: SymRef,
        /// The arithmetic instruction, self-relative.
        loc: SelfLoc,
    },
    /// `dst = &base[i]`.
    Elem {
        /// Destination.
        dst: SymRef,
        /// Base pointer.
        base: SymRef,
    },
}

/// One step of a recorded generation trace. Replay applies ops in order
/// against the shared node table; their order is the node-creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockOp {
    /// Ensure the abstract object for a self-owned allocation site exists
    /// (`NodeTable::object`).
    Obj {
        /// The allocation site.
        site: SymSite,
        /// The allocated type, if known.
        ty: Option<Type>,
    },
    /// Resolve a reference for its node-creation side effect. For address
    /// constants this includes pushing the seeding `AddrOf` on first
    /// creation.
    Touch(SymRef),
    /// Push a constraint whose references were already touched.
    Push {
        /// The constraint.
        kind: SymConstraintKind,
        /// Why it exists.
        origin: SymOrigin,
    },
    /// Record an indirect call.
    ICall {
        /// The callsite.
        site: SelfLoc,
        /// Function-pointer reference.
        fnptr: SymRef,
        /// Actual-argument references (`None` for constants).
        args: Vec<Option<SymRef>>,
        /// Destination reference, if any.
        dst: Option<SymRef>,
    },
}

/// The recorded constraint-generation trace of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncBlock {
    /// The trace, in replay order.
    pub ops: Vec<BlockOp>,
}

/// Blocks for every function of a module, indexed like `Module::iter_funcs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleBlocks {
    /// One block per function, in function-id order.
    pub funcs: Vec<FuncBlock>,
}

impl ModuleBlocks {
    /// Record blocks for every function, sequentially.
    pub fn build(module: &Module) -> ModuleBlocks {
        ModuleBlocks {
            funcs: module
                .iter_funcs()
                .map(|(fid, _)| build_func_block(module, fid))
                .collect(),
        }
    }

    /// [`ModuleBlocks::build`]. `_threads` is ignored: it sized a
    /// work-claiming pool that no caller ran with more than one thread;
    /// the parameter stays so existing callers compile.
    pub fn build_parallel(module: &Module, _threads: usize) -> ModuleBlocks {
        ModuleBlocks::build(module)
    }
}

/// The functions whose generated constraints depend on `plan`: the planned
/// functions themselves (skipped stores / bypassed returns) plus every
/// function with a direct call to one (per-callsite replication). These must
/// be recorded under the plan; all other functions' plan-free blocks replay
/// unchanged.
pub fn plan_affected(module: &Module, plan: Option<&CtxPlan>) -> HashSet<FuncId> {
    let mut affected = HashSet::new();
    let Some(plan) = plan else {
        return affected;
    };
    if plan.funcs.is_empty() {
        return affected;
    }
    affected.extend(plan.funcs.keys().copied());
    for (fid, f) in module.iter_funcs() {
        if affected.contains(&fid) {
            continue;
        }
        'scan: for (_, block) in f.iter_blocks() {
            for inst in &block.insts {
                if let Inst::Call { callee, .. } = inst {
                    if plan.funcs.contains_key(callee) {
                        affected.insert(fid);
                        break 'scan;
                    }
                }
            }
        }
    }
    affected
}

fn sym_op(op: Operand) -> Option<SymRef> {
    match op {
        Operand::Local(l) => Some(SymRef::SelfLocal(l)),
        Operand::Global(g) => Some(SymRef::GlobalAddr(g)),
        Operand::Func(f) => Some(SymRef::FuncAddr(f)),
        Operand::ConstInt(_) | Operand::Null => None,
    }
}

/// Record the plan-free generation trace of one function, trimmed to its
/// length: the executor holds a module's blocks across all of its solves.
pub(crate) fn build_func_block(module: &Module, fid: FuncId) -> FuncBlock {
    let mut ops = Vec::new();
    record_func(module, fid, None, &mut ops);
    ops.shrink_to_fit();
    FuncBlock { ops }
}

/// Append the generation trace of function `fid` under `plan` to `ops`.
pub(crate) fn record_func(
    module: &Module,
    fid: FuncId,
    plan: Option<&CtxPlan>,
    ops: &mut Vec<BlockOp>,
) {
    let own = plan.and_then(|p| p.for_func(fid));
    // A bypassed store or return emits nothing here, not even its touches:
    // every direct callsite replicates it instead.
    let bypass_ret = own.is_some_and(FuncCtxPlan::bypasses_ret);
    for (bid, block) in module.func(fid).iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let loc = SelfLoc {
                block: bid.0,
                inst: i as u32,
            };
            if matches!(inst, Inst::Store { .. })
                && own.is_some_and(|p| p.bypassed_stores().any(|l| l == loc.rebase(fid)))
            {
                continue;
            }
            rec_inst(module, plan, ops, loc, inst);
        }
        if let Terminator::Ret(Some(op)) = &block.term {
            if let Some(src) = sym_op(*op).filter(|_| !bypass_ret) {
                let loc = SelfLoc {
                    block: bid.0,
                    inst: block.insts.len() as u32,
                };
                ops.push(BlockOp::Touch(src));
                ops.push(BlockOp::Touch(SymRef::SelfRet));
                ops.push(BlockOp::Push {
                    kind: SymConstraintKind::Copy {
                        dst: SymRef::SelfRet,
                        src,
                    },
                    origin: SymOrigin::Inst(loc),
                });
            }
        }
    }
}

/// Record one instruction: touch each reference in the order generation
/// resolves it, then push the constraint.
fn rec_inst(
    module: &Module,
    plan: Option<&CtxPlan>,
    ops: &mut Vec<BlockOp>,
    loc: SelfLoc,
    inst: &Inst,
) {
    let simple = |ops: &mut Vec<BlockOp>,
                  src: Option<SymRef>,
                  dst: LocalId,
                  mk: &dyn Fn(SymRef, SymRef) -> SymConstraintKind| {
        if let Some(src) = src {
            let d = SymRef::SelfLocal(dst);
            ops.push(BlockOp::Touch(src));
            ops.push(BlockOp::Touch(d));
            ops.push(BlockOp::Push {
                kind: mk(d, src),
                origin: SymOrigin::Inst(loc),
            });
        }
    };
    match inst {
        Inst::Alloca { dst, ty } => {
            let site = SymSite::Stack(loc);
            let d = SymRef::SelfLocal(*dst);
            ops.push(BlockOp::Obj {
                site,
                ty: Some(ty.clone()),
            });
            ops.push(BlockOp::Touch(d));
            ops.push(BlockOp::Push {
                kind: SymConstraintKind::AddrOf { dst: d, obj: site },
                origin: SymOrigin::Inst(loc),
            });
        }
        Inst::HeapAlloc { dst, ty } => {
            let site = SymSite::Heap(loc);
            let d = SymRef::SelfLocal(*dst);
            ops.push(BlockOp::Obj {
                site,
                ty: ty.clone(),
            });
            ops.push(BlockOp::Touch(d));
            ops.push(BlockOp::Push {
                kind: SymConstraintKind::AddrOf { dst: d, obj: site },
                origin: SymOrigin::Inst(loc),
            });
        }
        Inst::Copy { dst, src } => {
            simple(ops, sym_op(*src), *dst, &|d, s| SymConstraintKind::Copy {
                dst: d,
                src: s,
            });
        }
        Inst::Load { dst, src } => {
            simple(ops, sym_op(*src), *dst, &|d, s| SymConstraintKind::Load {
                dst: d,
                addr: s,
            });
        }
        Inst::Store { dst, src } => {
            // Both operands are resolved before either is checked.
            let addr = sym_op(*dst);
            let src = sym_op(*src);
            ops.extend(addr.into_iter().chain(src).map(BlockOp::Touch));
            if let (Some(addr), Some(src)) = (addr, src) {
                ops.push(BlockOp::Push {
                    kind: SymConstraintKind::Store { addr, src },
                    origin: SymOrigin::Inst(loc),
                });
            }
        }
        Inst::FieldAddr { dst, base, field } => {
            let idx = *field;
            simple(ops, sym_op(*base), *dst, &|d, b| SymConstraintKind::Field {
                dst: d,
                base: b,
                idx,
            });
        }
        Inst::PtrArith { dst, base, .. } => {
            simple(ops, sym_op(*base), *dst, &|d, b| {
                SymConstraintKind::PtrArith {
                    dst: d,
                    base: b,
                    loc,
                }
            });
        }
        Inst::ElemAddr { dst, base, .. } => {
            simple(ops, sym_op(*base), *dst, &|d, b| SymConstraintKind::Elem {
                dst: d,
                base: b,
            });
        }
        Inst::BinOp { .. } | Inst::Input { .. } | Inst::Output { .. } => {}
        Inst::Call { dst, callee, args } => {
            let callee_func = module.func(*callee);
            let n = args.len().min(callee_func.param_count);
            for (idx, arg) in args.iter().take(n).enumerate() {
                if let Some(src) = sym_op(*arg) {
                    let d = SymRef::CalleeLocal(*callee, LocalId(idx as u32));
                    ops.push(BlockOp::Touch(src));
                    ops.push(BlockOp::Touch(d));
                    ops.push(BlockOp::Push {
                        kind: SymConstraintKind::Copy { dst: d, src },
                        origin: SymOrigin::CallArg { site: loc, idx },
                    });
                }
            }
            let planned = plan.and_then(|p| p.for_func(*callee));
            if let Some(dst) = dst {
                // The destination local is resolved even when nothing flows
                // into it (a void callee, constant actuals).
                let d = SymRef::SelfLocal(*dst);
                ops.push(BlockOp::Touch(d));
                match planned.filter(|p| p.bypasses_ret()) {
                    // The callee's return edge is bypassed: copy each
                    // returned actual straight into the destination.
                    Some(p) => {
                        for flow in &p.flows {
                            let CriticalFlow::Ret { param } = flow else {
                                continue;
                            };
                            if let Some(actual) = args.get(*param).and_then(|a| sym_op(*a)) {
                                ops.push(BlockOp::Touch(actual));
                                ops.push(BlockOp::Push {
                                    kind: SymConstraintKind::Copy {
                                        dst: d,
                                        src: actual,
                                    },
                                    origin: SymOrigin::CtxBypass { site: loc },
                                });
                            }
                        }
                    }
                    None if callee_func.ret_ty != Type::Void => {
                        let r = SymRef::CalleeRet(*callee);
                        ops.push(BlockOp::Touch(r));
                        ops.push(BlockOp::Push {
                            kind: SymConstraintKind::Copy { dst: d, src: r },
                            origin: SymOrigin::CallRet { site: loc },
                        });
                    }
                    None => {}
                }
            }
            if let Some(p) = planned {
                rec_store_replicas(ops, loc, args, p);
            }
        }
        Inst::CallInd { dst, callee, args } => {
            if let Some(fnptr) = sym_op(*callee) {
                ops.push(BlockOp::Touch(fnptr));
                let args: Vec<Option<SymRef>> = args.iter().map(|a| sym_op(*a)).collect();
                for a in args.iter().flatten() {
                    ops.push(BlockOp::Touch(*a));
                }
                let dst = dst.map(SymRef::SelfLocal);
                if let Some(d) = dst {
                    ops.push(BlockOp::Touch(d));
                }
                ops.push(BlockOp::ICall {
                    site: loc,
                    fnptr,
                    args,
                    dst,
                });
            }
        }
    }
}

/// Replicate a planned callee's critical stores at one callsite: rebuild
/// each address chain from the *actual* base argument through fresh
/// per-callsite dummies, then store the actual source argument through it.
fn rec_store_replicas(ops: &mut Vec<BlockOp>, site: SelfLoc, args: &[Operand], plan: &FuncCtxPlan) {
    let origin = SymOrigin::CtxBypass { site };
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
        let base = args.get(*base_param).and_then(|a| sym_op(*a));
        let src = args.get(*src_param).and_then(|a| sym_op(*a));
        ops.extend(base.into_iter().chain(src).map(BlockOp::Touch));
        let (Some(mut cur), Some(src)) = (base, src) else {
            continue;
        };
        for step in addr_chain {
            let d = SymRef::CtxDummy { site, seq };
            seq += 1;
            ops.push(BlockOp::Touch(d));
            let kind = match *step {
                ChainStep::Field(idx) => SymConstraintKind::Field {
                    dst: d,
                    base: cur,
                    idx,
                },
                ChainStep::Load => SymConstraintKind::Load { dst: d, addr: cur },
                ChainStep::Elem => SymConstraintKind::Elem { dst: d, base: cur },
            };
            ops.push(BlockOp::Push { kind, origin });
            cur = d;
        }
        ops.push(BlockOp::Push {
            kind: SymConstraintKind::Store { addr: cur, src },
            origin,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::FunctionBuilder;

    fn sample_module() -> Module {
        let mut m = Module::new("blocks");
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

    /// A plan for [`sample_module`]'s `callee`: a three-step Store chain
    /// from its parameter into itself, and its return bypassed.
    fn sample_plan() -> CtxPlan {
        let mut plan = CtxPlan::new();
        let store = CriticalFlow::Store {
            loc: InstLoc::new(FuncId(0), BlockId(0), 0),
            base_param: 0,
            addr_chain: vec![ChainStep::Field(0), ChainStep::Load, ChainStep::Elem],
            src_param: 0,
        };
        let flows = vec![store, CriticalFlow::Ret { param: 0 }];
        plan.funcs.insert(FuncId(0), FuncCtxPlan { flows });
        plan
    }

    fn record(m: &Module, fid: FuncId, plan: Option<&CtxPlan>) -> FuncBlock {
        let mut ops = Vec::new();
        record_func(m, fid, plan, &mut ops);
        FuncBlock { ops }
    }

    #[test]
    fn planned_callsite_records_the_bypass() {
        let m = sample_module();
        let plan = sample_plan();
        let main = record(&m, FuncId(1), Some(&plan)).ops;
        let count = |pred: fn(&BlockOp) -> bool| main.iter().filter(|op| pred(op)).count();
        let dummies = count(|op| matches!(op, BlockOp::Touch(SymRef::CtxDummy { .. })));
        assert_eq!(dummies, 3, "one dummy per chain step");
        let bypass = count(|op| {
            matches!(
                op,
                BlockOp::Push {
                    origin: SymOrigin::CtxBypass { .. },
                    ..
                }
            )
        });
        assert_eq!(bypass, 5, "three chain steps, the store, the return copy");
        // The planned callee records no return edge.
        let callee = record(&m, FuncId(0), Some(&plan)).ops;
        assert!(!callee.contains(&BlockOp::Touch(SymRef::SelfRet)));
    }

    #[test]
    fn plan_affected_is_planned_funcs_plus_direct_callers() {
        let m = sample_module();
        assert!(plan_affected(&m, None).is_empty());
        let empty = CtxPlan::new();
        assert!(plan_affected(&m, Some(&empty)).is_empty());
        let mut plan = CtxPlan::new();
        plan.funcs
            .insert(FuncId(0), crate::ctxplan::FuncCtxPlan { flows: vec![] });
        let affected = plan_affected(&m, Some(&plan));
        // callee (planned) + main (direct caller). The indirect call alone
        // would not pull main in — the direct `call` does.
        assert!(affected.contains(&FuncId(0)));
        assert!(affected.contains(&FuncId(1)));
        assert_eq!(affected.len(), 2);
    }
}
