//! IR-to-IR transforms.
//!
//! [`mem2reg`] promotes non-escaping `alloca` slots to plain registers,
//! the role LLVM's `mem2reg` pass plays for SVF: without it, every C local
//! is a memory cell and every use flows through Load/Store constraints,
//! hiding the direct def-use chains the context-sensitivity policy's
//! lightweight dataflow looks for (paper §4.4).
//!
//! Because this IR's registers may be reassigned, no SSA construction is
//! needed: a slot whose address never escapes is accessed *only* by loads
//! and stores, so rewriting `store slot, v` → `reg = copy v` and
//! `load slot` → `copy reg` preserves execution order and therefore
//! semantics exactly (fresh registers read as 0, matching zero-initialized
//! slots).

use std::collections::HashSet;

use crate::module::{Function, Inst, LocalId, Module, Operand};
use crate::types::Type;

/// Statistics from a [`mem2reg`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mem2RegStats {
    /// Slots promoted to registers.
    pub promoted: usize,
    /// Allocas left in place (address escapes or non-scalar type).
    pub skipped: usize,
}

/// Promote non-escaping scalar `alloca` slots to registers, module-wide.
pub fn mem2reg(module: &mut Module) -> Mem2RegStats {
    let mut stats = Mem2RegStats::default();
    for func in &mut module.funcs {
        let s = mem2reg_func(func);
        stats.promoted += s.promoted;
        stats.skipped += s.skipped;
    }
    stats
}

fn mem2reg_func(f: &mut Function) -> Mem2RegStats {
    let mut stats = Mem2RegStats::default();

    // Which locals hold alloca results of scalar (one-slot) type?
    let mut alloca_slots: Vec<Option<Type>> = vec![None; f.locals.len()];
    for block in &f.blocks {
        for inst in &block.insts {
            if let Inst::Alloca { dst, ty } = inst {
                // Only scalar slots: aggregates keep field/element identity.
                if matches!(ty, Type::Int | Type::Ptr(_)) {
                    alloca_slots[dst.index()] = Some(ty.clone());
                }
            }
        }
    }

    // Disqualify slots whose pointer is used as anything other than a
    // direct Load source / Store destination (address escapes), or that
    // are re-assigned by another instruction.
    let mut escaped: HashSet<u32> = HashSet::new();
    let is_slot = |op: &Operand, slots: &[Option<Type>]| match op {
        Operand::Local(l) => slots[l.index()].is_some(),
        _ => false,
    };
    for block in &f.blocks {
        for inst in &block.insts {
            // A second definition of the slot local disqualifies it.
            if let Some(d) = inst.def() {
                if alloca_slots[d.index()].is_some() && !matches!(inst, Inst::Alloca { .. }) {
                    escaped.insert(d.0);
                }
            }
            match inst {
                Inst::Alloca { .. } => {}
                Inst::Load { src, .. } => {
                    // Using the slot as a load *address* is fine.
                    let _ = src;
                }
                Inst::Store { dst, src } => {
                    // Using the slot as the store *address* is fine; using
                    // it as the stored *value* leaks the address.
                    let _ = dst;
                    if is_slot(src, &alloca_slots) {
                        if let Operand::Local(l) = src {
                            escaped.insert(l.0);
                        }
                    }
                }
                other => {
                    for op in other.operands() {
                        if let Operand::Local(l) = op {
                            if alloca_slots[l.index()].is_some() {
                                escaped.insert(l.0);
                            }
                        }
                    }
                }
            }
        }
        // Terminator uses (branch conditions, returned values).
        if let Some(Operand::Local(l)) = block.term.operand() {
            if alloca_slots[l.index()].is_some() {
                escaped.insert(l.0);
            }
        }
    }

    // Duplicate allocas of the same destination local (shouldn't happen
    // from the builder, but stay safe).
    let mut seen = HashSet::new();
    for block in &f.blocks {
        for inst in &block.insts {
            if let Inst::Alloca { dst, .. } = inst {
                if !seen.insert(dst.0) {
                    escaped.insert(dst.0);
                }
            }
        }
    }

    // Allocate a register per promotable slot.
    let mut reg_for: Vec<Option<LocalId>> = vec![None; f.locals.len()];
    for (i, ty) in alloca_slots.iter().enumerate() {
        let Some(ty) = ty else { continue };
        if escaped.contains(&(i as u32)) {
            stats.skipped += 1;
            continue;
        }
        let reg = LocalId(f.locals.len() as u32);
        f.locals.push(crate::module::LocalDecl {
            name: format!("{}_reg", f.locals[i].name),
            ty: ty.clone(),
        });
        reg_for[i] = Some(reg);
        // Keep reg_for indexable by old locals only; new ones can't be slots.
        stats.promoted += 1;
    }
    if stats.promoted == 0 {
        return stats;
    }

    // Rewrite instructions.
    let slot_reg = |op: &Operand| -> Option<LocalId> {
        match op {
            Operand::Local(l) => reg_for.get(l.index()).copied().flatten(),
            _ => None,
        }
    };
    for block in &mut f.blocks {
        let mut new_insts = Vec::with_capacity(block.insts.len());
        for inst in block.insts.drain(..) {
            match &inst {
                Inst::Alloca { dst, .. } if reg_for[dst.index()].is_some() => {
                    // Slot eliminated entirely.
                }
                Inst::Store { dst, src } => {
                    if let Some(reg) = slot_reg(dst) {
                        new_insts.push(Inst::Copy {
                            dst: reg,
                            src: *src,
                        });
                    } else {
                        new_insts.push(inst);
                    }
                }
                Inst::Load { dst, src } => {
                    if let Some(reg) = slot_reg(src) {
                        new_insts.push(Inst::Copy {
                            dst: *dst,
                            src: Operand::Local(reg),
                        });
                    } else {
                        new_insts.push(inst);
                    }
                }
                _ => new_insts.push(inst),
            }
        }
        block.insts = new_insts;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::verify::verify_module;

    #[test]
    fn promotes_simple_scalar_slot() {
        let mut m = Module::new("p");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("x", Type::Int)], Type::Int);
        let slot = b.alloca("s", Type::Int);
        let x = b.param(0);
        b.store(slot, x);
        let v = b.load("v", slot);
        b.ret(Some(v.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert!(verify_module(&m).is_empty());
        let f = m.func(m.func_by_name("f").unwrap());
        assert!(!f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Alloca { .. } | Inst::Load { .. } | Inst::Store { .. }
        )));
    }

    #[test]
    fn address_taken_slot_not_promoted() {
        let mut m = Module::new("p");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![], Type::Void);
        let slot = b.alloca("s", Type::Int);
        // The address escapes into another slot.
        let keeper = b.alloca("k", Type::ptr(Type::Int));
        b.store(keeper, slot); // stores &s — escape!
        b.ret(None);
        b.finish();
        let stats = mem2reg(&mut m);
        // `keeper` is also disqualified: a slot value (&s) is stored into
        // it, which is fine for keeper itself — but `slot` must survive.
        let f = m.func(m.func_by_name("f").unwrap());
        let allocas = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Alloca { .. }))
            .count();
        assert!(allocas >= 1, "escaping slot kept; stats: {stats:?}");
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn aggregate_slots_not_promoted() {
        let mut m = Module::new("p");
        let s = m.types.declare("s", vec![Type::Int]).unwrap();
        let mut b = FunctionBuilder::new(&mut m, "f", vec![], Type::Void);
        let _obj = b.alloca("obj", Type::Struct(s));
        let _arr = b.alloca("arr", Type::array(Type::Int, 4));
        b.ret(None);
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 0);
    }

    #[test]
    fn execution_semantics_preserved_across_branches_and_loops() {
        use crate::module::BinOpKind;
        // sum 1..=n with the counter in a promotable slot.
        let build = || {
            let mut m = Module::new("sum");
            let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Int);
            let i = b.alloca("i", Type::Int);
            let acc = b.alloca("acc", Type::Int);
            b.store(i, 1i64);
            b.store(acc, 0i64);
            let head = b.new_block();
            let body = b.new_block();
            let done = b.new_block();
            b.jump(head);
            b.switch_to(head);
            let iv = b.load("iv", i);
            let c = b.binop("c", BinOpKind::Lt, iv, 7i64);
            b.branch(c, body, done);
            b.switch_to(body);
            let iv2 = b.load("iv2", i);
            let av = b.load("av", acc);
            let s = b.binop("s", BinOpKind::Add, av, iv2);
            b.store(acc, s);
            let inc = b.binop("inc", BinOpKind::Add, iv2, 1i64);
            b.store(i, inc);
            b.jump(head);
            b.switch_to(done);
            let out = b.load("out", acc);
            b.ret(Some(out.into()));
            b.finish();
            m
        };
        let plain = build();
        let mut promoted = build();
        let stats = mem2reg(&mut promoted);
        assert_eq!(stats.promoted, 2);
        assert!(verify_module(&promoted).is_empty());
        // (Interpreter equivalence is asserted in the cross-crate tests;
        // here check the textual forms differ but verify clean.)
        assert_ne!(plain.to_text(), promoted.to_text());
    }

    #[test]
    fn loaded_pointer_slots_promote_too() {
        let mut m = Module::new("p");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("p", Type::ptr(Type::Int))], Type::Int);
        let slot = b.alloca("s", Type::ptr(Type::Int));
        let p = b.param(0);
        b.store(slot, p);
        let sp = b.load("sp", slot);
        let v = b.load("v", sp); // load *through* the promoted value is fine
        b.ret(Some(v.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert!(verify_module(&m).is_empty());
    }
}
