//! Structural well-formedness checks for modules.
//!
//! The verifier catches construction mistakes early: dangling ids, block
//! targets out of range, non-sequential parameters, stores to non-pointers,
//! and calls with mismatched arity. It intentionally does *not* enforce full
//! type correctness of pointer casts — C programs (and the paper's examples)
//! freely cast `char*` to struct pointers, and the analysis must cope.

use std::fmt;

use crate::module::{Function, Inst, Module, Operand, Terminator};
use crate::types::Type;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found, if any.
    pub func: Option<String>,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in function `{name}`: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module; returns all problems found.
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for (sid, def) in m.types.iter() {
        for (i, f) in def.fields.iter().enumerate() {
            if let Err(msg) = check_type(f, m) {
                errs.push(VerifyError {
                    func: None,
                    msg: format!("struct `{}` field {} ({}): {}", def.name, i, sid, msg),
                });
            }
        }
    }
    for g in &m.globals {
        if let Err(msg) = check_type(&g.ty, m) {
            errs.push(VerifyError {
                func: None,
                msg: format!("global `{}`: {}", g.name, msg),
            });
        }
        if g.ty == Type::Void {
            errs.push(VerifyError {
                func: None,
                msg: format!("global `{}` has void type", g.name),
            });
        }
    }
    for f in &m.funcs {
        verify_func(f, m, &mut errs);
    }
    errs
}

fn check_type(ty: &Type, m: &Module) -> Result<(), String> {
    match ty {
        Type::Void | Type::Int => Ok(()),
        Type::Ptr(t) => match **t {
            Type::Void => Err("pointer to void is not allowed; use int*".into()),
            _ => check_type(t, m),
        },
        Type::Struct(s) => {
            if m.types.get(*s).is_some() {
                Ok(())
            } else {
                Err(format!("dangling struct id {s}"))
            }
        }
        Type::Array(t, _) => check_type(t, m),
        Type::Func(sig) => {
            for p in &sig.params {
                check_type(p, m)?;
            }
            match *sig.ret {
                Type::Void => Ok(()),
                ref r => check_type(r, m),
            }
        }
    }
}

fn verify_func(f: &Function, m: &Module, errs: &mut Vec<VerifyError>) {
    let mut err = |msg: String| {
        errs.push(VerifyError {
            func: Some(f.name.clone()),
            msg,
        })
    };
    if f.param_count > f.locals.len() {
        err(format!(
            "param_count {} exceeds locals {}",
            f.param_count,
            f.locals.len()
        ));
        return;
    }
    if f.blocks.is_empty() {
        err("function has no blocks".into());
        return;
    }
    let check_op = |op: &Operand| -> Result<(), String> {
        match op {
            Operand::Local(l) => {
                if l.index() >= f.locals.len() {
                    return Err(format!("dangling local {l}"));
                }
            }
            Operand::Global(g) => {
                if g.index() >= m.globals.len() {
                    return Err(format!("dangling global {g}"));
                }
            }
            Operand::Func(x) => {
                if x.index() >= m.funcs.len() {
                    return Err(format!("dangling function id @{}", x.0));
                }
            }
            Operand::ConstInt(_) | Operand::Null => {}
        }
        Ok(())
    };
    for (bid, b) in f.iter_blocks() {
        for (i, inst) in b.insts.iter().enumerate() {
            let at = format!("{bid}:{i}");
            if let Some(d) = inst.def() {
                if d.index() >= f.locals.len() {
                    err(format!("{at}: dangling destination {d}"));
                    continue;
                }
            }
            for op in inst.operands() {
                if let Err(msg) = check_op(&op) {
                    err(format!("{at}: {msg}"));
                }
            }
            match inst {
                Inst::Alloca { ty, .. } => {
                    if let Err(msg) = check_type(ty, m) {
                        err(format!("{at}: alloca type: {msg}"));
                    }
                    if *ty == Type::Void {
                        err(format!("{at}: alloca of void"));
                    }
                }
                Inst::HeapAlloc { ty: Some(ty), .. } => {
                    if let Err(msg) = check_type(ty, m) {
                        err(format!("{at}: halloc type: {msg}"));
                    }
                }
                Inst::Store { dst, .. } => {
                    if matches!(dst, Operand::ConstInt(_)) {
                        err(format!("{at}: store to integer constant"));
                    }
                }
                Inst::FieldAddr {
                    base: Operand::Local(l),
                    field,
                    ..
                } => {
                    // When the base type is statically known to be a struct
                    // pointer, the field index must be in range.
                    if let Some(Type::Struct(s)) = f.locals[l.index()].ty.pointee() {
                        if let Some(def) = m.types.get(*s) {
                            if *field >= def.field_count() && def.field_count() > 0 {
                                err(format!(
                                    "{at}: field index {} out of range for struct `{}`",
                                    field, def.name
                                ));
                            }
                        }
                    }
                }
                Inst::Call { callee, args, .. } => {
                    if callee.index() >= m.funcs.len() {
                        err(format!("{at}: dangling callee @{}", callee.0));
                    } else {
                        let cf = m.func(*callee);
                        if args.len() != cf.param_count {
                            err(format!(
                                "{at}: call to `{}` passes {} args, expects {}",
                                cf.name,
                                args.len(),
                                cf.param_count
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        match &b.term {
            Terminator::Jump(t) => {
                if t.index() >= f.blocks.len() {
                    err(format!("{bid}: jump to missing block {t}"));
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                if let Err(msg) = check_op(cond) {
                    err(format!("{bid}: branch condition: {msg}"));
                }
                for t in [then_bb, else_bb] {
                    if t.index() >= f.blocks.len() {
                        err(format!("{bid}: branch to missing block {t}"));
                    }
                }
            }
            Terminator::Ret(v) => {
                if let Some(v) = v {
                    if let Err(msg) = check_op(v) {
                        err(format!("{bid}: return value: {msg}"));
                    }
                    if f.ret_ty == Type::Void {
                        err(format!("{bid}: returning a value from a void function"));
                    }
                } else if f.ret_ty != Type::Void {
                    err(format!("{bid}: missing return value"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::{Block, Function, LocalDecl, LocalId};

    #[test]
    fn clean_module_verifies() {
        let mut m = Module::new("ok");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("x", Type::Int)], Type::Int);
        let x = b.param(0);
        b.ret(Some(x.into()));
        b.finish();
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn dangling_local_detected() {
        let mut m = Module::new("bad");
        let f = Function {
            name: "f".into(),
            param_count: 0,
            ret_ty: Type::Void,
            locals: vec![],
            blocks: vec![Block {
                insts: vec![Inst::Output {
                    src: Operand::Local(LocalId(9)),
                }],
                term: Terminator::Ret(None),
            }],
        };
        m.add_func(f).unwrap();
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].to_string().contains("dangling local"));
    }

    #[test]
    fn branch_to_missing_block_detected() {
        let mut m = Module::new("bad");
        let f = Function {
            name: "f".into(),
            param_count: 0,
            ret_ty: Type::Void,
            locals: vec![],
            blocks: vec![Block {
                insts: vec![],
                term: Terminator::Jump(crate::module::BlockId(4)),
            }],
        };
        m.add_func(f).unwrap();
        assert!(!verify_module(&m).is_empty());
    }

    #[test]
    fn call_arity_mismatch_detected() {
        let mut m = Module::new("bad");
        let callee = m
            .declare_func("callee", vec![Type::Int], Type::Void)
            .unwrap();
        let f = Function {
            name: "f".into(),
            param_count: 0,
            ret_ty: Type::Void,
            locals: vec![],
            blocks: vec![Block {
                insts: vec![Inst::Call {
                    dst: None,
                    callee,
                    args: vec![],
                }],
                term: Terminator::Ret(None),
            }],
        };
        m.add_func(f).unwrap();
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("passes 0 args")));
    }

    #[test]
    fn void_return_mismatches_detected() {
        let mut m = Module::new("bad");
        let f = Function {
            name: "f".into(),
            param_count: 0,
            ret_ty: Type::Int,
            locals: vec![],
            blocks: vec![Block {
                insts: vec![],
                term: Terminator::Ret(None),
            }],
        };
        m.add_func(f).unwrap();
        assert!(verify_module(&m)
            .iter()
            .any(|e| e.msg.contains("missing return value")));
    }

    #[test]
    fn field_index_out_of_range_detected() {
        let mut m = Module::new("bad");
        let s = m.types.declare("s", vec![Type::Int]).unwrap();
        let f = Function {
            name: "f".into(),
            param_count: 0,
            ret_ty: Type::Void,
            locals: vec![
                LocalDecl {
                    name: "p".into(),
                    ty: Type::ptr(Type::Struct(s)),
                },
                LocalDecl {
                    name: "q".into(),
                    ty: Type::ptr(Type::Int),
                },
            ],
            blocks: vec![Block {
                insts: vec![Inst::FieldAddr {
                    dst: LocalId(1),
                    base: Operand::Local(LocalId(0)),
                    field: 5,
                }],
                term: Terminator::Ret(None),
            }],
        };
        m.add_func(f).unwrap();
        assert!(verify_module(&m)
            .iter()
            .any(|e| e.msg.contains("out of range")));
    }
}
