//! A convenience builder for constructing functions.
//!
//! The builder keeps a current block, infers result types of instructions
//! from operand types where possible, and installs the finished function
//! into the module on [`FunctionBuilder::finish`].

use crate::module::BlockId;
use crate::module::{
    BinOpKind, Block, FuncId, Function, GlobalId, Inst, LocalDecl, LocalId, Module, Operand,
    Terminator,
};
use crate::types::Type;

/// Incrementally builds one [`Function`] inside a [`Module`].
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    id: FuncId,
    ret_ty: Type,
    param_count: usize,
    locals: Vec<LocalDecl>,
    blocks: Vec<(Vec<Inst>, Option<Terminator>)>,
    cur: usize,
}

impl<'m> FunctionBuilder<'m> {
    /// Declare a new function and start building its body.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared in the module.
    pub fn new(
        module: &'m mut Module,
        name: &str,
        params: Vec<(&str, Type)>,
        ret_ty: Type,
    ) -> Self {
        let param_tys: Vec<Type> = params.iter().map(|(_, t)| t.clone()).collect();
        let id = module
            .declare_func(name, param_tys, ret_ty.clone())
            .unwrap_or_else(|| panic!("function `{name}` already declared"));
        let locals = params
            .into_iter()
            .map(|(n, ty)| LocalDecl { name: n.into(), ty })
            .collect::<Vec<_>>();
        let param_count = locals.len();
        FunctionBuilder {
            module,
            id,
            ret_ty,
            param_count,
            locals,
            blocks: vec![(Vec::new(), None)],
            cur: 0,
        }
    }

    /// Start building the body of a function previously reserved with
    /// [`Module::declare_func`], keeping its declared signature.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn for_declared(module: &'m mut Module, id: FuncId) -> Self {
        let f = module.func(id);
        let locals = f.locals[..f.param_count].to_vec();
        let ret_ty = f.ret_ty.clone();
        let param_count = f.param_count;
        FunctionBuilder {
            module,
            id,
            ret_ty,
            param_count,
            locals,
            blocks: vec![(Vec::new(), None)],
            cur: 0,
        }
    }

    /// The id of the function being built.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// The id of the `i`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> LocalId {
        assert!(i < self.param_count, "parameter index out of range");
        LocalId(i as u32)
    }

    /// Immutable access to the module under construction (types, globals,
    /// previously declared functions).
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Declare a fresh local of type `ty`.
    pub fn local(&mut self, name: &str, ty: Type) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(LocalDecl {
            name: name.into(),
            ty,
        });
        id
    }

    /// Best-effort type of an operand in this function's scope.
    pub fn operand_ty(&self, op: impl Into<Operand>) -> Type {
        match op.into() {
            Operand::Local(l) => self.locals[l.index()].ty.clone(),
            Operand::Global(g) => Type::ptr(self.module.global(g).ty.clone()),
            Operand::Func(f) => Type::ptr(Type::Func(self.module.func(f).sig())),
            Operand::ConstInt(_) => Type::Int,
            Operand::Null => Type::ptr(Type::Int),
        }
    }

    fn push(&mut self, inst: Inst) {
        assert!(
            self.blocks[self.cur].1.is_none(),
            "appending to a terminated block"
        );
        self.blocks[self.cur].0.push(inst);
    }

    /// `dst = alloca ty`; returns the pointer-typed destination.
    pub fn alloca(&mut self, name: &str, ty: Type) -> LocalId {
        let dst = self.local(name, Type::ptr(ty.clone()));
        self.push(Inst::Alloca { dst, ty });
        dst
    }

    /// `dst = heap_alloc ty` with `sizeof` type metadata.
    pub fn heap_alloc(&mut self, name: &str, ty: Type) -> LocalId {
        let dst = self.local(name, Type::ptr(ty.clone()));
        self.push(Inst::HeapAlloc { dst, ty: Some(ty) });
        dst
    }

    /// `dst = heap_alloc ?` — allocation whose type metadata is unknown
    /// (never filtered by the PA invariant; see paper §6).
    pub fn heap_alloc_untyped(&mut self, name: &str) -> LocalId {
        let dst = self.local(name, Type::ptr(Type::Int));
        self.push(Inst::HeapAlloc { dst, ty: None });
        dst
    }

    /// `dst = src` (copy), destination typed like the source.
    pub fn copy(&mut self, name: &str, src: impl Into<Operand>) -> LocalId {
        let src = src.into();
        let ty = self.operand_ty(src);
        let dst = self.local(name, ty);
        self.push(Inst::Copy { dst, src });
        dst
    }

    /// `dst = src` with an explicit destination type (bitcast).
    pub fn copy_typed(&mut self, name: &str, src: impl Into<Operand>, ty: Type) -> LocalId {
        let dst = self.local(name, ty);
        self.push(Inst::Copy {
            dst,
            src: src.into(),
        });
        dst
    }

    /// `dst = *src`.
    pub fn load(&mut self, name: &str, src: impl Into<Operand>) -> LocalId {
        let src = src.into();
        let ty = self.operand_ty(src).pointee().cloned().unwrap_or(Type::Int);
        let dst = self.local(name, ty);
        self.push(Inst::Load { dst, src });
        dst
    }

    /// `*dst = src`.
    pub fn store(&mut self, dst: impl Into<Operand>, src: impl Into<Operand>) {
        self.push(Inst::Store {
            dst: dst.into(),
            src: src.into(),
        });
    }

    /// `dst = &base->field`.
    pub fn field_addr(&mut self, name: &str, base: impl Into<Operand>, field: usize) -> LocalId {
        let base = base.into();
        let fty = match self.operand_ty(base).pointee() {
            Some(Type::Struct(s)) => self
                .module
                .types
                .def(*s)
                .fields
                .get(field)
                .cloned()
                .unwrap_or(Type::Int),
            _ => Type::Int,
        };
        let dst = self.local(name, Type::ptr(fty));
        self.push(Inst::FieldAddr { dst, base, field });
        dst
    }

    /// `dst = base + offset` — arbitrary pointer arithmetic.
    pub fn ptr_arith(
        &mut self,
        name: &str,
        base: impl Into<Operand>,
        offset: impl Into<Operand>,
    ) -> LocalId {
        let base = base.into();
        let ty = self.operand_ty(base);
        let ty = if ty.is_ptr() {
            ty
        } else {
            Type::ptr(Type::Int)
        };
        let dst = self.local(name, ty);
        self.push(Inst::PtrArith {
            dst,
            base,
            offset: offset.into(),
        });
        dst
    }

    /// `dst = &base[index]` — array element address.
    pub fn elem_addr(
        &mut self,
        name: &str,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
    ) -> LocalId {
        let base = base.into();
        let ty = match self.operand_ty(base).pointee() {
            Some(Type::Array(e, _)) => Type::ptr((**e).clone()),
            Some(other) => Type::ptr(other.clone()),
            None => Type::ptr(Type::Int),
        };
        let dst = self.local(name, ty);
        self.push(Inst::ElemAddr {
            dst,
            base,
            index: index.into(),
        });
        dst
    }

    /// `dst = lhs <op> rhs`.
    pub fn binop(
        &mut self,
        name: &str,
        op: BinOpKind,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> LocalId {
        let dst = self.local(name, Type::Int);
        self.push(Inst::BinOp {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dst
    }

    /// Direct call; returns the destination local if the callee returns a
    /// value.
    pub fn call(&mut self, name: &str, callee: FuncId, args: Vec<Operand>) -> Option<LocalId> {
        let ret_ty = self.module.func(callee).ret_ty.clone();
        let dst = if ret_ty == Type::Void {
            None
        } else {
            Some(self.local(name, ret_ty))
        };
        self.push(Inst::Call { dst, callee, args });
        dst
    }

    /// Indirect call through `callee`; `ret_ty` gives the expected return
    /// type (use [`Type::Void`] for none).
    pub fn call_ind(
        &mut self,
        name: &str,
        callee: impl Into<Operand>,
        args: Vec<Operand>,
        ret_ty: Type,
    ) -> Option<LocalId> {
        let dst = if ret_ty == Type::Void {
            None
        } else {
            Some(self.local(name, ret_ty))
        };
        self.push(Inst::CallInd {
            dst,
            callee: callee.into(),
            args,
        });
        dst
    }

    /// `dst = input` — read one input byte.
    pub fn input(&mut self, name: &str) -> LocalId {
        let dst = self.local(name, Type::Int);
        self.push(Inst::Input { dst });
        dst
    }

    /// `output src`.
    pub fn output(&mut self, src: impl Into<Operand>) {
        self.push(Inst::Output { src: src.into() });
    }

    /// Create a new (empty, unentered) block; returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push((Vec::new(), None));
        id
    }

    /// Switch the insertion point to `bb`.
    ///
    /// # Panics
    ///
    /// Panics if `bb` does not exist.
    pub fn switch_to(&mut self, bb: BlockId) {
        assert!(bb.index() < self.blocks.len(), "no such block");
        self.cur = bb.index();
    }

    /// The block currently being appended to.
    pub fn current_block(&self) -> BlockId {
        BlockId(self.cur as u32)
    }

    fn terminate(&mut self, t: Terminator) {
        assert!(
            self.blocks[self.cur].1.is_none(),
            "block already terminated"
        );
        self.blocks[self.cur].1 = Some(t);
    }

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, bb: BlockId) {
        self.terminate(Terminator::Jump(bb));
    }

    /// Terminate the current block with a conditional branch.
    pub fn branch(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::Branch {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
    }

    /// Terminate the current block with a return.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.terminate(Terminator::Ret(val));
    }

    /// Install the finished function into the module and return its id.
    ///
    /// Unterminated blocks receive `ret` (void) terminators.
    pub fn finish(self) -> FuncId {
        let blocks = self
            .blocks
            .into_iter()
            .map(|(insts, term)| Block {
                insts,
                term: term.unwrap_or(Terminator::Ret(None)),
            })
            .collect();
        let f = Function {
            name: self.module.func(self.id).name.clone(),
            param_count: self.param_count,
            ret_ty: self.ret_ty,
            locals: self.locals,
            blocks,
        };
        self.module.replace_func(self.id, f);
        self.id
    }
}

/// Declare a global and return an operand for its address.
///
/// Small helper for tests and model builders.
///
/// # Panics
///
/// Panics if the global name is taken.
pub fn global(module: &mut Module, name: &str, ty: Type) -> GlobalId {
    module
        .add_global(name, ty)
        .unwrap_or_else(|| panic!("global `{name}` already declared"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straightline_function() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("p", Type::ptr(Type::Int))], Type::Int);
        let p = b.param(0);
        let v = b.load("v", p);
        b.ret(Some(v.into()));
        let id = b.finish();
        let f = m.func(id);
        assert_eq!(f.name, "f");
        assert_eq!(f.param_count, 1);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Ret(Some(_))));
    }

    #[test]
    fn build_branching_function() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("c", Type::Int)], Type::Void);
        let c = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.output(Operand::ConstInt(1));
        b.ret(None);
        b.switch_to(e);
        // left unterminated: finish() inserts ret
        let id = b.finish();
        let f = m.func(id);
        assert_eq!(f.blocks.len(), 3);
        assert!(matches!(f.blocks[2].term, Terminator::Ret(None)));
    }

    #[test]
    fn type_inference_through_loads_and_fields() {
        let mut m = Module::new("t");
        let s = m
            .types
            .declare("pair", vec![Type::Int, Type::ptr(Type::Int)])
            .unwrap();
        let mut b = FunctionBuilder::new(&mut m, "f", vec![], Type::Void);
        let obj = b.alloca("obj", Type::Struct(s));
        assert_eq!(b.operand_ty(obj), Type::ptr(Type::Struct(s)));
        let f1 = b.field_addr("f1", obj, 1);
        assert_eq!(b.operand_ty(f1), Type::ptr(Type::ptr(Type::Int)));
        let v = b.load("v", f1);
        assert_eq!(b.operand_ty(v), Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
    }

    #[test]
    fn call_returns_destination_only_for_non_void() {
        let mut m = Module::new("t");
        let vf = {
            let b = FunctionBuilder::new(&mut m, "void_fn", vec![], Type::Void);
            b.finish()
        };
        let rf = {
            let mut b = FunctionBuilder::new(&mut m, "ret_fn", vec![], Type::Int);
            b.ret(Some(Operand::ConstInt(7)));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        assert!(b.call("x", vf, vec![]).is_none());
        assert!(b.call("y", rf, vec![]).is_some());
        b.ret(None);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![], Type::Void);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    fn for_declared_keeps_signature() {
        let mut m = Module::new("t");
        let id = m
            .declare_func("fwd", vec![Type::ptr(Type::Int)], Type::Int)
            .unwrap();
        let mut b = FunctionBuilder::for_declared(&mut m, id);
        let p = b.param(0);
        let v = b.load("v", p);
        b.ret(Some(v.into()));
        assert_eq!(b.finish(), id);
        assert_eq!(m.func(id).param_count, 1);
        assert_eq!(m.func(id).ret_ty, Type::Int);
    }
}
