//! Modules, functions, blocks, instructions, and operands.
//!
//! A [`Module`] owns a [`TypeRegistry`], a table of globals, and a table of
//! functions. Each [`Function`] is a list of basic [`Block`]s over a flat
//! table of typed locals. The first `param_count` locals are the formal
//! parameters.

use std::collections::HashMap;
use std::fmt;

use crate::loc::InstLoc;
use crate::printer::PrefixCounts;
use crate::types::{FuncSig, Type, TypeRegistry};

/// Identifier of a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifier of a global variable within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// Identifier of a local (virtual register) within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub u32);

/// Identifier of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl FuncId {
    /// Index into the module's function table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl GlobalId {
    /// Index into the module's global table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl LocalId {
    /// Index into the function's local table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    /// Index into the function's block table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}
impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}
impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An operand of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The current value of a local.
    Local(LocalId),
    /// The *address* of a global (globals, like LLVM, evaluate to their
    /// address; their contents are accessed with loads and stores).
    Global(GlobalId),
    /// The address of a function (a function-pointer constant).
    Func(FuncId),
    /// An integer constant.
    ConstInt(i64),
    /// The null pointer.
    Null,
}

impl Operand {
    /// The local id, if this operand is a local.
    pub fn as_local(self) -> Option<LocalId> {
        match self {
            Operand::Local(l) => Some(l),
            _ => None,
        }
    }
}

impl From<LocalId> for Operand {
    fn from(l: LocalId) -> Self {
        Operand::Local(l)
    }
}
impl From<GlobalId> for Operand {
    fn from(g: GlobalId) -> Self {
        Operand::Global(g)
    }
}
impl From<FuncId> for Operand {
    fn from(f: FuncId) -> Self {
        Operand::Func(f)
    }
}
impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ConstInt(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Local(l) => write!(f, "{l}"),
            Operand::Global(g) => write!(f, "{g}"),
            Operand::Func(x) => write!(f, "@{}", x.0),
            Operand::ConstInt(v) => write!(f, "{v}"),
            Operand::Null => write!(f, "null"),
        }
    }
}

/// An integer binary operation (interpreter realism; opaque to the analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOpKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (division by zero yields zero, like a trap handler).
    Div,
    /// Remainder (by zero yields zero).
    Rem,
    /// Equality comparison (1 or 0).
    Eq,
    /// Strictly-less-than comparison (1 or 0).
    Lt,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl fmt::Display for BinOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOpKind::Add => "add",
            BinOpKind::Sub => "sub",
            BinOpKind::Mul => "mul",
            BinOpKind::Div => "div",
            BinOpKind::Rem => "rem",
            BinOpKind::Eq => "eq",
            BinOpKind::Lt => "lt",
            BinOpKind::And => "and",
            BinOpKind::Or => "or",
            BinOpKind::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// An instruction.
///
/// The pointer-relevant forms map onto the constraints of Table 1 of the
/// paper; the remaining forms exist so programs can branch, compute, and do
/// I/O under the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = alloca T` — address of a fresh stack object (Addr-Of).
    Alloca {
        /// Destination local (pointer to the new object).
        dst: LocalId,
        /// Type of the allocated object.
        ty: Type,
    },
    /// `dst = heap_alloc T?` — a `malloc`-style allocation. `ty` is the
    /// `sizeof`-derived type metadata of paper §6; `None` means the type
    /// could not be determined (such sites are never filtered by the
    /// pointer-arithmetic invariant, preserving soundness).
    HeapAlloc {
        /// Destination local (pointer to the new object).
        dst: LocalId,
        /// `sizeof`-style type annotation, if known.
        ty: Option<Type>,
    },
    /// `dst = src` — a copy / bitcast (Copy).
    Copy {
        /// Destination local.
        dst: LocalId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = *src` (Load).
    Load {
        /// Destination local.
        dst: LocalId,
        /// Address to load from.
        src: Operand,
    },
    /// `*dst = src` (Store).
    Store {
        /// Address to store to.
        dst: Operand,
        /// Value to store.
        src: Operand,
    },
    /// `dst = &base->field` — address of a named field (Field-Of).
    FieldAddr {
        /// Destination local.
        dst: LocalId,
        /// Base pointer (must point to a struct object).
        base: Operand,
        /// Field index within the struct.
        field: usize,
    },
    /// `dst = base + offset` — *arbitrary pointer arithmetic*: the offset is
    /// a runtime value, so a field-sensitive analysis cannot tell which field
    /// (if any) is being addressed (paper §4.2).
    PtrArith {
        /// Destination local.
        dst: LocalId,
        /// Base pointer.
        base: Operand,
        /// Dynamic offset, in slots.
        offset: Operand,
    },
    /// `dst = &base[index]` — array element address. Distinguished from
    /// [`Inst::PtrArith`] because the paper's PA invariant explicitly makes
    /// no assumption about traversals of arrays: analyses smash array
    /// elements into one representative, so this is a copy of the base.
    ElemAddr {
        /// Destination local.
        dst: LocalId,
        /// Base pointer (to an array object).
        base: Operand,
        /// Dynamic element index.
        index: Operand,
    },
    /// `dst = lhs <op> rhs` — integer arithmetic (opaque to the analysis).
    BinOp {
        /// Destination local.
        dst: LocalId,
        /// Operation.
        op: BinOpKind,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = call f(args)` — direct call.
    Call {
        /// Destination local for the return value, if any.
        dst: Option<LocalId>,
        /// Callee.
        callee: FuncId,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// `dst = call *fp(args)` — indirect call through a function pointer.
    /// These are the sites a CFI policy protects.
    CallInd {
        /// Destination local for the return value, if any.
        dst: Option<LocalId>,
        /// Function-pointer operand.
        callee: Operand,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// `dst = input` — read one byte of program input (0 at end of input).
    Input {
        /// Destination local.
        dst: LocalId,
    },
    /// `output src` — write a value to the program's output sink.
    Output {
        /// Value to emit.
        src: Operand,
    },
}

impl Inst {
    /// The local this instruction defines, if any.
    pub fn def(&self) -> Option<LocalId> {
        match self {
            Inst::Alloca { dst, .. }
            | Inst::HeapAlloc { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FieldAddr { dst, .. }
            | Inst::PtrArith { dst, .. }
            | Inst::ElemAddr { dst, .. }
            | Inst::BinOp { dst, .. }
            | Inst::Input { dst } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallInd { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Output { .. } => None,
        }
    }

    /// The operands this instruction uses.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Inst::Alloca { .. } | Inst::HeapAlloc { .. } | Inst::Input { .. } => vec![],
            Inst::Copy { src, .. } | Inst::Load { src, .. } | Inst::Output { src } => {
                vec![*src]
            }
            Inst::Store { dst, src } => vec![*dst, *src],
            Inst::FieldAddr { base, .. } => vec![*base],
            Inst::PtrArith { base, offset, .. } => vec![*base, *offset],
            Inst::ElemAddr { base, index, .. } => vec![*base, *index],
            Inst::BinOp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Call { args, .. } => args.clone(),
            Inst::CallInd { callee, args, .. } => {
                let mut v = vec![*callee];
                v.extend(args.iter().copied());
                v
            }
        }
    }

    /// Whether this is a call (direct or indirect).
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. } | Inst::CallInd { .. })
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a non-zero condition.
    Branch {
        /// Condition operand (non-zero means taken).
        cond: Operand,
        /// Successor when the condition is non-zero.
        then_bb: BlockId,
        /// Successor when the condition is zero.
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) => vec![],
        }
    }
}

/// A basic block: a straight-line instruction sequence plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The block terminator.
    pub term: Terminator,
}

/// A declared local (virtual register).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    /// Diagnostic name (not necessarily unique).
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A declared global variable. [`Operand::Global`] evaluates to its address.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Global name, unique within the module.
    pub name: String,
    /// Type of the global *object* (not of its address).
    pub ty: Type,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name, unique within the module.
    pub name: String,
    /// Number of leading locals that are formal parameters.
    pub param_count: usize,
    /// Return type.
    pub ret_ty: Type,
    /// All locals; the first `param_count` are the parameters.
    pub locals: Vec<LocalDecl>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The function's signature.
    pub fn sig(&self) -> FuncSig {
        FuncSig::new(
            self.locals[..self.param_count]
                .iter()
                .map(|l| l.ty.clone())
                .collect(),
            self.ret_ty.clone(),
        )
    }

    /// Ids of the formal parameters.
    pub fn params(&self) -> impl Iterator<Item = LocalId> {
        (0..self.param_count as u32).map(LocalId)
    }

    /// The type of a local.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a local of this function.
    pub fn local_ty(&self, l: LocalId) -> &Type {
        &self.locals[l.index()].ty
    }

    /// Get a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total instruction count (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Whether every function, global and struct type the function names
    /// is among a module's first `funcs`, `globals` and `types`.
    fn refers_within(&self, funcs: usize, globals: usize, types: usize) -> bool {
        let op = |o: &Operand| match o {
            Operand::Global(g) => g.index() < globals,
            Operand::Func(f) => f.index() < funcs,
            Operand::Local(_) | Operand::ConstInt(_) | Operand::Null => true,
        };
        let inst = |i: &Inst| match i {
            Inst::Alloca { ty, .. } | Inst::HeapAlloc { ty: Some(ty), .. } => {
                type_within(ty, types)
            }
            Inst::HeapAlloc { ty: None, .. } | Inst::Input { .. } => true,
            Inst::Copy { src, .. }
            | Inst::Load { src, .. }
            | Inst::Output { src }
            | Inst::FieldAddr { base: src, .. } => op(src),
            Inst::Store { dst: a, src: b }
            | Inst::PtrArith {
                base: a, offset: b, ..
            }
            | Inst::ElemAddr {
                base: a, index: b, ..
            }
            | Inst::BinOp { lhs: a, rhs: b, .. } => op(a) && op(b),
            Inst::Call { callee, args, .. } => callee.index() < funcs && args.iter().all(op),
            Inst::CallInd { callee, args, .. } => op(callee) && args.iter().all(op),
        };
        type_within(&self.ret_ty, types)
            && self.locals.iter().all(|l| type_within(&l.ty, types))
            && self.blocks.iter().all(|b| {
                b.insts.iter().all(inst)
                    && match &b.term {
                        Terminator::Jump(_) | Terminator::Ret(None) => true,
                        Terminator::Branch { cond: v, .. } | Terminator::Ret(Some(v)) => op(v),
                    }
            })
    }
}

/// Whether every struct type `ty` names is among the first `types`.
fn type_within(ty: &Type, types: usize) -> bool {
    match ty {
        Type::Void | Type::Int => true,
        Type::Ptr(t) | Type::Array(t, _) => type_within(t, types),
        Type::Struct(s) => s.index() < types,
        Type::Func(FuncSig { params, ret }) => {
            type_within(ret, types) && params.iter().all(|p| type_within(p, types))
        }
    }
}

/// A whole program: types, globals, and functions.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module name (diagnostics only).
    pub name: String,
    /// Struct type registry.
    pub types: TypeRegistry,
    /// Global variables.
    pub globals: Vec<GlobalDecl>,
    /// Function definitions.
    pub funcs: Vec<Function>,
    global_by_name: HashMap<String, GlobalId>,
    func_by_name: HashMap<String, FuncId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declare a global variable. Returns `None` if the name is taken.
    pub fn add_global(&mut self, name: impl Into<String>, ty: Type) -> Option<GlobalId> {
        let name = name.into();
        if self.global_by_name.contains_key(&name) {
            return None;
        }
        let id = GlobalId(self.globals.len() as u32);
        self.global_by_name.insert(name.clone(), id);
        self.globals.push(GlobalDecl { name, ty });
        Some(id)
    }

    /// Add a function definition. Returns `None` if the name is taken.
    pub fn add_func(&mut self, func: Function) -> Option<FuncId> {
        if self.func_by_name.contains_key(&func.name) {
            return None;
        }
        let id = FuncId(self.funcs.len() as u32);
        self.func_by_name.insert(func.name.clone(), id);
        self.funcs.push(func);
        Some(id)
    }

    /// Reserve a function slot (for forward references while building).
    ///
    /// The body must later be filled in with [`Module::replace_func`].
    pub fn declare_func(
        &mut self,
        name: impl Into<String>,
        param_tys: Vec<Type>,
        ret_ty: Type,
    ) -> Option<FuncId> {
        let name = name.into();
        if self.func_by_name.contains_key(&name) {
            return None;
        }
        let locals = param_tys
            .into_iter()
            .enumerate()
            .map(|(i, ty)| LocalDecl {
                name: format!("arg{i}"),
                ty,
            })
            .collect::<Vec<_>>();
        let f = Function {
            name: name.clone(),
            param_count: locals.len(),
            ret_ty,
            locals,
            blocks: vec![Block {
                insts: vec![],
                term: Terminator::Ret(None),
            }],
        };
        let id = FuncId(self.funcs.len() as u32);
        self.func_by_name.insert(name, id);
        self.funcs.push(f);
        Some(id)
    }

    /// Replace a previously declared function's definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or if `func.name` differs from the
    /// declared name.
    pub fn replace_func(&mut self, id: FuncId, func: Function) {
        assert_eq!(
            self.funcs[id.index()].name,
            func.name,
            "replace_func must keep the declared name"
        );
        self.funcs[id.index()] = func;
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_by_name.get(name).copied()
    }

    /// Look up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_by_name.get(name).copied()
    }

    /// Get a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Get a global by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn global(&self, id: GlobalId) -> &GlobalDecl {
        &self.globals[id.index()]
    }

    /// Iterate over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Iterate over `(GlobalId, &GlobalDecl)` pairs.
    pub fn iter_globals(&self) -> impl Iterator<Item = (GlobalId, &GlobalDecl)> {
        self.globals
            .iter()
            .enumerate()
            .map(|(i, g)| (GlobalId(i as u32), g))
    }

    /// The instruction at a location, if the location is valid.
    pub fn inst_at(&self, loc: InstLoc) -> Option<&Inst> {
        self.funcs
            .get(loc.func.index())?
            .blocks
            .get(loc.block.index())?
            .insts
            .get(loc.inst as usize)
    }

    /// All instruction locations in the module, in deterministic order.
    pub fn iter_locs(&self) -> impl Iterator<Item = (InstLoc, &Inst)> {
        self.iter_funcs().flat_map(|(fid, f)| {
            f.iter_blocks().flat_map(move |(bid, b)| {
                b.insts
                    .iter()
                    .enumerate()
                    .map(move |(i, inst)| (InstLoc::new(fid, bid, i as u32), inst))
            })
        })
    }

    /// The set of *address-taken* functions: functions whose address appears
    /// as an operand anywhere (i.e. potential indirect-call targets — the
    /// universe a coarse CFI policy would allow, cf. Figure 1 of the paper).
    pub fn address_taken_funcs(&self) -> Vec<FuncId> {
        let mut taken = vec![false; self.funcs.len()];
        for (_, inst) in self.iter_locs() {
            // A direct call mentions its callee as a constant, not by taking
            // its address; only non-callee uses count as address-taken.
            let ops = match inst {
                Inst::Call { args, .. } => args.clone(),
                other => other.uses(),
            };
            for op in ops {
                if let Operand::Func(f) = op {
                    taken[f.index()] = true;
                }
            }
        }
        taken
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| FuncId(i as u32))
            .collect()
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }

    /// Lines of the textual form (the "LoC" we report for models, Table 2).
    pub fn loc(&self) -> usize {
        self.to_text().lines().count()
    }

    /// This module cut to the first `counts.funcs` functions,
    /// `counts.globals` globals and `counts.types` struct types: the earlier
    /// revision a [`revision_prefix`](crate::printer::revision_prefix)
    /// match names, under this module's name. `None` when a count exceeds
    /// the module's or a kept item refers to one past the cut, which no
    /// text that parses describes.
    pub fn truncated(&self, counts: PrefixCounts) -> Option<Module> {
        let PrefixCounts {
            funcs,
            globals,
            types,
        } = counts;
        if funcs > self.funcs.len() || globals > self.globals.len() || types > self.types.len() {
            return None;
        }
        let mut m = Module::new(self.name.clone());
        for (_, def) in self.types.iter().take(types) {
            if !def.fields.iter().all(|t| type_within(t, types)) {
                return None;
            }
            m.types.declare(def.name.clone(), def.fields.clone())?;
        }
        for g in &self.globals[..globals] {
            if !type_within(&g.ty, types) {
                return None;
            }
            m.add_global(g.name.clone(), g.ty.clone())?;
        }
        for f in &self.funcs[..funcs] {
            if !f.refers_within(funcs, globals, types) {
                return None;
            }
            m.add_func(f.clone())?;
        }
        Some(m)
    }

    /// Stable content fingerprint: [`fnv1a64`] over the canonical textual
    /// form.
    ///
    /// Two modules with the same printed IR (names, types, instructions)
    /// fingerprint identically, across processes and runs — this keys the
    /// executor's content-addressed artifact cache, so it must not depend
    /// on allocation order, hash-map iteration, or anything non-canonical.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(&[self.to_text().as_bytes()])
    }
}

/// 64-bit FNV-1a over `chunks`, read as one byte stream.
///
/// The workspace's one content hash: module fingerprints, frontend cache
/// keys, tenant-head file names and disk-cache integrity sidecars all use
/// it, so a change of digest happens here.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_module() -> Module {
        let mut m = Module::new("t");
        m.add_global("g", Type::Int).unwrap();
        let f = Function {
            name: "f".into(),
            param_count: 1,
            ret_ty: Type::Void,
            locals: vec![
                LocalDecl {
                    name: "a".into(),
                    ty: Type::ptr(Type::Int),
                },
                LocalDecl {
                    name: "t".into(),
                    ty: Type::Int,
                },
            ],
            blocks: vec![Block {
                insts: vec![
                    Inst::Load {
                        dst: LocalId(1),
                        src: Operand::Local(LocalId(0)),
                    },
                    Inst::Output {
                        src: Operand::Local(LocalId(1)),
                    },
                ],
                term: Terminator::Ret(None),
            }],
        };
        m.add_func(f).unwrap();
        m
    }

    #[test]
    fn add_and_lookup() {
        let m = mini_module();
        assert_eq!(m.func_by_name("f"), Some(FuncId(0)));
        assert_eq!(m.global_by_name("g"), Some(GlobalId(0)));
        assert_eq!(m.func(FuncId(0)).param_count, 1);
        assert!(m.func_by_name("missing").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = mini_module();
        assert!(m.add_global("g", Type::Int).is_none());
        let f = m.func(FuncId(0)).clone();
        assert!(m.add_func(f).is_none());
    }

    #[test]
    fn inst_at_and_iter_locs() {
        let m = mini_module();
        let locs: Vec<_> = m.iter_locs().collect();
        assert_eq!(locs.len(), 2);
        let (loc, inst) = locs[0];
        assert_eq!(m.inst_at(loc), Some(inst));
        assert!(m.inst_at(InstLoc::new(FuncId(9), BlockId(0), 0)).is_none());
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Store {
            dst: Operand::Local(LocalId(0)),
            src: Operand::ConstInt(3),
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses().len(), 2);
        let l = Inst::Load {
            dst: LocalId(2),
            src: Operand::Global(GlobalId(0)),
        };
        assert_eq!(l.def(), Some(LocalId(2)));
    }

    #[test]
    fn address_taken_excludes_direct_callees() {
        let mut m = Module::new("at");
        let callee = m.declare_func("callee", vec![], Type::Void).unwrap();
        let taken = m.declare_func("taken", vec![], Type::Void).unwrap();
        let f = Function {
            name: "main".into(),
            param_count: 0,
            ret_ty: Type::Void,
            locals: vec![LocalDecl {
                name: "fp".into(),
                ty: Type::fn_ptr(vec![], Type::Void),
            }],
            blocks: vec![Block {
                insts: vec![
                    Inst::Call {
                        dst: None,
                        callee,
                        args: vec![],
                    },
                    Inst::Copy {
                        dst: LocalId(0),
                        src: Operand::Func(taken),
                    },
                ],
                term: Terminator::Ret(None),
            }],
        };
        m.add_func(f).unwrap();
        assert_eq!(m.address_taken_funcs(), vec![taken]);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::ConstInt(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn func_sig_from_locals() {
        let m = mini_module();
        let sig = m.func(FuncId(0)).sig();
        assert_eq!(sig.params, vec![Type::ptr(Type::Int)]);
        assert_eq!(*sig.ret, Type::Void);
    }

    #[test]
    fn fnv1a64_matches_the_reference_digests() {
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(&[b"foo", b"", b"bar"]), fnv1a64(&[b"foobar"]));
    }

    #[test]
    fn fingerprint_is_stable_and_content_addressed() {
        let a = mini_module();
        let b = mini_module();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same key");
        let mut c = mini_module();
        c.add_global("extra", Type::Int).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint(), "content change, new key");
    }
}
