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
use crate::types::{FuncSig, StructId, Type, TypeRegistry};

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

    /// The operands this instruction uses, in field order. A direct
    /// call's callee is not an operand.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, args): ([Option<&Operand>; 2], &[Operand]) = match self {
            Inst::Alloca { .. } | Inst::HeapAlloc { .. } | Inst::Input { .. } => {
                ([None, None], &[])
            }
            Inst::Copy { src, .. }
            | Inst::Load { src, .. }
            | Inst::Output { src }
            | Inst::FieldAddr { base: src, .. } => ([Some(src), None], &[]),
            Inst::Store { dst: a, src: b }
            | Inst::PtrArith {
                base: a, offset: b, ..
            }
            | Inst::ElemAddr {
                base: a, index: b, ..
            }
            | Inst::BinOp { lhs: a, rhs: b, .. } => ([Some(a), Some(b)], &[]),
            Inst::Call { args, .. } => ([None, None], args),
            Inst::CallInd { callee, args, .. } => ([Some(callee), None], args),
        };
        fixed.into_iter().flatten().chain(args).copied()
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

    /// The operand this terminator uses: a branch condition or a returned
    /// value.
    pub fn operand(&self) -> Option<Operand> {
        match self {
            Terminator::Branch { cond: op, .. } | Terminator::Ret(Some(op)) => Some(*op),
            Terminator::Jump(_) | Terminator::Ret(None) => None,
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

    /// Visit every function, global and struct type the function names,
    /// in body order: the struct types of its return type and locals, then
    /// each instruction's allocation type, direct callee and operands, and
    /// each terminator's operand. An item named twice is visited twice.
    pub fn for_each_ref(&self, mut visit: impl FnMut(ItemRef)) {
        fn operand(op: Operand, visit: &mut impl FnMut(ItemRef)) {
            match op {
                Operand::Func(f) => visit(ItemRef::FuncAddr(f)),
                Operand::Global(g) => visit(ItemRef::Global(g)),
                Operand::Local(_) | Operand::ConstInt(_) | Operand::Null => {}
            }
        }
        fn ty(t: &Type, visit: &mut impl FnMut(ItemRef)) {
            t.for_each_struct(&mut |s| visit(ItemRef::Struct(s)));
        }
        let visit = &mut visit;
        ty(&self.ret_ty, visit);
        for l in &self.locals {
            ty(&l.ty, visit);
        }
        for b in &self.blocks {
            for inst in &b.insts {
                match inst {
                    Inst::Alloca { ty: t, .. } | Inst::HeapAlloc { ty: Some(t), .. } => {
                        ty(t, visit)
                    }
                    Inst::Call { callee, .. } => visit(ItemRef::Callee(*callee)),
                    _ => {}
                }
                inst.operands().for_each(|op| operand(op, visit));
            }
            if let Some(op) = b.term.operand() {
                operand(op, visit);
            }
        }
    }
}

/// An item of its module that a function names
/// ([`Function::for_each_ref`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemRef {
    /// The callee of a direct call: named, not address-taken.
    Callee(FuncId),
    /// A function whose address is an operand (of any instruction,
    /// indirect calls included, or of a terminator): a potential
    /// indirect-call target.
    FuncAddr(FuncId),
    /// A global, whose address is an operand.
    Global(GlobalId),
    /// A struct type named by the return type, a local's type or an
    /// allocation type, at any depth.
    Struct(StructId),
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
    /// as an operand anywhere, terminators included (i.e. potential
    /// indirect-call targets — the universe a coarse CFI policy would
    /// allow, cf. Figure 1 of the paper). A direct call names its callee
    /// without taking its address.
    pub fn address_taken_funcs(&self) -> Vec<FuncId> {
        let mut taken = vec![false; self.funcs.len()];
        for f in &self.funcs {
            f.for_each_ref(|r| {
                if let ItemRef::FuncAddr(g) = r {
                    taken[g.index()] = true;
                }
            });
        }
        (0..taken.len() as u32)
            .map(FuncId)
            .filter(|f| taken[f.index()])
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

    /// The module's own item counts: what
    /// [`revision_prefix`](crate::printer::revision_prefix) counts for a
    /// revision that is this whole module.
    pub fn item_counts(&self) -> PrefixCounts {
        PrefixCounts {
            funcs: self.funcs.len(),
            globals: self.globals.len(),
            types: self.types.len(),
        }
    }

    /// Whether the first `counts.funcs` functions, `counts.globals` globals
    /// and `counts.types` struct types of this module form a module of
    /// their own: the counts are within the module's, and no kept item
    /// refers to one past them. An earlier revision that a
    /// [`revision_prefix`](crate::printer::revision_prefix) match names is
    /// exactly that prefix, under another name; text that parses refers
    /// only within itself, so a prefix this rejects is no revision's.
    pub fn prefix_closed(&self, counts: PrefixCounts) -> bool {
        let PrefixCounts {
            funcs,
            globals,
            types,
        } = counts;
        let within = |r: ItemRef| match r {
            ItemRef::Callee(f) | ItemRef::FuncAddr(f) => f.index() < funcs,
            ItemRef::Global(g) => g.index() < globals,
            ItemRef::Struct(s) => s.index() < types,
        };
        let struct_refs_within = |t: &Type| {
            let mut ok = true;
            t.for_each_struct(&mut |s| ok &= within(ItemRef::Struct(s)));
            ok
        };
        funcs <= self.funcs.len()
            && globals <= self.globals.len()
            && types <= self.types.len()
            && self
                .types
                .iter()
                .take(types)
                .all(|(_, def)| def.fields.iter().all(struct_refs_within))
            && self.globals[..globals]
                .iter()
                .all(|g| struct_refs_within(&g.ty))
            && self.funcs[..funcs].iter().all(|f| {
                let mut ok = true;
                f.for_each_ref(|r| ok &= within(r));
                ok
            })
    }

    /// Stable content fingerprint: [`fnv1a64`] over the canonical textual
    /// form.
    ///
    /// Two modules with the same printed IR (names, types, instructions)
    /// fingerprint identically, across processes and runs — this keys the
    /// disk cache's modules, reports and snapshots, so it must not depend
    /// on allocation order, hash-map iteration, or anything non-canonical.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(&[self.to_text().as_bytes()])
    }
}

/// 64-bit FNV-1a over `chunks`, read as one byte stream.
///
/// The workspace's one content hash: module fingerprints, frontend cache
/// keys, tenant-head file names and disk-cache integrity sidecars all use
/// it, so a change of digest happens here (and in `Fnv1a64`, its
/// streaming state).
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h = Fnv1a64::new();
    for chunk in chunks {
        h.write(chunk);
    }
    h.finish()
}

/// The streaming state of [`fnv1a64`]: the digest of every byte written
/// so far, readable after each write. One pass over a text yields the
/// digest of each of its prefixes (see
/// [`CommonPrefix::fingerprints`](crate::printer::CommonPrefix::fingerprints)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The state of no bytes.
    pub(crate) const fn new() -> Fnv1a64 {
        Fnv1a64(0xCBF2_9CE4_8422_2325)
    }

    /// Continue the stream with `bytes`.
    #[inline]
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest of the bytes written so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
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
        assert_eq!(i.operands().count(), 2);
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
        let returned = m.declare_func("returned", vec![], Type::Void).unwrap();
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
        // A terminator operand takes an address too.
        let get = Function {
            name: "get".into(),
            param_count: 0,
            ret_ty: Type::fn_ptr(vec![], Type::Void),
            locals: vec![],
            blocks: vec![Block {
                insts: vec![],
                term: Terminator::Ret(Some(Operand::Func(returned))),
            }],
        };
        m.add_func(get).unwrap();
        assert_eq!(m.address_taken_funcs(), vec![taken, returned]);
    }

    #[test]
    fn for_each_ref_tells_callees_from_taken_addresses() {
        let mut m = Module::new("refs");
        let s = m.types.declare("s", vec![Type::Int]).unwrap();
        let g = m.add_global("g", Type::Int).unwrap();
        let callee = m.declare_func("callee", vec![], Type::Void).unwrap();
        let taken = m.declare_func("taken", vec![], Type::Void).unwrap();
        let f = Function {
            name: "main".into(),
            param_count: 0,
            ret_ty: Type::Void,
            locals: vec![LocalDecl {
                name: "fp".into(),
                ty: Type::fn_ptr(vec![Type::ptr(Type::Struct(s))], Type::Void),
            }],
            blocks: vec![Block {
                insts: vec![
                    Inst::Call {
                        dst: None,
                        callee,
                        args: vec![Operand::Global(g)],
                    },
                    Inst::Copy {
                        dst: LocalId(0),
                        src: Operand::Func(taken),
                    },
                ],
                term: Terminator::Branch {
                    cond: Operand::Func(callee),
                    then_bb: BlockId(0),
                    else_bb: BlockId(0),
                },
            }],
        };
        let mut refs = Vec::new();
        f.for_each_ref(|r| refs.push(r));
        assert_eq!(
            refs,
            vec![
                ItemRef::Struct(s),
                ItemRef::Callee(callee),
                ItemRef::Global(g),
                ItemRef::FuncAddr(taken),
                ItemRef::FuncAddr(callee),
            ]
        );
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
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        assert_eq!(h.finish(), fnv1a64(&[b"foo"]));
        h.write(b"bar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
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
