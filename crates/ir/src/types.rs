//! The type system of the Kaleidoscope IR.
//!
//! Types matter to the pointer analysis in three ways:
//!
//! * struct types define the *fields* that field-sensitive analysis
//!   distinguishes (paper §2.2, "Field Sensitivity");
//! * the arbitrary-pointer-arithmetic likely invariant filters objects of
//!   *struct* type from points-to sets (paper §4.2) — so the analysis must be
//!   able to ask "is this object a struct object?";
//! * heap allocations carry an optional `sizeof`-style type annotation
//!   (paper §6, "Heap Type Detection").

use std::collections::HashMap;
use std::fmt;

/// Identifier of a named struct type registered in a [`TypeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructId(pub u32);

impl StructId {
    /// Index into the registry's struct table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "struct#{}", self.0)
    }
}

/// The signature of a function type: parameter types and return type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncSig {
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type ([`Type::Void`] for procedures).
    pub ret: Box<Type>,
}

impl FuncSig {
    /// Create a signature from parameter types and a return type.
    pub fn new(params: Vec<Type>, ret: Type) -> Self {
        FuncSig {
            params,
            ret: Box::new(ret),
        }
    }

    /// Whether a call through a pointer of this signature may dispatch to a
    /// function of signature `other`.
    ///
    /// Mirrors the arity-based compatibility used when building the
    /// on-the-fly call graph: C codebases routinely cast function pointers,
    /// so exact type equality would be unsound in practice; arity matching is
    /// what SVF effectively falls back to.
    pub fn arity_compatible(&self, other: &FuncSig) -> bool {
        self.params.len() == other.params.len()
    }
}

impl fmt::Display for FuncSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> {}", self.ret)
    }
}

/// A type in the Kaleidoscope IR.
///
/// The representation is structural except for [`Type::Struct`], which refers
/// to a named definition in the module's [`TypeRegistry`] (this permits
/// recursive types such as linked lists).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// No value; only valid as a return type.
    Void,
    /// A machine integer. Widths are not distinguished: the analysis only
    /// cares whether a value is a pointer.
    Int,
    /// A typed pointer.
    Ptr(Box<Type>),
    /// A named struct type; fields live in the [`TypeRegistry`].
    Struct(StructId),
    /// A fixed-length array.
    Array(Box<Type>, usize),
    /// A function type. A function *pointer* is `Ptr(Func(..))`.
    Func(FuncSig),
}

impl Type {
    /// Convenience constructor for `Ptr`.
    pub fn ptr(inner: Type) -> Type {
        Type::Ptr(Box::new(inner))
    }

    /// Convenience constructor for `Array`.
    pub fn array(elem: Type, len: usize) -> Type {
        Type::Array(Box::new(elem), len)
    }

    /// Convenience constructor for a function-pointer type.
    pub fn fn_ptr(params: Vec<Type>, ret: Type) -> Type {
        Type::ptr(Type::Func(FuncSig::new(params, ret)))
    }

    /// Whether this is a pointer type (including function pointers).
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Whether this is a struct type.
    pub fn is_struct(&self) -> bool {
        matches!(self, Type::Struct(_))
    }

    /// The pointee type, if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// Visit every struct type this type names, at any depth of pointers,
    /// arrays and function signatures (parameters before the return).
    pub fn for_each_struct(&self, visit: &mut impl FnMut(StructId)) {
        match self {
            Type::Void | Type::Int => {}
            Type::Ptr(t) | Type::Array(t, _) => t.for_each_struct(visit),
            Type::Struct(s) => visit(*s),
            Type::Func(FuncSig { params, ret }) => {
                for p in params {
                    p.for_each_struct(visit);
                }
                ret.for_each_struct(visit);
            }
        }
    }

    /// Element type, if this is an array.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Struct(s) => write!(f, "{s}"),
            Type::Array(t, n) => write!(f, "[{t}; {n}]"),
            Type::Func(sig) => write!(f, "{sig}"),
        }
    }
}

/// A named struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Source-level name, unique within a module.
    pub name: String,
    /// Field types, in declaration order.
    pub fields: Vec<Type>,
}

impl StructDef {
    /// Number of declared fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }
}

/// Registry of the struct types declared by a module.
///
/// Struct names are unique; redefinition is an error surfaced by
/// [`TypeRegistry::declare`].
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    structs: Vec<StructDef>,
    by_name: HashMap<String, StructId>,
}

impl TypeRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a struct type. Returns its id, or `None` if the name is
    /// already taken by a *different* definition (declaring an identical
    /// definition twice is idempotent).
    pub fn declare(&mut self, name: impl Into<String>, fields: Vec<Type>) -> Option<StructId> {
        let name = name.into();
        if let Some(&existing) = self.by_name.get(&name) {
            if self.structs[existing.index()].fields == fields {
                return Some(existing);
            }
            return None;
        }
        let id = StructId(self.structs.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.structs.push(StructDef { name, fields });
        Some(id)
    }

    /// Look up a struct by name.
    pub fn by_name(&self, name: &str) -> Option<StructId> {
        self.by_name.get(name).copied()
    }

    /// Replace the fields of an already-declared struct.
    ///
    /// Intended for frontends/parsers that must register all struct *names*
    /// before any field types can be resolved (mutually recursive structs).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this registry.
    pub fn define_fields(&mut self, id: StructId, fields: Vec<Type>) {
        self.structs[id.index()].fields = fields;
    }

    /// Get the definition of a struct.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this registry.
    pub fn def(&self, id: StructId) -> &StructDef {
        &self.structs[id.index()]
    }

    /// Get the definition of a struct if the id is valid.
    pub fn get(&self, id: StructId) -> Option<&StructDef> {
        self.structs.get(id.index())
    }

    /// Iterate over all `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StructId, &StructDef)> {
        self.structs
            .iter()
            .enumerate()
            .map(|(i, d)| (StructId(i as u32), d))
    }

    /// Number of declared structs.
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// Whether no structs are declared.
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }

    /// Whether the type (transitively) contains a function pointer field.
    ///
    /// The paper's introspection highlights structs with function-pointer
    /// fields because losing their field sensitivity corrupts the call graph
    /// (paper §4.1, "Observation").
    pub fn contains_fn_ptr(&self, ty: &Type) -> bool {
        self.contains_fn_ptr_depth(ty, 0)
    }

    fn contains_fn_ptr_depth(&self, ty: &Type, depth: usize) -> bool {
        if depth > 16 {
            // Recursive struct chains (e.g. linked lists) are cut off; a
            // function pointer nested deeper than this cannot occur in the
            // bounded types our layouts accept anyway.
            return false;
        }
        match ty {
            Type::Ptr(inner) => matches!(**inner, Type::Func(_)),
            Type::Struct(s) => self.structs[s.index()]
                .fields
                .iter()
                .any(|f| self.contains_fn_ptr_depth(f, depth + 1)),
            Type::Array(elem, _) => self.contains_fn_ptr_depth(elem, depth + 1),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptr_constructors_and_queries() {
        let t = Type::ptr(Type::Int);
        assert!(t.is_ptr());
        assert_eq!(t.pointee(), Some(&Type::Int));
        assert!(!t.is_struct());
        assert_eq!(t.to_string(), "int*");
    }

    #[test]
    fn fn_ptr_display() {
        let t = Type::fn_ptr(vec![Type::ptr(Type::Int)], Type::Int);
        assert_eq!(t.to_string(), "fn(int*) -> int*");
    }

    #[test]
    fn declare_and_lookup_struct() {
        let mut reg = TypeRegistry::new();
        let s = reg
            .declare("plugin", vec![Type::ptr(Type::Int), Type::Int])
            .unwrap();
        assert_eq!(reg.by_name("plugin"), Some(s));
        assert_eq!(reg.def(s).name, "plugin");
        assert_eq!(reg.def(s).field_count(), 2);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn redeclare_identical_is_idempotent() {
        let mut reg = TypeRegistry::new();
        let a = reg.declare("s", vec![Type::Int]).unwrap();
        let b = reg.declare("s", vec![Type::Int]).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn redeclare_conflicting_fails() {
        let mut reg = TypeRegistry::new();
        reg.declare("s", vec![Type::Int]).unwrap();
        assert!(reg.declare("s", vec![Type::ptr(Type::Int)]).is_none());
    }

    #[test]
    fn contains_fn_ptr_direct_and_nested() {
        let mut reg = TypeRegistry::new();
        let inner = reg
            .declare("cbs", vec![Type::fn_ptr(vec![], Type::Void)])
            .unwrap();
        let outer = reg
            .declare("ctx", vec![Type::Int, Type::Struct(inner)])
            .unwrap();
        assert!(reg.contains_fn_ptr(&Type::Struct(inner)));
        assert!(reg.contains_fn_ptr(&Type::Struct(outer)));
        assert!(!reg.contains_fn_ptr(&Type::Int));
        assert!(reg.contains_fn_ptr(&Type::array(Type::Struct(inner), 4)));
    }

    #[test]
    fn recursive_struct_fn_ptr_terminates() {
        let mut reg = TypeRegistry::new();
        // struct node { node* next; int v; } — no fn ptr, self-referential.
        let id = StructId(0);
        reg.declare("node", vec![Type::ptr(Type::Struct(id)), Type::Int])
            .unwrap();
        assert!(!reg.contains_fn_ptr(&Type::Struct(id)));
    }

    #[test]
    fn arity_compatibility() {
        let a = FuncSig::new(vec![Type::Int], Type::Void);
        let b = FuncSig::new(vec![Type::ptr(Type::Int)], Type::Int);
        let c = FuncSig::new(vec![], Type::Void);
        assert!(a.arity_compatible(&b));
        assert!(!a.arity_compatible(&c));
    }
}
