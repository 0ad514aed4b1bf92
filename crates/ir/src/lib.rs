//! A small typed intermediate representation (IR) for C-like programs.
//!
//! This crate is the substrate the Kaleidoscope reproduction analyzes and
//! executes. It plays the role LLVM IR plays in the paper: it carries exactly
//! the statement forms the pointer analysis of Table 1 consumes —
//! address-of (via [`Inst::Alloca`], globals, and function references),
//! copy, load, store, and field-of — plus the two constructs the paper's
//! likely invariants revolve around: *arbitrary pointer arithmetic*
//! ([`Inst::PtrArith`]) and direct/indirect calls.
//!
//! The IR is deliberately register-based and non-SSA: locals may be assigned
//! multiple times, matching the flow-insensitive view the analysis takes.
//!
//! # Example
//!
//! Build the three-statement program of Figure 2 of the paper
//! (`p = &o; q = &p; r = *q;`) and print it:
//!
//! ```
//! use kaleidoscope_ir::{Module, Type, FunctionBuilder};
//!
//! let mut module = Module::new("fig2");
//! let mut b = FunctionBuilder::new(&mut module, "main", vec![], Type::Void);
//! let o = b.alloca("o", Type::Int);
//! let p = b.alloca("p", Type::ptr(Type::Int));
//! let q = b.alloca("q", Type::ptr(Type::ptr(Type::Int)));
//! let r = b.alloca("r", Type::ptr(Type::Int));
//! b.store(p, o);       // p = &o
//! b.store(q, p);       // q = &p
//! let tmp = b.load("tmp", q); // tmp = *q
//! let v = b.load("v", tmp);   // v = *p (i.e. r's value)
//! b.store(r, v);
//! b.ret(None);
//! b.finish();
//! let text = module.to_text();
//! assert!(text.contains("fig2"));
//! ```

pub mod builder;
pub mod codec;
pub mod intern;
pub mod layout;
pub mod lexer;
pub mod loc;
pub mod module;
pub mod parser;
pub mod printer;
pub mod transform;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use intern::{Interner, Symbol};
pub use layout::Layout;
pub use loc::InstLoc;
pub use module::{
    fnv1a64, BinOpKind, Block, BlockId, FuncId, Function, GlobalDecl, GlobalId, Inst, ItemRef,
    LocalDecl, LocalId, Module, Operand, Terminator,
};
pub use parser::{parse_header, parse_module, ModuleShell, ParseError};
pub use printer::{revision_prefix, PrefixCounts};
pub use transform::{mem2reg, Mem2RegStats};
pub use types::{FuncSig, StructDef, StructId, Type, TypeRegistry};
pub use verify::{verify_module, VerifyError};
