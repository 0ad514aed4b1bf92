//! Textual printing of modules.
//!
//! The format round-trips through [`crate::parser::parse_module`]; the
//! property tests in the parser module rely on this.

use std::fmt::Write as _;

use crate::module::{Block, Fnv1a64, Function, Inst, LocalId, Module, Operand, Terminator};
use crate::types::{FuncSig, Type, TypeRegistry};

// Every token is written straight into one `String`; no per-instruction,
// per-operand or per-type strings are built. Writing to a `String` cannot
// fail, so the `write!` results are discarded.

impl Module {
    /// Render the module in its textual form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "module \"{}\"", self.name);
        for (_, def) in self.types.iter() {
            let _ = write!(out, "struct {} {{ ", def.name);
            for (i, f) in def.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_type(&mut out, f, &self.types);
            }
            out.push_str(" }\n");
        }
        for g in &self.globals {
            let _ = write!(out, "global {}: ", g.name);
            write_type(&mut out, &g.ty, &self.types);
            out.push('\n');
        }
        for f in &self.funcs {
            out.push('\n');
            self.write_func(&mut out, f);
        }
        out
    }

    fn write_func(&self, out: &mut String, f: &Function) {
        let _ = write!(out, "func {}(", f.name);
        for (i, l) in f.locals[..f.param_count].iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "%{i} {}: ", l.name);
            write_type(out, &l.ty, &self.types);
        }
        out.push_str(") -> ");
        write_type(out, &f.ret_ty, &self.types);
        out.push_str(" {\n");
        for (i, l) in f.locals.iter().enumerate().skip(f.param_count) {
            let _ = write!(out, "  local %{i} {}: ", l.name);
            write_type(out, &l.ty, &self.types);
            out.push('\n');
        }
        for (i, b) in f.blocks.iter().enumerate() {
            let _ = writeln!(out, "bb{i}:");
            self.write_block(out, b);
        }
        out.push_str("}\n");
    }

    fn write_block(&self, out: &mut String, b: &Block) {
        for inst in &b.insts {
            out.push_str("  ");
            self.write_inst(out, inst);
            out.push('\n');
        }
        out.push_str("  ");
        match &b.term {
            Terminator::Jump(bb) => {
                let _ = write!(out, "jmp {bb}");
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                out.push_str("br ");
                self.write_op(out, cond);
                let _ = write!(out, ", {then_bb}, {else_bb}");
            }
            Terminator::Ret(Some(v)) => {
                out.push_str("ret ");
                self.write_op(out, v);
            }
            Terminator::Ret(None) => out.push_str("ret"),
        }
        out.push('\n');
    }

    /// Render one instruction (used by diagnostics as well as `to_text`).
    pub fn inst_text(&self, inst: &Inst) -> String {
        let mut out = String::new();
        self.write_inst(&mut out, inst);
        out
    }

    fn write_inst(&self, out: &mut String, inst: &Inst) {
        match inst {
            Inst::Alloca { dst, ty } => {
                def(out, dst, "alloca ");
                write_type(out, ty, &self.types);
            }
            Inst::HeapAlloc { dst, ty: Some(ty) } => {
                def(out, dst, "halloc ");
                write_type(out, ty, &self.types);
            }
            Inst::HeapAlloc { dst, ty: None } => def(out, dst, "halloc ?"),
            Inst::Copy { dst, src } => {
                def(out, dst, "copy ");
                self.write_op(out, src);
            }
            Inst::Load { dst, src } => {
                def(out, dst, "load ");
                self.write_op(out, src);
            }
            Inst::Store { dst, src } => {
                out.push_str("store ");
                self.write_op(out, src);
                out.push_str(" -> ");
                self.write_op(out, dst);
            }
            Inst::FieldAddr { dst, base, field } => {
                def(out, dst, "field ");
                self.write_op(out, base);
                let _ = write!(out, ", {field}");
            }
            Inst::PtrArith { dst, base, offset } => {
                def(out, dst, "arith ");
                self.write_ops(out, &[*base, *offset]);
            }
            Inst::ElemAddr { dst, base, index } => {
                def(out, dst, "elem ");
                self.write_ops(out, &[*base, *index]);
            }
            Inst::BinOp { dst, op, lhs, rhs } => {
                let _ = write!(out, "{dst} = {op} ");
                self.write_ops(out, &[*lhs, *rhs]);
            }
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    def(out, d, "");
                }
                out.push_str("call @");
                out.push_str(&self.func(*callee).name);
                out.push('(');
                self.write_ops(out, args);
                out.push(')');
            }
            Inst::CallInd { dst, callee, args } => {
                if let Some(d) = dst {
                    def(out, d, "");
                }
                out.push_str("icall ");
                self.write_op(out, callee);
                out.push('(');
                self.write_ops(out, args);
                out.push(')');
            }
            Inst::Input { dst } => def(out, dst, "input"),
            Inst::Output { src } => {
                out.push_str("output ");
                self.write_op(out, src);
            }
        }
    }

    /// Operands separated by `", "`.
    fn write_ops(&self, out: &mut String, ops: &[Operand]) {
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            self.write_op(out, op);
        }
    }

    fn write_op(&self, out: &mut String, op: &Operand) {
        match op {
            Operand::Local(l) => {
                let _ = write!(out, "{l}");
            }
            Operand::Global(g) => {
                out.push('$');
                out.push_str(&self.global(*g).name);
            }
            Operand::Func(f) => {
                out.push('@');
                out.push_str(&self.func(*f).name);
            }
            Operand::ConstInt(v) => {
                let _ = write!(out, "{v}");
            }
            Operand::Null => out.push_str("null"),
        }
    }
}

/// The item counts of a module's prefix: its first `funcs` functions,
/// `globals` globals and `types` struct types (see [`revision_prefix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCounts {
    /// Functions.
    pub funcs: usize,
    /// Globals.
    pub globals: usize,
    /// Struct types.
    pub types: usize,
}

/// What a stored revision's text and the current module's canonical text
/// share, section by section (see [`revision_prefix`]).
#[derive(Debug, Clone, Copy)]
pub struct CommonPrefix<'a> {
    /// The leading struct lines, global lines and function chunks the two
    /// texts share, each section counted on its own.
    pub counts: PrefixCounts,
    /// Whether the stored text was consumed whole: it is the current
    /// module's first `counts` items, so the module extends the revision
    /// whenever [`Module::prefix_closed`] accepts the counts.
    pub whole: bool,
    /// The current text's name line and common struct lines.
    head: &'a str,
    /// The current text's common global lines.
    globals: &'a str,
    /// The current text's common function chunks.
    funcs: &'a str,
}

impl CommonPrefix<'_> {
    /// Entry `k` is the fingerprint of the current module's own prefix of
    /// the common struct and global lines and its first `k` functions, for
    /// `k` from 0 to `counts.funcs`: what [`Module::fingerprint`] returns
    /// for that module under the current module's name, whenever
    /// [`Module::prefix_closed`] accepts its counts. One streaming pass
    /// over the common prefix.
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut h = Fnv1a64::new();
        h.write(self.head.as_bytes());
        h.write(self.globals.as_bytes());
        let mut out = Vec::with_capacity(self.counts.funcs + 1);
        out.push(h.finish());
        let mut rest = self.funcs;
        while let Some(end) = rest.find("\n}\n") {
            let (chunk, tail) = rest.split_at(end + 3);
            h.write(chunk.as_bytes());
            out.push(h.finish());
            rest = tail;
        }
        out
    }
}

/// Compare `prev`, the stored text of an earlier revision, with `current`,
/// the canonical text of the module being analyzed, both as
/// [`Module::to_text`] prints them, in one walk. The module-name lines are
/// not compared. Each section is counted on its own: the leading struct
/// lines both texts share, then the leading global lines, then the leading
/// function chunks (a blank line, `func`, through the closing `}` line),
/// stopping at the first chunk that differs. `prev` describes a prefix of
/// the module ([`CommonPrefix::whole`]) when every one of its lines and
/// chunks was shared and nothing else follows; since `parse(print(m)) ==
/// m`, the module `prev` parses to is then the current module's first
/// that many items, up to its name, whenever [`Module::prefix_closed`]
/// accepts them. `None` when `prev` is not shaped as a module's text up to
/// where the walk stops (no common prefix).
///
/// In canonical text a line that is exactly `}` closes a function, so a
/// chunk of `prev` that starts `current` is one of `current`'s chunks.
pub fn revision_prefix<'a>(prev: &str, current: &'a str) -> Option<CommonPrefix<'a>> {
    let name_line_end = |t: &str| {
        let end = t.find('\n').map_or(t.len(), |i| i + 1);
        (t.starts_with("module \"") && t[..end].trim_end().ends_with('"')).then_some(end)
    };
    let (mut p, mut c) = (
        &prev[name_line_end(prev)?..],
        &current[name_line_end(current)?..],
    );
    // The offset in `current` of its rest `c`.
    let at = |c: &str| current.len() - c.len();
    let mut counts = PrefixCounts {
        funcs: 0,
        globals: 0,
        types: 0,
    };
    let mut whole = true;
    // Where each section's common lines start and end in `current`.
    let (mut structs, mut globals) = ((0, 0), (0, 0));
    for (keyword, count, span) in [
        ("struct ", &mut counts.types, &mut structs),
        ("global ", &mut counts.globals, &mut globals),
    ] {
        span.0 = at(c);
        while p.starts_with(keyword) {
            let line = &p[..=p.find('\n')?];
            let Some(rest) = c.strip_prefix(line) else {
                break;
            };
            (p, c) = (&p[line.len()..], rest);
            *count += 1;
        }
        span.1 = at(c);
        // Each text's further lines of this section.
        whole &= !p.starts_with(keyword);
        while p.starts_with(keyword) {
            p = &p[p.find('\n')? + 1..];
        }
        while c.starts_with(keyword) {
            c = c.find('\n').map_or("", |i| &c[i + 1..]);
        }
    }
    let funcs_start = at(c);
    while !p.is_empty() {
        if !p.starts_with("\nfunc ") {
            return None;
        }
        let chunk = &p[..p.find("\n}\n")? + 3];
        let Some(rest) = c.strip_prefix(chunk) else {
            whole = false;
            break;
        };
        (p, c) = (&p[chunk.len()..], rest);
        counts.funcs += 1;
    }
    Some(CommonPrefix {
        counts,
        whole,
        head: &current[..structs.1],
        globals: &current[globals.0..globals.1],
        funcs: &current[funcs_start..at(c)],
    })
}

/// `dst = ` followed by `rest` (an instruction's mnemonic).
fn def(out: &mut String, dst: &LocalId, rest: &str) {
    let _ = write!(out, "{dst} = {rest}");
}

/// Render a type using struct *names* (so the text can be re-parsed).
///
/// Pointers to function types are parenthesized — `(fn(int) -> int)*` —
/// because `fn(int) -> int*` denotes a function *returning* `int*`.
pub fn type_text(ty: &Type, reg: &TypeRegistry) -> String {
    let mut out = String::new();
    write_type(&mut out, ty, reg);
    out
}

fn write_type(out: &mut String, ty: &Type, reg: &TypeRegistry) {
    match ty {
        Type::Void => out.push_str("void"),
        Type::Int => out.push_str("int"),
        Type::Ptr(t) => match **t {
            Type::Func(_) => {
                out.push('(');
                write_type(out, t, reg);
                out.push_str(")*");
            }
            _ => {
                write_type(out, t, reg);
                out.push('*');
            }
        },
        Type::Struct(s) => out.push_str(&reg.def(*s).name),
        Type::Array(t, n) => {
            out.push('[');
            write_type(out, t, reg);
            let _ = write!(out, "; {n}]");
        }
        Type::Func(FuncSig { params, ret }) => {
            out.push_str("fn(");
            for (i, p) in params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_type(out, p, reg);
            }
            out.push_str(") -> ");
            write_type(out, ret, reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::BinOpKind;

    #[test]
    fn prints_structs_globals_and_functions() {
        let mut m = Module::new("demo");
        let s = m
            .types
            .declare("plugin", vec![Type::Int, Type::fn_ptr(vec![], Type::Void)])
            .unwrap();
        m.add_global("mod_auth", Type::Struct(s)).unwrap();
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("x", Type::Int)], Type::Int);
        let x = b.param(0);
        let y = b.binop("y", BinOpKind::Add, x, 1i64);
        b.ret(Some(y.into()));
        b.finish();
        let text = m.to_text();
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("struct plugin { int, (fn() -> void)* }"));
        assert!(text.contains("global mod_auth: plugin"));
        assert!(text.contains("func f(%0 x: int) -> int {"));
        assert!(text.contains("%1 = add %0, 1"));
        assert!(text.contains("ret %1"));
    }

    /// Every instruction, terminator and type form, in canonical text.
    const ALL_FORMS: &str = r#"module "pin"
struct pair { int, int* }
struct node { pair, [int*; 4], (fn(int, pair*) -> int*)* }
struct empty {  }
global g: int
global table: [(fn() -> void)*; 2]

func callee(%0 a: int, %1 p: pair*) -> int* {
  local %2 r: int*
bb0:
  %2 = field %1, 1
  ret %2
}

func main() -> void {
  local %0 s: pair*
  local %1 h: int*
  local %2 u: int*
  local %3 c: pair*
  local %4 v: int
  local %5 f: int*
  local %6 q: int*
  local %7 e: int*
  local %8 x: int
  local %9 r: int*
  local %10 ri: int*
  local %11 fp: (fn() -> void)*
  local %12 i: int
bb0:
  %0 = alloca pair
  %1 = halloc int
  %2 = halloc ?
  %3 = copy %0
  %4 = load %1
  store %4 -> $g
  %5 = field %3, 0
  %6 = arith %5, %4
  %7 = elem %6, -3
  %8 = add %4, 1
  %9 = call @callee(%8, %0)
  call @callee(7, null)
  %10 = icall @callee(%8, %0)
  icall %11()
  %12 = input
  output %12
  br %12, bb1, bb2
bb1:
  jmp bb2
bb2:
  ret
}
"#;

    #[test]
    fn revision_prefix_compares_sections_and_the_prefix_scan_guards_the_cut() {
        let current = crate::parser::parse_module(ALL_FORMS).expect("parses");
        let text = current.to_text();
        let (head, main) = text.split_at(text.find("\nfunc main").expect("main"));
        let walk = |prev: &str| revision_prefix(prev, &text).map(|c| (c.counts, c.whole));
        let all = PrefixCounts {
            funcs: 2,
            globals: 2,
            types: 3,
        };
        assert_eq!(walk(&text), Some((all, true)));
        let callee_only = PrefixCounts { funcs: 1, ..all };
        assert_eq!(walk(head), Some((callee_only, true)));
        let renamed = head.replacen("\"pin\"", "\"other\"", 1);
        assert_eq!(walk(&renamed), Some((callee_only, true)));
        assert!(current.prefix_closed(callee_only));
        let empty = "module \"e\"\n";
        let none = PrefixCounts {
            funcs: 0,
            globals: 0,
            types: 0,
        };
        assert_eq!(walk(empty), Some((none, true)));
        assert!(current.prefix_closed(none));
        assert!(current.prefix_closed(all));

        // Not consumed whole: each section is counted on its own, and the
        // functions stop at the first chunk that differs. A removed
        // function (the stored text has one more), a changed function
        // (`main` still matches but follows it), a changed struct, a
        // changed global.
        let grown = format!("{text}{}", main.replacen("func main", "func main2", 1));
        let changed = text.replacen("%2 = field %1, 1", "%2 = field %1, 0", 1);
        let structs = text.replacen("struct empty {  }", "struct empty { int }", 1);
        let globals = text.replacen("global g: int", "global g: int*", 1);
        for (prev, counts) in [
            (grown.as_str(), all),
            (&changed, PrefixCounts { funcs: 0, ..all }),
            (&structs, PrefixCounts { types: 2, ..all }),
            (&globals, PrefixCounts { globals: 0, ..all }),
        ] {
            assert_eq!(walk(prev), Some((counts, false)), "{prev:?}");
        }

        // Text that is no module's reads as no common prefix, never as a
        // panic: no name line, a line past the sections, a line or a chunk
        // without its end, sections out of order, non-ASCII text.
        let unterminated = format!("{head}\nfunc f() -> void {{\nbb0:\n  ret\n");
        let reordered = "module \"pin\"\nglobal g: int\nstruct pair { int, int* }\n";
        for bad in [
            "",
            "garbage",
            "module \"x\"\nbogus\n",
            "module \"x\"\nstruct pair { int, int* }",
            &text[..text.len() - 1],
            &unterminated,
            reordered,
            "module \"\u{e9}\"\nstruct \u{e9}\n\u{e9}",
        ] {
            assert_eq!(walk(bad), None, "{bad:?}");
        }

        // The fingerprints of the current module's own prefixes: entry `k`
        // is the text of its first `k` functions, under its own name.
        let before_funcs = &text[..text.find("\nfunc ").expect("a function")];
        assert_eq!(
            revision_prefix(&renamed, &text)
                .expect("a prefix")
                .fingerprints(),
            [
                crate::module::fnv1a64(&[before_funcs.as_bytes()]),
                crate::parser::parse_module(head)
                    .expect("parses")
                    .fingerprint(),
            ]
        );
        let whole = revision_prefix(&text, &text).expect("a prefix");
        assert_eq!(whole.fingerprints()[2], current.fingerprint());
        let changed = revision_prefix(&changed, &text).expect("a prefix");
        assert_eq!(changed.fingerprints().len(), 1);

        // A prefix whose items name one past the cut is no revision: a
        // kept function's struct types, a kept function's globals, a kept
        // struct's field type, and a kept function's callee.
        assert!(!current.prefix_closed(PrefixCounts {
            types: 0,
            ..callee_only
        }));
        assert!(!current.prefix_closed(PrefixCounts { globals: 0, ..all }));
        assert!(current.prefix_closed(PrefixCounts { types: 1, ..none }));
        let mut fwd_struct = Module::new("fwd_struct");
        let later = crate::types::StructId(1);
        let ptr_later = Type::ptr(Type::Struct(later));
        fwd_struct.types.declare("a", vec![ptr_later]).unwrap();
        fwd_struct.types.declare("b", vec![Type::Int]).unwrap();
        assert!(!fwd_struct.prefix_closed(PrefixCounts { types: 1, ..none }));
        assert!(fwd_struct.prefix_closed(PrefixCounts { types: 2, ..none }));
        let fwd = "module \"fwd\"\n\nfunc a() -> void {\nbb0:\n  call @b()\n  ret\n}\n\n\
                   func b() -> void {\nbb0:\n  ret\n}\n";
        let fwd_module = crate::parser::parse_module(fwd).expect("parses");
        assert_eq!(fwd_module.to_text(), fwd);
        let a_only = &fwd[..fwd.find("\nfunc b").expect("b")];
        let a_prefix = revision_prefix(a_only, fwd).expect("a text prefix");
        let counts = a_prefix.counts;
        assert!(a_prefix.whole);
        assert!(crate::parser::parse_module(a_only).is_err());
        assert!(!fwd_module.prefix_closed(counts));
        // Counts beyond the module's.
        for over in [
            PrefixCounts { funcs: 3, ..all },
            PrefixCounts { globals: 3, ..all },
            PrefixCounts { types: 4, ..all },
        ] {
            assert!(!current.prefix_closed(over), "{over:?}");
        }
    }

    #[test]
    fn prints_all_instruction_forms() {
        let m = crate::parser::parse_module(ALL_FORMS).expect("parses");
        assert_eq!(m.to_text(), ALL_FORMS);
        let insts: Vec<String> = m.iter_locs().map(|(_, i)| m.inst_text(i)).collect();
        let expected = [
            "%2 = field %1, 1",
            "%0 = alloca pair",
            "%1 = halloc int",
            "%2 = halloc ?",
            "%3 = copy %0",
            "%4 = load %1",
            "store %4 -> $g",
            "%5 = field %3, 0",
            "%6 = arith %5, %4",
            "%7 = elem %6, -3",
            "%8 = add %4, 1",
            "%9 = call @callee(%8, %0)",
            "call @callee(7, null)",
            "%10 = icall @callee(%8, %0)",
            "icall %11()",
            "%12 = input",
            "output %12",
        ];
        assert_eq!(insts, expected);
        let pair = Type::Struct(m.types.by_name("pair").expect("declared"));
        for (ty, text) in [
            (Type::Void, "void"),
            (Type::Int, "int"),
            (Type::ptr(Type::ptr(Type::Int)), "int**"),
            (
                Type::fn_ptr(
                    vec![Type::Int, Type::ptr(pair.clone())],
                    Type::ptr(Type::Int),
                ),
                "(fn(int, pair*) -> int*)*",
            ),
            (
                Type::Array(Box::new(Type::fn_ptr(vec![], Type::Void)), 3),
                "[(fn() -> void)*; 3]",
            ),
            (Type::Array(Box::new(pair), 2), "[pair; 2]"),
        ] {
            assert_eq!(type_text(&ty, &m.types), text);
        }
    }
}
