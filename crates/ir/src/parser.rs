//! Parser for the textual IR form produced by [`Module::to_text`].
//!
//! The grammar is line-oriented and small; see the crate examples and the
//! round-trip property test at the bottom of this module.
//!
//! # Architecture
//!
//! Parsing is split into a **header pass** and a **body pass**:
//!
//! * [`parse_header`] lexes the whole source once (byte-level, interned
//!   tokens — see [`crate::lexer`]), declares every struct/global/function,
//!   resolves struct field types, and records each function's body token
//!   range and raw byte span in a [`ModuleShell`].
//! * [`ModuleShell::parse_body`] parses one function body against the
//!   fully-declared header. It takes `&self`, so bodies parse
//!   independently — in order ([`parse_module`]), or selectively and
//!   across threads (the per-function frontend cache in
//!   `kaleidoscope-exec` re-parses only changed bodies).
//!
//! Every order produces a byte-identical module: a body's parse depends
//! only on the header, never on sibling bodies.

use std::fmt;

use crate::intern::{Interner, Symbol};
use crate::lexer::{describe_kind, lex_with, line_col, prescan, TokKind, Token, TokenStream};
use crate::module::{
    BinOpKind, Block, BlockId, FuncId, Function, GlobalId, Inst, LocalDecl, LocalId, Module,
    Operand, Terminator,
};
use crate::types::{FuncSig, StructId, Type};

/// Error produced when parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending token.
    pub line: usize,
    /// 1-based column (in bytes) of the offending token.
    pub col: usize,
    /// Byte offset of the offending token in the source.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    /// Render the offending line with a caret under the offending column:
    ///
    /// ```text
    ///    2 | global g: unknown_struct
    ///      |           ^ unknown struct `unknown_struct`
    /// ```
    ///
    /// `src` must be the source text the error was produced from.
    pub fn snippet(&self, src: &str) -> String {
        let line_text = if self.line >= 1 {
            src.lines().nth(self.line - 1).unwrap_or("")
        } else {
            ""
        };
        let prefix_bytes = self.col.saturating_sub(1).min(line_text.len());
        let pad: String = line_text[..prefix_bytes]
            .chars()
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        let num = format!("{:>4}", self.line);
        let gutter = " ".repeat(num.len());
        format!(
            "{num} | {line_text}\n{gutter} | {pad}^ {msg}",
            msg = self.msg
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// The keyword and instruction-mnemonic symbols, interned once per parse
/// so the parser compares `u32`s instead of strings.
#[derive(Debug)]
struct Kw {
    module: Symbol,
    struct_: Symbol,
    global: Symbol,
    func: Symbol,
    local: Symbol,
    null: Symbol,
    void: Symbol,
    int: Symbol,
    fn_: Symbol,
    alloca: Symbol,
    halloc: Symbol,
    copy: Symbol,
    load: Symbol,
    field: Symbol,
    arith: Symbol,
    elem: Symbol,
    call: Symbol,
    icall: Symbol,
    input: Symbol,
    store: Symbol,
    output: Symbol,
    jmp: Symbol,
    br: Symbol,
    ret: Symbol,
    add: Symbol,
    sub: Symbol,
    mul: Symbol,
    div: Symbol,
    rem: Symbol,
    eq: Symbol,
    lt: Symbol,
    and: Symbol,
    or: Symbol,
    xor: Symbol,
}

impl Kw {
    fn new(i: &mut Interner) -> Kw {
        Kw {
            module: i.intern("module"),
            struct_: i.intern("struct"),
            global: i.intern("global"),
            func: i.intern("func"),
            local: i.intern("local"),
            null: i.intern("null"),
            void: i.intern("void"),
            int: i.intern("int"),
            fn_: i.intern("fn"),
            alloca: i.intern("alloca"),
            halloc: i.intern("halloc"),
            copy: i.intern("copy"),
            load: i.intern("load"),
            field: i.intern("field"),
            arith: i.intern("arith"),
            elem: i.intern("elem"),
            call: i.intern("call"),
            icall: i.intern("icall"),
            input: i.intern("input"),
            store: i.intern("store"),
            output: i.intern("output"),
            jmp: i.intern("jmp"),
            br: i.intern("br"),
            ret: i.intern("ret"),
            add: i.intern("add"),
            sub: i.intern("sub"),
            mul: i.intern("mul"),
            div: i.intern("div"),
            rem: i.intern("rem"),
            eq: i.intern("eq"),
            lt: i.intern("lt"),
            and: i.intern("and"),
            or: i.intern("or"),
            xor: i.intern("xor"),
        }
    }

    fn binop(&self, s: Symbol) -> Option<BinOpKind> {
        Some(match s {
            s if s == self.add => BinOpKind::Add,
            s if s == self.sub => BinOpKind::Sub,
            s if s == self.mul => BinOpKind::Mul,
            s if s == self.div => BinOpKind::Div,
            s if s == self.rem => BinOpKind::Rem,
            s if s == self.eq => BinOpKind::Eq,
            s if s == self.lt => BinOpKind::Lt,
            s if s == self.and => BinOpKind::And,
            s if s == self.or => BinOpKind::Or,
            s if s == self.xor => BinOpKind::Xor,
            _ => return None,
        })
    }
}

/// Symbol-keyed name resolution tables for the parsed header. Replaces
/// per-occurrence string hashing in the body pass with `u32` lookups.
#[derive(Debug)]
struct Names {
    kw: Kw,
    structs: std::collections::HashMap<Symbol, StructId>,
    globals: std::collections::HashMap<Symbol, GlobalId>,
    funcs: std::collections::HashMap<Symbol, FuncId>,
}

/// One declared function awaiting its body pass.
#[derive(Debug)]
struct FuncDecl {
    id: FuncId,
    /// Token index just past the opening `{`.
    body_start: usize,
    param_names: Vec<Symbol>,
    /// Byte span of the signature: `func` keyword up to (not including)
    /// the opening `{`.
    sig_span: (usize, usize),
    /// Byte span of the raw body text: just past `{` up to the matching
    /// `}` — comments and whitespace included, so it identifies the body
    /// byte-exactly.
    body_span: (usize, usize),
}

/// A fully-parsed module header plus the token stream its bodies parse
/// from: the output of [`parse_header`], the input of the body pass.
///
/// All struct/global/function declarations (and struct field types) are
/// resolved; function bodies are still placeholders. Body parses borrow
/// the shell immutably, so they are freely parallel.
#[derive(Debug)]
pub struct ModuleShell<'src> {
    src: &'src str,
    module: Module,
    ts: TokenStream,
    names: Names,
    funcs: Vec<FuncDecl>,
}

impl<'src> ModuleShell<'src> {
    /// The header-only module: every item declared, bodies empty.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Number of declared functions (== number of bodies to parse).
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// The [`FuncId`] of the `i`-th declared function.
    pub fn func_id(&self, i: usize) -> FuncId {
        self.funcs[i].id
    }

    /// Byte span of the `i`-th function's signature text in the source.
    pub fn sig_span(&self, i: usize) -> (usize, usize) {
        self.funcs[i].sig_span
    }

    /// Byte span of the `i`-th function's raw body text in the source
    /// (everything between the braces, comments included).
    pub fn body_span(&self, i: usize) -> (usize, usize) {
        self.funcs[i].body_span
    }

    /// Parse the `i`-th function body against the declared header.
    ///
    /// Independent of every other body; `&self`, so callers may fan
    /// bodies out across threads.
    pub fn parse_body(&self, i: usize) -> Result<Function, ParseError> {
        let decl = &self.funcs[i];
        parse_body(
            self.src,
            &self.ts,
            decl.body_start,
            &self.module,
            &self.names,
            decl.id,
            &decl.param_names,
        )
    }

    /// Install parsed bodies (index-ordered, one per declared function)
    /// and return the finished module.
    pub fn finish(mut self, bodies: Vec<Function>) -> Module {
        assert_eq!(bodies.len(), self.funcs.len(), "one body per declaration");
        for (decl, body) in self.funcs.iter().zip(bodies) {
            self.module.replace_func(decl.id, body);
        }
        self.module
    }
}

struct Parser<'a> {
    src: &'a str,
    ts: &'a TokenStream,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, ts: &'a TokenStream, pos: usize) -> Self {
        Parser { src, ts, pos }
    }

    fn peek(&self) -> Option<&Token> {
        self.ts.toks.get(self.pos)
    }

    /// Byte offset used for error reporting: the token at the cursor,
    /// clamped to the last token (mirrors the pre-split parser's
    /// line-clamping).
    fn err_offset(&self) -> usize {
        self.ts
            .toks
            .get(self.pos.min(self.ts.toks.len().saturating_sub(1)))
            .map(|t| t.offset as usize)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let offset = self.err_offset();
        let (line, col) = line_col(self.src, offset);
        ParseError {
            line,
            col,
            offset,
            msg: msg.into(),
        }
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        let t = *self
            .ts
            .toks
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn describe(&self, t: &Token) -> String {
        self.ts.describe(t)
    }

    fn expect(&mut self, want: TokKind) -> Result<(), ParseError> {
        let got = self.next()?;
        if got.kind == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!(
                "expected {}, found {}",
                describe_kind(want),
                self.describe(&got)
            )))
        }
    }

    fn eat(&mut self, want: TokKind) -> bool {
        if self.peek().map(|t| t.kind) == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Symbol, ParseError> {
        let got = self.next()?;
        if got.kind == TokKind::Ident {
            Ok(got.sym())
        } else {
            self.pos -= 1;
            Err(self.err(format!(
                "expected identifier, found {}",
                self.describe(&got)
            )))
        }
    }

    fn text(&self, s: Symbol) -> &'a str {
        self.ts.interner.resolve(s)
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        let got = self.next()?;
        if got.kind == TokKind::Int {
            Ok(self.ts.ints[got.val as usize])
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected integer, found {}", self.describe(&got))))
        }
    }

    fn parse_type(&mut self, names: &Names) -> Result<Type, ParseError> {
        let t = self.next()?;
        let mut base = match t.kind {
            TokKind::Ident => {
                let s = t.sym();
                if s == names.kw.void {
                    Type::Void
                } else if s == names.kw.int {
                    Type::Int
                } else if s == names.kw.fn_ {
                    self.expect(TokKind::LParen)?;
                    let mut params = Vec::new();
                    if !self.eat(TokKind::RParen) {
                        loop {
                            params.push(self.parse_type(names)?);
                            if self.eat(TokKind::RParen) {
                                break;
                            }
                            self.expect(TokKind::Comma)?;
                        }
                    }
                    self.expect(TokKind::Arrow)?;
                    let ret = self.parse_type(names)?;
                    Type::Func(FuncSig::new(params, ret))
                } else {
                    let id =
                        names.structs.get(&s).copied().ok_or_else(|| {
                            self.err(format!("unknown struct `{}`", self.text(s)))
                        })?;
                    Type::Struct(id)
                }
            }
            TokKind::LParen => {
                let inner = self.parse_type(names)?;
                self.expect(TokKind::RParen)?;
                inner
            }
            TokKind::LBracket => {
                let elem = self.parse_type(names)?;
                self.expect(TokKind::Colon)?; // `;` is lexed as Colon
                let n = self.int()?;
                self.expect(TokKind::RBracket)?;
                Type::array(elem, n.max(0) as usize)
            }
            _ => {
                self.pos -= 1;
                return Err(self.err(format!("expected type, found {}", self.describe(&t))));
            }
        };
        while self.eat(TokKind::Star) {
            base = Type::ptr(base);
        }
        Ok(base)
    }

    fn parse_operand(&mut self, names: &Names) -> Result<Operand, ParseError> {
        let t = self.next()?;
        match t.kind {
            TokKind::Local => Ok(Operand::Local(LocalId(t.val))),
            TokKind::Dollar => names
                .globals
                .get(&t.sym())
                .copied()
                .map(Operand::Global)
                .ok_or_else(|| self.err(format!("unknown global `{}`", self.text(t.sym())))),
            TokKind::At => names
                .funcs
                .get(&t.sym())
                .copied()
                .map(Operand::Func)
                .ok_or_else(|| self.err(format!("unknown function `{}`", self.text(t.sym())))),
            TokKind::Int => Ok(Operand::ConstInt(self.ts.ints[t.val as usize])),
            TokKind::Ident if t.sym() == names.kw.null => Ok(Operand::Null),
            _ => {
                self.pos -= 1;
                Err(self.err(format!("expected operand, found {}", self.describe(&t))))
            }
        }
    }

    fn parse_args(&mut self, names: &Names) -> Result<Vec<Operand>, ParseError> {
        self.expect(TokKind::LParen)?;
        let mut args = Vec::new();
        if !self.eat(TokKind::RParen) {
            loop {
                args.push(self.parse_operand(names)?);
                if self.eat(TokKind::RParen) {
                    break;
                }
                self.expect(TokKind::Comma)?;
            }
        }
        Ok(args)
    }

    fn block_label(&mut self) -> Result<u32, ParseError> {
        let s = self.ident()?;
        let text = self.text(s);
        text.strip_prefix("bb")
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| self.err(format!("expected block label, found `{text}`")))
    }

    /// Skip tokens until the brace opened just before `self.pos` closes.
    /// Returns the byte offset of the closing `}`.
    fn skip_braced(&mut self) -> Result<usize, ParseError> {
        let mut depth = 1usize;
        loop {
            let t = self.next()?;
            match t.kind {
                TokKind::LBrace => depth += 1,
                TokKind::RBrace => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(t.offset as usize);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Parse a module header: lex everything, declare every item, resolve
/// struct fields, and record each function's body range for the body pass.
///
/// # Errors
///
/// Returns a [`ParseError`] for the first lexical, syntactic, or
/// header-resolution problem. Body-level errors surface later, from
/// [`ModuleShell::parse_body`].
pub fn parse_header(src: &str) -> Result<ModuleShell<'_>, ParseError> {
    let pre = prescan(src);
    let mut ts = lex_with(src, &pre)?;
    let kw = Kw::new(&mut ts.interner);
    let mut names = Names {
        kw,
        structs: std::collections::HashMap::with_capacity(pre.structs),
        globals: std::collections::HashMap::with_capacity(pre.globals),
        funcs: std::collections::HashMap::with_capacity(pre.funcs),
    };
    let mut p = Parser::new(src, &ts, 0);

    // Header.
    let kw0 = p.ident()?;
    if kw0 != names.kw.module {
        return Err(p.err("expected `module`"));
    }
    let name = {
        let t = p.next()?;
        if t.kind != TokKind::Str {
            return Err(p.err("expected module name string"));
        }
        ts.strs[t.val as usize].clone()
    };
    let mut m = Module::new(name);

    // Pass 1: declare items, deferring struct field types and function
    // bodies until all names are known.
    struct PendingStruct {
        start: usize,
    }
    let mut pending_structs: Vec<PendingStruct> = Vec::with_capacity(pre.structs);
    let mut funcs: Vec<FuncDecl> = Vec::with_capacity(pre.funcs);

    while p.peek().is_some() {
        let item_off = p.err_offset();
        let kw = p.ident()?;
        if kw == names.kw.struct_ {
            let sname = p.ident()?;
            // `declare` is idempotent for identical definitions, and all
            // placeholders are identical — reject duplicates by name.
            if names.structs.contains_key(&sname) {
                return Err(p.err(format!("duplicate struct `{}`", p.text(sname))));
            }
            let sid = m
                .types
                .declare(p.text(sname).to_string(), Vec::new())
                .ok_or_else(|| p.err(format!("duplicate struct `{}`", p.text(sname))))?;
            names.structs.insert(sname, sid);
            p.expect(TokKind::LBrace)?;
            pending_structs.push(PendingStruct { start: p.pos });
            p.skip_braced()?;
        } else if kw == names.kw.global {
            let gname = p.ident()?;
            p.expect(TokKind::Colon)?;
            match p.parse_type(&names) {
                Ok(ty) => {
                    let gid = m
                        .add_global(p.text(gname).to_string(), ty)
                        .ok_or_else(|| p.err(format!("duplicate global `{}`", p.text(gname))))?;
                    names.globals.insert(gname, gid);
                }
                Err(e) => {
                    return Err(ParseError {
                        msg: format!(
                            "global `{}`: {} (note: structs must be \
                             declared before globals)",
                            p.text(gname),
                            e.msg
                        ),
                        ..e
                    });
                }
            }
        } else if kw == names.kw.func {
            let fname = p.ident()?;
            p.expect(TokKind::LParen)?;
            let mut param_names = Vec::new();
            let mut param_tys = Vec::new();
            if !p.eat(TokKind::RParen) {
                loop {
                    let t = p.next()?;
                    if t.kind != TokKind::Local {
                        return Err(p.err("expected `%N` in parameter list"));
                    }
                    if t.val as usize != param_names.len() {
                        return Err(p.err("parameter indices must be sequential"));
                    }
                    let pname = p.ident()?;
                    p.expect(TokKind::Colon)?;
                    let ty = p.parse_type(&names)?;
                    param_names.push(pname);
                    param_tys.push(ty);
                    if p.eat(TokKind::RParen) {
                        break;
                    }
                    p.expect(TokKind::Comma)?;
                }
            }
            p.expect(TokKind::Arrow)?;
            let ret_ty = p.parse_type(&names)?;
            let id = m
                .declare_func(p.text(fname).to_string(), param_tys, ret_ty)
                .ok_or_else(|| p.err(format!("duplicate function `{}`", p.text(fname))))?;
            names.funcs.insert(fname, id);
            let sig_end = p.err_offset();
            p.expect(TokKind::LBrace)?;
            let body_start = p.pos;
            let body_byte_start = p.err_offset();
            let close = p.skip_braced()?;
            funcs.push(FuncDecl {
                id,
                body_start,
                param_names,
                sig_span: (item_off, sig_end),
                // An empty body has no token between the braces; clamp so
                // the span stays well-formed.
                body_span: (body_byte_start.min(close), close),
            });
        } else {
            return Err(p.err(format!("expected item, found `{}`", p.text(kw))));
        }
    }

    // Pass 2a: struct fields (all struct names are now registered).
    for (i, ps) in pending_structs.iter().enumerate() {
        let mut sp = Parser::new(src, &ts, ps.start);
        let mut fields = Vec::new();
        if !sp.eat(TokKind::RBrace) {
            loop {
                fields.push(sp.parse_type(&names)?);
                if sp.eat(TokKind::RBrace) {
                    break;
                }
                sp.expect(TokKind::Comma)?;
            }
        }
        m.types.define_fields(StructId(i as u32), fields);
    }

    Ok(ModuleShell {
        src,
        module: m,
        ts,
        names,
        funcs,
    })
}

/// Parse a module from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or resolution
/// problem encountered.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let shell = parse_header(src)?;
    let mut bodies = Vec::with_capacity(shell.func_count());
    for i in 0..shell.func_count() {
        bodies.push(shell.parse_body(i)?);
    }
    Ok(shell.finish(bodies))
}

fn parse_body(
    src: &str,
    ts: &TokenStream,
    start: usize,
    m: &Module,
    names: &Names,
    id: FuncId,
    param_names: &[Symbol],
) -> Result<Function, ParseError> {
    let mut p = Parser::new(src, ts, start);
    let declared = m.func(id);
    let mut locals: Vec<LocalDecl> = Vec::with_capacity(declared.param_count + 8);
    locals.extend(
        declared.locals[..declared.param_count]
            .iter()
            .zip(param_names)
            .map(|(l, n)| LocalDecl {
                name: ts.interner.resolve(*n).to_string(),
                ty: l.ty.clone(),
            }),
    );
    // Locals.
    while let Some(t) = p.peek() {
        if t.kind != TokKind::Ident || t.sym() != names.kw.local {
            break;
        }
        p.next()?;
        let t = p.next()?;
        if t.kind != TokKind::Local {
            return Err(p.err("expected `%N` after `local`"));
        }
        let idx = t.val;
        if idx as usize != locals.len() {
            return Err(p.err(format!(
                "local index %{idx} out of order (expected %{})",
                locals.len()
            )));
        }
        let lname = p.ident()?;
        p.expect(TokKind::Colon)?;
        let ty = p.parse_type(names)?;
        locals.push(LocalDecl {
            name: ts.interner.resolve(lname).to_string(),
            ty,
        });
    }
    // Blocks.
    let mut blocks: Vec<Block> = Vec::new();
    loop {
        if p.eat(TokKind::RBrace) {
            break;
        }
        let label = p.block_label()?;
        if label as usize != blocks.len() {
            return Err(p.err(format!(
                "block bb{label} out of order (expected bb{})",
                blocks.len()
            )));
        }
        p.expect(TokKind::Colon)?;
        let (insts, term) = parse_block(&mut p, names)?;
        blocks.push(Block { insts, term });
    }
    if blocks.is_empty() {
        blocks.push(Block {
            insts: vec![],
            term: Terminator::Ret(None),
        });
    }
    Ok(Function {
        name: declared.name.clone(),
        param_count: declared.param_count,
        ret_ty: declared.ret_ty.clone(),
        locals,
        blocks,
    })
}

fn parse_block(p: &mut Parser<'_>, names: &Names) -> Result<(Vec<Inst>, Terminator), ParseError> {
    let kw = &names.kw;
    let mut insts = Vec::new();
    loop {
        match p.peek().copied() {
            Some(t) if t.kind == TokKind::Local => {
                p.next()?;
                let dst = LocalId(t.val);
                p.expect(TokKind::Eq)?;
                let op = p.ident()?;
                let inst = if op == kw.alloca {
                    Inst::Alloca {
                        dst,
                        ty: p.parse_type(names)?,
                    }
                } else if op == kw.halloc {
                    if p.eat(TokKind::Question) {
                        Inst::HeapAlloc { dst, ty: None }
                    } else {
                        Inst::HeapAlloc {
                            dst,
                            ty: Some(p.parse_type(names)?),
                        }
                    }
                } else if op == kw.copy {
                    Inst::Copy {
                        dst,
                        src: p.parse_operand(names)?,
                    }
                } else if op == kw.load {
                    Inst::Load {
                        dst,
                        src: p.parse_operand(names)?,
                    }
                } else if op == kw.field {
                    let base = p.parse_operand(names)?;
                    p.expect(TokKind::Comma)?;
                    let f = p.int()?;
                    Inst::FieldAddr {
                        dst,
                        base,
                        field: f.max(0) as usize,
                    }
                } else if op == kw.arith {
                    let base = p.parse_operand(names)?;
                    p.expect(TokKind::Comma)?;
                    let offset = p.parse_operand(names)?;
                    Inst::PtrArith { dst, base, offset }
                } else if op == kw.elem {
                    let base = p.parse_operand(names)?;
                    p.expect(TokKind::Comma)?;
                    let index = p.parse_operand(names)?;
                    Inst::ElemAddr { dst, base, index }
                } else if op == kw.call {
                    let callee = parse_callee(p, names)?;
                    let args = p.parse_args(names)?;
                    Inst::Call {
                        dst: Some(dst),
                        callee,
                        args,
                    }
                } else if op == kw.icall {
                    let callee = p.parse_operand(names)?;
                    let args = p.parse_args(names)?;
                    Inst::CallInd {
                        dst: Some(dst),
                        callee,
                        args,
                    }
                } else if op == kw.input {
                    Inst::Input { dst }
                } else if let Some(kind) = kw.binop(op) {
                    let lhs = p.parse_operand(names)?;
                    p.expect(TokKind::Comma)?;
                    let rhs = p.parse_operand(names)?;
                    Inst::BinOp {
                        dst,
                        op: kind,
                        lhs,
                        rhs,
                    }
                } else {
                    return Err(p.err(format!("unknown instruction `{}`", p.text(op))));
                };
                insts.push(inst);
            }
            Some(t) if t.kind == TokKind::Ident => {
                let s = t.sym();
                if s == kw.store {
                    p.next()?;
                    let src = p.parse_operand(names)?;
                    p.expect(TokKind::Arrow)?;
                    let dst = p.parse_operand(names)?;
                    insts.push(Inst::Store { dst, src });
                } else if s == kw.output {
                    p.next()?;
                    let src = p.parse_operand(names)?;
                    insts.push(Inst::Output { src });
                } else if s == kw.call {
                    p.next()?;
                    let callee = parse_callee(p, names)?;
                    let args = p.parse_args(names)?;
                    insts.push(Inst::Call {
                        dst: None,
                        callee,
                        args,
                    });
                } else if s == kw.icall {
                    p.next()?;
                    let callee = p.parse_operand(names)?;
                    let args = p.parse_args(names)?;
                    insts.push(Inst::CallInd {
                        dst: None,
                        callee,
                        args,
                    });
                } else if s == kw.jmp {
                    p.next()?;
                    let bb = p.block_label()?;
                    return Ok((insts, Terminator::Jump(BlockId(bb))));
                } else if s == kw.br {
                    p.next()?;
                    let cond = p.parse_operand(names)?;
                    p.expect(TokKind::Comma)?;
                    let then_bb = p.block_label()?;
                    p.expect(TokKind::Comma)?;
                    let else_bb = p.block_label()?;
                    return Ok((
                        insts,
                        Terminator::Branch {
                            cond,
                            then_bb: BlockId(then_bb),
                            else_bb: BlockId(else_bb),
                        },
                    ));
                } else if s == kw.ret {
                    p.next()?;
                    // `ret` may be followed by a value or by the next block
                    // label / closing brace.
                    let val = match p.peek() {
                        Some(t)
                            if matches!(
                                t.kind,
                                TokKind::Local | TokKind::Dollar | TokKind::At | TokKind::Int
                            ) =>
                        {
                            Some(p.parse_operand(names)?)
                        }
                        Some(t) if t.kind == TokKind::Ident && t.sym() == kw.null => {
                            Some(p.parse_operand(names)?)
                        }
                        _ => None,
                    };
                    return Ok((insts, Terminator::Ret(val)));
                } else {
                    return Err(p.err(format!("unexpected `{}` in block", p.text(s))));
                }
            }
            other => {
                return Err(p.err(format!(
                    "unexpected {} in block",
                    other
                        .as_ref()
                        .map(|t| p.describe(t))
                        .unwrap_or_else(|| "end".into())
                )))
            }
        }
    }
}

fn parse_callee(p: &mut Parser<'_>, names: &Names) -> Result<FuncId, ParseError> {
    let t = p.next()?;
    if t.kind == TokKind::At {
        names
            .funcs
            .get(&t.sym())
            .copied()
            .ok_or_else(|| p.err(format!("unknown function `{}`", p.text(t.sym()))))
    } else {
        Err(p.err("expected `@name` after `call`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::BinOpKind;

    #[test]
    fn parse_minimal_module() {
        let m = parse_module("module \"m\"").unwrap();
        assert_eq!(m.name, "m");
        assert!(m.funcs.is_empty());
    }

    #[test]
    fn parse_struct_global_func() {
        let src = r#"
module "demo"
struct plugin { int, (fn() -> void)* }
global mod_auth: plugin
func f(%0 x: int) -> int {
  local %1 y: int
bb0:
  %1 = add %0, 1
  ret %1
}
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.types.len(), 1);
        assert_eq!(m.globals.len(), 1);
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.locals.len(), 2);
        assert_eq!(f.locals[1].name, "y");
        assert!(matches!(f.blocks[0].insts[0], Inst::BinOp { .. }));
    }

    #[test]
    fn parse_error_reports_line() {
        let src = "module \"m\"\nglobal g: unknown_struct\n";
        let e = parse_module(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn parse_error_reports_offset_and_col() {
        let src = "module \"m\"\nglobal g: unknown_struct\n";
        let e = parse_module(src).unwrap_err();
        assert_eq!(e.col, 11, "caret lands on the unknown type name");
        assert_eq!(&src[e.offset..e.offset + 7], "unknown");
        let snip = e.snippet(src);
        assert!(snip.contains("global g: unknown_struct"));
        assert!(snip.lines().nth(1).unwrap().contains('^'));
    }

    #[test]
    fn forward_function_references_resolve() {
        let src = r#"
module "fwd"
func a() -> void {
bb0:
  call @b()
  ret
}
func b() -> void {
bb0:
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let a = m.func(m.func_by_name("a").unwrap());
        assert!(matches!(a.blocks[0].insts[0], Inst::Call { .. }));
    }

    #[test]
    fn mutually_recursive_structs_parse() {
        let src = r#"
module "rec"
struct a { b*, int }
struct b { a*, int }
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.types.len(), 2);
        let a = m.types.by_name("a").unwrap();
        let bty = &m.types.def(a).fields[0];
        assert!(bty.is_ptr());
    }

    #[test]
    fn header_pass_exposes_spans_and_independent_bodies() {
        let src = r#"
module "split"
func a() -> void {
bb0:
  call @b()
  ret
}
func b() -> void {
bb0:
  ret
}
"#;
        let shell = parse_header(src).unwrap();
        assert_eq!(shell.func_count(), 2);
        let (s0, e0) = shell.sig_span(0);
        assert!(src[s0..e0].starts_with("func a()"));
        let (b0, b1) = shell.body_span(0);
        assert!(src[b0..b1].contains("call @b()"));
        // Bodies parse out of order — each depends only on the header.
        let fb = shell.parse_body(1).unwrap();
        let fa = shell.parse_body(0).unwrap();
        assert!(matches!(fa.blocks[0].insts[0], Inst::Call { .. }));
        assert_eq!(fb.name, "b");
        let m = shell.finish(vec![fa, fb]);
        assert_eq!(m.iter_funcs().count(), 2);
    }

    #[test]
    fn round_trip_built_module() {
        let mut m = Module::new("rt");
        let s = m
            .types
            .declare(
                "ctx",
                vec![Type::fn_ptr(vec![Type::Int], Type::Int), Type::Int],
            )
            .unwrap();
        m.add_global("gctx", Type::Struct(s)).unwrap();
        let handler = {
            let mut b = FunctionBuilder::new(&mut m, "handler", vec![("x", Type::Int)], Type::Int);
            let x = b.param(0);
            let r = b.binop("r", BinOpKind::Mul, x, 2i64);
            b.ret(Some(r.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let g = m_global(&b);
        let fp = b.field_addr("fp", g, 0);
        b.store(fp, Operand::Func(handler));
        let f = b.load("f", fp);
        let arr = b.alloca("arr", Type::array(Type::Int, 4));
        let e = b.elem_addr("e", arr, 2i64);
        b.store(e, 7i64);
        let pa = b.ptr_arith("pa", e, 1i64);
        let v = b.load("v", pa);
        b.call_ind("rv", f, vec![v.into()], Type::Int);
        let t = b.new_block();
        let el = b.new_block();
        b.branch(v, t, el);
        b.switch_to(t);
        b.output(v);
        b.ret(None);
        b.switch_to(el);
        b.ret(None);
        b.finish();

        let text = m.to_text();
        let m2 = parse_module(&text).expect("round-trip parse");
        let text2 = m2.to_text();
        assert_eq!(text, text2, "print→parse→print must be a fixpoint");
    }

    fn m_global(b: &FunctionBuilder<'_>) -> Operand {
        Operand::Global(b.module().global_by_name("gctx").unwrap())
    }
}
