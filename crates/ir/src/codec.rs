//! Compact binary codec for lowered IR.
//!
//! The per-function frontend cache stores each function's lowered
//! [`Function`] as bytes in the disk cache, next to an import list the
//! loader validates. The format is a flat tag+varint stream with no
//! framing beyond length prefixes, decoded in a single forward pass with
//! no intermediate allocation beyond the values themselves.
//!
//! Decoding takes untrusted bytes: a malformed entry is a [`CodecError`],
//! never a panic. Pre-allocations are capped at the bytes left in the
//! input, and type nesting is bounded, so a crafted count or a run of
//! nested type tags cannot exhaust memory or the stack.
//!
//! The format is *not* a stability surface: entries embed a cache version
//! key and are simply regenerated when the encoding changes.

use std::fmt;

use crate::module::{
    BinOpKind, Block, BlockId, FuncId, Function, Inst, LocalDecl, LocalId, Operand, Terminator,
};
use crate::types::{FuncSig, StructId, Type};

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Append-only byte sink with varint helpers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one raw byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write raw bytes, with no length prefix (a magic number).
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Write a fixed-width little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Write an unsigned value as LEB128.
    #[inline]
    pub fn uint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Write a signed value (zigzag + LEB128).
    pub fn int(&mut self, v: i64) {
        self.uint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Write raw bytes with a length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.uint(b.len() as u64);
        self.raw(b);
    }
}

/// Forward-only reader over encoded bytes.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Read one raw byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| bad("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 unsigned value. Only the encoding
    /// [`ByteWriter::uint`] writes is read: a value with bits past 64, or
    /// with a trailing zero group, is an error.
    #[inline]
    pub fn uint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            let group = u64::from(b & 0x7f);
            if shift > 63 || (shift == 63 && group > 1) {
                return Err(bad("varint overflow"));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(bad("over-long varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read `n` raw bytes (a magic number).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated bytes"))?;
        let b = &self.buf[self.pos..end];
        self.pos = end;
        Ok(b)
    }

    /// Read a fixed-width little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, CodecError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a zigzag signed value.
    pub fn int(&mut self) -> Result<i64, CodecError> {
        let v = self.uint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a `u32`-sized unsigned value.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.uint()?).map_err(|_| bad("u32 overflow"))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.raw_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("invalid utf-8"))
    }

    /// A pre-allocation for `n` items of at least one byte each: never
    /// more than the bytes left, whatever count the input claims.
    #[inline]
    pub fn capacity_for(&self, n: usize) -> usize {
        n.min(self.buf.len().saturating_sub(self.pos))
    }

    /// Read length-prefixed raw bytes.
    pub fn raw_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.uint()? as usize;
        self.take(n)
    }
}

/// Deepest type the decoder accepts, counted in nested `Ptr`, `Array` and
/// `Func` tags. Decoding recurses once per level, so this bounds the
/// stack a crafted entry can claim; a deeper type is a [`CodecError`].
const MAX_TYPE_DEPTH: usize = 256;

fn encode_type(w: &mut ByteWriter, ty: &Type) {
    match ty {
        Type::Void => w.u8(0),
        Type::Int => w.u8(1),
        Type::Ptr(inner) => {
            w.u8(2);
            encode_type(w, inner);
        }
        Type::Struct(sid) => {
            w.u8(3);
            w.uint(sid.0 as u64);
        }
        Type::Array(elem, len) => {
            w.u8(4);
            encode_type(w, elem);
            w.uint(*len as u64);
        }
        Type::Func(sig) => {
            w.u8(5);
            w.uint(sig.params.len() as u64);
            for p in &sig.params {
                encode_type(w, p);
            }
            encode_type(w, &sig.ret);
        }
    }
}

/// Decode a [`Type`] enclosed by `depth` type tags.
fn decode_type(r: &mut ByteReader<'_>, depth: usize) -> Result<Type, CodecError> {
    if depth > MAX_TYPE_DEPTH {
        return Err(bad("type nested too deeply"));
    }
    Ok(match r.u8()? {
        0 => Type::Void,
        1 => Type::Int,
        2 => Type::ptr(decode_type(r, depth + 1)?),
        3 => Type::Struct(StructId(r.u32()?)),
        4 => {
            let elem = decode_type(r, depth + 1)?;
            let len = r.uint()? as usize;
            Type::array(elem, len)
        }
        5 => {
            let n = r.uint()? as usize;
            let mut params = Vec::with_capacity(r.capacity_for(n));
            for _ in 0..n {
                params.push(decode_type(r, depth + 1)?);
            }
            let ret = decode_type(r, depth + 1)?;
            Type::Func(FuncSig::new(params, ret))
        }
        t => return Err(bad(format!("bad type tag {t}"))),
    })
}

fn encode_operand(w: &mut ByteWriter, op: &Operand) {
    match op {
        Operand::Local(l) => {
            w.u8(0);
            w.uint(l.0 as u64);
        }
        Operand::Global(g) => {
            w.u8(1);
            w.uint(g.0 as u64);
        }
        Operand::Func(f) => {
            w.u8(2);
            w.uint(f.0 as u64);
        }
        Operand::ConstInt(v) => {
            w.u8(3);
            w.int(*v);
        }
        Operand::Null => w.u8(4),
    }
}

fn decode_operand(r: &mut ByteReader<'_>) -> Result<Operand, CodecError> {
    Ok(match r.u8()? {
        0 => Operand::Local(LocalId(r.u32()?)),
        1 => Operand::Global(crate::module::GlobalId(r.u32()?)),
        2 => Operand::Func(FuncId(r.u32()?)),
        3 => Operand::ConstInt(r.int()?),
        4 => Operand::Null,
        t => return Err(bad(format!("bad operand tag {t}"))),
    })
}

fn binop_code(op: BinOpKind) -> u8 {
    match op {
        BinOpKind::Add => 0,
        BinOpKind::Sub => 1,
        BinOpKind::Mul => 2,
        BinOpKind::Div => 3,
        BinOpKind::Rem => 4,
        BinOpKind::Eq => 5,
        BinOpKind::Lt => 6,
        BinOpKind::And => 7,
        BinOpKind::Or => 8,
        BinOpKind::Xor => 9,
    }
}

fn binop_from(code: u8) -> Result<BinOpKind, CodecError> {
    Ok(match code {
        0 => BinOpKind::Add,
        1 => BinOpKind::Sub,
        2 => BinOpKind::Mul,
        3 => BinOpKind::Div,
        4 => BinOpKind::Rem,
        5 => BinOpKind::Eq,
        6 => BinOpKind::Lt,
        7 => BinOpKind::And,
        8 => BinOpKind::Or,
        9 => BinOpKind::Xor,
        t => return Err(bad(format!("bad binop code {t}"))),
    })
}

fn encode_args(w: &mut ByteWriter, args: &[Operand]) {
    w.uint(args.len() as u64);
    for a in args {
        encode_operand(w, a);
    }
}

fn decode_args(r: &mut ByteReader<'_>) -> Result<Vec<Operand>, CodecError> {
    let n = r.uint()? as usize;
    let mut args = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        args.push(decode_operand(r)?);
    }
    Ok(args)
}

fn encode_opt_local(w: &mut ByteWriter, l: &Option<LocalId>) {
    match l {
        Some(l) => {
            w.u8(1);
            w.uint(l.0 as u64);
        }
        None => w.u8(0),
    }
}

fn decode_opt_local(r: &mut ByteReader<'_>) -> Result<Option<LocalId>, CodecError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(LocalId(r.u32()?)),
        t => return Err(bad(format!("bad option tag {t}"))),
    })
}

fn encode_inst(w: &mut ByteWriter, inst: &Inst) {
    match inst {
        Inst::Alloca { dst, ty } => {
            w.u8(0);
            w.uint(dst.0 as u64);
            encode_type(w, ty);
        }
        Inst::HeapAlloc { dst, ty } => {
            w.u8(1);
            w.uint(dst.0 as u64);
            match ty {
                Some(ty) => {
                    w.u8(1);
                    encode_type(w, ty);
                }
                None => w.u8(0),
            }
        }
        Inst::Copy { dst, src } => {
            w.u8(2);
            w.uint(dst.0 as u64);
            encode_operand(w, src);
        }
        Inst::Load { dst, src } => {
            w.u8(3);
            w.uint(dst.0 as u64);
            encode_operand(w, src);
        }
        Inst::Store { dst, src } => {
            w.u8(4);
            encode_operand(w, dst);
            encode_operand(w, src);
        }
        Inst::FieldAddr { dst, base, field } => {
            w.u8(5);
            w.uint(dst.0 as u64);
            encode_operand(w, base);
            w.uint(*field as u64);
        }
        Inst::PtrArith { dst, base, offset } => {
            w.u8(6);
            w.uint(dst.0 as u64);
            encode_operand(w, base);
            encode_operand(w, offset);
        }
        Inst::ElemAddr { dst, base, index } => {
            w.u8(7);
            w.uint(dst.0 as u64);
            encode_operand(w, base);
            encode_operand(w, index);
        }
        Inst::BinOp { dst, op, lhs, rhs } => {
            w.u8(8);
            w.uint(dst.0 as u64);
            w.u8(binop_code(*op));
            encode_operand(w, lhs);
            encode_operand(w, rhs);
        }
        Inst::Call { dst, callee, args } => {
            w.u8(9);
            encode_opt_local(w, dst);
            w.uint(callee.0 as u64);
            encode_args(w, args);
        }
        Inst::CallInd { dst, callee, args } => {
            w.u8(10);
            encode_opt_local(w, dst);
            encode_operand(w, callee);
            encode_args(w, args);
        }
        Inst::Input { dst } => {
            w.u8(11);
            w.uint(dst.0 as u64);
        }
        Inst::Output { src } => {
            w.u8(12);
            encode_operand(w, src);
        }
    }
}

fn decode_inst(r: &mut ByteReader<'_>) -> Result<Inst, CodecError> {
    Ok(match r.u8()? {
        0 => Inst::Alloca {
            dst: LocalId(r.u32()?),
            ty: decode_type(r, 0)?,
        },
        1 => {
            let dst = LocalId(r.u32()?);
            let ty = match r.u8()? {
                0 => None,
                1 => Some(decode_type(r, 0)?),
                t => return Err(bad(format!("bad option tag {t}"))),
            };
            Inst::HeapAlloc { dst, ty }
        }
        2 => Inst::Copy {
            dst: LocalId(r.u32()?),
            src: decode_operand(r)?,
        },
        3 => Inst::Load {
            dst: LocalId(r.u32()?),
            src: decode_operand(r)?,
        },
        4 => Inst::Store {
            dst: decode_operand(r)?,
            src: decode_operand(r)?,
        },
        5 => Inst::FieldAddr {
            dst: LocalId(r.u32()?),
            base: decode_operand(r)?,
            field: r.uint()? as usize,
        },
        6 => Inst::PtrArith {
            dst: LocalId(r.u32()?),
            base: decode_operand(r)?,
            offset: decode_operand(r)?,
        },
        7 => Inst::ElemAddr {
            dst: LocalId(r.u32()?),
            base: decode_operand(r)?,
            index: decode_operand(r)?,
        },
        8 => Inst::BinOp {
            dst: LocalId(r.u32()?),
            op: binop_from(r.u8()?)?,
            lhs: decode_operand(r)?,
            rhs: decode_operand(r)?,
        },
        9 => Inst::Call {
            dst: decode_opt_local(r)?,
            callee: FuncId(r.u32()?),
            args: decode_args(r)?,
        },
        10 => Inst::CallInd {
            dst: decode_opt_local(r)?,
            callee: decode_operand(r)?,
            args: decode_args(r)?,
        },
        11 => Inst::Input {
            dst: LocalId(r.u32()?),
        },
        12 => Inst::Output {
            src: decode_operand(r)?,
        },
        t => return Err(bad(format!("bad inst tag {t}"))),
    })
}

fn encode_terminator(w: &mut ByteWriter, term: &Terminator) {
    match term {
        Terminator::Jump(bb) => {
            w.u8(0);
            w.uint(bb.0 as u64);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            w.u8(1);
            encode_operand(w, cond);
            w.uint(then_bb.0 as u64);
            w.uint(else_bb.0 as u64);
        }
        Terminator::Ret(val) => {
            w.u8(2);
            match val {
                Some(v) => {
                    w.u8(1);
                    encode_operand(w, v);
                }
                None => w.u8(0),
            }
        }
    }
}

fn decode_terminator(r: &mut ByteReader<'_>) -> Result<Terminator, CodecError> {
    Ok(match r.u8()? {
        0 => Terminator::Jump(BlockId(r.u32()?)),
        1 => Terminator::Branch {
            cond: decode_operand(r)?,
            then_bb: BlockId(r.u32()?),
            else_bb: BlockId(r.u32()?),
        },
        2 => Terminator::Ret(match r.u8()? {
            0 => None,
            1 => Some(decode_operand(r)?),
            t => return Err(bad(format!("bad option tag {t}"))),
        }),
        t => return Err(bad(format!("bad terminator tag {t}"))),
    })
}

/// Encode a full [`Function`] (name, signature, locals, body).
pub fn encode_function(w: &mut ByteWriter, f: &Function) {
    w.str(&f.name);
    w.uint(f.param_count as u64);
    encode_type(w, &f.ret_ty);
    w.uint(f.locals.len() as u64);
    for l in &f.locals {
        w.str(&l.name);
        encode_type(w, &l.ty);
    }
    w.uint(f.blocks.len() as u64);
    for b in &f.blocks {
        w.uint(b.insts.len() as u64);
        for i in &b.insts {
            encode_inst(w, i);
        }
        encode_terminator(w, &b.term);
    }
}

/// Decode a [`Function`] written by [`encode_function`].
pub fn decode_function(r: &mut ByteReader<'_>) -> Result<Function, CodecError> {
    let name = r.str()?;
    let param_count = r.uint()? as usize;
    let ret_ty = decode_type(r, 0)?;
    let n_locals = r.uint()? as usize;
    let mut locals = Vec::with_capacity(r.capacity_for(n_locals));
    for _ in 0..n_locals {
        locals.push(LocalDecl {
            name: r.str()?,
            ty: decode_type(r, 0)?,
        });
    }
    let n_blocks = r.uint()? as usize;
    let mut blocks = Vec::with_capacity(r.capacity_for(n_blocks));
    for _ in 0..n_blocks {
        let n_insts = r.uint()? as usize;
        let mut insts = Vec::with_capacity(r.capacity_for(n_insts));
        for _ in 0..n_insts {
            insts.push(decode_inst(r)?);
        }
        blocks.push(Block {
            insts,
            term: decode_terminator(r)?,
        });
    }
    Ok(Function {
        name,
        param_count,
        ret_ty,
        locals,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::Module;

    #[test]
    fn varints_round_trip() {
        let mut w = ByteWriter::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            w.uint(v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            w.int(v);
        }
        w.str("hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(r.uint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(r.int().unwrap(), v);
        }
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.is_at_end());
        // Only what the writer writes is read: no bits past 64, no
        // trailing zero group.
        let past_64 = [[0x80u8; 9].as_slice(), &[0x02]].concat();
        assert!(ByteReader::new(&past_64).uint().is_err());
        assert!(ByteReader::new(&[0x80, 0x00]).uint().is_err());
    }

    #[test]
    fn function_round_trips_through_codec() {
        let mut m = Module::new("codec");
        let s = m.types.declare("pair", vec![Type::Int, Type::Int]).unwrap();
        m.add_global("g", Type::ptr(Type::Int)).unwrap();
        let callee = {
            let mut b = FunctionBuilder::new(&mut m, "callee", vec![("x", Type::Int)], Type::Int);
            let x = b.param(0);
            b.ret(Some(x.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let p = b.alloca("p", Type::Struct(s));
        let h = b.heap_alloc("h", Type::Int);
        let f0 = b.field_addr("f0", p, 1);
        b.store(f0, h);
        let arr = b.alloca("arr", Type::array(Type::Int, 3));
        let e = b.elem_addr("e", arr, 1i64);
        let pa = b.ptr_arith("pa", e, -2i64);
        let v = b.load("v", pa);
        b.call("c", callee, vec![v.into()]);
        let t = b.new_block();
        let el = b.new_block();
        b.branch(v, t, el);
        b.switch_to(t);
        b.output(v);
        b.ret(None);
        b.switch_to(el);
        b.ret(None);
        b.finish();

        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid);
        let mut w = ByteWriter::new();
        encode_function(&mut w, f);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_function(&mut r).expect("decode");
        assert!(r.is_at_end());
        assert_eq!(format!("{f:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        let m = {
            let mut m = Module::new("t");
            let mut b = FunctionBuilder::new(&mut m, "f", vec![], Type::Void);
            b.ret(None);
            b.finish();
            m
        };
        encode_function(&mut w, m.func(m.func_by_name("f").unwrap()));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_function(&mut r).is_err(), "cut at {cut}");
        }

        let decode = |bytes: &[u8]| decode_function(&mut ByteReader::new(bytes));
        // Crafted counts: 2^62 locals, and a return type of 2^62 params.
        for ty_tag in [1u8, 5] {
            let mut w = ByteWriter::new();
            w.str("f");
            w.uint(0);
            w.u8(ty_tag);
            w.uint(1 << 62);
            assert!(decode(&w.into_bytes()).is_err(), "type tag {ty_tag}");
        }
        // An unnamed function whose return type is 4M nested pointers.
        let mut deep = vec![0u8, 0];
        deep.resize(4 << 20, 2);
        assert!(decode(&deep).is_err());
        // Seeded single-bit flips of every function of the nine models.
        // The models are built against this crate's non-test copy, so
        // they cross over as text.
        let mut rng = kaleidoscope_prng::Rng::seed_from_u64(0xf11b);
        for app in kaleidoscope_apps::all_models() {
            let m = crate::parse_module(&app.module.to_text()).expect("model parses");
            for (_, f) in m.iter_funcs() {
                let mut w = ByteWriter::new();
                encode_function(&mut w, f);
                let intact = w.into_bytes();
                for _ in 0..64 {
                    let bit = rng.gen_range(0..intact.len() * 8);
                    let mut flipped = intact.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    // `Ok` or `Err`; a panic fails the test.
                    let _ = decode(&flipped);
                }
            }
        }
    }
}
