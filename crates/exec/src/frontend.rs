//! Cached analysis frontend: text → module + plan-free program.
//!
//! [`load_frontend`] is the single entry point the CLI and the serve worker
//! use to turn module text into (a) a parsed [`Module`] and (b) its
//! plan-free constraint program, which every solve without a context plan
//! clones instead of generating constraints again. The lowered functions
//! are cached **per function** in the [`DiskCache`]'s `fe/` namespace, so a
//! warm revision re-parses only the bodies whose text changed. The program
//! is generated afresh from the module on every load (DESIGN §5h). A load
//! writes every entry it missed as one pack file.
//!
//! # Entry layout and validity
//!
//! A cache entry is keyed by `fnv1a64(FE_CACHE_VERSION ∥ signature text ∥
//! NUL ∥ body text)` and stores two sections in one buffer:
//!
//! 1. **Imports** — every (id, name) the lowered body resolved against the
//!    module header: referenced functions (with their `param_count` and
//!    return-void flag, which constraint generation's call wiring depends
//!    on), referenced globals, and every struct id embedded in the
//!    function's types.
//! 2. The lowered [`Function`] (the `crates/ir` codec).
//!
//! On lookup the imports are re-validated against a fresh header parse: if
//! any name moved to a different id — a declaration was inserted, removed,
//! or reordered — the entry *misses* and the function is re-lowered live.
//! The decoded function must reference exactly the ids its imports list,
//! so an entry that leaves out an id its body uses misses too: constraint
//! generation, which runs before the module is verified, never looks up a
//! function the header lacks. An entry can therefore be stale but never
//! wrong: a hit decodes to exactly what re-parsing the unchanged text
//! against the current header would produce. The cache may hold several
//! entries for one key (the same text under different headers); each is
//! tried until one validates.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use kaleidoscope_ir::codec::{decode_function, encode_function};
use kaleidoscope_ir::{
    fnv1a64, parse_header, ByteReader, ByteWriter, FuncId, Function, GlobalId, ItemRef, Module,
    ModuleShell, ParseError, StructId, Type,
};
use kaleidoscope_pta::ModuleBlocks;

use crate::diskcache::{DiskCache, FE_CACHE_VERSION};

/// Timing and cache-effectiveness counters for one frontend load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Number of functions in the module.
    pub funcs: usize,
    /// Functions whose lowered IR was decoded from the `fe/` cache. A hit
    /// skips only the body parse: the whole plan-free program is generated
    /// on every load.
    pub fe_cache_hits: usize,
    /// Functions whose bodies were parsed (and, when a cache is attached,
    /// written back to it).
    pub fe_cache_misses: usize,
    /// Wall-clock time of the parse half: header parse, cache lookups and
    /// decoding for hits, body parsing for misses.
    pub parse_ms: u64,
    /// Wall-clock time of the generation half: generating the module's
    /// plan-free constraint program, plus the cache write-back of the
    /// misses.
    pub gen_ms: u64,
}

/// A loaded frontend: the parsed module plus its plan-free constraint
/// program and the counters describing how it was produced.
#[derive(Debug)]
pub struct LoadedFrontend {
    /// The parsed module.
    pub module: Module,
    /// The module's plan-free program (`generate(&module, None)`), shared
    /// by every solve without a context plan.
    pub blocks: Arc<ModuleBlocks>,
    /// Load counters.
    pub stats: FrontendStats,
}

/// Everything a lowered function resolved against the module header:
/// referenced function ids (callees and taken addresses alike), global ids,
/// and struct ids.
fn collect_imports(f: &Function) -> (BTreeSet<u32>, BTreeSet<u32>, BTreeSet<u32>) {
    let mut imports = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    f.for_each_ref(|r| {
        match r {
            ItemRef::Callee(g) | ItemRef::FuncAddr(g) => imports.0.insert(g.0),
            ItemRef::Global(g) => imports.1.insert(g.0),
            ItemRef::Struct(s) => imports.2.insert(s.0),
        };
    });
    imports
}

/// Encode one `fe/` cache entry: validated imports, then the lowered
/// function.
fn encode_entry(module: &Module, func: &Function) -> Vec<u8> {
    let (fids, gids, sids) = collect_imports(func);
    let mut w = ByteWriter::new();
    w.uint(fids.len() as u64);
    for id in fids {
        let f = module.func(FuncId(id));
        w.uint(id as u64);
        w.str(&f.name);
        w.uint(f.param_count as u64);
        w.u8(u8::from(matches!(f.ret_ty, Type::Void)));
    }
    w.uint(gids.len() as u64);
    for id in gids {
        w.uint(id as u64);
        w.str(&module.global(GlobalId(id)).name);
    }
    w.uint(sids.len() as u64);
    for id in sids {
        w.uint(id as u64);
        w.str(&module.types.def(StructId(id)).name);
    }
    encode_function(&mut w, func);
    w.into_bytes()
}

/// Decode an `fe/` entry, validating its imports against the current
/// header-only module. Any mismatch — an id out of range, a name now bound
/// to a different id, a callee whose arity or return-voidness changed, a
/// function referencing an id the imports leave out — returns `None`
/// (treated as a miss, never a wrong function).
fn decode_entry(
    bytes: &[u8],
    header: &Module,
    func_count: usize,
    global_count: usize,
) -> Option<Function> {
    let mut r = ByteReader::new(bytes);
    let mut imports = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    let nf = r.uint().ok()? as usize;
    for _ in 0..nf {
        let id = r.uint().ok()? as usize;
        let name = r.str().ok()?;
        let param_count = r.uint().ok()? as usize;
        let ret_void = r.u8().ok()? != 0;
        if id >= func_count {
            return None;
        }
        let f = header.func(FuncId(id as u32));
        if f.name != name
            || f.param_count != param_count
            || matches!(f.ret_ty, Type::Void) != ret_void
        {
            return None;
        }
        imports.0.insert(id as u32);
    }
    let ng = r.uint().ok()? as usize;
    for _ in 0..ng {
        let id = r.uint().ok()? as usize;
        let name = r.str().ok()?;
        if id >= global_count || header.global(GlobalId(id as u32)).name != name {
            return None;
        }
        imports.1.insert(id as u32);
    }
    let ns = r.uint().ok()? as usize;
    for _ in 0..ns {
        let id = r.uint().ok()? as usize;
        let name = r.str().ok()?;
        if header
            .types
            .get(StructId(id as u32))
            .map(|d| d.name.as_str())
            != Some(name.as_str())
        {
            return None;
        }
        imports.2.insert(id as u32);
    }
    let func = decode_function(&mut r).ok()?;
    (r.is_at_end() && collect_imports(&func) == imports).then_some(func)
}

/// The `fe/` key of the `i`-th function of `text`: its signature and body
/// text under the cache version.
fn fe_key(text: &str, shell: &ModuleShell<'_>, i: usize) -> u64 {
    let ((ss, se), (bs, be)) = (shell.sig_span(i), shell.body_span(i));
    let text = text.as_bytes();
    fnv1a64(&[
        &FE_CACHE_VERSION.to_le_bytes(),
        &text[ss..se],
        b"\0",
        &text[bs..be],
    ])
}

/// Parse module text into a module plus its plan-free constraint program,
/// serving unchanged functions' lowered IR from `cache`'s `fe/` namespace
/// and generating the program from the whole module. The body pass runs
/// inline.
///
/// `_threads` is ignored. It sized a work-claiming pool for the body pass
/// that no caller ran with more than one thread; the parameter stays so
/// existing callers compile.
///
/// The returned module and program are identical to a cold `parse_module`
/// + `ModuleBlocks::build`, whatever mix of hits and misses produced them.
pub fn load_frontend(
    text: &str,
    cache: Option<&DiskCache>,
    _threads: usize,
) -> Result<LoadedFrontend, ParseError> {
    let t0 = Instant::now();
    let shell = parse_header(text)?;
    let n = shell.func_count();
    let header = shell.module();
    let global_count = header.iter_globals().count();

    // Per function: the lowered body, decoded from a hit or parsed. With a
    // cache, each miss's key and id are kept for the write-back below.
    let mut bodies = Vec::with_capacity(n);
    let mut missed = Vec::new();
    let mut hits = 0;
    let mut reader = cache.map(DiskCache::fe_reader);
    for i in 0..n {
        if let Some(r) = reader.as_mut() {
            let key = fe_key(text, &shell, i);
            if let Some(f) = r.get(key, |bytes| decode_entry(bytes, header, n, global_count)) {
                bodies.push(f);
                hits += 1;
                continue;
            }
            missed.push((key, shell.func_id(i)));
        }
        bodies.push(shell.parse_body(i)?);
    }
    let module = shell.finish(bodies);
    let parse_ms = t0.elapsed().as_millis() as u64;

    let t1 = Instant::now();
    let blocks = ModuleBlocks::build(&module);
    if let Some(c) = cache {
        let entries: Vec<_> = missed
            .into_iter()
            .map(|(key, id)| (key, encode_entry(&module, module.func(id))))
            .collect();
        // Write-back is best-effort: a full disk never fails the load.
        let _ = c.put_fe_pack(&entries);
    }
    let gen_ms = t1.elapsed().as_millis() as u64;

    Ok(LoadedFrontend {
        module,
        blocks: Arc::new(blocks),
        stats: FrontendStats {
            funcs: n,
            fe_cache_hits: hits,
            fe_cache_misses: n - hits,
            parse_ms,
            gen_ms,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{parse_module, FunctionBuilder, Inst, Type};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kd-frontend-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A module exercising calls, globals, structs, and indirect calls.
    fn sample_text() -> String {
        let mut m = Module::new("fe_sample");
        let s = m
            .types
            .declare("pair", vec![Type::Int, Type::ptr(Type::Int)])
            .unwrap();
        let g = m.add_global("gp", Type::ptr(Type::Int)).unwrap();
        let callee = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "callee",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = kaleidoscope_ir::LocalId(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        {
            let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
            let o = b.alloca("o", Type::Int);
            let st = b.alloca("st", Type::Struct(s));
            let f0 = b.field_addr("f0", st, 1);
            b.store(f0, o);
            let r = b.call("r", callee, vec![o.into()]).unwrap();
            b.store(kaleidoscope_ir::Operand::Global(g), r);
            let fp = b.copy("fp", kaleidoscope_ir::Operand::Func(callee));
            let _ind = b.call_ind("ind", fp, vec![o.into()], Type::ptr(Type::Int));
            b.ret(None);
            b.finish();
        }
        m.to_text()
    }

    #[test]
    fn cacheless_load_matches_parse_module() {
        let text = sample_text();
        let lf = load_frontend(&text, None, 1).unwrap();
        let direct = parse_module(&text).unwrap();
        assert_eq!(lf.module.fingerprint(), direct.fingerprint());
        assert_eq!(lf.module.to_text(), direct.to_text());
        assert_eq!(lf.stats.funcs, 2);
        assert_eq!(lf.stats.fe_cache_hits, 0);
        assert_eq!(lf.stats.fe_cache_misses, 2);
        assert_eq!(*lf.blocks, ModuleBlocks::build(&direct));
    }

    #[test]
    fn warm_load_hits_and_is_identical() {
        let text = sample_text();
        let cache = DiskCache::open(tmpdir("warm")).unwrap();
        let cold = load_frontend(&text, Some(&cache), 1).unwrap();
        assert_eq!(cold.stats.fe_cache_hits, 0);
        let warm = load_frontend(&text, Some(&cache), 1).unwrap();
        assert_eq!(warm.stats.fe_cache_hits, 2);
        assert_eq!(warm.stats.fe_cache_misses, 0);
        assert_eq!(warm.module.to_text(), cold.module.to_text());
        assert_eq!(warm.module.fingerprint(), cold.module.fingerprint());
        assert_eq!(warm.blocks, cold.blocks);
    }

    #[test]
    fn editing_one_function_misses_only_that_function() {
        let text = sample_text();
        let cache = DiskCache::open(tmpdir("edit")).unwrap();
        load_frontend(&text, Some(&cache), 1).unwrap();
        // Rename main's first alloca: only main's body text changes.
        let edited = text.replace("alloca int", "alloca int // edited");
        assert_ne!(edited, text);
        let warm = load_frontend(&edited, Some(&cache), 1).unwrap();
        assert_eq!(warm.stats.fe_cache_hits, 1);
        assert_eq!(warm.stats.fe_cache_misses, 1);
        let direct = parse_module(&edited).unwrap();
        assert_eq!(warm.module.to_text(), direct.to_text());
    }

    #[test]
    fn reordered_declarations_invalidate_stale_ids() {
        // Same function text, but a new function inserted *before* the old
        // ones shifts every id. Import validation must reject the stale
        // entries rather than decode calls wired to the wrong callee ids.
        let text = sample_text();
        let cache = DiskCache::open(tmpdir("reorder")).unwrap();
        load_frontend(&text, Some(&cache), 1).unwrap();
        let mut shifted = Module::new("fe_sample");
        let s = shifted
            .types
            .declare("pair", vec![Type::Int, Type::ptr(Type::Int)])
            .unwrap();
        let _ = s;
        shifted.add_global("gp", Type::ptr(Type::Int)).unwrap();
        {
            let mut b = FunctionBuilder::new(&mut shifted, "zeroth", vec![], Type::Void);
            b.ret(None);
            b.finish();
        }
        let shifted_text = {
            // Re-emit the original functions after the new one by textual
            // surgery: append the original function text (everything after
            // the globals) to the new module's text.
            let orig = text.clone();
            let tail = orig
                .split_once("func ")
                .map(|(_, t)| format!("func {t}"))
                .unwrap();
            format!("{}{}", shifted.to_text(), tail)
        };
        let warm = load_frontend(&shifted_text, Some(&cache), 1).unwrap();
        let direct = parse_module(&shifted_text).unwrap();
        assert_eq!(warm.module.to_text(), direct.to_text());
        assert_eq!(*warm.blocks, ModuleBlocks::build(&direct));
    }

    #[test]
    fn entry_hiding_a_callee_from_its_imports_is_a_miss() {
        // `main`'s entry with its call redirected past the last function,
        // and the import list of the real `main`, which does not name that
        // callee. Generating its constraints would look the callee up and
        // panic.
        let text = sample_text();
        let direct = parse_module(&text).unwrap();
        let main_id = direct.func_by_name("main").unwrap();
        let main = direct.func(main_id);
        let mut rogue = main.clone();
        for inst in rogue.blocks.iter_mut().flat_map(|b| &mut b.insts) {
            if let Inst::Call { callee, .. } = inst {
                *callee = FuncId(direct.funcs.len() as u32);
            }
        }
        let real = encode_entry(&direct, main);
        let mut w = ByteWriter::new();
        encode_function(&mut w, main);
        let imports = &real[..real.len() - w.len()];
        let mut w = ByteWriter::new();
        encode_function(&mut w, &rogue);
        let crafted = [imports, &w.into_bytes()].concat();

        let shell = parse_header(&text).unwrap();
        let (n, header) = (shell.func_count(), shell.module());
        let globals = header.iter_globals().count();
        assert!(decode_entry(&real, header, n, globals).is_some());
        assert!(decode_entry(&crafted, header, n, globals).is_none());

        // Stored under `main`'s key in a real pack, beside `callee`'s
        // genuine entry: only `callee` hits.
        let cache = DiskCache::open(tmpdir("hidden-callee")).unwrap();
        let key = |id: FuncId| fe_key(&text, &shell, id.index());
        let callee_id = direct.func_by_name("callee").unwrap();
        let entries = [
            (
                key(callee_id),
                encode_entry(&direct, direct.func(callee_id)),
            ),
            (key(main_id), crafted),
        ];
        cache.put_fe_pack(&entries).unwrap();
        let warm = load_frontend(&text, Some(&cache), 1).unwrap();
        assert_eq!(warm.stats.fe_cache_hits, 1);
        assert_eq!(warm.stats.fe_cache_misses, 1);
        let cold = load_frontend(&text, None, 1).unwrap();
        assert_eq!(warm.module.to_text(), cold.module.to_text());
        assert_eq!(warm.blocks, cold.blocks);
    }

    #[test]
    fn parse_errors_surface_with_position() {
        let text = sample_text().replace("alloca int", "alloca nosuchty");
        let err = load_frontend(&text, None, 1).unwrap_err();
        assert!(err.line > 1);
        assert!(err.msg.contains("nosuchty") || !err.msg.is_empty());
    }
}
