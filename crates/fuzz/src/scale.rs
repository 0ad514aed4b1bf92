//! Deterministic synthetic scale corpus for solver benchmarks.
//!
//! The bundled application models (Table 2) all solve in a few
//! milliseconds, which is the wrong scale for measuring the solver. This
//! module synthesizes modules of ~100k statements from the embedded-code
//! pointer patterns catalogued by Pathade & Khedker — linked structures,
//! function-pointer tables, array-of-pointer loops, and heap factories —
//! wired so that the solve spends its time propagating large points-to
//! sets through many mutually independent nodes:
//!
//! * a **registry** of heap/stack pointer objects is published into a
//!   global array (the array-of-pointer loop pattern), so a single load
//!   seeds a points-to set with every registry object;
//! * a **copy mesh** of `chains × depth` rungs forwards those large sets
//!   down per-chain alloca slots (store/store/load rungs — the classic
//!   flow-through-memory idiom), giving every topological stratum
//!   `chains` mutually independent nodes with multi-hundred-element
//!   deltas;
//! * **linked structures**, **function-pointer dispatch tables**, and
//!   **heap factories** ride along at realistic proportions so the corpus
//!   also exercises field, indirect-call, and allocation constraints.
//!
//! Everything is derived from [`kaleidoscope_prng::Rng`], so a
//! `(seed, target)` pair names one exact module forever: the differential
//! tests and the solver bench regenerate byte-identical corpora without
//! storing 100k-statement files in the repository.

use kaleidoscope_ir::builder::global;
use kaleidoscope_ir::{FunctionBuilder, Module, Operand, Type};
use kaleidoscope_prng::Rng;

/// Shape parameters for one synthesized module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// RNG seed; every structural choice derives from it.
    pub seed: u64,
    /// Pointer objects published in the shared registry array.
    pub registry: usize,
    /// Parallel chains in the copy mesh (the number of mutually
    /// independent nodes in each topological stratum).
    pub chains: usize,
    /// Rungs per chain (the number of strata the mesh contributes).
    pub depth: usize,
    /// Repetitions of the linked-list / dispatch-table / factory mix.
    pub pattern_units: usize,
}

impl ScaleConfig {
    /// A configuration sized to reach at least `target_stmts` module
    /// statements, with the pattern mix held at fixed proportions.
    pub fn sized(seed: u64, target_stmts: usize) -> ScaleConfig {
        // Budget split: ~25% registry publication, ~55% copy mesh,
        // ~20% pattern units. Each registry entry costs 3 statements
        // (alloc, elem_addr, store); each mesh rung costs 4; a pattern
        // unit costs ~90. The per-component floors and clamps bias a
        // little below the arithmetic, so pad the budget up front and
        // treat `target_stmts` as a floor, never a ceiling.
        let target_stmts = target_stmts + target_stmts / 6;
        let registry = (target_stmts / 12).clamp(64, 16_384);
        let mesh_budget = target_stmts * 55 / 100;
        let chains = ((mesh_budget / 4) as f64).sqrt() as usize;
        let chains = chains.clamp(16, 512);
        let depth = (mesh_budget / (4 * chains)).max(8) + 1;
        let pattern_units = (target_stmts / 5 / 90).max(1);
        ScaleConfig {
            seed,
            registry,
            chains,
            depth,
            pattern_units,
        }
    }
}

/// Synthesize one module. Deterministic: equal configs yield modules with
/// equal fingerprints.
pub fn synthesize(cfg: &ScaleConfig) -> Module {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut module = Module::new("scale");

    // --- Shared registry: a global array of int* slots. -----------------
    let reg = global(
        &mut module,
        "registry",
        Type::array(Type::ptr(Type::Int), cfg.registry),
    );

    // Heap factory (Pathade's allocation-wrapper pattern): every call
    // site shares one abstract heap object, which is what makes factory
    // results the widest-flowing values in embedded code.
    let factory = {
        let mut b = FunctionBuilder::new(&mut module, "factory", vec![], Type::ptr(Type::Int));
        let h = b.heap_alloc("h", Type::Int);
        b.ret(Some(h.into()));
        b.finish()
    };

    // Publish registry objects: a mix of locals' addresses, direct heap
    // allocations, and factory calls, written through an array-of-pointer
    // loop body (unrolled — the IR is loop-free straight-line here, which
    // keeps the constraint graph identical run to run).
    {
        let mut b = FunctionBuilder::new(&mut module, "publish_registry", vec![], Type::Void);
        for i in 0..cfg.registry {
            let src: Operand = match rng.gen_range(0..3u32) {
                0 => b.alloca(&format!("a{i}"), Type::Int).into(),
                1 => b.heap_alloc(&format!("h{i}"), Type::Int).into(),
                _ => b
                    .call(&format!("f{i}"), factory, vec![])
                    .expect("factory returns a pointer")
                    .into(),
            };
            let slot = b.elem_addr(&format!("s{i}"), Operand::Global(reg), i as i64);
            b.store(slot, src);
        }
        b.ret(None);
        b.finish()
    };

    // --- Copy mesh: chains × depth rungs of store/store/load. -----------
    // Each rung merges its own chain's previous value with a neighbor
    // chain's through a fresh alloca slot, so sets flow through memory
    // (two StoreDerefs + one LoadDeref per rung) and every depth level is
    // one stratum of `chains` mutually independent nodes.
    {
        let mut b = FunctionBuilder::new(&mut module, "mesh", vec![], Type::Void);
        let stride = 1 + rng.gen_range(0..cfg.chains.max(2) - 1);
        let mut level: Vec<Operand> = (0..cfg.chains)
            .map(|i| {
                let idx = rng.gen_range(0..cfg.registry) as i64;
                let slot = b.elem_addr(&format!("head_s{i}"), Operand::Global(reg), idx);
                b.load(&format!("head{i}"), slot).into()
            })
            .collect();
        for d in 0..cfg.depth {
            let mut next = Vec::with_capacity(cfg.chains);
            for i in 0..cfg.chains {
                let slot = b.alloca(&format!("m{d}_{i}"), Type::ptr(Type::Int));
                b.store(slot, level[i]);
                b.store(slot, level[(i + stride) % cfg.chains]);
                next.push(b.load(&format!("v{d}_{i}"), slot).into());
            }
            level = next;
        }
        // Sink the last level so nothing is trivially dead.
        let sink = b.alloca("sink", Type::ptr(Type::Int));
        for (i, v) in level.iter().enumerate() {
            let _ = i;
            b.store(sink, *v);
        }
        b.ret(None);
        b.finish()
    };

    // --- Pattern units: linked lists, dispatch tables, factories. -------
    let node_ty = module.types.declare(
        "node",
        vec![
            Type::ptr(Type::Struct(kaleidoscope_ir::StructId(0))),
            Type::ptr(Type::Int),
        ],
    );
    let node_ty = node_ty.expect("fresh struct name");
    let n_handlers = 4 + rng.gen_range(0..4usize);
    let handlers: Vec<_> = (0..n_handlers)
        .map(|k| {
            let mut b = FunctionBuilder::new(
                &mut module,
                &format!("handler{k}"),
                vec![("p", Type::ptr(Type::Int))],
                Type::Int,
            );
            let p = b.param(0);
            let v = b.load("v", p);
            b.ret(Some(v.into()));
            b.finish()
        })
        .collect();
    let table = global(
        &mut module,
        "dispatch_table",
        Type::array(Type::fn_ptr(vec![Type::ptr(Type::Int)], Type::Int), 8),
    );

    for u in 0..cfg.pattern_units {
        let mut b = FunctionBuilder::new(&mut module, &format!("unit{u}"), vec![], Type::Void);
        // Linked structure: a short heap list threaded through `next`
        // fields, then traversed back with loads.
        let list_len = 3 + rng.gen_range(0..5usize);
        let mut prev: Option<Operand> = None;
        let mut first: Option<Operand> = None;
        for j in 0..list_len {
            let n: Operand = b.heap_alloc(&format!("n{j}"), Type::Struct(node_ty)).into();
            let payload = b.heap_alloc(&format!("pay{j}"), Type::Int);
            let pf = b.field_addr(&format!("pf{j}"), n, 1);
            b.store(pf, payload);
            if let Some(p) = prev {
                let nf = b.field_addr(&format!("nf{j}"), p, 0);
                b.store(nf, n);
            } else {
                first = Some(n);
            }
            prev = Some(n);
        }
        let mut cur = first.expect("list is non-empty");
        for j in 0..list_len {
            let nf = b.field_addr(&format!("t_nf{j}"), cur, 0);
            cur = b.load(&format!("t_n{j}"), nf).into();
            let pf = b.field_addr(&format!("t_pf{j}"), cur, 1);
            let pay = b.load(&format!("t_p{j}"), pf);
            let _ = pay;
        }
        // Function-pointer table: install a rotation of handlers, then
        // dispatch through a loaded slot (an on-the-fly call edge).
        for (sj, h) in handlers.iter().enumerate().take(4) {
            let slot = b.elem_addr(
                &format!("dt{sj}"),
                Operand::Global(table),
                ((u + sj) % 8) as i64,
            );
            b.store(slot, Operand::Func(*h));
        }
        let dslot = b.elem_addr("dslot", Operand::Global(table), (u % 8) as i64);
        let fp = b.load("fp", dslot);
        let arg = b.heap_alloc("arg", Type::Int);
        let _ = b.call_ind("r", fp, vec![arg.into()], Type::Int);
        // Heap factory fan-out: stash factory results into the registry
        // so unit allocations join the mesh's flowing sets.
        let fres = b
            .call("fres", factory, vec![])
            .expect("factory returns a pointer");
        let idx = rng.gen_range(0..cfg.registry) as i64;
        let rslot = b.elem_addr("rslot", Operand::Global(reg), idx);
        b.store(rslot, fres);
        b.ret(None);
        b.finish();
    }

    // Entry point ties the call graph together.
    {
        let publish = module.func_by_name("publish_registry").expect("declared");
        let mesh = module.func_by_name("mesh").expect("declared");
        let units: Vec<_> = (0..cfg.pattern_units)
            .map(|u| module.func_by_name(&format!("unit{u}")).expect("declared"))
            .collect();
        let mut b = FunctionBuilder::new(&mut module, "main", vec![], Type::Void);
        b.call("c_pub", publish, vec![]);
        for (u, f) in units.iter().enumerate() {
            let _ = u;
            b.call("c_unit", *f, vec![]);
        }
        b.call("c_mesh", mesh, vec![]);
        b.ret(None);
        b.finish()
    };

    module
}

/// Synthesize a module with at least `target_stmts` statements.
pub fn corpus_module(seed: u64, target_stmts: usize) -> Module {
    synthesize(&ScaleConfig::sized(seed, target_stmts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = corpus_module(42, 20_000);
        let b = corpus_module(42, 20_000);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same seed, same module");
        let c = corpus_module(43, 20_000);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed changes content");
    }

    #[test]
    fn corpus_reaches_its_statement_target() {
        for target in [10_000usize, 50_000] {
            let m = corpus_module(7, target);
            assert!(
                m.inst_count() >= target,
                "target {target}, got {}",
                m.inst_count()
            );
        }
    }

    #[test]
    fn corpus_verifies_and_solves() {
        let m = corpus_module(3, 8_000);
        assert!(kaleidoscope_ir::verify_module(&m).is_empty());
        let opts = kaleidoscope_pta::SolveOptions::baseline();
        let analysis = kaleidoscope_pta::Analysis::run(&m, &opts);
        assert!(analysis.result.stats.iterations > 0);
    }
}
