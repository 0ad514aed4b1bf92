//! Property-based tests over randomly generated (but well-formed,
//! memory-safe) programs:
//!
//! * generated modules verify and round-trip through the textual parser;
//! * the optimistic analysis is site-wise a subset of the fallback;
//! * running the hardened program never produces a CFI violation, and the
//!   indirect-call targets observed at runtime are inside the optimistic
//!   callgraph while no invariant is violated (and always inside the
//!   fallback callgraph);
//! * invariant violations, if the random program produces any, switch the
//!   memory view exactly once and execution still completes;
//! * an invariant the executor's witnesses call inert changes no solve
//!   (`support/inert.rs`).

#[path = "support/inert.rs"]
mod inert;

use kaleidoscope_prng::{check, Rng};
use kaleidoscope_suite::cfi::harden;
use kaleidoscope_suite::ir::{
    parse_module, verify_module, FunctionBuilder, LocalId, Module, Operand, Type,
};
use kaleidoscope_suite::kaleidoscope::{analyze, PolicyConfig};
use kaleidoscope_suite::runtime::ViewKind;

/// One abstract operation of the generated program. Indices are taken
/// modulo the relevant pool size at build time, so any u8 is valid.
#[derive(Debug, Clone)]
enum Op {
    AllocInt,
    AllocSlot,
    AllocStruct,
    StorePtr { slot: u8, ptr: u8 },
    LoadPtr { slot: u8 },
    CopyPtr { ptr: u8 },
    StoreVal { ptr: u8, val: i8 },
    ArithZero { ptr: u8 },
    FieldSlot { st: u8, field: u8 },
    StoreFn { fnslot: u8, handler: u8 },
    CallFn { fnslot: u8 },
}

fn random_op(rng: &mut Rng) -> Op {
    let byte = |rng: &mut Rng| rng.gen_range(0..=255u8);
    match rng.gen_range(0..11u32) {
        0 => Op::AllocInt,
        1 => Op::AllocSlot,
        2 => Op::AllocStruct,
        3 => Op::StorePtr {
            slot: byte(rng),
            ptr: byte(rng),
        },
        4 => Op::LoadPtr { slot: byte(rng) },
        5 => Op::CopyPtr { ptr: byte(rng) },
        6 => Op::StoreVal {
            ptr: byte(rng),
            val: byte(rng) as i8,
        },
        7 => Op::ArithZero { ptr: byte(rng) },
        8 => Op::FieldSlot {
            st: byte(rng),
            field: byte(rng),
        },
        9 => Op::StoreFn {
            fnslot: byte(rng),
            handler: byte(rng),
        },
        _ => Op::CallFn { fnslot: byte(rng) },
    }
}

fn random_ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.gen_range(0..40usize);
    (0..n).map(|_| random_op(rng)).collect()
}

/// Materialize an op sequence into a module whose `main` is memory-safe:
/// loads only hit initialized slots, arithmetic uses offset zero, and
/// indirect calls only go through initialized function-pointer slots.
fn build_program(ops: &[Op]) -> Module {
    let mut m = Module::new("random");
    let st = m
        .types
        .declare("pair", vec![Type::ptr(Type::Int), Type::ptr(Type::Int)])
        .unwrap();
    let handlers: Vec<_> = (0..3)
        .map(|i| {
            let mut b = FunctionBuilder::new(
                &mut m,
                &format!("handler{i}"),
                vec![("x", Type::Int)],
                Type::Int,
            );
            let x = b.param(0);
            b.ret(Some(x.into()));
            b.finish()
        })
        .collect();
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);

    // Pools of locals, all valid at runtime.
    let mut ptrs: Vec<LocalId> = Vec::new(); // int* pointing at live objects
    let mut slots: Vec<(LocalId, bool)> = Vec::new(); // int** (addr of ptr slot), init flag
    let mut structs: Vec<LocalId> = Vec::new(); // pair*
    let mut fnslots: Vec<(LocalId, bool)> = Vec::new(); // fnptr slot addr, init flag
    let mut seq = 0usize;
    let name = |p: &str, seq: &mut usize| {
        *seq += 1;
        format!("{p}{seq}")
    };

    // Seed pools so modulo indexing always works.
    let p0 = b.alloca("seed_int", Type::Int);
    ptrs.push(p0);
    let s0 = b.alloca("seed_slot", Type::ptr(Type::Int));
    b.store(s0, p0);
    slots.push((s0, true));
    let f0 = b.alloca("seed_fnslot", Type::fn_ptr(vec![Type::Int], Type::Int));
    b.store(f0, Operand::Func(handlers[0]));
    fnslots.push((f0, true));
    let st0 = b.alloca("seed_struct", Type::Struct(st));
    structs.push(st0);

    for op in ops {
        match op {
            Op::AllocInt => {
                let p = b.alloca(&name("i", &mut seq), Type::Int);
                ptrs.push(p);
            }
            Op::AllocSlot => {
                let s = b.alloca(&name("s", &mut seq), Type::ptr(Type::Int));
                slots.push((s, false));
            }
            Op::AllocStruct => {
                let s = b.alloca(&name("st", &mut seq), Type::Struct(st));
                structs.push(s);
            }
            Op::StorePtr { slot, ptr } => {
                let idx = *slot as usize % slots.len();
                let (s, init) = &mut slots[idx];
                let p = ptrs[*ptr as usize % ptrs.len()];
                b.store(*s, p);
                *init = true;
            }
            Op::LoadPtr { slot } => {
                let (s, init) = slots[*slot as usize % slots.len()];
                if init {
                    let v = b.load(&name("l", &mut seq), s);
                    ptrs.push(v);
                }
            }
            Op::CopyPtr { ptr } => {
                let p = ptrs[*ptr as usize % ptrs.len()];
                let c = b.copy(&name("c", &mut seq), p);
                ptrs.push(c);
            }
            Op::StoreVal { ptr, val } => {
                let p = ptrs[*ptr as usize % ptrs.len()];
                b.store(p, *val as i64);
            }
            Op::ArithZero { ptr } => {
                let p = ptrs[*ptr as usize % ptrs.len()];
                // Offset through an opaque computation so the analysis
                // cannot see it is zero (a genuine PtrArith constraint).
                let zero = b.binop(
                    &name("z", &mut seq),
                    kaleidoscope_suite::ir::BinOpKind::Mul,
                    0i64,
                    7i64,
                );
                let q = b.ptr_arith(&name("a", &mut seq), p, zero);
                ptrs.push(q);
            }
            Op::FieldSlot { st: si, field } => {
                let s = structs[*si as usize % structs.len()];
                let f = b.field_addr(&name("f", &mut seq), s, (*field % 2) as usize);
                slots.push((f, false));
            }
            Op::StoreFn { fnslot, handler } => {
                let idx = *fnslot as usize % fnslots.len();
                let (s, init) = &mut fnslots[idx];
                let h = handlers[*handler as usize % handlers.len()];
                b.store(*s, Operand::Func(h));
                *init = true;
            }
            Op::CallFn { fnslot } => {
                let (s, init) = fnslots[*fnslot as usize % fnslots.len()];
                if init {
                    let fp = b.load(&name("fp", &mut seq), s);
                    let r = b
                        .call_ind(
                            &name("r", &mut seq),
                            fp,
                            vec![Operand::ConstInt(1)],
                            Type::Int,
                        )
                        .unwrap();
                    b.output(r);
                }
            }
        }
    }
    b.ret(None);
    b.finish();
    m
}

#[test]
fn generated_programs_verify_and_roundtrip() {
    check(48, 0x51de, |rng| {
        let ops = random_ops(rng);
        let m = build_program(&ops);
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "verify: {errs:?}");
        let text = m.to_text();
        let m2 = parse_module(&text).expect("roundtrip parse");
        assert_eq!(text, m2.to_text());
    });
}

#[test]
fn optimistic_subset_and_runtime_soundness() {
    check(48, 0x50fd, |rng| {
        let ops = random_ops(rng);
        let m = build_program(&ops);
        let r = analyze(&m, PolicyConfig::all());
        let main = m.func_by_name("main").unwrap();

        // Site-wise subset.
        for l in 0..m.func(main).locals.len() as u32 {
            let lid = LocalId(l);
            let o = r.optimistic.pts_of_local(main, lid);
            if o.is_empty() {
                continue;
            }
            let f = r.fallback.pts_of_local(main, lid);
            let os = r.optimistic.sites_of(&o);
            let fs = r.fallback.sites_of(&f);
            for s in os {
                assert!(
                    fs.contains(&s),
                    "local %{l}: optimistic {s} not in fallback"
                );
            }
        }

        // Runtime: hardened execution completes; CFI never rejects a benign
        // call; observed targets are inside the matching view's callgraph.
        let h = harden(&m, PolicyConfig::all());
        let mut ex = h.executor(&m);
        let out = ex.run(main, vec![]).expect("random program runs");
        let violated = !out.violations.is_empty();
        for (site, targets) in ex.coverage.observed_targets() {
            let fall = h.policy.targets(site, ViewKind::Fallback);
            for t in targets {
                assert!(
                    fall.contains(t),
                    "target @{} outside fallback at {site}",
                    t.0
                );
            }
            if !violated {
                let opt = h.policy.targets(site, ViewKind::Optimistic);
                for t in targets {
                    assert!(
                        opt.contains(t),
                        "no violation but @{} outside optimistic at {site}",
                        t.0
                    );
                }
            }
        }
        if violated {
            assert_eq!(ex.switcher.view(), ViewKind::Fallback);
            assert_eq!(ex.switcher.switch_count(), 1, "one-way switch");
        }
    });
}

#[test]
fn inert_invariants_leave_solves_unchanged() {
    let mut checked = 0;
    check(48, 0x1_4E27, |rng| {
        let m = build_program(&random_ops(rng));
        checked += inert::check_revision("random", &m, &inert::solve_all(&m, None));
    });
    assert!(checked > 0, "no random program had an inert invariant");
}
