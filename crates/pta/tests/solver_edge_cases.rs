//! Additional solver coverage: deep pointer chains, recursion, return
//! flows, mixed field/element addressing, and solver-option edges.

use kaleidoscope_ir::{FunctionBuilder, LocalId, Module, Operand, Type};
use kaleidoscope_pta::{Analysis, ObjSite, SolveOptions};

fn pts_len(a: &Analysis, m: &Module, func: &str, local: u32) -> usize {
    a.pts_of_local(m.func_by_name(func).unwrap(), LocalId(local))
        .len()
}

#[test]
fn triple_indirection_resolves() {
    // o; p=&o; pp holds p; ppp holds pp; ***ppp reaches o.
    let mut m = Module::new("triple");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let o = b.alloca("o", Type::Int);
    let pp = b.alloca("pp", Type::ptr(Type::Int));
    b.store(pp, o);
    let ppp = b.alloca("ppp", Type::ptr(Type::ptr(Type::Int)));
    b.store(ppp, pp);
    let p4 = b.alloca("p4", Type::ptr(Type::ptr(Type::ptr(Type::Int))));
    b.store(p4, ppp);
    let l1 = b.load("l1", p4); // = ppp value = &pp
    let l2 = b.load("l2", l1); // = &o
    let l3 = b.load("l3", l2); // = o's content... pointer-wise = contents of o
    let _ = l3;
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    assert_eq!(pts_len(&a, &m, "main", 4), 1, "l1 = {{pp}}");
    assert_eq!(pts_len(&a, &m, "main", 5), 1, "l2 = {{o}}");
}

#[test]
fn recursive_functions_converge() {
    // f(p) calls itself with a copy; pointer flows reach a fixpoint.
    let mut m = Module::new("rec");
    let f = m
        .declare_func("f", vec![Type::ptr(Type::Int)], Type::ptr(Type::Int))
        .unwrap();
    {
        let mut b = FunctionBuilder::for_declared(&mut m, f);
        let p = b.param(0);
        let base = b.input("base");
        let done = b.new_block();
        let again = b.new_block();
        b.branch(base, done, again);
        b.switch_to(done);
        b.ret(Some(p.into())); // base case: identity
        b.switch_to(again);
        let c = b.copy("c", p);
        let r = b.call("r", f, vec![c.into()]).unwrap();
        b.ret(Some(r.into()));
        b.finish();
    }
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let o = b.alloca("o", Type::Int);
    let r = b.call("r", f, vec![o.into()]).unwrap();
    let _ = r;
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    // The recursive identity returns exactly the one object.
    assert_eq!(pts_len(&a, &m, "main", 1), 1);
}

#[test]
fn mutual_recursion_converges() {
    let mut m = Module::new("mutual");
    let f = m
        .declare_func("f", vec![Type::ptr(Type::Int)], Type::Void)
        .unwrap();
    let g = m
        .declare_func("g", vec![Type::ptr(Type::Int)], Type::Void)
        .unwrap();
    {
        let mut b = FunctionBuilder::for_declared(&mut m, f);
        let p = b.param(0);
        b.call("r", g, vec![p.into()]);
        b.ret(None);
        b.finish();
    }
    {
        let mut b = FunctionBuilder::for_declared(&mut m, g);
        let p = b.param(0);
        b.call("r", f, vec![p.into()]);
        b.ret(None);
        b.finish();
    }
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let o1 = b.alloca("o1", Type::Int);
    let o2 = b.alloca("o2", Type::Int);
    b.call("c1", f, vec![o1.into()]);
    b.call("c2", g, vec![o2.into()]);
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    // Both params accumulate both objects (context-insensitive merge).
    assert_eq!(pts_len(&a, &m, "f", 0), 2);
    assert_eq!(pts_len(&a, &m, "g", 0), 2);
}

#[test]
fn field_of_array_element_distinguished_from_other_fields() {
    let mut m = Module::new("fa");
    let s = m
        .types
        .declare("pair", vec![Type::ptr(Type::Int), Type::ptr(Type::Int)])
        .unwrap();
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let arr = b.alloca("arr", Type::array(Type::Struct(s), 4));
    let x = b.alloca("x", Type::Int);
    let y = b.alloca("y", Type::Int);
    let i = b.input("i");
    let e = b.elem_addr("e", arr, i);
    let f0 = b.field_addr("f0", e, 0);
    b.store(f0, x);
    let f1 = b.field_addr("f1", e, 1);
    b.store(f1, y);
    let v0 = b.load("v0", f0);
    let v1 = b.load("v1", f1);
    let (_, _) = (v0, v1);
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    // Elements are smashed but fields stay separate.
    assert_eq!(pts_len(&a, &m, "main", 7), 1, "field 0 sees only x");
    assert_eq!(pts_len(&a, &m, "main", 8), 1, "field 1 sees only y");
}

#[test]
fn out_of_range_field_falls_back_to_base() {
    let mut m = Module::new("oor");
    let s = m.types.declare("one", vec![Type::ptr(Type::Int)]).unwrap();
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let o = b.alloca("o", Type::Struct(s));
    // Deliberately out-of-range index via raw instruction construction is
    // rejected by the verifier for statically-typed bases, so go through a
    // weakly-typed copy.
    let oc = b.copy_typed("oc", o, Type::ptr(Type::Int));
    let f9 = b.field_addr("f9", oc, 9);
    let _v = b.load("v", f9);
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    // No panic; f9 conservatively points at the object itself.
    assert_eq!(pts_len(&a, &m, "main", 2), 1);
}

#[test]
fn indirect_call_return_value_flows() {
    let mut m = Module::new("iret");
    let mk = {
        let mut b =
            FunctionBuilder::new(&mut m, "mk", vec![("x", Type::Int)], Type::ptr(Type::Int));
        let h = b.heap_alloc("h", Type::Int);
        b.ret(Some(h.into()));
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let fp = b.copy("fp", Operand::Func(mk));
    let r = b
        .call_ind("r", fp, vec![Operand::ConstInt(0)], Type::ptr(Type::Int))
        .unwrap();
    let _ = r;
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    let main = m.func_by_name("main").unwrap();
    let pts = a.pts_of_local(main, LocalId(1));
    assert_eq!(pts.len(), 1);
    assert!(matches!(a.sites_of(&pts)[0], ObjSite::Heap(_)));
}

#[test]
fn null_and_constants_produce_no_points_to() {
    let mut m = Module::new("null");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let p = b.copy_typed("p", Operand::Null, Type::ptr(Type::Int));
    let q = b.copy_typed("q", Operand::ConstInt(0xdead), Type::ptr(Type::Int));
    let (_, _) = (p, q);
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    assert_eq!(pts_len(&a, &m, "main", 0), 0);
    assert_eq!(pts_len(&a, &m, "main", 1), 0);
    assert!(a.top_level_pointer_sizes(&m).is_empty());
}

#[test]
fn store_through_null_is_ignored_statically() {
    let mut m = Module::new("sn");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let o = b.alloca("o", Type::Int);
    b.store(Operand::Null, o); // constraint dropped (no node for null)
    b.ret(None);
    b.finish();
    let a = Analysis::run(&m, &SolveOptions::baseline());
    assert_eq!(a.result.stats.constraint_count, 1, "only the alloca");
}

#[test]
fn collapse_cycles_off_reaches_same_fixpoint() {
    // Precision must be identical with the optimization disabled.
    let model = kaleidoscope_apps_free_module();
    let with = Analysis::run(&model, &SolveOptions::baseline());
    let without = Analysis::run(
        &model,
        &SolveOptions {
            collapse_cycles: false,
            ..SolveOptions::baseline()
        },
    );
    for (fid, f) in model.iter_funcs() {
        for l in 0..f.locals.len() as u32 {
            let a = with.pts_of_local(fid, LocalId(l));
            let b = without.pts_of_local(fid, LocalId(l));
            assert_eq!(with.sites_of(&a), without.sites_of(&b), "{}::%{l}", f.name);
        }
    }
}

/// A small module with a real copy cycle through memory.
fn kaleidoscope_apps_free_module() -> Module {
    let mut m = Module::new("cyc");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let o = b.alloca("o", Type::Int);
    let s1 = b.alloca("s1", Type::ptr(Type::Int));
    let s2 = b.alloca("s2", Type::ptr(Type::Int));
    b.store(s1, o);
    let v1 = b.load("v1", s1);
    b.store(s2, v1);
    let v2 = b.load("v2", s2);
    b.store(s1, v2);
    b.ret(None);
    b.finish();
    m
}

#[test]
fn steensgaard_on_all_models_is_coarser_on_average() {
    for name in ["Wget", "TinyDTLS"] {
        let model = kaleidoscope_apps::model(name).unwrap();
        let andersen = Analysis::run(&model.module, &SolveOptions::baseline());
        let steens = kaleidoscope_pta::steens_analysis(&model.module);
        let a_avg = kaleidoscope_pta::PtsStats::collect(&andersen, &model.module).avg;
        let s_avg = kaleidoscope_pta::PtsStats::collect(&steens, &model.module).avg;
        assert!(
            s_avg >= a_avg,
            "{name}: steensgaard {s_avg} < andersen {a_avg}"
        );
    }
}
