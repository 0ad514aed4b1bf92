//! Edge cases of the Ctx precision-critical-argument detection and the
//! pipeline's configuration handling.

use kaleidoscope::{analyze, detect_ctx_plan, PolicyConfig};
use kaleidoscope_ir::{FunctionBuilder, Module, Operand, Type};
use kaleidoscope_pta::{ChainStep, CriticalFlow};

fn two_call_harness(m: &mut Module, callee: kaleidoscope_ir::FuncId, arg_ty: Type) {
    let mut b = FunctionBuilder::new(m, "main", vec![], Type::Void);
    let x = b.alloca("x", Type::Int);
    let y = b.alloca("y", Type::Int);
    let xc = b.copy_typed("xc", x, arg_ty.clone());
    let yc = b.copy_typed("yc", y, arg_ty);
    b.call("r1", callee, vec![xc.into()]);
    b.call("r2", callee, vec![yc.into()]);
    b.ret(None);
    b.finish();
}

#[test]
fn chain_longer_than_cap_is_rejected() {
    // A 5-step address chain exceeds MAX_CHAIN (4): no flow detected.
    let mut m = Module::new("deepchain");
    let inner = m
        .types
        .declare("inner", vec![Type::Int, Type::ptr(Type::Int)])
        .unwrap();
    let mid = m
        .types
        .declare("mid", vec![Type::Int, Type::Struct(inner)])
        .unwrap();
    let outer = m
        .types
        .declare("outer", vec![Type::Int, Type::Struct(mid)])
        .unwrap();
    let f = {
        let mut b = FunctionBuilder::new(
            &mut m,
            "f",
            vec![
                ("base", Type::ptr(Type::Struct(outer))),
                ("cb", Type::ptr(Type::Int)),
            ],
            Type::Void,
        );
        let base = b.param(0);
        let cb = b.param(1);
        // &base->1 (mid), &.1 (inner), &.1 (ptr), then loads — 5+ steps.
        let a1 = b.field_addr("a1", base, 1);
        let a2 = b.field_addr("a2", a1, 1);
        let a3 = b.field_addr("a3", a2, 1);
        let a4 = b.copy("a4", a3);
        let a5 = b.field_addr("a5", a4, 0); // falls off the typed path
        let a6 = b.copy("a6", a5);
        let a7 = b.field_addr("a7", a6, 0);
        b.store(a7, cb);
        b.ret(None);
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let g1 = b.alloca("g1", Type::Struct(outer));
    let g2 = b.alloca("g2", Type::Struct(outer));
    let c1 = b.alloca("c1", Type::Int);
    let c2 = b.alloca("c2", Type::Int);
    b.call("r1", f, vec![g1.into(), c1.into()]);
    b.call("r2", f, vec![g2.into(), c2.into()]);
    b.ret(None);
    b.finish();
    let plan = detect_ctx_plan(&m);
    // Either no plan, or only flows with chains within the cap.
    if let Some(fp) = plan.for_func(f) {
        for flow in &fp.flows {
            if let CriticalFlow::Store { addr_chain, .. } = flow {
                assert!(addr_chain.len() <= 4);
            }
        }
    }
}

#[test]
fn ret_flow_through_multiple_copies() {
    let mut m = Module::new("copies");
    let f = {
        let mut b = FunctionBuilder::new(
            &mut m,
            "f",
            vec![("p", Type::ptr(Type::Int))],
            Type::ptr(Type::Int),
        );
        let p = b.param(0);
        let c1 = b.copy("c1", p);
        let c2 = b.copy("c2", c1);
        let c3 = b.copy("c3", c2);
        b.ret(Some(c3.into()));
        b.finish()
    };
    two_call_harness(&mut m, f, Type::ptr(Type::Int));
    let plan = detect_ctx_plan(&m);
    assert_eq!(
        plan.for_func(f).unwrap().flows,
        vec![CriticalFlow::Ret { param: 0 }]
    );
}

#[test]
fn function_returned_by_address_is_never_planned() {
    // `id` is called directly twice, so its return flow would be
    // precision-critical; but its address escapes through `get`'s `ret`,
    // so an indirect call reaches it and it must not be replicated.
    let mut m = Module::new("retaddr");
    let ptr = Type::ptr(Type::Int);
    let id = {
        let mut b = FunctionBuilder::new(&mut m, "id", vec![("p", ptr.clone())], ptr.clone());
        let p = b.param(0);
        b.ret(Some(p.into()));
        b.finish()
    };
    let get = {
        let fn_ty = Type::fn_ptr(vec![ptr.clone()], ptr.clone());
        let mut b = FunctionBuilder::new(&mut m, "get", vec![], fn_ty);
        b.ret(Some(Operand::Func(id)));
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let x = b.alloca("x", Type::Int);
    let y = b.alloca("y", Type::Int);
    b.call("r1", id, vec![x.into()]);
    b.call("r2", id, vec![y.into()]);
    let o1 = b.alloca("o1", Type::Int);
    let fp = b.call("fp", get, vec![]).unwrap();
    let r3 = b.call_ind("r3", fp, vec![o1.into()], ptr).unwrap();
    b.ret(None);
    let main = b.finish();
    assert_eq!(m.address_taken_funcs(), vec![id]);
    assert!(detect_ctx_plan(&m).for_func(id).is_none());
    for config in [PolicyConfig::all(), PolicyConfig::parse("kd-ctx").unwrap()] {
        let r = analyze(&m, config);
        let optimistic = r.optimistic.pts_of_local(main, r3);
        assert!(!optimistic.is_empty(), "{}", config.name());
        assert_eq!(optimistic, r.fallback.pts_of_local(main, r3));
    }
}

#[test]
fn non_pointer_params_never_critical() {
    let mut m = Module::new("ints");
    let f = {
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("x", Type::Int)], Type::Int);
        let x = b.param(0);
        b.ret(Some(x.into()));
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    b.call("r1", f, vec![Operand::ConstInt(1)]);
    b.call("r2", f, vec![Operand::ConstInt(2)]);
    b.ret(None);
    b.finish();
    assert!(detect_ctx_plan(&m).for_func(f).is_none());
}

#[test]
fn elem_step_in_chain_detected() {
    let mut m = Module::new("elemchain");
    let s = m
        .types
        .declare(
            "tbl",
            vec![Type::Int, Type::ptr(Type::array(Type::ptr(Type::Int), 4))],
        )
        .unwrap();
    let f = {
        let mut b = FunctionBuilder::new(
            &mut m,
            "f",
            vec![
                ("t", Type::ptr(Type::Struct(s))),
                ("v", Type::ptr(Type::Int)),
            ],
            Type::Void,
        );
        let t = b.param(0);
        let v = b.param(1);
        let fa = b.field_addr("fa", t, 1);
        let arr = b.load("arr", fa);
        let i = b.input("i");
        let slot = b.elem_addr("slot", arr, i);
        b.store(slot, v);
        b.ret(None);
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let g1 = b.alloca("g1", Type::Struct(s));
    let g2 = b.alloca("g2", Type::Struct(s));
    let c1 = b.alloca("c1", Type::Int);
    let c2 = b.alloca("c2", Type::Int);
    b.call("r1", f, vec![g1.into(), c1.into()]);
    b.call("r2", f, vec![g2.into(), c2.into()]);
    b.ret(None);
    b.finish();
    let plan = detect_ctx_plan(&m);
    let flows = &plan.for_func(f).unwrap().flows;
    assert!(matches!(
        &flows[0],
        CriticalFlow::Store { addr_chain, .. }
            if addr_chain == &vec![ChainStep::Field(1), ChainStep::Load, ChainStep::Elem]
    ));
}

#[test]
fn pairwise_configs_compose_monotonically() {
    // On a model with all three channels, adding policies never increases
    // the average points-to size.
    let model = kaleidoscope_apps::model("Memcached").unwrap();
    let avg = |c: PolicyConfig| {
        let r = analyze(&model.module, c);
        kaleidoscope_pta::PtsStats::collect(&r.optimistic, &model.module).avg
    };
    let base = avg(PolicyConfig::none());
    let ctx = avg(PolicyConfig {
        ctx: true,
        pa: false,
        pwc: false,
    });
    let ctx_pa = avg(PolicyConfig {
        ctx: true,
        pa: true,
        pwc: false,
    });
    let full = avg(PolicyConfig::all());
    assert!(ctx <= base + 1e-9);
    assert!(ctx_pa <= ctx + 1e-9);
    assert!(full <= ctx_pa + 1e-9);
}

#[test]
fn invariant_counts_match_config() {
    let model = kaleidoscope_apps::model("LibPNG").unwrap();
    for config in PolicyConfig::table3_order() {
        let r = analyze(&model.module, config);
        let counts = r.invariant_counts();
        if !config.pa {
            assert_eq!(counts.get("PA"), None, "{}", config.name());
        }
        if !config.pwc {
            assert_eq!(counts.get("PWC"), None, "{}", config.name());
        }
        if !config.ctx {
            assert_eq!(counts.get("Ctx"), None, "{}", config.name());
        }
        if config == PolicyConfig::all() {
            assert!(counts.contains_key("PA"));
            assert!(counts.contains_key("PWC"));
            assert!(counts.contains_key("Ctx"));
        }
    }
}
