//! The previous revision of a warm start is derived, not parsed: the
//! stored text is compared with the current module's canonical text
//! (`revision_prefix`), the current module's first that many items must
//! stand alone (`prefix_closed`), and each solve derives its translation
//! from those counts and its own program (`ConstraintDiff::derive`, through
//! `WarmStart::diff`).
//!
//! This property pins that derivation to the checks it replaces. Over pairs
//! of modules:
//!
//! * the text comparison accepts exactly when
//!   `ConstraintDiff::precheck(parse(prev), next)` does, and an accepted
//!   pair's counts are `parse(prev)`'s and pass the prefix scan;
//! * plan-free and under the full context plan, the derived diff accepts
//!   exactly when the oracle `ConstraintDiff::compute` over both generated
//!   programs does, and then equals it: node and object maps, first new
//!   constraint and first new indirect call. The derivation's snapshot is
//!   a cold solve of `prev` under its own plan.
//!
//! The pairs:
//!
//! * consecutive revisions of seeded edit scripts: appends (publishing and
//!   leaf), removals and modifies;
//! * the nine application models against each other, against renamed
//!   copies (another module name: accepted; a renamed function:
//!   rejected), and against themselves plus an appended function, plus an
//!   appended global and function.

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::edit::{
    edit_script, edit_script_with_modify, edit_script_with_removal, EditKind,
};
use kaleidoscope_suite::ir::{
    parse_module, revision_prefix, FunctionBuilder, Module, Operand, PrefixCounts, Type,
};
use kaleidoscope_suite::kaleidoscope::detect_ctx_plan;
use kaleidoscope_suite::pta::gen::generate;
use kaleidoscope_suite::pta::{
    Analysis, ConstraintDiff, CtxPlan, FallbackReason, NullObserver, SolveOptions, WarmStart,
};

/// Check one pair; returns whether the edit was accepted.
fn check(what: &str, prev: &Module, next: &Module) -> bool {
    let prev_text = prev.to_text();
    let parsed = parse_module(&prev_text).expect("canonical text parses");
    let precheck = ConstraintDiff::precheck(&parsed, next).fallback.is_none();
    let text = revision_prefix(&prev_text, &next.to_text());
    assert_eq!(
        text.is_some(),
        precheck,
        "{what}: text comparison {text:?}, precheck accepts: {precheck}"
    );
    if let Some(counts) = text {
        assert!(
            next.prefix_closed(counts),
            "{what}: accepted prefix refers past its counts"
        );
        let parsed_counts = PrefixCounts {
            funcs: parsed.funcs.len(),
            globals: parsed.globals.len(),
            types: parsed.types.len(),
        };
        assert_eq!(
            counts, parsed_counts,
            "{what}: counts are not the revision's"
        );
    }
    let prefix = text.ok_or(FallbackReason::NotExtended);
    for planned in [false, true] {
        let plan = |m: &Module| planned.then(|| detect_ctx_plan(m));
        check_derived(
            &format!("{what}, planned {planned}"),
            (&parsed, plan(&parsed)),
            (next, plan(next)),
            prefix,
        );
    }
    precheck
}

/// The derived diff of `prev → next` (each with its context plan) against
/// the oracle's.
fn check_derived(
    what: &str,
    (prev, prev_plan): (&Module, Option<CtxPlan>),
    (next, next_plan): (&Module, Option<CtxPlan>),
    prefix: Result<PrefixCounts, FallbackReason>,
) {
    let prev_program = generate(prev, prev_plan.as_ref());
    let next_program = generate(next, next_plan.as_ref());
    let oracle = ConstraintDiff::compute(prev, &prev_program, next, &next_program);
    let derived = match prefix {
        // The snapshot a rejected edit would restore is never read.
        Err(reason) => Err(reason),
        Ok(_) => {
            let (_, state) = Analysis::try_run(
                prev,
                &SolveOptions::baseline(),
                prev_plan.as_ref(),
                None,
                None,
                Some(prev.fingerprint()),
                &mut NullObserver,
            )
            .expect("unbudgeted solve");
            let state = state.expect("a converged solve captures its state");
            let warm = WarmStart {
                prefix,
                state: &state,
            };
            Ok(warm.diff(next, next_plan.as_ref(), &next_program))
        }
    };
    match derived {
        Ok(derived) if derived.fallback.is_none() => {
            assert_eq!(derived, oracle, "{what}: derived diff is not the oracle's")
        }
        Ok(derived) => assert!(
            oracle.fallback.is_some(),
            "{what}: derivation rejects ({:?}) an edit the oracle accepts",
            derived.fallback
        ),
        Err(_) => assert!(
            oracle.fallback.is_some(),
            "{what}: text comparison rejects an edit the oracle accepts"
        ),
    }
}

#[test]
fn text_comparison_accepts_exactly_the_prechecked_edits_of_scripts() {
    let mut seen = std::collections::HashMap::new();
    for seed in [1u64, 2, 3, 4] {
        let scripts = [
            edit_script(seed, 4),
            edit_script_with_removal(seed, 4),
            edit_script_with_modify(seed, 5),
        ];
        for script in &scripts {
            for (i, w) in script.windows(2).enumerate() {
                let what = format!("seed {seed} step {} ({:?})", i + 1, w[1].kind);
                let accepted = check(&what, &w[0].module, &w[1].module);
                assert_eq!(accepted, w[1].kind == EditKind::Append, "{what}");
                *seen.entry(format!("{:?}", w[1].kind)).or_insert(0) += 1;
                // The reverse of an append is a removal.
                if w[1].kind == EditKind::Append {
                    assert!(!check(
                        &format!("{what} reversed"),
                        &w[1].module,
                        &w[0].module
                    ));
                }
            }
        }
    }
    for kind in ["Append", "Remove", "Modify"] {
        assert!(seen.get(kind).copied().unwrap_or(0) > 0, "no {kind} pair");
    }
}

#[test]
fn text_comparison_accepts_exactly_the_prechecked_model_pairs() {
    let models = apps::all_models();
    for a in &models {
        for b in &models {
            let accepted = check(&format!("{} -> {}", a.name, b.name), &a.module, &b.module);
            assert_eq!(accepted, a.name == b.name, "{} -> {}", a.name, b.name);
        }

        // Another module name: the precheck ignores it, and so does the
        // text comparison.
        let mut renamed = a.module.clone();
        renamed.name = format!("{}_copy", a.module.name);
        assert!(check(&format!("{} renamed", a.name), &a.module, &renamed));
        assert!(check(
            &format!("{} renamed back", a.name),
            &renamed,
            &a.module
        ));

        // A renamed function changes the function and every mention of it.
        let mut m = a.module.clone();
        let mid = m.funcs.len() / 2;
        m.funcs[mid].name.push_str("_r");
        let func_renamed = parse_module(&m.to_text()).expect("renamed copy parses");
        assert!(!check(
            &format!("{} function renamed", a.name),
            &a.module,
            &func_renamed
        ));

        // The model plus one function extends the model, and so does the
        // model plus a global and a function that publishes into it.
        let mut grown = a.module.clone();
        let mut f = FunctionBuilder::new(&mut grown, "appended_fn", vec![], Type::Void);
        let o = f.alloca("o", Type::Int);
        let p = f.alloca("p", Type::ptr(Type::Int));
        f.store(p, o);
        f.ret(None);
        f.finish();
        assert!(check(&format!("{} appended", a.name), &a.module, &grown));
        assert!(!check(&format!("{} shrunk", a.name), &grown, &a.module));
        let mut with_global = grown.clone();
        let g = with_global
            .add_global("appended_global", Type::ptr(Type::Int))
            .expect("a fresh global name");
        let mut f = FunctionBuilder::new(&mut with_global, "publishes", vec![], Type::Void);
        let o = f.alloca("o", Type::Int);
        f.store(Operand::Global(g), o);
        f.ret(None);
        f.finish();
        let with_global = parse_module(&with_global.to_text()).expect("reparses");
        assert!(check(
            &format!("{} appended a global", a.name),
            &a.module,
            &with_global
        ));
        assert!(check(
            &format!("{} appended a global to the grown", a.name),
            &grown,
            &with_global
        ));
    }
}
