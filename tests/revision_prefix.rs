//! The previous revision of a warm start is derived, not parsed: the
//! stored text is compared with the current module's canonical text
//! (`revision_prefix`), and an accepted edit's previous module is the
//! current module cut to the stored revision's counts (`truncated`).
//!
//! This property pins that derivation to the check it replaces. Over pairs
//! of modules, the text comparison accepts exactly when
//! `ConstraintDiff::precheck(parse(prev), next)` does, and an accepted
//! pair's truncated module equals `parse(prev)`, up to the module name
//! (which the precheck ignores too). The pairs:
//!
//! * consecutive revisions of seeded edit scripts: appends (publishing and
//!   leaf), removals and modifies;
//! * the nine application models against each other, against renamed
//!   copies (another module name: accepted; a renamed function:
//!   rejected), and against themselves plus an appended function.

use kaleidoscope_suite::apps;
use kaleidoscope_suite::fuzz::edit::{
    edit_script, edit_script_with_modify, edit_script_with_removal, EditKind,
};
use kaleidoscope_suite::ir::{
    parse_module, revision_prefix, FunctionBuilder, Module, StructDef, Type,
};
use kaleidoscope_suite::pta::ConstraintDiff;

/// Whether `a` and `b` hold the same types, globals and functions (their
/// names may differ), with the same name lookups.
fn same_but_name(a: &Module, b: &Module) -> bool {
    let types = |m: &Module| -> Vec<StructDef> { m.types.iter().map(|(_, d)| d.clone()).collect() };
    types(a) == types(b)
        && a.globals == b.globals
        && a.funcs == b.funcs
        && a.funcs
            .iter()
            .all(|f| a.func_by_name(&f.name) == b.func_by_name(&f.name))
        && a.globals
            .iter()
            .all(|g| a.global_by_name(&g.name) == b.global_by_name(&g.name))
        && a.types
            .iter()
            .all(|(_, d)| a.types.by_name(&d.name) == b.types.by_name(&d.name))
}

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
        let derived = next
            .truncated(counts)
            .unwrap_or_else(|| panic!("{what}: accepted prefix refers past its cut"));
        assert!(
            same_but_name(&derived, &parsed),
            "{what}: the truncated module is not the parsed previous revision"
        );
        assert_eq!(derived.name, next.name);
    }
    precheck
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

        // The model plus one function extends the model.
        let mut grown = a.module.clone();
        let mut f = FunctionBuilder::new(&mut grown, "appended_fn", vec![], Type::Void);
        let o = f.alloca("o", Type::Int);
        let p = f.alloca("p", Type::ptr(Type::Int));
        f.store(p, o);
        f.ret(None);
        f.finish();
        assert!(check(&format!("{} appended", a.name), &a.module, &grown));
        assert!(!check(&format!("{} shrunk", a.name), &grown, &a.module));
    }
}
