//! The typed fallbacks of a warm start derived from counts.
//!
//! A warm start never builds the previous revision: it reads the
//! revision's item counts and the snapshot, and derives the translation
//! onto the current program. Two things the counts cannot show are checked
//! instead, each with its own fallback:
//!
//! * the context plan of a kept function: an appended second direct call
//!   site plans a kept function, and taking a planned kept function's
//!   address unplans it. The ctx-keyed solve falls back
//!   (`FallbackReason::PlanChanged`) while the plan-free keys still
//!   warm-start, and the report is the cold one;
//! * a snapshot handed with counts that disagree with its arena: the solve
//!   falls back (`FallbackReason::StateMismatch`, or `NotExtended` for
//!   counts past the module's) and never panics.

use std::sync::Arc;

use kaleidoscope::{detect_ctx_plan, PolicyConfig};
use kaleidoscope_exec::{
    analyze_request, render_analyze, AnalyzeRequest, DiskCache, Executor, ModuleSource,
};
use kaleidoscope_ir::{FuncId, FunctionBuilder, Module, Operand, PrefixCounts, Type};
use kaleidoscope_pta::ctxplan::plan_digest;
use kaleidoscope_pta::gen::generate;
use kaleidoscope_pta::{
    Analysis, ConstraintDiff, FallbackReason, NullObserver, SolveOptions, SolvedState, WarmStart,
};

/// `name(p: int*) -> int* { ret p }`: a function the context policy plans
/// (it returns its parameter) once it has two direct call sites and no
/// address taken.
fn identity(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(
        m,
        name,
        vec![("p", Type::ptr(Type::Int))],
        Type::ptr(Type::Int),
    );
    let p = b.param(0);
    b.ret(Some(p.into()));
    b.finish()
}

/// `name() { x = alloca int; call callee(x) }` per callee.
fn caller(m: &mut Module, name: &str, callees: &[FuncId]) {
    let mut b = FunctionBuilder::new(m, name, vec![], Type::Void);
    for (i, &callee) in callees.iter().enumerate() {
        let x = b.alloca(&format!("x{i}"), Type::Int);
        b.call(&format!("r{i}"), callee, vec![x.into()]);
    }
    b.ret(None);
    b.finish();
}

/// `id` called twice and `id2` called `id2_sites` times from `main`.
fn base(id2_sites: usize) -> Module {
    let mut m = Module::new("plans");
    let id = identity(&mut m, "id");
    let id2 = identity(&mut m, "id2");
    let mut callees = vec![id, id];
    callees.extend(std::iter::repeat_n(id2, id2_sites));
    caller(&mut m, "main", &callees);
    m
}

/// The two plan-changing edits: `(what, previous revision, edited)`.
fn plan_edits() -> Vec<(&'static str, Module, Module)> {
    // A second direct call site plans `id2`.
    let second_site = base(1);
    let mut planned = second_site.clone();
    let id2 = planned.func_by_name("id2").expect("id2");
    caller(&mut planned, "again", &[id2]);
    // Taking the address of a planned `id2` unplans it.
    let taken = base(2);
    let mut unplanned = taken.clone();
    let id2 = unplanned.func_by_name("id2").expect("id2");
    let mut b = FunctionBuilder::new(&mut unplanned, "take", vec![], Type::Void);
    b.copy("fp", Operand::Func(id2));
    b.ret(None);
    b.finish();
    vec![
        ("second call site", second_site, planned),
        ("address taken", taken, unplanned),
    ]
}

/// A converged solve of `m` under `plan`, captured.
fn snapshot(m: &Module, plan: Option<&kaleidoscope_pta::CtxPlan>) -> SolvedState {
    let (_, state) = Analysis::try_run(
        m,
        &SolveOptions::baseline(),
        plan,
        None,
        None,
        Some(m.fingerprint()),
        &mut NullObserver,
    )
    .expect("unbudgeted solve");
    state.expect("a converged solve captures its state")
}

/// One `analyze_request` of `m` with `--stats`, from `prev` when given.
fn ask(m: &Module, prev: Option<u64>, cache: Option<&Arc<DiskCache>>) -> String {
    let text = m.to_text();
    let req = AnalyzeRequest {
        module: ModuleSource::Text(&text),
        config: None,
        stats: cache.is_some(),
        budget: None,
        jobs: 2,
        prev_fingerprint: prev,
        tenant: None,
    };
    analyze_request(&req, cache).expect("answers").report.text
}

/// The report without its `solver[..]`/`incr[..]` rows.
fn answer(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("solver[") && !l.contains("incr["))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn a_changed_plan_of_a_kept_function_falls_back_only_on_the_ctx_key() {
    for (what, prev, next) in plan_edits() {
        let (prev_plan, next_plan) = (detect_ctx_plan(&prev), detect_ctx_plan(&next));
        assert!(!prev_plan.is_empty() && !next_plan.is_empty(), "{what}");
        let kept = prev.funcs.len();
        assert_ne!(
            plan_digest(Some(&prev_plan), kept),
            plan_digest(Some(&next_plan), kept),
            "{what}: the edit must change a kept function's plan"
        );

        // The ctx-keyed warm start falls back for the plan, as the oracle
        // does for the programs; the plan-free one derives the oracle's
        // diff.
        let planned = snapshot(&prev, Some(&prev_plan));
        let program = generate(&next, Some(&next_plan));
        let diff =
            WarmStart::between(&prev, &next, &planned).diff(&next, Some(&next_plan), &program);
        assert_eq!(diff.fallback, Some(FallbackReason::PlanChanged), "{what}");
        let oracle =
            ConstraintDiff::compute(&prev, &generate(&prev, Some(&prev_plan)), &next, &program);
        assert!(oracle.fallback.is_some(), "{what}: the oracle accepts");
        let plan_free = snapshot(&prev, None);
        let program = generate(&next, None);
        let diff = WarmStart::between(&prev, &next, &plan_free).diff(&next, None, &program);
        assert_eq!(
            diff,
            ConstraintDiff::compute(&prev, &generate(&prev, None), &next, &program),
            "{what}"
        );
        assert_eq!(diff.fallback, None, "{what}");

        // Through `analyze_request`: the edit's ctx-keyed optimistic solves
        // fall back, every plan-free solve warm-starts, and the answer is
        // the cold one.
        let dir = std::env::temp_dir().join(format!(
            "kd-warm-plan-{}-{}",
            what.replace(' ', "-"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(DiskCache::open(&dir).expect("open cache"));
        ask(&prev, None, Some(&cache));
        let report = ask(&next, Some(prev.fingerprint()), Some(&cache));
        let mut config = None;
        let mut rows = (0, 0);
        for line in report.lines() {
            if let Some(c) = PolicyConfig::table3_order()
                .into_iter()
                .find(|c| line.starts_with(&format!("{} ", c.name())))
            {
                config = Some(c);
            }
            if !line.starts_with("    incr[") {
                continue;
            }
            let c = config.expect("a config row comes first");
            let fell_back = c.ctx && line.starts_with("    incr[optimistic]");
            let want = format!("incr-fallback-full={}", fell_back as u8);
            assert!(
                line.ends_with(&want),
                "{what}, {}: {line}\n{report}",
                c.name()
            );
            rows.0 += fell_back as usize;
            rows.1 += !fell_back as usize;
        }
        assert_eq!(rows, (4, 12), "{what}: incr rows\n{report}");
        assert_eq!(answer(&report), ask(&next, None, None), "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_snapshot_handed_with_wrong_counts_falls_back_without_panicking() {
    let mut prev = kaleidoscope_fuzz::scale::corpus_module(3, 1_000);
    prev.add_global("spare", Type::ptr(Type::Int))
        .expect("a fresh global name");
    let mut next = prev.clone();
    kaleidoscope_fuzz::edit::append_function(&mut next, 3, 0);
    let state = snapshot(&prev, None);
    let right = prev.item_counts();
    let opts = SolveOptions::baseline();
    let (cold, _) = Analysis::try_run(&next, &opts, None, None, None, None, &mut NullObserver)
        .expect("unbudgeted solve");
    let sizes = |a: &Analysis| a.top_level_pointer_sizes(&next);

    let wrong = [
        (
            PrefixCounts {
                funcs: right.funcs - 1,
                ..right
            },
            FallbackReason::StateMismatch,
        ),
        (
            PrefixCounts {
                funcs: right.funcs + 1,
                ..right
            },
            FallbackReason::StateMismatch,
        ),
        (
            PrefixCounts { funcs: 0, ..right },
            FallbackReason::StateMismatch,
        ),
        (
            PrefixCounts {
                globals: right.globals - 1,
                ..right
            },
            FallbackReason::StateMismatch,
        ),
        (
            PrefixCounts {
                funcs: right.funcs + 2,
                ..right
            },
            FallbackReason::NotExtended,
        ),
        (
            PrefixCounts {
                globals: right.globals + 1,
                ..right
            },
            FallbackReason::NotExtended,
        ),
    ];
    let program = generate(&next, None);
    for (counts, reason) in wrong {
        let warm = WarmStart {
            prefix: Ok(counts),
            state: &state,
        };
        assert_eq!(
            warm.diff(&next, None, &program).fallback,
            Some(reason),
            "{counts:?}"
        );
        let (a, _) = Analysis::try_run(
            &next,
            &opts,
            None,
            None,
            Some(warm),
            None,
            &mut NullObserver,
        )
        .expect("unbudgeted solve");
        assert_eq!(a.result.stats.incr_fallback_full, 1, "{counts:?}");
        assert_eq!(a.result.stats.incr_reused, 0, "{counts:?}");
        assert_eq!(sizes(&a), sizes(&cold), "{counts:?}");
    }
    let warm = WarmStart {
        prefix: Ok(right),
        state: &state,
    };
    assert_eq!(warm.diff(&next, None, &program).fallback, None);

    // Through the executor: one kept function too few answers the cold
    // report, with every solve that found a snapshot counted as a fallback.
    let dir = std::env::temp_dir().join(format!("kd-warm-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DiskCache::open(&dir).expect("open store"));
    let configs = PolicyConfig::table3_order();
    let _ = render_analyze(
        &prev,
        &configs,
        &Executor::with_jobs(2).with_state_store(Arc::clone(&store)),
        false,
    );
    let short = PrefixCounts {
        funcs: right.funcs - 1,
        ..right
    };
    let ex = Executor::with_jobs(2)
        .with_state_store(Arc::clone(&store))
        .with_previous_revision(prev.fingerprint(), next.fingerprint(), Some(short));
    let report = render_analyze(&next, &configs, &ex, true).text;
    assert!(report.contains("incr-fallback-full=1"), "{report}");
    assert!(!report.contains("incr-fallback-full=0"), "{report}");
    let cold = render_analyze(&next, &configs, &Executor::with_jobs(2), false).text;
    assert_eq!(answer(&report), cold);
    let _ = std::fs::remove_dir_all(&dir);
}
