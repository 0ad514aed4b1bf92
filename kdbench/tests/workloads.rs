//! Workload generation is a pure function of the seed, the tail-percentile
//! rule holds, and the golden digest still describes today's reports.

use kaleidoscope::PolicyConfig;
use kaleidoscope_kdbench::run::{self, Inputs};
use kaleidoscope_kdbench::stats;
use kaleidoscope_kdbench::workload::{
    self, BatchOrders, ColdInputs, EditKind, MixedInputs, WatchInputs, Workload, WATCH_ROUNDS,
};

#[test]
fn batch_orders_are_seeded() {
    let take = |seed| {
        let mut o = BatchOrders::new(seed);
        (0..4).map(|_| o.next_order()).collect::<Vec<_>>()
    };
    assert_eq!(take(1), take(1));
    assert_ne!(take(1), take(2));
    let mut first = take(3)[0].clone();
    first.sort_unstable();
    assert_eq!(
        first,
        (0..9).collect::<Vec<_>>(),
        "an order visits every model once"
    );
}

#[test]
fn cold_requests_are_seeded_and_never_repeat_text() {
    let (a, b, c) = (ColdInputs::new(1), ColdInputs::new(1), ColdInputs::new(2));
    assert_eq!(a.request(0), b.request(0));
    assert_ne!(a.request(0).2, c.request(0).2);
    let texts: Vec<String> = (0..3).map(|i| a.request(i).2).collect();
    assert!(texts[0] != texts[1] && texts[1] != texts[2]);
    assert_ne!(a.request(0).1, a.request(1).1, "tenants alternate");
}

#[test]
fn watch_script_is_seeded_and_shaped() {
    let (a, b, c) = (
        WatchInputs::new(1),
        WatchInputs::new(1),
        WatchInputs::new(2),
    );
    assert_eq!(a.revisions.len(), 1 + 3 * WATCH_ROUNDS);
    for (x, y) in a.revisions.iter().zip(&b.revisions) {
        assert_eq!(x.program.text, y.program.text);
    }
    assert_ne!(a.revisions[1].program.text, c.revisions[1].program.text);
    let kinds: Vec<EditKind> = a.revisions.iter().map(|r| r.kind).collect();
    assert_eq!(kinds[0], EditKind::Base);
    for round in kinds[1..].chunks(3) {
        assert_eq!(round, [EditKind::Append, EditKind::Leaf, EditKind::Modify]);
    }
    for w in a.revisions.windows(2) {
        let delta = w[1].module.funcs.len() as i64 - w[0].module.funcs.len() as i64;
        let want = if w[1].kind == EditKind::Modify { 0 } else { 1 };
        assert_eq!(delta, want, "{:?}", w[1].kind);
        assert_ne!(
            w[0].program.text, w[1].program.text,
            "every edit changes the text"
        );
    }
    assert_ne!(a.text(0, 3), a.text(1, 3), "sessions are tagged apart");
}

#[test]
fn mixed_schedule_is_seeded() {
    let (a, b, c) = (
        MixedInputs::new(1),
        MixedInputs::new(1),
        MixedInputs::new(2),
    );
    let due = |m: &MixedInputs| m.schedule.iter().map(|r| r.due_s).collect::<Vec<_>>();
    assert_eq!(due(&a), due(&b));
    assert_ne!(due(&a), due(&c));
    assert!(due(&a)
        .windows(2)
        .all(|w| w[0] <= w[1] && w[1] < run::RUN_SECONDS));
    assert_eq!(
        a.schedule.len() as f64,
        (workload::MIXED_RATE * run::RUN_SECONDS).round()
    );
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::min_samples_for(90.0), 100);
    assert_eq!(stats::min_samples_for(99.0), 1000);
    let v: Vec<f64> = (0..99).map(f64::from).collect();
    assert!(stats::tail(&v, 90.0).is_err());
    let v: Vec<f64> = (0..100).map(f64::from).collect();
    assert!(stats::tail(&v, 90.0).is_ok());
    assert_eq!(stats::highest_supported(250), Some(95.0));
    assert_eq!(stats::highest_supported(19), None);
}

#[test]
fn tagged_corpora_report_like_their_pool_program() {
    let base = kaleidoscope_fuzz::scale::corpus_module(5, 800);
    let configs = PolicyConfig::table3_order();
    let plain = run::reference(&base.to_text(), &configs);
    let tagged = run::reference(&workload::tagged(&base, "c9").to_text(), &configs);
    assert_eq!(plain, tagged);
}

#[test]
fn batch_matrix_golden_digest_holds_at_seed_1() {
    let refs = Inputs::new(Workload::BatchMatrix, run::GOLDEN_SEED).references();
    assert_eq!(refs.len(), 9);
    assert_eq!(
        Some(run::digest(&refs)),
        run::golden(Workload::BatchMatrix),
        "the analysis output changed: regenerate golden.json only if the change is intended"
    );
}
