//! A snapshot decodes in memory bounded by its bytes, whatever node count
//! its header claims, and a warm start from a snapshot whose count does
//! not match the program falls back to the cold solve.
//!
//! The disk store's integrity line does not stop a crafted snapshot:
//! anyone can compute it. So a 50-byte file may claim `u32::MAX` nodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kaleidoscope_fuzz::edit::{edit_script, EditKind};
use kaleidoscope_ir::ByteWriter;
use kaleidoscope_pta::gen::generate;
use kaleidoscope_pta::{
    Analysis, FallbackReason, NullObserver, SolveOptions, SolvedState, WarmStart,
    INCR_STATE_VERSION, PTS_REPR_VERSION,
};

/// The system allocator, counting the bytes live at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A snapshot of `like`'s revision, options and plan whose header claims
/// `u32::MAX` generated nodes and whose body is empty.
fn crafted(like: &SolvedState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(b"KDIS");
    w.uint(INCR_STATE_VERSION.into());
    w.uint(PTS_REPR_VERSION.into());
    for v in [like.fingerprint, like.opts_key, like.plan_digest] {
        w.u64_le(v);
    }
    w.uint(u32::MAX.into()); // generated nodes
    w.uint(0); // created nodes
    w.uint(u32::MAX.into()); // total nodes
    for _ in 0..9 {
        w.uint(0); // every list empty
    }
    w.into_bytes()
}

#[test]
fn a_crafted_node_count_decodes_in_bounded_memory_and_falls_back() {
    let script = edit_script(1, 1);
    let (prev, next) = (&script[0].module, &script[1].module);
    assert_eq!(script[1].kind, EditKind::Append);
    let opts = SolveOptions::optimistic(true, true);
    let solve = |warm| {
        Analysis::try_run(
            next,
            &opts,
            None,
            None,
            warm,
            Some(next.fingerprint()),
            &mut NullObserver,
        )
        .expect("no budget")
    };
    let (_, real) = Analysis::try_run(
        prev,
        &opts,
        None,
        None,
        None,
        Some(prev.fingerprint()),
        &mut NullObserver,
    )
    .expect("no budget");
    let bytes = crafted(&real.expect("converged solve captures"));
    assert_eq!(bytes.len(), 50);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let state = SolvedState::from_bytes(&bytes).expect("a well-formed header decodes");
    let grown = PEAK.load(Ordering::Relaxed) - base;
    assert!(
        grown <= 64 * bytes.len(),
        "{} input bytes took {grown} bytes to decode",
        bytes.len()
    );
    assert_eq!(state.node_count(), u32::MAX as usize);

    let warm = WarmStart {
        prefix: Ok(prev.item_counts()),
        state: &state,
    };
    let diff = warm.diff(next, None, &generate(next, None));
    assert_eq!(diff.fallback, Some(FallbackReason::StateMismatch));
    let (fallen, fallen_state) = solve(Some(warm));
    let (cold, cold_state) = solve(None);
    assert_eq!(fallen.result.stats.incr_fallback_full, 1);
    assert_eq!(fallen.result.pts, cold.result.pts);
    assert_eq!(
        fallen_state.map(|s| s.to_bytes()),
        cold_state.map(|s| s.to_bytes()),
        "the fallen-back solve captures the cold solve's snapshot"
    );
}
