//! Seeded watch-mode edit scripts for the incremental re-solve.
//!
//! A watch daemon sees a stream of module revisions where consecutive
//! revisions differ by one function. This module synthesizes such streams
//! deterministically: revision 0 is a [`scale`] corpus module, and every
//! later revision either **appends** one new pointer-heavy function (the
//! compatible edit the incremental solver warm-starts across) or
//! **removes** one previously-appended function (the incompatible edit
//! that must take the sound full-re-solve fallback). Scripts from
//! [`edit_script_with_modify`] also **modify**: they re-emit one
//! previously-appended function in place from a new seed (a changed
//! shared function, which falls back too).
//!
//! Everything derives from the script seed, so a `(seed, steps)` pair
//! names one exact revision sequence forever — the CI differential gate
//! replays the same scripts on every runner and asserts the incremental
//! reports are byte-identical to from-scratch solves at every step.
//!
//! Appended functions are generated from a per-function seed, not from
//! script position, so a function's body is bit-identical in every
//! revision that contains it: the shared prefix stays byte-equal across
//! an append, which is exactly the compatibility contract
//! `ConstraintDiff` checks.

use kaleidoscope_ir::{FunctionBuilder, Module, Operand, Type};
use kaleidoscope_prng::Rng;

use crate::scale::{self, ScaleConfig};

/// Statement target for the base revision of an edit script — big enough
/// that a warm start skips real work, small enough that the CI
/// differential can afford a cold solve per step per thread count.
pub const EDIT_BASE_STMTS: usize = 3_000;

/// What one revision did to its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// The initial revision (nothing to diff against).
    Base,
    /// One function appended; the shared prefix is byte-equal, so the
    /// incremental solver must warm-start (`incr_fallback_full == 0`).
    Append,
    /// One previously-appended function removed; constraints disappeared,
    /// so the solver must take the full fallback (`incr_fallback_full == 1`).
    Remove,
    /// One previously-appended function re-emitted in place, same name and
    /// variant, from a new body seed; a shared function changed, so the
    /// solver must take the full fallback (`incr_fallback_full == 1`).
    Modify,
}

/// One revision in an edit script.
#[derive(Debug, Clone)]
pub struct EditStep {
    /// How this revision relates to the previous one.
    pub kind: EditKind,
    /// The full module at this revision.
    pub module: Module,
}

/// A deterministic watch-mode revision stream: the base module followed by
/// `steps` single-function edits. Most edits append; once at least two
/// functions have accumulated, about a quarter of the edits (seeded)
/// remove one instead, so every long script exercises the fallback path
/// alongside the warm path.
pub fn edit_script(seed: u64, steps: usize) -> Vec<EditStep> {
    script(seed, steps, false, false)
}

/// [`edit_script`], but guaranteed to contain at least one `Remove` step
/// (the last step is forced to a removal if chance produced none). Needs
/// `steps >= 2` so there is something to remove. The deletion-soundness
/// property test runs over these.
pub fn edit_script_with_removal(seed: u64, steps: usize) -> Vec<EditStep> {
    assert!(steps >= 2, "a removal needs a prior append");
    script(seed, steps, true, false)
}

/// [`edit_script`], plus `Modify` edits: once a function has been
/// appended, about a third of the edits that do not remove (seeded)
/// re-emit one appended function in place from a new body seed instead of
/// appending. The last step is forced to a modify if chance produced
/// none. Needs `steps >= 2` so there is something to modify.
pub fn edit_script_with_modify(seed: u64, steps: usize) -> Vec<EditStep> {
    assert!(steps >= 2, "a modify needs a prior append");
    script(seed, steps, false, true)
}

/// One appended function of a script: its id, and the seed its body is
/// generated from (the script seed until a modify re-emits it).
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u64,
    body_seed: u64,
}

fn script(seed: u64, steps: usize, force_removal: bool, modify: bool) -> Vec<EditStep> {
    let cfg = ScaleConfig::sized(seed, EDIT_BASE_STMTS);
    let mut rng = Rng::seed_from_u64(seed ^ 0xed17_5c21_97a4_11ee);
    let build = |live: &[Slot]| {
        let mut m = scale::synthesize(&cfg);
        for s in live {
            // Half the edits publish into shared state (the expensive,
            // globally-rippling shape), half are leaf edits that only
            // consume it — chosen from (seed, id) alone so a function's
            // body never depends on script position, and a modify keeps
            // the variant.
            if (seed ^ s.id) & 1 == 0 {
                append_function(&mut m, s.body_seed, s.id);
            } else {
                append_leaf_function(&mut m, s.body_seed, s.id);
            }
        }
        m
    };

    let mut live: Vec<Slot> = Vec::new();
    let mut next_id = 0u64;
    let (mut removed_any, mut modified_any) = (false, false);
    let mut out = vec![EditStep {
        kind: EditKind::Base,
        module: build(&live),
    }];
    for step in 0..steps {
        let last = step + 1 == steps;
        let force_now = force_removal && !removed_any && last;
        let force_modify = modify && !modified_any && last;
        let remove = !force_modify
            && !live.is_empty()
            && (force_now || (live.len() >= 2 && rng.gen_bool(0.25)));
        let modify_now =
            modify && !remove && !live.is_empty() && (force_modify || rng.gen_bool(1.0 / 3.0));
        let (kind, module) = if remove {
            let at = rng.gen_range(0..live.len());
            live.remove(at);
            removed_any = true;
            (EditKind::Remove, build(&live))
        } else if modify_now {
            // Reseed one slot until its body differs from the current one
            // (a leaf body has few shapes, so one reseed may repeat it).
            let at = rng.gen_range(0..live.len());
            let prev = &out[out.len() - 1].module;
            let module = (0..64)
                .find_map(|_| {
                    live[at].body_seed = rng.next_u64();
                    let m = build(&live);
                    (m.funcs != prev.funcs).then_some(m)
                })
                .expect("a reseeded edit function gets a new body");
            modified_any = true;
            (EditKind::Modify, module)
        } else {
            live.push(Slot {
                id: next_id,
                body_seed: seed,
            });
            next_id += 1;
            (EditKind::Append, build(&live))
        };
        out.push(EditStep { kind, module });
    }
    out
}

/// Append one watch-edit function `watch<id>` to a [`scale`] corpus
/// module. The body is derived only from `(seed, id)` — never from how
/// many other edits exist — and touches the module's shared state the way
/// real edits do: it publishes a fresh object into the registry, reads a
/// registry slot back through a local cell, and rotates a handler into
/// the dispatch table before calling through it (a new on-the-fly
/// indirect-call constraint for the incremental solver to wire).
///
/// Registry indices stay below 64, the [`ScaleConfig`] minimum, so this
/// applies to a corpus module of any size — including the 100k-statement
/// bench corpus.
pub fn append_function(module: &mut Module, seed: u64, id: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let reg = module
        .global_by_name("registry")
        .expect("scale corpus has a registry");
    let table = module
        .global_by_name("dispatch_table")
        .expect("scale corpus has a dispatch table");
    let factory = module
        .func_by_name("factory")
        .expect("scale corpus has a factory");
    // handler0..handler3 always exist (the corpus makes at least four).
    let handler = module
        .func_by_name(&format!("handler{}", rng.gen_range(0..4u32)))
        .expect("scale corpus has four handlers");

    let mut b = FunctionBuilder::new(module, &format!("watch{id}"), vec![], Type::Void);
    // Publish a new object into the shared registry: the warm start must
    // propagate it into every set the slot flows to.
    let src: Operand = match rng.gen_range(0..3u32) {
        0 => b.alloca("wa", Type::Int).into(),
        1 => b.heap_alloc("wh", Type::Int).into(),
        _ => b
            .call("wf", factory, vec![])
            .expect("factory returns a pointer")
            .into(),
    };
    let idx = rng.gen_range(0..64i64);
    let slot = b.elem_addr("ws", Operand::Global(reg), idx);
    b.store(slot, src);
    // Read a slot back through a local cell (flow through memory), so the
    // new function also consumes the pre-edit fixpoint.
    let rslot = b.elem_addr("wr", Operand::Global(reg), rng.gen_range(0..64i64));
    let v = b.load("wv", rslot);
    let cell = b.alloca("wc", Type::ptr(Type::Int));
    b.store(cell, v);
    let v2 = b.load("wv2", cell);
    // Rotate a handler into the dispatch table and dispatch through it.
    let tslot = b.elem_addr("wt", Operand::Global(table), (id % 8) as i64);
    b.store(tslot, Operand::Func(handler));
    let fp = b.load("wfp", tslot);
    let _ = b.call_ind("wr2", fp, vec![v2.into()], Type::Int);
    b.ret(None);
    b.finish();
}

/// Append one *leaf* watch-edit function `leaf<id>`: it reads the shared
/// registry (so it consumes the pre-edit fixpoint) but publishes nothing
/// back into shared state — all of its stores land in its own locals.
/// This is the common watch-mode edit shape: the incremental re-solve
/// only has to compute the new function's own sets, with no global
/// propagation ripple. Body derived from `(seed, id)` alone, exactly like
/// [`append_function`].
pub fn append_leaf_function(module: &mut Module, seed: u64, id: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ id.wrapping_mul(0xa076_1d64_78bd_642f));
    let reg = module
        .global_by_name("registry")
        .expect("scale corpus has a registry");
    let factory = module
        .func_by_name("factory")
        .expect("scale corpus has a factory");

    let mut b = FunctionBuilder::new(module, &format!("leaf{id}"), vec![], Type::Void);
    // Consume the shared fixpoint: one registry slot, through a cell.
    let rslot = b.elem_addr("ls", Operand::Global(reg), rng.gen_range(0..64i64));
    let v = b.load("lv", rslot);
    let cell = b.alloca("lc", Type::ptr(Type::Int));
    b.store(cell, v);
    // Private allocations only; nothing flows back into shared state.
    let mine: Operand = if rng.gen_bool(0.5) {
        b.alloca("la", Type::Int).into()
    } else {
        b.heap_alloc("lh", Type::Int).into()
    };
    b.store(cell, mine);
    let got = b
        .call("lf", factory, vec![])
        .expect("factory returns a pointer");
    b.store(cell, got);
    let _ = b.load("lv2", cell);
    b.ret(None);
    b.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let a = edit_script(11, 5);
        let b = edit_script(11, 5);
        assert_eq!(a.len(), 6, "base + 5 edits");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.module.fingerprint(), y.module.fingerprint());
        }
        let c = edit_script(12, 5);
        assert_ne!(a[1].module.fingerprint(), c[1].module.fingerprint());
    }

    #[test]
    fn every_revision_verifies_and_every_edit_moves_one_function() {
        for step in edit_script(3, 6) {
            assert!(kaleidoscope_ir::verify_module(&step.module).is_empty());
        }
        let script = edit_script(3, 6);
        for w in script.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            let delta =
                next.module.iter_funcs().count() as i64 - prev.module.iter_funcs().count() as i64;
            match next.kind {
                EditKind::Append => assert_eq!(delta, 1),
                EditKind::Remove => assert_eq!(delta, -1),
                EditKind::Base | EditKind::Modify => unreachable!("no modify in edit_script"),
            }
            assert_ne!(prev.module.fingerprint(), next.module.fingerprint());
        }
    }

    #[test]
    fn a_modify_re_emits_one_function_in_place() {
        let mut variants = (0, 0);
        for seed in [1u64, 2, 3] {
            let script = edit_script_with_modify(seed, 5);
            assert_eq!(script.len(), 6, "base + 5 edits");
            assert!(script.iter().any(|s| s.kind == EditKind::Modify));
            for w in script.windows(2) {
                let (prev, next) = (&w[0].module, &w[1].module);
                assert!(kaleidoscope_ir::verify_module(next).is_empty());
                if w[1].kind != EditKind::Modify {
                    continue;
                }
                assert_eq!(prev.funcs.len(), next.funcs.len());
                let changed: Vec<usize> = (0..prev.funcs.len())
                    .filter(|&i| prev.funcs[i] != next.funcs[i])
                    .collect();
                assert_eq!(changed.len(), 1, "seed {seed}: one function changes");
                let name = &next.funcs[changed[0]].name;
                assert_eq!(&prev.funcs[changed[0]].name, name);
                if name.starts_with("leaf") {
                    variants.1 += 1;
                } else {
                    variants.0 += 1;
                }
            }
        }
        assert!(variants.0 > 0 && variants.1 > 0, "both variants modified");
    }

    #[test]
    fn existing_constructors_produce_their_pinned_scripts() {
        // The modify draws happen only in `edit_script_with_modify`; the
        // other constructors keep producing the revisions they always did.
        let digest = |script: Vec<EditStep>| {
            let fps: Vec<u64> = script.iter().map(|s| s.module.fingerprint()).collect();
            let bytes: Vec<u8> = fps.iter().flat_map(|f| f.to_le_bytes()).collect();
            kaleidoscope_ir::fnv1a64(&[&bytes])
        };
        let actual = [
            digest(edit_script(1, 3)),
            digest(edit_script(2, 3)),
            digest(edit_script_with_removal(5, 4)),
        ];
        let pinned = [
            0x497d_851c_2bbc_6f1f,
            0xe40e_1fc3_3887_14a6,
            0x9c75_74eb_d538_335d,
        ];
        assert_eq!(actual, pinned, "{actual:#018x?}");
    }

    #[test]
    fn forced_scripts_contain_a_removal() {
        for seed in [0u64, 1, 2, 0xfeed] {
            let script = edit_script_with_removal(seed, 4);
            assert!(
                script.iter().any(|s| s.kind == EditKind::Remove),
                "seed {seed} produced no removal"
            );
        }
    }

    #[test]
    fn appended_functions_are_position_independent() {
        // watch7's body must be identical whether it is the first or the
        // third edit — that is what keeps the shared prefix byte-equal.
        let cfg = ScaleConfig::sized(9, EDIT_BASE_STMTS);
        let mut alone = scale::synthesize(&cfg);
        append_function(&mut alone, 9, 7);
        let mut stacked = scale::synthesize(&cfg);
        append_function(&mut stacked, 9, 5);
        append_function(&mut stacked, 9, 6);
        append_function(&mut stacked, 9, 7);
        let f = |m: &Module| {
            let id = m.func_by_name("watch7").expect("appended");
            format!("{:?}", m.func(id))
        };
        // The shared prefix (base corpus) is identical in both modules, so
        // every id watch7 references resolves the same and the bodies must
        // print bit-identically.
        assert_eq!(f(&alone), f(&stacked));
    }

    #[test]
    fn leaf_functions_verify_and_are_position_independent() {
        let cfg = ScaleConfig::sized(9, EDIT_BASE_STMTS);
        let mut alone = scale::synthesize(&cfg);
        append_leaf_function(&mut alone, 9, 3);
        assert!(kaleidoscope_ir::verify_module(&alone).is_empty());
        let mut stacked = scale::synthesize(&cfg);
        append_function(&mut stacked, 9, 2);
        append_leaf_function(&mut stacked, 9, 3);
        let f = |m: &Module| {
            let id = m.func_by_name("leaf3").expect("appended");
            format!("{:?}", m.func(id))
        };
        assert_eq!(f(&alone), f(&stacked));
    }
}
