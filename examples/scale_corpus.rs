//! Print a seeded `scale` corpus as module text, the corpus family behind
//! the solver benches and kdbench's serve workloads, for driving `kd` by
//! hand.
//!
//! ```sh
//! cargo run --release --example scale_corpus -- 3000 1 > scale-3k.kir
//! kd analyze scale-3k.kir --cache-dir D
//! # the same corpus plus one appended function: a watch-mode edit
//! cargo run --release --example scale_corpus -- 3000 1 1 > scale-3k-1.kir
//! # revision 2 with `watch1` re-emitted from body seed 7: a modify
//! cargo run --release --example scale_corpus -- 3000 1 2 7 > scale-3k-2m.kir
//! ```
//!
//! Arguments: the statement target (default 3000), the seed (default 1),
//! a count `n` of appended functions (default 0): the revision of a
//! watch chain that appended `watch0` … `watch<n-1>` with
//! `fuzz::edit::append_function`, and the body seed of the last appended
//! function (default: the corpus seed). Consecutive counts are compatible
//! edits that warm-start from each other; another body seed for the last
//! function modifies revision `n`, and warm-starts from revision `n - 1`.

use kaleidoscope_suite::fuzz::{edit, scale};

fn main() {
    let mut args = std::env::args().skip(1).map(|a| {
        a.parse::<u64>().unwrap_or_else(|_| {
            eprintln!(
                "usage: scale_corpus [statements] [seed] [appended functions] [last body seed]"
            );
            std::process::exit(2)
        })
    });
    let stmts = args.next().unwrap_or(3_000) as usize;
    let seed = args.next().unwrap_or(1);
    let appends = args.next().unwrap_or(0);
    let last_seed = args.next().unwrap_or(seed);
    let mut module = scale::corpus_module(seed, stmts);
    for id in 0..appends {
        let body_seed = if id + 1 == appends { last_seed } else { seed };
        edit::append_function(&mut module, body_seed, id);
    }
    print!("{}", module.to_text());
}
