//! Print a seeded `scale` corpus as module text, the corpus family behind
//! the solver benches and kdbench's serve workloads, for driving `kd` by
//! hand.
//!
//! ```sh
//! cargo run --release --example scale_corpus -- 3000 1 > scale-3k.kir
//! kd analyze scale-3k.kir --cache-dir D
//! # the same corpus plus one appended function: a watch-mode edit
//! cargo run --release --example scale_corpus -- 3000 1 1 > scale-3k-1.kir
//! ```
//!
//! Arguments: the statement target (default 3000), the seed (default 1)
//! and a count `n` of appended functions (default 0): the revision of a
//! watch chain that appended `watch0` … `watch<n-1>` with
//! `fuzz::edit::append_function`. Consecutive counts are compatible edits
//! that warm-start from each other.

use kaleidoscope_suite::fuzz::{edit, scale};

fn main() {
    let mut args = std::env::args().skip(1).map(|a| {
        a.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("usage: scale_corpus [statements] [seed] [appended functions]");
            std::process::exit(2)
        })
    });
    let stmts = args.next().unwrap_or(3_000) as usize;
    let seed = args.next().unwrap_or(1);
    let appends = args.next().unwrap_or(0);
    let mut module = scale::corpus_module(seed, stmts);
    for id in 0..appends {
        edit::append_function(&mut module, seed, id);
    }
    print!("{}", module.to_text());
}
