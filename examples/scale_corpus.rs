//! Print a seeded `scale` corpus as module text, the corpus family behind
//! the solver benches and kdbench's serve workloads, for driving `kd` by
//! hand.
//!
//! ```sh
//! cargo run --release --example scale_corpus -- 3000 1 > scale-3k.kir
//! kd analyze scale-3k.kir --cache-dir D
//! ```
//!
//! Arguments: the statement target (default 3000) and the seed (default 1).

use kaleidoscope_suite::fuzz::scale;

fn main() {
    let mut args = std::env::args().skip(1).map(|a| {
        a.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("usage: scale_corpus [statements] [seed]");
            std::process::exit(2)
        })
    });
    let stmts = args.next().unwrap_or(3_000) as usize;
    let seed = args.next().unwrap_or(1);
    print!("{}", scale::corpus_module(seed, stmts).to_text());
}
