#!/usr/bin/env bash
# Build kd and kdbench from source (release, offline) and run the
# benchmark. With no arguments it runs all four workloads, untraced and
# traced, and writes target/kdbench/results.json plus one Chrome trace per
# workload. Arguments are passed to kdbench, e.g.
#
#   kdbench/run.sh --seed 1
#   kdbench/run.sh --workload serve-watch --seed 7 --trace 1
#   kdbench/run.sh --calibrate 10
#
# kd is built in the repository's workspace and kdbench in its own, both
# into one target directory, so kdbench finds kd next to itself. Cargo's
# own output goes to stderr, so the last line of stdout is always
# kdbench's JSON result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -d crates/serve ]]; then
    echo "kdbench: $root is not a checkout of the Kaleidoscope workspace" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p kaleidoscope-cli >&2
cargo build --release --offline --quiet --manifest-path kdbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kdbench" "$@"
