#!/usr/bin/env bash
# Output identity between two release builds: run both over the standard
# output set, `cmp` each pair, print each output that differs, and exit 1
# if any differ. Each argument is a release directory holding `kd` and the
# bench binaries (a `target/release` of a checkout built with
# `cargo build --release --offline --workspace`); the second also holds
# `examples/scale_corpus` (`cargo build --release --offline --example
# scale_corpus`):
#
#   scripts/output_identity.sh ../parent/target/release target/release
#
# The set: `kd analyze --model M` for the nine models, plain and with each
# of `--stats`, `--budget 1`, `--budget 200`, `--jobs 1/2/4`,
# `--config all` and `--config kd-pwc --stats`; `--cache-dir`, cold and
# then warm with `--stats`; a watch chain of a 3k `scale` corpus, two
# appends and a modify of the last appended function, each run with
# `--cache-dir D --incremental-from <previous revision>`; and table2-5,
# fig1 and fig10-12 under `TABLE4_REQUESTS=100 TABLE5_ITERS=300`. Only
# stdout is compared: stderr carries timings. The `--stats` rows of warm
# starts are pinned by the `watch_golden` and `solve_golden` tests
# instead.

set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <parent-release-dir> <change-release-dir>" >&2
    exit 2
fi
A="$1"
B="$2"
for dir in "$A" "$B"; do
    for bin in kd table2 table3 table4 table5 fig1 fig10 fig11 fig12; do
        if [[ ! -x "$dir/$bin" ]]; then
            echo "error: $dir/$bin not found (build with: cargo build --release --workspace)" >&2
            exit 2
        fi
    done
done
CORPUS="$B/examples/scale_corpus"
if [[ ! -x "$CORPUS" ]]; then
    echo "error: $CORPUS not found (build with: cargo build --release --example scale_corpus)" >&2
    exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
MODELS=(MbedTLS Libtiff Curl Lighttpd Memcached LibPNG Libxml Wget TinyDTLS)
export TABLE4_REQUESTS=100 TABLE5_ITERS=300

outputs=0
differ=0

# Run `"$@"` once per build, with the build's directory as `$BIN` and its
# side (`a` or `b`) as `$SIDE`; keep each stdout as `<side>/<name>` and
# compare the pair. A command that exits nonzero on either side counts as
# a difference.
both() {
    local name="$1"
    shift
    local side dir failed=0
    for side in a b; do
        if [[ $side == a ]]; then dir="$A"; else dir="$B"; fi
        mkdir -p "$WORK/$side"
        if ! BIN="$dir" SIDE="$side" "$@" > "$WORK/$side/$name" 2> /dev/null; then
            echo "fails ($dir): $name"
            failed=1
        fi
    done
    outputs=$((outputs + 1))
    if [[ $failed -ne 0 ]] || ! cmp -s "$WORK/a/$name" "$WORK/b/$name"; then
        echo "differs: $name"
        differ=$((differ + 1))
    fi
}

kd() { "$BIN/kd" "$@"; }

# `--cache-dir`: a cold run, then a warm one with `--stats`, each build on
# its own directory.
cached() {
    local dir="$WORK/cache-$SIDE" status=0
    rm -rf "$dir"
    "$BIN/kd" analyze --model "$1" --cache-dir "$dir" || status=1
    "$BIN/kd" analyze --model "$1" --cache-dir "$dir" --stats || status=1
    rm -rf "$dir"
    return $status
}

for m in "${MODELS[@]}"; do
    both "$m.plain" kd analyze --model "$m"
    both "$m.stats" kd analyze --model "$m" --stats
    both "$m.budget1" kd analyze --model "$m" --budget 1
    both "$m.budget200" kd analyze --model "$m" --budget 200
    for j in 1 2 4; do
        both "$m.jobs$j" kd analyze --model "$m" --jobs "$j"
    done
    both "$m.all" kd analyze --model "$m" --config all
    both "$m.kd-pwc.stats" kd analyze --model "$m" --config kd-pwc --stats
    both "$m.cache" cached "$m"
done

# The watch chain. Its inputs are generated once, by the second build's
# `scale_corpus`, so both builds read the same files. Each revision runs on
# its build's own cache directory, warm-starting from the one before it;
# `kd analyze` prints no fingerprint, so a revision's is the name of the
# one file its run adds under `modules/`.
WATCH=("0" "1" "2" "2 7")
for rev in "${WATCH[@]}"; do
    # shellcheck disable=SC2086 # `rev` is the corpus arguments after the seed
    "$CORPUS" 3000 1 $rev > "$WORK/watch${rev// /-}.kir"
done
watch_step() {
    local dir="$WORK/watch-$SIDE" prev="$WORK/watch-$SIDE.fp" from=() status=0
    [[ -s "$prev" ]] && from=(--incremental-from "$(cat "$prev")")
    mkdir -p "$dir/modules"
    LC_ALL=C ls "$dir/modules" > "$WORK/watch-$SIDE.before"
    "$BIN/kd" analyze "$1" --cache-dir "$dir" ${from[@]+"${from[@]}"} || status=1
    LC_ALL=C ls "$dir/modules" | LC_ALL=C comm -13 "$WORK/watch-$SIDE.before" - |
        sed 's/\.kir$//' > "$prev"
    [[ $(wc -l < "$prev") -eq 1 ]] || status=1
    return $status
}
for rev in "${WATCH[@]}"; do
    both "watch${rev// /-}" watch_step "$WORK/watch${rev// /-}.kir"
done

bench() { "$BIN/$1"; }
for b in table2 table3 table4 table5 fig1 fig10 fig11 fig12; do
    both "$b" bench "$b"
done

echo "$outputs outputs compared, $differ differ"
[[ $differ -eq 0 ]]
