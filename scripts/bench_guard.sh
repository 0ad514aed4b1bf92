#!/usr/bin/env bash
# Guard the committed BENCH_*.json baselines: compare the median_ms of
# every case in a freshly regenerated bench file against the same label in
# the committed baseline, and flag cases that got slower by more than the
# tolerance. Samples that carry exact solver counters (BENCH_solver's
# `pops` and `union_words`) must also not rise: those counts do not depend
# on the machine, so any rise fails the guard on every CPU count, warn-only
# or not. Used by the `bench-guard` CI job (a counter rise blocks, a median
# regression only warns; diff uploaded as an artifact); runnable locally
# after a bench run:
#
#   cargo bench -p kaleidoscope-bench --bench solver
#   scripts/bench_guard.sh BENCH_solver.json
#
# Knobs (environment):
#   BENCH_GUARD_REF        baseline git ref          (default: HEAD)
#   BENCH_GUARD_TOL_PCT    slower-than tolerance, %  (default: 25)
#   BENCH_GUARD_OUT        diff report path          (default: bench_guard_diff.txt)
#   BENCH_GUARD_WARN_ONLY  1 = median regressions     (default: 1 on a 1-CPU
#                          never fail                machine, where medians
#                                                    measure scheduler noise,
#                                                    else 0)
#
# Exit code: 0 when clean or warn-only; 1 when a solver counter rose, or a
# median regression exceeds the tolerance and warn-only is off; 2 on usage
# errors.

set -euo pipefail

REF="${BENCH_GUARD_REF:-HEAD}"
TOL="${BENCH_GUARD_TOL_PCT:-25}"
OUT="${BENCH_GUARD_OUT:-bench_guard_diff.txt}"

CPUS="$(nproc 2>/dev/null || echo 1)"
if [[ -z "${BENCH_GUARD_WARN_ONLY:-}" ]]; then
    if [[ "$CPUS" -le 1 ]]; then
        BENCH_GUARD_WARN_ONLY=1
    else
        BENCH_GUARD_WARN_ONLY=0
    fi
fi

if [[ "$#" -lt 1 ]]; then
    echo "usage: $0 BENCH_xxx.json [more BENCH files...]" >&2
    exit 2
fi

# One "label median" pair per sample line. The bench writers emit one
# sample object per line, so line-oriented sed is exact, not heuristic.
medians() {
    sed -n 's/.*"label": "\([^"]*\)".*"median_ms": \([0-9.]*\).*/\1 \2/p'
}

# One "name value" pair per counter line (the `"counters"` object is also
# one entry per line). Counters are informational breakdowns — fe-cache
# hits, parse/gen milliseconds behind the serve/incr medians — and are
# diffed for the report but never fail the guard.
counters() {
    sed -n '/"counters"/,/}/s/^ *"\([a-z_]*\)": \([0-9]*\),\{0,1\}$/\1 \2/p'
}

# One "label pops union_words" triple per sample line that carries the
# solver's exact work counters.
work() {
    sed -n 's/.*"label": "\([^"]*\)".*"pops": \([0-9]*\), "union_words": \([0-9]*\).*/\1 \2 \3/p'
}

: >"$OUT"
status=0
counter_status=0
for f in "$@"; do
    if [[ ! -f "$f" ]]; then
        echo "error: $f does not exist (run the bench first)" >&2
        exit 2
    fi
    if ! git cat-file -e "$REF:$f" 2>/dev/null; then
        echo "$f: no baseline at $REF (new file, nothing to compare)" | tee -a "$OUT"
        continue
    fi
    echo "== $f vs $REF (tolerance +$TOL%) ==" | tee -a "$OUT"
    if ! awk -v tol="$TOL" '
        NR == FNR { base[$1] = $2; next }
        {
            cur[$1] = $2
            if ($1 in base) {
                delta = base[$1] > 0 ? ($2 - base[$1]) / base[$1] * 100 : 0
                verdict = delta > tol ? "REGRESSION" : "ok"
                printf "%-11s %-46s %10.3f -> %10.3f ms  (%+.1f%%)\n", \
                    verdict, $1, base[$1], $2, delta
                if (delta > tol) bad = 1
            } else {
                printf "%-11s %-46s %23s %10.3f ms\n", "NEW", $1, "", $2
            }
        }
        END {
            for (l in base) if (!(l in cur))
                printf "%-11s %s\n", "REMOVED", l
            exit bad
        }
    ' <(git show "$REF:$f" | medians) <(medians <"$f") | tee -a "$OUT"; then
        status=1
    fi
    # Counter breakdown diff (informational only).
    awk '
        NR == FNR { base[$1] = $2; next }
        {
            if ($1 in base && base[$1] != $2)
                printf "%-11s %-46s %10d -> %10d\n", "counter", $1, base[$1], $2
            else if (!($1 in base))
                printf "%-11s %-46s %23s %10d\n", "counter-new", $1, "", $2
        }
    ' <(git show "$REF:$f" | counters) <(counters <"$f") | tee -a "$OUT"
    # Exact solver counters: any rise fails, whatever the CPU count.
    if ! awk '
        NR == FNR { pops[$1] = $2; words[$1] = $3; next }
        ($1 in pops) && ($2 > pops[$1] || $3 > words[$1]) {
            printf "%-11s %-46s pops %d -> %d, union_words %d -> %d\n", \
                "COUNTER-RISE", $1, pops[$1], $2, words[$1], $3
            bad = 1
        }
        END { exit bad }
    ' <(git show "$REF:$f" | work) <(work <"$f") | tee -a "$OUT"; then
        counter_status=1
    fi
done

if [[ "$counter_status" -ne 0 ]]; then
    echo "bench_guard: exact solver counters rose — see $OUT" >&2
    exit 1
fi

if [[ "$status" -ne 0 ]]; then
    if [[ "$BENCH_GUARD_WARN_ONLY" -eq 1 ]]; then
        echo "bench_guard: regressions beyond +$TOL% (warn-only: $CPUS CPU(s))" | tee -a "$OUT"
        exit 0
    fi
    echo "bench_guard: regressions beyond +$TOL% — see $OUT" >&2
    exit 1
fi
echo "bench_guard: all medians within +$TOL% of $REF" | tee -a "$OUT"
