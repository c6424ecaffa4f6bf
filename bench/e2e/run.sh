#!/usr/bin/env bash
# Loopback end-to-end benchmark (bench/e2e/README.md). Builds the benchmark in
# Release under .bench_build/e2e at the repository root, then runs it.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--out FILE]
#
# Runs one workload, or every workload in turn; after each, the last stdout
# line is that workload's JSON result. --out collects the results into one
# file for compare.py. The run length is fixed by the benchmark
# (`e2e_bench --describe`, BENCHMARK.json's run_seconds); --seconds is
# accepted only with that value, so no run measures another length.
#
# --trace 1 writes the span trace to .bench_build/e2e/trace-<workload>.json.
# Exits non-zero when a build fails, a RESULT stream differs from its oracle,
# or a validity gate fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

workload="" seed=1 seconds="" trace=0 out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j3 --target e2e_bench cep_host >&2

describe="$("$build/e2e_bench" --describe)"
run_seconds="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["run_seconds"])' \
    <<<"$describe")"
if [ -n "$seconds" ] && [ "$seconds" != "$run_seconds" ]; then
    echo "run.sh: the run length is fixed at $run_seconds s; --seconds $seconds refused" >&2
    exit 2
fi

names="$workload"
if [ -z "$names" ]; then
    names="$(python3 -c \
        'import json,sys; print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' \
        <<<"$describe")"
fi
results="" status=0
for w in $names; do
    rc=0
    res="$("$build/e2e_bench" --workload "$w" --seed "$seed" --trace "$trace")" || rc=$?
    printf '%s\n' "$res"
    last="${res##*$'\n'}"
    # An invalid run (exit 3) prints no result line; a broken one prints
    # correct=false, which compare.py must see.
    if [ "${last:0:1}" = "{" ]; then
        results="${results:+$results, }\"$w\": $last"
    fi
    [ "$rc" -eq 0 ] || status=$rc
done
if [ -n "$out" ]; then
    printf '{"seed": %s, "seconds": %s, "trace": %s, "workloads": {%s}}\n' \
        "$seed" "$run_seconds" "$trace" "$results" >"$out"
fi
exit "$status"
