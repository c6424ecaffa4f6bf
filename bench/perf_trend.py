#!/usr/bin/env python3
"""Warn-only perf trend for CI (ci.yml, Release leg).

Two modes, both markdown-to-stdout for the job summary, both warn-only (the
script never exits non-zero — shared-runner noise and the scale difference
between the committed record and the CI smoke make hard assertions
meaningless; the tables exist so a human can spot a trend, not so CI flaps).

Ratio mode (default):
    perf_trend.py <committed-baseline.json> <fresh.json>

  Compares a freshly generated smoke-scale bench record against the
  committed BENCH_hotpath.json. Rows are keyed by their identity fields
  (experiment, shape, mode, engine, k, shards, ...); the first throughput
  metric present in both rows is compared.

History mode:
    perf_trend.py --history <history.jsonl> <fresh.json>

  Appends the fresh record's rows to a persistent history file (one JSON
  line per bench row, stamped with the CI run number / commit from
  GITHUB_RUN_NUMBER / GITHUB_SHA) and renders a longitudinal
  per-experiment table over the most recent runs, so slow drifts are
  visible beyond the single-ratio comparison. ci.yml persists the file
  across runs via the `bench-history` cache/artifact. The file is pruned
  to the most recent MAX_RUNS runs on every append.
"""
import json
import os
import sys

# Throughput metrics, most specific first; the first present in both rows of
# a pair is the one compared (and the one charted in history mode).
METRICS = ["eps_compiled", "eps_p50", "eps"]

# Everything measured rather than configured: excluded from row identity.
NON_IDENTITY = {
    "eps", "eps_p50", "eps_tree", "eps_compiled", "speedup", "speedup_vs_s1",
    "decode_seconds_p50", "speculation_wasted_events_p50",
    "first_result_ms_p50", "results", "quanta", "parks_input", "parks_egress",
    "sched_steps", "sched_cycles", "sched_cycles_skipped", "sched_batches",
    "sched_batch_events", "sched_ready_depth_max",
    "sched_instances_retired", "sched_instances_cancelled",
    "sched_wasted_events",
    "parity_ok", "parity", "scale", "events", "completions", "avg_active",
    "keys", "events_per_session", "sessions_per_worker",
    # Registry-sourced latency histograms (DESIGN.md §12). Note "obs" is NOT
    # here: the obs=off overhead rows must key separately from the
    # (default, instrumented) committed rows.
    "result_latency_ns_p50", "result_latency_ns_p99", "first_result_ns_p50",
    "pool_queue_wait_ns_p50", "quantum_ns_p50", "egress_stall_ns_p99",
    "splitter_cycle_ns_p50",
    # Connection-scale rows (DESIGN.md §14): the idle-session count follows
    # SPECTRE_BENCH_SCALE and RLIMIT_NOFILE, so the scale-invariant `shape`
    # field keys the row and everything else is measured.
    "idle_sessions", "accept_us_per_conn", "rss_kb_per_conn",
    "copied_bytes_per_event", "wire_bytes_per_event", "reads_per_event",
    # Shared ingest plane (DESIGN.md §15): E-multi-query rows key by
    # fanout/mode; everything below is measured.
    "rss_delta_kb", "compile_hits", "compile_misses", "hub_chunks_reclaimed",
}

WARN_BELOW = 0.75  # flag rows slower than this ratio (warn-only)
MAX_RUNS = 50      # history retention (runs)
SHOW_RUNS = 8      # history columns rendered


def identity(row):
    return tuple(sorted((k, v) for k, v in row.items() if k not in NON_IDENTITY))


def load(path):
    rows = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                row = json.loads(line)
                rows[identity(row)] = row
    except OSError as e:
        print(f"perf-trend: cannot read {path}: {e} (skipping)", file=sys.stderr)
    return rows


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def compare(baseline_path, fresh_path):
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    if not baseline or not fresh:
        print("perf-trend: nothing to compare (missing or empty record)")
        return 0

    print("### Perf trend vs committed BENCH_hotpath.json")
    print()
    print("_Warn-only. Committed record is full-scale (0.3), this run is the"
          " CI smoke scale — compare trends, not absolutes._")
    print()
    print("| row | committed | fresh | ratio | |")
    print("|---|---|---|---|---|")
    compared = 0
    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh.get(key)
        if fresh_row is None:
            continue
        m = next((m for m in METRICS if m in base_row and m in fresh_row), None)
        if not m or not base_row[m]:
            continue
        ratio = fresh_row[m] / base_row[m]
        flag = "⚠️" if ratio < WARN_BELOW else ""
        print(f"| {fmt_key(key)} ({m}) | {base_row[m]:.3g} "
              f"| {fresh_row[m]:.3g} | {ratio:.2f}x | {flag} |")
        compared += 1
    print()
    print(f"_{compared} rows compared; "
          f"{len(baseline)} committed, {len(fresh)} fresh._")
    return 0


def load_history(path):
    entries = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith("{"):
                    entries.append(json.loads(line))
    except OSError:
        pass  # first run: no history yet
    return entries


def history(history_path, fresh_path):
    run = int(os.environ.get("GITHUB_RUN_NUMBER", "0"))
    sha = os.environ.get("GITHUB_SHA", "")[:9]
    entries = load_history(history_path)
    for row in load(fresh_path).values():
        entries.append({"run": run, "sha": sha, "row": row})
    if not entries:
        print("perf-trend history: nothing recorded yet")
        return 0

    # Prune to the newest MAX_RUNS runs and persist.
    runs = sorted({e["run"] for e in entries})[-MAX_RUNS:]
    entries = [e for e in entries if e["run"] in runs]
    os.makedirs(os.path.dirname(history_path) or ".", exist_ok=True)
    with open(history_path, "w") as f:
        for e in entries:
            f.write(json.dumps(e, sort_keys=True) + "\n")

    # Longitudinal table: one line per experiment row, one column per run
    # (newest SHOW_RUNS), cell = the row's first throughput metric.
    shown = runs[-SHOW_RUNS:]
    by_key = {}
    for e in entries:
        row = e["row"]
        key = identity(row)
        m = next((m for m in METRICS if m in row), None)
        if m:
            by_key.setdefault((key, m), {})[e["run"]] = row[m]

    print("### Bench history (longitudinal, last "
          f"{len(shown)} of {len(runs)} recorded runs)")
    print()
    print("_Warn-only. Values are the CI smoke scale; watch for drifts, not"
          " absolutes. Full history rides the `bench-history` artifact._")
    print()
    print("| row | " + " | ".join(f"r{r}" for r in shown) + " |")
    print("|---" * (len(shown) + 1) + "|")
    for (key, m), series in sorted(by_key.items()):
        cells = [f"{series[r]:.3g}" if r in series else "—" for r in shown]
        print(f"| {fmt_key(key)} ({m}) | " + " | ".join(cells) + " |")
    print()
    print(f"_{len(by_key)} experiment rows tracked._")
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--history":
        return history(sys.argv[2], sys.argv[3])
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 0  # warn-only: never fail the job
    return compare(sys.argv[1], sys.argv[2])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)  # consumer closed the pipe; warn-only means never fail
    except Exception as e:  # noqa: BLE001 — warn-only by contract
        print(f"perf-trend: {e} (skipping)", file=sys.stderr)
        sys.exit(0)
