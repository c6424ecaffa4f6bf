#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs against BENCHMARK.json bounds.

    bench/e2e/compare.py A/*.json B/*.json [--bench BENCHMARK.json]

Each side's files (written by `run.sh --out FILE`) live in their own
directory: the first directory named is side A (the parent), the second is
side B (the change). For every workload x end-to-end metric it prints each
side's median and quartiles, the share of pairs (A[i], B[i]) that B wins,
and a verdict:

  better      B wins >= 9/10 of the pairs and the medians differ by more
              than A's interquartile range
  worse       B's median is worse than A's by more than the metric's bound
              (and, for setup_s, by more than 5 ms)
  unresolved  a side's spread (IQR / median) exceeds the bound (and, for
              setup_s, its IQR exceeds 5 ms), and not every B run beats
              every A run
  unchanged   otherwise

Exits 1 when any verdict is `worse` or `unresolved`, or any run reports
correct=false or failed sessions. Refuses files that differ in run length
(`seconds`) or in `trace`: only like-for-like runs compare.
"""
import argparse
import json
import os
import statistics
import sys

WIN_SHARE = 0.9
# Set-up takes a few milliseconds: a move, or a spread, below this much is
# noise at that scale, never a regression or an unresolved comparison.
ABS_FLOOR = {"setup_s": 0.005}


def load_side(paths, settings):
    """{workload: {metric: [values in file order]}} plus the incorrect runs.

    Adds each file's (seconds, trace) to the set `settings`."""
    values, incorrect = {}, []
    for path in sorted(paths):
        with open(path) as f:
            doc = json.load(f)
        settings.add((doc.get("seconds"), doc.get("trace")))
        for workload, res in doc["workloads"].items():
            if not res.get("correct", False) or res.get("failed", 0):
                incorrect.append(f"{path}: {workload}")
            for metric, m in res.get("metrics", {}).items():
                values.setdefault(workload, {}).setdefault(metric, []).append(m["value"])
    return values, incorrect


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(a, b, bound, better, floor=0.0):
    """Verdict for metric values a (parent) and b (change); see module doc."""
    sign = 1.0 if better == "higher" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (am - bm) / am if am else 0.0
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    noisy = spread > bound and max(a3 - a1, b3 - b1) > floor
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if noisy:
        v = "better" if all_better else "unresolved"
    elif worse_by > bound and sign * (am - bm) > floor:
        v = "worse"
    elif win_rate >= WIN_SHARE and sign * (bm - am) > (a3 - a1):
        v = "better"
    else:
        v = "unchanged"
    return v, {"a": (a1, am, a3), "b": (b1, bm, b3), "win_rate": win_rate,
               "change": (bm - am) / am if am else 0.0, "spread": spread}


def split_sides(paths):
    sides = {}
    for p in paths:
        sides.setdefault(os.path.dirname(os.path.abspath(p)), []).append(p)
    if len(sides) != 2:
        sys.exit("compare.py: give the files of exactly two directories (A, then B)")
    return list(sides.values())


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--bench", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    side_a, side_b = split_sides(args.files)
    settings = set()
    a_vals, a_bad = load_side(side_a, settings)
    b_vals, b_bad = load_side(side_b, settings)
    if len(settings) != 1:
        sys.exit(f"compare.py: runs differ in (seconds, trace): {sorted(settings, key=str)}")

    failed = bool(a_bad or b_bad)
    for bad in a_bad + b_bad:
        print(f"incorrect run: {bad}")
    print(f"{'workload':16} {'metric':16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
          f" {'change':>8} {'B wins':>7}  verdict")
    for workload in sorted(set(a_vals) | set(b_vals)):
        for m in metrics:
            a = a_vals.get(workload, {}).get(m["name"])
            b = b_vals.get(workload, {}).get(m["name"])
            if not a or not b:
                print(f"{workload:16} {m['name']:16} missing on a side")
                failed = True
                continue
            v, s = verdict(a, b, m["bound"], m["better"], ABS_FLOOR.get(m["name"], 0.0))
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:16} {m['name']:16} {fmt(s['a']):>32} {fmt(s['b']):>32}"
                  f" {s['change'] * 100:+7.2f}% {s['win_rate'] * 100:6.0f}%  {v}")
            failed = failed or v in ("worse", "unresolved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
