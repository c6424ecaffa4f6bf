#!/usr/bin/env python3
"""compare.py verdicts on synthetic inputs (ctest: e2e_compare)."""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

A = [100.0, 101.0, 99.0, 100.0, 102.0]


class Verdicts(unittest.TestCase):
    def test_unchanged_within_bound(self):
        v, s = compare.verdict(A, [101.0, 100.0, 100.0, 99.0, 101.0], 0.05, "higher")
        self.assertEqual(v, "unchanged")
        self.assertAlmostEqual(s["a"][1], 100.0)

    def test_worse_by_more_than_bound(self):
        self.assertEqual(compare.verdict(A, [x * 0.9 for x in A], 0.05, "higher")[0], "worse")
        # lower-is-better metric: a 10% rise is worse
        self.assertEqual(compare.verdict(A, [x * 1.1 for x in A], 0.05, "lower")[0], "worse")

    def test_absolute_floor(self):
        floor = compare.ABS_FLOOR["setup_s"]
        setup = [0.002, 0.0021, 0.0019, 0.002, 0.0022]
        slower = [x * 2 for x in setup]  # +100%, but only 2 ms
        self.assertEqual(compare.verdict(setup, slower, 0.25, "lower")[0], "worse")
        self.assertEqual(compare.verdict(setup, slower, 0.25, "lower", floor)[0], "unchanged")
        # a 40% spread that is under a millisecond wide does not leave it open
        jittery = [0.0016, 0.0020, 0.0028, 0.0021, 0.0019]
        self.assertEqual(compare.verdict(setup, jittery, 0.25, "lower")[0], "unresolved")
        self.assertEqual(compare.verdict(setup, jittery, 0.25, "lower", floor)[0], "unchanged")

    def test_better_needs_wins_and_a_gap_beyond_iqr(self):
        v, s = compare.verdict(A, [110.0, 111.0, 109.0, 112.0, 110.0], 0.2, "higher")
        self.assertEqual(v, "better")
        self.assertEqual(s["win_rate"], 1.0)
        # every pair won, but the medians differ by less than A's IQR
        self.assertEqual(compare.verdict(A, [x + 0.5 for x in A], 0.2, "higher")[0], "unchanged")

    def test_ties_count_for_neither_side(self):
        v, s = compare.verdict(A, list(A), 0.05, "higher")
        self.assertEqual((v, s["win_rate"]), ("unchanged", 0.0))

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [100.0, 150.0, 60.0, 130.0, 80.0]
        self.assertEqual(compare.verdict(A, noisy, 0.1, "higher")[0], "unresolved")
        # ... unless every change run beats every parent run
        self.assertEqual(compare.verdict(noisy, [200.0, 300.0, 160.0, 250.0, 180.0], 0.1,
                                         "higher")[0], "better")


class CommandLine(unittest.TestCase):
    def run_compare(self, a_values, b_values, correct=True, b_seconds=20):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump({"end_to_end": [{"name": "replay_eps", "unit": "events/s",
                                           "better": "higher", "bound": 0.05}]}, f)
            files = []
            for side, values in (("A", a_values), ("B", b_values)):
                os.mkdir(os.path.join(tmp, side))
                for i, v in enumerate(values):
                    path = os.path.join(tmp, side, f"run{i}.json")
                    res = {"correct": correct, "attempted": 1, "failed": 0,
                           "metrics": {"replay_eps": {"value": v, "unit": "events/s"}}}
                    with open(path, "w") as f:
                        json.dump({"seed": i, "seconds": b_seconds if side == "B" else 20,
                                   "trace": 0, "workloads": {"ingest-seq": res}}, f)
                    files.append(path)
            return subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), *files,
                                   "--bench", bench], capture_output=True, text=True)

    def test_unchanged_exits_zero(self):
        r = self.run_compare(A, [101.0, 100.0, 100.0, 99.0, 101.0])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("unchanged", r.stdout)

    def test_worse_exits_one(self):
        r = self.run_compare(A, [x * 0.8 for x in A])
        self.assertEqual(r.returncode, 1)
        self.assertIn("worse", r.stdout)

    def test_runs_of_another_length_are_refused(self):
        r = self.run_compare(A, A, b_seconds=10)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("differ in (seconds, trace)", r.stderr)

    def test_incorrect_run_exits_one(self):
        r = self.run_compare(A, A, correct=False)
        self.assertEqual(r.returncode, 1)
        self.assertIn("incorrect run", r.stdout)


@unittest.skipUnless(os.environ.get("E2E_BENCH"), "set E2E_BENCH to the e2e_bench binary")
class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json lists exactly the run length, workloads and metrics e2e_bench has."""

    def test_matches_the_binary(self):
        described = json.loads(subprocess.run([os.environ["E2E_BENCH"], "--describe"],
                                              capture_output=True, text=True, check=True).stdout)
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(bench["run_seconds"], described["run_seconds"])
        self.assertEqual([(w["name"], w["why"]) for w in bench["workloads"]],
                         [(w["name"], w["why"]) for w in described["workloads"]])
        strip = lambda ms: [(m["name"], m["unit"], m["better"]) for m in ms]
        self.assertEqual(strip(bench["end_to_end"]), strip(described["end_to_end"]))
        self.assertEqual(strip(bench["per_layer"]), strip(described["per_layer"]))


if __name__ == "__main__":
    unittest.main()
