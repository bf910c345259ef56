"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py

* the crowd generator is a pure function of its seed;
* the span arithmetic: a span's self time is its duration minus the
  union of its children, clipped to the span;
* a tiny-scale pass of every workload, untraced and traced, emits every
  metric ``BENCHMARK.json`` declares, with its unit, and passes its checks;
* without the program's sources next to it the command fails without
  printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from crowds import planted_crowd  # noqa: E402
from spans import Span, covered, intersection_length, layer_metrics, self_times, union  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)


class CrowdTests(unittest.TestCase):
    def test_same_seed_same_crowd(self):
        first = planted_crowd(500, 80, 20, 4, seed=11)
        again = planted_crowd(500, 80, 20, 4, seed=11)
        for name in ("users", "items", "options", "abilities", "arrival"):
            np.testing.assert_array_equal(getattr(first, name), getattr(again, name))

    def test_other_seed_other_crowd(self):
        first = planted_crowd(500, 80, 20, 4, seed=11)
        other = planted_crowd(500, 80, 20, 4, seed=12)
        self.assertFalse(np.array_equal(first.options, other.options))

    def test_canonical_and_valid(self):
        crowd = planted_crowd(500, 1000, 20, 4, seed=3)
        keys = crowd.users * crowd.num_items + crowd.items
        self.assertTrue(np.all(np.diff(keys) > 0))  # user-major, no repeats
        self.assertTrue(np.all((crowd.options >= 0) & (crowd.options < 4)))
        np.testing.assert_array_equal(np.sort(crowd.arrival), np.arange(crowd.num_answers))
        self.assertGreater(crowd.num_answers, 500 * 19)


class SpanArithmeticTests(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            Span(1, None, "api.rank", 0, 100),
            Span(2, 1, "response.build", 10, 30),
            Span(3, 1, "solve", 20, 50),      # overlaps the build: counted once
            Span(4, 1, "orient", 90, 120),    # runs past the parent: clipped
            Span(5, 3, "solve.matvec", 25, 45),  # a grandchild: not the parent's
        ]
        own = self_times(spans)
        self.assertEqual(own[1], 100 - (40 + 10))
        self.assertEqual(own[3], 30 - 20)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[5], 20)

    def test_union_and_coverage(self):
        self.assertEqual(union([(5, 7), (0, 2), (1, 3), (8, 8)]), [(0, 3), (5, 7)])
        self.assertEqual(covered([(0, 3), (5, 7)], (2, 6)), 2)
        self.assertEqual(intersection_length([(0, 10)], [(2, 4), (8, 12)]), 4)

    def test_layer_metrics_from_a_synthetic_trace(self):
        ms = 1_000_000
        spans = [
            Span(1, None, "api.rank", 0, 10 * ms),
            Span(2, 1, "cache.rank", 1 * ms, 9 * ms, {"outcome": "miss"}),
            Span(3, 2, "solve", 2 * ms, 8 * ms,
                 {"iterations": 4, "converged": True, "warm": "warm"}),
            Span(4, None, "api.rank", 20 * ms, 21 * ms),
            Span(5, 4, "cache.rank", 20 * ms, 21 * ms, {"outcome": "hit"}),
        ]
        layers = layer_metrics(spans, [(0, 12 * ms), (19 * ms, 21 * ms)], served=True)
        self.assertAlmostEqual(layers["api.rank_self_ms"], (2 + 0) / 2)
        self.assertEqual(layers["cache.hits"], 1)
        self.assertEqual(layers["cache.misses"], 1)
        self.assertAlmostEqual(layers["cache.hit_ratio"], 0.5)
        self.assertEqual(layers["solve.calls"], 1)
        self.assertAlmostEqual(layers["solve.warm_share"], 1.0)
        self.assertAlmostEqual(layers["serve.overhead_ms"], (14 - 11) / 2)
        self.assertAlmostEqual(layers["trace.coverage"], 11 / 14)


class TinyWorkloadTests(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> None:
        result = run_benchmark("--workload", workload, "--seed", "5", "--seconds", "2",
                               "--trace", str(trace), "--scale", "tiny")
        self.assertEqual(result.returncode, 0, result.stdout[-3000:] + result.stderr[-3000:])
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(last["metrics"]), {entry["name"] for entry in declared})
        for entry in declared:
            metric = last["metrics"][entry["name"]]
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(metric["value"], (int, float))
        if not trace:
            for entry in declared:
                self.assertNotEqual(last["metrics"][entry["name"]]["value"], 0, entry["name"])

    def test_offline_rank(self):
        self.check_run("offline-rank", 0)
        self.check_run("offline-rank", 1)

    def test_append_rank(self):
        self.check_run("append-rank", 0)
        self.check_run("append-rank", 1)

    def test_serve_mix(self):
        self.check_run("serve-mix", 0)
        self.check_run("serve-mix", 1)

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_build" / ("selftest-bare-%d" % time.monotonic_ns())
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            result = run_benchmark("--workload", "offline-rank", "--seed", "1",
                                   "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
