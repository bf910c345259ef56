"""Perf-regression harness: ranker timings plus standalone scenarios.

Times every ranker in the library on fixed, deterministic synthetic sizes —
driven through :func:`repro.evaluation.timing.benchmark_rankers` — and keeps
the trajectory file ``benchmarks/BENCH_PR1.json`` that later PRs are
measured against.

Usage::

    python benchmarks/bench_perf.py                 # full profile, print table
    python benchmarks/bench_perf.py --update        # full+smoke+calibration,
                                                    # rewrite "current"
    python benchmarks/bench_perf.py --capture-seed  # record the "seed" baseline
    python benchmarks/bench_perf.py --smoke         # <60 s regression gate:
                                                    # fails (exit 1) when any
                                                    # ranker is >2x slower than
                                                    # the committed numbers
    python benchmarks/bench_perf.py --smoke --calibrate
                                                    # same gate, but machine
                                                    # speed is normalized out
                                                    # (enforceable on shared
                                                    # CI runners)
    python benchmarks/bench_perf.py --sharded       # 200k x 5k NPZ load
                                                    # and rank-cache hit
                                                    # gate
    python benchmarks/bench_perf.py --incremental   # 200k x 5k planted-truth
                                                    # crowd, 1% append, warm-
                                                    # started HnD/Dawid-Skene
                                                    # vs cold re-solve (PR 5)
    python benchmarks/bench_perf.py --update-incremental
                                                    # rewrite BENCH_PR5.json
    python benchmarks/bench_perf.py --speedwar      # speed-war gates: O(nnz)
                                                    # GLAD vs seed reference,
                                                    # momentum iterations

The PR 1 JSON file holds two sections: ``seed`` (timings captured on the
seed implementation, before the fused-kernel layer of PR 1) and ``current``
(timings of the code as committed), plus the cold-path speedup of current
over seed.  ``--smoke`` compares a fresh run against ``current.smoke`` with
a 2x tolerance and a small absolute floor so sub-millisecond jitter never
trips the gate.

``--calibrate`` makes the smoke gate *self-calibrating*: the committed
numbers are machine-specific, so the gate re-times a frozen reference
workload (the seed-faithful ``ReferenceDawidSkeneRanker`` preserved in
``repro.truth_discovery.reference`` — code that never changes across PRs)
on the current machine, derives the machine-speed ratio against the
committed anchor time, and compares *scaled* ratios instead of absolute
seconds.  That turns the advisory CI step into an enforced gate.

``--sharded`` exercises ingestion and the rank cache on a 200k-user x
5k-item crowd at ~0.1% density (1M answers): the triples are saved to NPZ,
read back with ``ResponseMatrix.load`` (reported as ``ingest_seconds``),
and HnD is served twice through the hash-keyed ``RankCache`` to measure
the warm-hit speedup (≥100x required).  ``BENCH_PR3.json`` and
``BENCH_PR4.json`` hold the numbers of the retired thread and process
backends, and of the retired streaming reader (``stream_ingest_seconds``),
as read-only history.

``--speedwar`` times the ``O(nnz)`` GLAD against its seed reference and
momentum against plain power iteration.  ``BENCH_PR2.json`` (the retired
triples-native sparse scenario), ``BENCH_PR6.json`` (the retired remote
scenario) and ``BENCH_PR7.json`` (the last speed-war run with its retired
backend legs) are read-only history.

``--incremental`` exercises the PR 5 warm-start subsystem: a planted-truth
200k x 5k crowd is split 99%/1%, the base is ranked cold through a
``CrowdSession`` (the rank cache captures the solver state), the 1% is
appended, and the re-rank resumes from the cached state.  The gates require
strictly fewer warm iterations than the fresh cold solve of the merged
matrix and rankings identical up to solver ties (see
``INCREMENTAL_TIE_GAP``).  Committed as ``BENCH_PR5.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import scipy

from repro.c1p.abh import ABHDirect, ABHPower
from repro.core.hitsndiffs import HNDDeflation, HNDDirect, HNDPower
from repro.core.response import ResponseMatrix
from repro.evaluation.timing import PerfSpec, benchmark_rankers
from repro.truth_discovery.dawid_skene import DawidSkeneRanker
from repro.truth_discovery.glad import GLADRanker
from repro.truth_discovery.hits import HITSRanker
from repro.truth_discovery.investment import InvestmentRanker, PooledInvestmentRanker
from repro.truth_discovery.majority import MajorityVoteRanker
from repro.truth_discovery.truthfinder import TruthFinderRanker

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_PR1.json"
INCREMENTAL_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_PR5.json"

#: Speed-war gates, all machine-independent ratios, so a slower CI runner
#: cannot false-fail them.
SPEEDWAR_GLAD_FLOOR = 8.0            # seed-reference / O(nnz) GLAD, was 3.4x
SPEEDWAR_ACCEL_ITERATION_CEILING = 0.7  # momentum / plain iterations
SPEEDWAR_ACCEL_TIE_GAP = 1e-5        # ranking_inversion_gap(plain, momentum)

#: Required warm-hit speedup of the rank cache in the sharded scenario.
CACHE_SPEEDUP_FLOOR = 100.0

#: Incremental scenario gates: a warm-started re-rank after the append must
#: re-converge in strictly fewer iterations than the cold solve, and the
#: deepest warm-vs-cold ranking disagreement (reference-score gap over
#: oppositely-ordered pairs) must stay below the per-method tie threshold —
#: i.e. the rankings are identical up to users the solver itself cannot
#: separate (duplicate answer patterns tie exactly; any two solver runs
#: order them arbitrarily).
INCREMENTAL_TIE_GAP = {"HnD-Power": 1e-5, "Dawid-Skene": 1e-6}

#: Regression gate: fail when current/committed > threshold and the
#: absolute slowdown exceeds the floor (guards against timer jitter on
#: the fastest rankers).
REGRESSION_THRESHOLD = 2.0
REGRESSION_FLOOR_SECONDS = 0.005


def _profile(smoke: bool) -> List[PerfSpec]:
    """The fixed ranker line-up; smoke sizes finish in well under 60 s."""

    def size(full_m: int, full_n: int, smoke_m: int, smoke_n: int):
        return (smoke_m, smoke_n) if smoke else (full_m, full_n)

    specs = [
        PerfSpec("HnD-Power", HNDPower(random_state=0), *size(5000, 200, 1000, 100)),
        PerfSpec("HnD-Deflation", HNDDeflation(random_state=0), *size(1000, 100, 300, 60)),
        PerfSpec("HnD-Direct", HNDDirect(), *size(1000, 100, 300, 60)),
        PerfSpec("ABH-Power", ABHPower(random_state=0), *size(2000, 200, 500, 100)),
        PerfSpec("ABH-Direct", ABHDirect(), *size(1000, 100, 300, 60)),
        PerfSpec("Dawid-Skene", DawidSkeneRanker(), *size(500, 200, 200, 80)),
        PerfSpec("GLAD", GLADRanker(), *size(500, 200, 150, 60)),
        PerfSpec("HITS", HITSRanker(), *size(5000, 200, 1000, 100)),
        PerfSpec("TruthFinder", TruthFinderRanker(), *size(2000, 200, 500, 100)),
        PerfSpec("Invest", InvestmentRanker(), *size(2000, 200, 500, 100)),
        PerfSpec("PooledInv", PooledInvestmentRanker(), *size(2000, 200, 500, 100)),
        PerfSpec("MajorityVote", MajorityVoteRanker(), *size(5000, 200, 1000, 100)),
    ]
    return specs


def _run(smoke: bool, num_repeats: int) -> Dict[str, Dict[str, object]]:
    records = benchmark_rankers(_profile(smoke), num_repeats=num_repeats)
    return {record.name: record.to_dict() for record in records}


# --------------------------------------------------------------------------- #
# Machine-speed calibration (self-calibrating smoke gate)
# --------------------------------------------------------------------------- #
def _time_calibration_anchor(num_repeats: int) -> Dict[str, object]:
    """Cold-time the frozen seed-faithful reference ranker.

    ``ReferenceDawidSkeneRanker`` is the seed implementation preserved
    verbatim as a test oracle — it never changes across PRs, so its runtime
    on a machine measures *the machine*, not the library.  The smoke gate
    divides fresh timings by (fresh anchor / committed anchor) to compare
    ratios instead of machine-specific absolute seconds.

    The anchor runs at 500x200 — a few hundred milliseconds — so the
    ratio is driven by machine speed, not by millisecond-scale timer
    noise (the smoke workloads themselves are only a few ms each).
    """
    from repro.truth_discovery.reference import ReferenceDawidSkeneRanker

    records = benchmark_rankers(
        [PerfSpec("calibration-anchor", ReferenceDawidSkeneRanker(), 500, 200)],
        num_repeats=num_repeats,
    )
    payload = records[0].to_dict()
    payload["ranker"] = "Dawid-Skene-reference"
    return payload


# --------------------------------------------------------------------------- #
# The canonical 200k x 5k scenario crowd the standalone modes share
# --------------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    """Lifetime peak RSS of this process in MB (ru_maxrss is KB on Linux)."""
    import resource  # Unix-only; imported here so the other modes run anywhere

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        peak /= 1024
    return peak / 1024.0


def _sparse_triples(num_users: int, num_items: int, density: float,
                    num_options: int, seed: int):
    """Deterministic random crowd as canonical (already-sorted) triples."""
    rng = np.random.default_rng(seed)
    target = int(num_users * num_items * density)
    # Oversample flat (user, item) keys, unique them (duplicate free, never
    # anywhere near (m * n) memory), then subsample back to the target
    # *randomly* — a sorted-prefix cut would silently empty the top of the
    # user range.
    keys = np.unique(
        rng.integers(0, num_users * num_items, size=int(target * 1.1), dtype=np.int64)
    )
    if keys.size > target:
        keys = np.sort(rng.choice(keys, size=target, replace=False))
    users = keys // num_items
    items = keys % num_items
    options = rng.integers(0, num_options, size=keys.size)
    return users, items, options


def _scenario_crowd(num_users: int = 200_000, num_items: int = 5_000,
                    density: float = 0.001, num_options: int = 4,
                    seed: int = 7, *, planted: bool = False,
                    **extra: object):
    """The canonical 200k x 5k scenario every standalone mode shares.

    Generates the deterministic triples (uniform flat keys by default,
    planted-truth for the accuracy-sensitive scenarios — see
    ``_structured_triples``) and the pre-populated results header every
    scenario report starts from, so the construction lives in exactly one
    place.  Returns ``(users, items, options, results)``.
    """
    generate = _structured_triples if planted else _sparse_triples
    users, items, options = generate(
        num_users, num_items, density, num_options, seed
    )
    results: Dict[str, object] = {
        "num_users": num_users,
        "num_items": num_items,
        "density": density,
        "num_options": num_options,
        "num_answers": int(users.size),
        **extra,
        "rss_before_mb": round(_peak_rss_mb(), 1),
    }
    return users, items, options, results


# --------------------------------------------------------------------------- #
# Sharded scenario: NPZ ingest and the hash-keyed rank cache, at the
# 200k x 5k crowd scale
# --------------------------------------------------------------------------- #
def _run_sharded(num_users: int = 200_000, num_items: int = 5_000,
                 density: float = 0.001, num_options: int = 4,
                 seed: int = 7) -> Dict[str, object]:
    import tempfile

    from repro.api import rank as api_rank
    from repro.engine import RankCache

    users, items, options, results = _scenario_crowd(
        num_users, num_items, density, num_options, seed,
    )

    # Ingestion: NPZ on disk -> ResponseMatrix.load -> canonical matrix.
    source = ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "crowd.npz"
        source.save(path)
        results["npz_bytes"] = path.stat().st_size
        start = time.perf_counter()
        response = ResponseMatrix.load(path)
        results["ingest_seconds"] = round(time.perf_counter() - start, 4)
    assert response == source, "the reload must reproduce the matrix"

    # Rank cache: the second rank() of unchanged data must be served in
    # O(nnz) hash time, >=100x faster than computing.
    cache = RankCache()
    start = time.perf_counter()
    api_rank(response, "HnD", cache=cache, random_state=0)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    api_rank(response, "HnD", cache=cache, random_state=0)
    warm = time.perf_counter() - start
    results["cache_cold_seconds"] = round(cold, 4)
    results["cache_warm_seconds"] = round(warm, 6)
    results["cache_speedup"] = round(cold / max(warm, 1e-9), 1)
    results["cache_stats"] = cache.stats()

    results["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    return results


# --------------------------------------------------------------------------- #
# Speed-war scenario (PR 7): the GLAD and momentum gaps, before/after
# --------------------------------------------------------------------------- #
def _median_run(fn, repeats: int):
    """``(median seconds over repeats, last return value)`` of ``fn()``."""
    times = []
    value = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), value


def _run_speedwar(num_users: int = 200_000, num_items: int = 5_000,
                  density: float = 0.001, num_options: int = 4,
                  seed: int = 7, repeats: int = 3) -> Dict[str, object]:
    """Measure the speed-war gaps on the canonical crowd, median-of-N.

    Every gate is a ratio between two runs of the same process, so the
    committed gates hold on hardware of any speed.  GLAD runs at a reduced
    20k x 2k scale — the seed-faithful dense reference needs ``O(m * n)``
    memory *per gradient step* and would take hours at 200k x 5k, which is
    the point of the rewrite.
    """
    from repro.evaluation.metrics import ranking_inversion_gap
    from repro.truth_discovery.reference import ReferenceGLADRanker

    users, items, options, results = _scenario_crowd(
        num_users, num_items, density, num_options, seed, repeats=repeats,
    )
    source = ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )
    source.compiled

    # (a) O(nnz) GLAD vs the seed-faithful dense reference, reduced scale.
    glad_users, glad_items = 20_000, 2_000
    gu, gi, go = _sparse_triples(glad_users, glad_items, 0.005, 3, seed)
    glad_crowd = ResponseMatrix.from_triples(
        gu, gi, go, shape=(glad_users, glad_items), num_options=3,
    )
    glad_crowd.compiled
    results["glad_num_users"] = glad_users
    results["glad_num_items"] = glad_items
    results["glad_num_answers"] = int(gu.size)
    glad_seconds, glad = _median_run(
        lambda: GLADRanker(max_iterations=3).rank(glad_crowd), repeats
    )
    seed_seconds, seed_glad = _median_run(
        lambda: ReferenceGLADRanker(max_iterations=3).rank(glad_crowd),
        repeats,
    )
    results["glad_seconds"] = round(glad_seconds, 4)
    results["glad_seed_seconds"] = round(seed_seconds, 4)
    results["glad_speedup_vs_seed"] = round(seed_seconds / glad_seconds, 1)
    from scipy.stats import spearmanr

    results["glad_spearman_vs_seed"] = round(
        float(spearmanr(glad.scores, seed_glad.scores).statistic), 6
    )

    # (b) Momentum-accelerated HnD vs a plain solve at equal *tight*
    # tolerance.  The comparison deliberately runs at 1e-8, not the 1e-5
    # default: the inversion-gap contract compares two
    # *converged* solves, and at 1e-5 the plain run's own remaining error
    # (residual / (1 - contraction rate), ~1e-3 at this scale's ~0.9984
    # per-iteration rate) dwarfs the 1e-5 tie bound — the gap would
    # measure the baseline's sloppiness, not the acceleration's fidelity.
    # Both runs share random_state, so the iteration counts and the gap
    # are deterministic: one run each, no median needed.
    accel_tolerance, accel_budget = 1e-8, 40_000
    plain_started = time.perf_counter()
    plain_tight = HNDPower(random_state=0, tolerance=accel_tolerance,
                           max_iterations=accel_budget).rank(source)
    results["accel_plain_seconds"] = round(
        time.perf_counter() - plain_started, 4
    )
    accel_started = time.perf_counter()
    accel = HNDPower(random_state=0, tolerance=accel_tolerance,
                     max_iterations=accel_budget,
                     acceleration="momentum").rank(source)
    results["accel_seconds"] = round(time.perf_counter() - accel_started, 4)
    results["accel_tolerance"] = accel_tolerance
    results["accel_mode"] = accel.diagnostics["acceleration"]
    results["accel_plain_iterations"] = int(
        plain_tight.diagnostics["iterations"]
    )
    results["accel_iterations"] = int(accel.diagnostics["iterations"])
    results["accel_iteration_ratio"] = round(
        results["accel_iterations"] / results["accel_plain_iterations"], 3
    )
    results["accel_inversion_gap"] = float(
        ranking_inversion_gap(plain_tight.scores, accel.scores)
    )

    results["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    return results


def _check_speedwar(results: Dict[str, object]) -> List[str]:
    """The speed-war gates (machine-independent ratios)."""
    failures = []
    if results["glad_speedup_vs_seed"] < SPEEDWAR_GLAD_FLOOR:
        failures.append(
            "GLAD speedup vs seed reference %.1fx is below the %.0fx floor"
            % (results["glad_speedup_vs_seed"], SPEEDWAR_GLAD_FLOOR)
        )
    if results["accel_mode"] != "momentum":
        failures.append(
            "accelerated solve fell back to %r" % results["accel_mode"]
        )
    if results["accel_iteration_ratio"] > SPEEDWAR_ACCEL_ITERATION_CEILING:
        failures.append(
            "momentum iterations ratio %.2f exceeds the %.2f ceiling "
            "(needs >= 30%% fewer iterations)"
            % (results["accel_iteration_ratio"],
               SPEEDWAR_ACCEL_ITERATION_CEILING)
        )
    if results["accel_inversion_gap"] > SPEEDWAR_ACCEL_TIE_GAP:
        failures.append(
            "momentum ranking inversion gap %.3g exceeds the tie bound %.0e"
            % (results["accel_inversion_gap"], SPEEDWAR_ACCEL_TIE_GAP)
        )
    return failures


def _print_speedwar(results: Dict[str, object]) -> None:
    print("speed-war scenario (median of %d)" % results["repeats"])
    print("  crowd:   %dx%d @ %.2f%% density -> %s answers" % (
              results["num_users"], results["num_items"],
              100 * float(results["density"]),
              format(results["num_answers"], ","),
          ))
    print("  GLAD %dx%d (%s answers): %.3f s vs seed reference %.3f s "
          "-> %.1fx (spearman %.4f)" % (
              results["glad_num_users"], results["glad_num_items"],
              format(results["glad_num_answers"], ","),
              results["glad_seconds"], results["glad_seed_seconds"],
              results["glad_speedup_vs_seed"],
              results["glad_spearman_vs_seed"],
          ))
    print("  momentum HnD @ tol %.0e: %d -> %d iterations (%.2fx, "
          "%.1f s -> %.1f s), inversion gap %.3g" % (
              results["accel_tolerance"],
              results["accel_plain_iterations"], results["accel_iterations"],
              results["accel_iteration_ratio"],
              results["accel_plain_seconds"], results["accel_seconds"],
              results["accel_inversion_gap"],
          ))
    print("  peak RSS: %.0f MB" % results["peak_rss_mb"])
    print()


# --------------------------------------------------------------------------- #
# Incremental scenario (PR 5): warm-started re-ranking after a 1% append
# --------------------------------------------------------------------------- #
def _structured_triples(num_users: int, num_items: int, density: float,
                        num_options: int, seed: int):
    """Deterministic *planted-truth* crowd as canonical sorted triples.

    Each item has a true option and each user an ability ``p`` drawn from
    ``[0.4, 0.95]``; a user answers correctly with probability ``p`` and
    uniformly among the wrong options otherwise.  Unlike the uniform-random
    crowd of ``_sparse_triples``, this workload has the majority structure a
    real crowd has — which is what makes warm-vs-cold equivalence
    meaningful for Dawid–Skene: on pure-noise data *every* item is a
    near-tie, EM has many self-consistent labelings, and an appended batch
    legitimately flips basins (a documented limitation of incremental EM,
    not of this implementation).
    """
    rng = np.random.default_rng(seed)
    target = int(num_users * num_items * density)
    keys = np.unique(
        rng.integers(0, num_users * num_items, size=int(target * 1.1), dtype=np.int64)
    )
    if keys.size > target:
        keys = np.sort(rng.choice(keys, size=target, replace=False))
    users = keys // num_items
    items = keys % num_items
    truth = rng.integers(0, num_options, size=num_items)
    ability = rng.uniform(0.4, 0.95, size=num_users)
    correct = rng.random(keys.size) < ability[users]
    wrong = (truth[items] + rng.integers(1, num_options, size=keys.size)) % num_options
    options = np.where(correct, truth[items], wrong)
    return users, items, options


def _run_incremental(num_users: int = 200_000, num_items: int = 5_000,
                     density: float = 0.001, num_options: int = 4,
                     append_fraction: float = 0.01,
                     seed: int = 7) -> Dict[str, object]:
    from repro.api import CrowdSession
    from repro.api import rank as api_rank
    from repro.evaluation.metrics import ranking_inversion_gap, spearman_accuracy

    users, items, options, results = _scenario_crowd(
        num_users, num_items, density, num_options, seed, planted=True,
        append_fraction=append_fraction,
    )
    nnz = int(results["num_answers"])
    split_rng = np.random.default_rng(seed + 1)
    shuffled = split_rng.permutation(nnz)
    cut = nnz - int(nnz * append_fraction)
    base = np.sort(shuffled[:cut])
    append = np.sort(shuffled[cut:])
    results["append_answers"] = int(append.size)

    # The two paper methods the acceptance gate names; HnD runs at a tight
    # tolerance so warm-vs-cold score differences sit orders of magnitude
    # below genuine score gaps (the committed tie-gap numbers quantify it).
    methods = {
        "HnD-Power": ("HnD", {"random_state": 0, "tolerance": 1e-8}),
        "Dawid-Skene": ("Dawid-Skene", {}),
    }

    session = CrowdSession(num_items=num_items, num_options=num_options,
                           num_users=num_users)
    session.add_answers(users[base], items[base], options[base])
    session.matrix  # materialize outside the timed solves

    for name, (method, params) in methods.items():
        start = time.perf_counter()
        ranking = session.rank(method, warm_start=True, **params)
        results["%s_base_seconds" % name] = round(time.perf_counter() - start, 4)
        results["%s_base_iterations" % name] = int(ranking.diagnostics["iterations"])
        assert ranking.diagnostics["warm_start"] == "cold"

    start = time.perf_counter()
    session.add_answers(users[append], items[append], options[append])
    merged = session.matrix
    results["append_seconds"] = round(time.perf_counter() - start, 4)

    for name, (method, params) in methods.items():
        start = time.perf_counter()
        warm = session.rank(method, warm_start=True, **params)
        results["%s_warm_seconds" % name] = round(time.perf_counter() - start, 4)
        assert warm.diagnostics["warm_start"] == "warm", (
            "%s did not warm-start: %r" % (name, warm.diagnostics["warm_start"])
        )
        start = time.perf_counter()
        cold = api_rank(merged, method, **params)
        results["%s_cold_seconds" % name] = round(time.perf_counter() - start, 4)
        warm_iters = int(warm.diagnostics["iterations"])
        cold_iters = int(cold.diagnostics["iterations"])
        gap = ranking_inversion_gap(cold.scores, warm.scores)
        results["%s_warm_iterations" % name] = warm_iters
        results["%s_cold_iterations" % name] = cold_iters
        results["%s_score_max_diff" % name] = float(
            np.abs(warm.scores - cold.scores).max()
        )
        results["%s_ranking_identical" % name] = bool(
            np.array_equal(np.argsort(warm.scores, kind="stable"),
                           np.argsort(cold.scores, kind="stable"))
        )
        results["%s_ranking_inversion_gap" % name] = gap
        results["%s_ranking_tie_gap_bound" % name] = INCREMENTAL_TIE_GAP[name]
        results["%s_spearman_warm_vs_cold" % name] = round(
            spearman_accuracy(warm.scores, cold.scores), 10
        )

    # A repeated warm query of the unchanged crowd is an exact cache hit.
    method, params = methods["HnD-Power"]
    before = session.cache.stats()["hits"]
    start = time.perf_counter()
    session.rank(method, warm_start=True, **params)
    results["warm_hit_seconds"] = round(time.perf_counter() - start, 6)
    results["warm_hit_served_from_cache"] = session.cache.stats()["hits"] > before
    results["cache_stats"] = session.cache.stats()
    results["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    return results


def _check_incremental(results: Dict[str, object]) -> List[str]:
    """The incremental acceptance gates (see INCREMENTAL_TIE_GAP)."""
    failures = []
    for name in ("HnD-Power", "Dawid-Skene"):
        warm = int(results["%s_warm_iterations" % name])
        cold = int(results["%s_cold_iterations" % name])
        if warm >= cold:
            failures.append(
                "%s warm solve took %d iterations vs %d cold — no "
                "incremental win" % (name, warm, cold)
            )
        gap = float(results["%s_ranking_inversion_gap" % name])
        bound = INCREMENTAL_TIE_GAP[name]
        if gap > bound:
            failures.append(
                "%s warm-vs-cold rankings disagree beyond solver ties: "
                "inversion gap %.3g > %.3g" % (name, gap, bound)
            )
    if not results["warm_hit_served_from_cache"]:
        failures.append("repeated warm query was not served from the cache")
    return failures


def _print_incremental(results: Dict[str, object]) -> None:
    print("incremental scenario (%.0f%% append, warm-started solvers)"
          % (100 * float(results["append_fraction"])))
    print("  crowd:   %dx%d @ %.2f%% density -> %s answers (planted truth), "
          "append %s answers" % (
              results["num_users"], results["num_items"],
              100 * float(results["density"]),
              format(results["num_answers"], ","),
              format(results["append_answers"], ","),
          ))
    print("  append (O(batch) ingest + rematerialize): %.3f s"
          % results["append_seconds"])
    for name in ("HnD-Power", "Dawid-Skene"):
        print("  %-12s base cold %4d it %8.3f s | append warm %4d it %8.3f s"
              " | merged cold %4d it %8.3f s" % (
                  name,
                  results["%s_base_iterations" % name],
                  results["%s_base_seconds" % name],
                  results["%s_warm_iterations" % name],
                  results["%s_warm_seconds" % name],
                  results["%s_cold_iterations" % name],
                  results["%s_cold_seconds" % name],
              ))
        print("  %-12s warm-vs-cold: max score diff %.3g, inversion gap %.3g"
              " (tie bound %.0e), identical=%s, spearman %.8f" % (
                  "",
                  results["%s_score_max_diff" % name],
                  results["%s_ranking_inversion_gap" % name],
                  results["%s_ranking_tie_gap_bound" % name],
                  results["%s_ranking_identical" % name],
                  results["%s_spearman_warm_vs_cold" % name],
              ))
    print("  repeated warm query: %.5f s (cache hit: %s)" % (
        results["warm_hit_seconds"], results["warm_hit_served_from_cache"],
    ))
    print("  peak RSS: %.0f MB" % results["peak_rss_mb"])
    print()


def _print_sharded(results: Dict[str, object]) -> None:
    print("sharded scenario (NPZ ingest, rank cache)")
    print("  crowd:   %dx%d @ %.2f%% density -> %s answers" % (
        results["num_users"], results["num_items"], 100 * float(results["density"]),
        format(results["num_answers"], ","),
    ))
    print("  ingest (ResponseMatrix.load of the NPZ): %.3f s (%.1f MB archive)"
          % (results["ingest_seconds"], results["npz_bytes"] / 1e6))
    print("  rank cache: cold %.3f s -> warm hit %.5f s (%.0fx speedup)" % (
        results["cache_cold_seconds"], results["cache_warm_seconds"],
        results["cache_speedup"],
    ))
    print("  peak RSS: %.0f MB (%.0f MB before ingest)" % (
        results["peak_rss_mb"], results["rss_before_mb"],
    ))
    print()


def _load() -> Dict[str, object]:
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text())
    return {}


def _save(payload: Dict[str, object]) -> None:
    # allow_nan=False keeps the committed file strict JSON (bare NaN tokens
    # break jq / JSON.parse); non-finite values must be mapped to None first.
    RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _print_table(title: str, results: Dict[str, Dict[str, object]],
                 baseline: Dict[str, Dict[str, object]] | None = None) -> None:
    print(title)
    header = "%-14s %10s %10s %10s %8s" % ("ranker", "size", "cold (s)", "warm (s)", "vs seed")
    print(header)
    print("-" * len(header))
    for name, row in results.items():
        speedup = ""
        if baseline and name in baseline:
            ref = float(baseline[name]["cold_seconds"])
            now = float(row["cold_seconds"])
            if now > 0:
                speedup = "%.1fx" % (ref / now)
        print("%-14s %10s %10.4f %10.4f %8s" % (
            name,
            "%dx%d" % (row["num_users"], row["num_items"]),
            row["cold_seconds"],
            row["warm_seconds"],
            speedup,
        ))
    print()


def _check_regression(fresh: Dict[str, Dict[str, object]],
                      committed: Dict[str, Dict[str, object]],
                      machine_scale: float = 1.0) -> List[str]:
    """Compare fresh against committed timings with a 2x tolerance.

    ``machine_scale`` is the calibration ratio (fresh anchor / committed
    anchor): the committed reference is multiplied by it, so the comparison
    is between *ratios to the frozen anchor workload* rather than absolute
    machine-specific seconds.  ``1.0`` preserves the uncalibrated gate.
    """
    failures = []
    for name, row in fresh.items():
        if name not in committed:
            continue
        reference = float(committed[name]["cold_seconds"]) * machine_scale
        measured = float(row["cold_seconds"])
        if (
            measured > REGRESSION_THRESHOLD * reference
            and measured - reference > REGRESSION_FLOOR_SECONDS * max(machine_scale, 1.0)
        ):
            failures.append(
                "%s regressed: %.4fs vs committed %.4fs (scale %.2f, >%.1fx)"
                % (name, measured, reference, machine_scale, REGRESSION_THRESHOLD)
            )
    return failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the small profile and gate against committed numbers")
    parser.add_argument("--update", action="store_true",
                        help="run full+smoke profiles and rewrite the 'current' section")
    parser.add_argument("--capture-seed", action="store_true",
                        help="record the 'seed' baseline section (run on seed code)")
    parser.add_argument("--sharded", action="store_true",
                        help="run the 200k x 5k NPZ-ingest and "
                             "rank-cache scenario")
    parser.add_argument("--incremental", action="store_true",
                        help="run the 200k x 5k incremental scenario: 1%% "
                             "append, warm-started HnD/Dawid-Skene (PR 5)")
    parser.add_argument("--update-incremental", action="store_true",
                        help="run the incremental scenario and rewrite "
                             "BENCH_PR5.json")
    parser.add_argument("--speedwar", action="store_true",
                        help="run the speed-war scenario: O(nnz) GLAD vs the "
                             "seed reference and momentum iterations, gated "
                             "on machine-independent ratios")
    parser.add_argument("--calibrate", action="store_true",
                        help="with --smoke: normalize out machine speed by "
                             "re-timing the frozen reference anchor")
    parser.add_argument("--repeats", type=int, default=3, help="repeats per ranker")
    args = parser.parse_args(argv)

    standalone = (
        args.sharded or args.incremental or args.update_incremental
        or args.speedwar
    )
    if standalone and (args.smoke or args.update or args.capture_seed):
        parser.error(
            "--sharded/--incremental/--update-incremental/--speedwar run a "
            "standalone scenario and cannot be combined with "
            "--smoke/--update/--capture-seed"
        )
    if args.calibrate and not args.smoke:
        parser.error("--calibrate only applies to --smoke")

    if args.speedwar:
        speedwar_results = _run_speedwar(repeats=args.repeats)
        _print_speedwar(speedwar_results)
        failures = _check_speedwar(speedwar_results)
        if failures:
            for failure in failures:
                print("FAIL:", failure)
            return 1
        return 0

    if args.incremental or args.update_incremental:
        incremental_results = _run_incremental()
        _print_incremental(incremental_results)
        failures = _check_incremental(incremental_results)
        if failures:
            for failure in failures:
                print("FAIL:", failure)
            return 1
        if args.update_incremental:
            payload = {
                "environment": _environment(),
                "protocol": {
                    "description": (
                        "single run; a planted-truth crowd (per-item true "
                        "option, per-user ability in [0.4, 0.95], seed 7) "
                        "is split 99%/1%; the base 99% is ranked cold "
                        "through a CrowdSession (capturing solver state in "
                        "the rank cache), the 1% is appended, and the "
                        "re-rank is warm-started from the cached state vs "
                        "a fresh cold solve of the merged matrix.  Gates: "
                        "warm iterations strictly below cold, and the "
                        "warm-vs-cold ranking inversion gap (largest "
                        "cold-score gap over oppositely-ordered user "
                        "pairs) below the per-method tie threshold — "
                        "rankings identical up to users the solver itself "
                        "cannot separate.  HnD runs at tolerance 1e-8 with "
                        "random_state 0; Dawid-Skene at its defaults.  "
                        "Peak RSS via getrusage(RUSAGE_SELF).ru_maxrss."
                    ),
                },
                "incremental": incremental_results,
            }
            INCREMENTAL_RESULTS_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
            )
            print("wrote", INCREMENTAL_RESULTS_PATH)
        return 0

    if args.sharded:
        sharded_results = _run_sharded()
        _print_sharded(sharded_results)
        if sharded_results["cache_speedup"] < CACHE_SPEEDUP_FLOOR:
            print(
                "FAIL: rank-cache warm-hit speedup %.0fx is below the "
                "required %.0fx" % (
                    sharded_results["cache_speedup"], CACHE_SPEEDUP_FLOOR,
                )
            )
            return 1
        return 0

    payload = _load()
    payload.setdefault("protocol", {
        "model": "grm",
        "num_options": 3,
        "random_state": 7,
        "description": (
            "median of N repeats; cold = fresh ResponseMatrix per call "
            "(construction + derived-form builds included), warm = one matrix "
            "instance reused across calls"
        ),
    })
    payload["protocol"]["num_repeats"] = args.repeats

    if args.capture_seed:
        payload["environment_seed"] = _environment()
        payload["seed"] = {
            "full": _run(smoke=False, num_repeats=args.repeats),
            "smoke": _run(smoke=True, num_repeats=args.repeats),
        }
        _save(payload)
        _print_table("seed / full profile", payload["seed"]["full"])
        _print_table("seed / smoke profile", payload["seed"]["smoke"])
        return 0

    if args.update:
        payload["environment"] = _environment()
        current = {
            "full": _run(smoke=False, num_repeats=args.repeats),
            "smoke": _run(smoke=True, num_repeats=args.repeats),
        }
        payload["current"] = current
        payload["calibration"] = _time_calibration_anchor(args.repeats)
        seed = payload.get("seed", {})
        payload["speedup_vs_seed"] = {
            profile: {
                name: round(
                    float(seed[profile][name]["cold_seconds"])
                    / max(float(row["cold_seconds"]), 1e-9),
                    2,
                )
                for name, row in current[profile].items()
                if name in seed.get(profile, {})
            }
            for profile in current
        }
        _save(payload)
        _print_table("current / full profile", current["full"],
                     seed.get("full"))
        _print_table("current / smoke profile", current["smoke"],
                     seed.get("smoke"))
        return 0

    if args.smoke:
        machine_scale = 1.0
        if args.calibrate:
            committed_anchor = payload.get("calibration", {})
            if not committed_anchor:
                print(
                    "FAIL: no committed calibration anchor in %s "
                    "(run --update on a known-good checkout first)" % RESULTS_PATH
                )
                return 1
            fresh_anchor = _time_calibration_anchor(args.repeats)
            machine_scale = float(fresh_anchor["cold_seconds"]) / float(
                committed_anchor["cold_seconds"]
            )
            # Calibration exists so a *slower* runner cannot false-fail;
            # on a faster runner keep the committed reference (scale 1.0)
            # rather than proportionally tightening the gate — measured
            # times shrink with the machine anyway, and an unlucky fast
            # anchor sample must not manufacture regressions.
            machine_scale = max(machine_scale, 1.0)
            print(
                "calibration anchor (%s at %dx%d): %.4fs here vs %.4fs "
                "committed -> machine scale %.2fx"
                % (
                    committed_anchor.get("ranker", "?"),
                    int(committed_anchor["num_users"]),
                    int(committed_anchor["num_items"]),
                    float(fresh_anchor["cold_seconds"]),
                    float(committed_anchor["cold_seconds"]),
                    machine_scale,
                )
            )
        fresh = _run(smoke=True, num_repeats=args.repeats)
        committed = payload.get("current", {}).get("smoke", {})
        _print_table("smoke profile", fresh, payload.get("seed", {}).get("smoke"))
        # A gate with nothing to compare against must fail loudly, not pass
        # vacuously: a deleted baseline file or renamed ranker would
        # otherwise silently disable regression detection.
        if not committed:
            print(
                "FAIL: no committed current.smoke baseline in %s "
                "(run --update on a known-good checkout first)" % RESULTS_PATH
            )
            return 1
        missing = sorted(set(fresh) - set(committed))
        if missing:
            print(
                "FAIL: ranker(s) %s missing from the committed baseline; "
                "rerun --update to re-baseline" % ", ".join(missing)
            )
            return 1
        dropped = sorted(set(committed) - set(fresh))
        if dropped:
            print(
                "FAIL: committed baseline ranker(s) %s no longer measured; "
                "a removed or renamed spec silently shrinks regression "
                "coverage — rerun --update to re-baseline" % ", ".join(dropped)
            )
            return 1
        failures = _check_regression(fresh, committed, machine_scale)
        if failures:
            for failure in failures:
                print("FAIL:", failure)
            return 1
        print(
            "smoke gate passed: no ranker regressed >%.1fx (machine scale %.2f)"
            % (REGRESSION_THRESHOLD, machine_scale)
        )
        return 0

    fresh = _run(smoke=False, num_repeats=args.repeats)
    _print_table("full profile", fresh, payload.get("seed", {}).get("full"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
