"""PR 7 speed-war acceptance tests.

Two performance changes, two contracts:

* **Accelerated HnD is ranking-equivalent**: a hypothesis sweep over
  planted-truth crowds pins ``ranking_inversion_gap(plain, momentum)``
  under the 1e-5 tie bound, and a diverging accelerated solve falls back
  to one plain rerun (``acceleration="fallback-plain"``).
* **GLAD's M-step is O(nnz)**: ranking the canonical sparse crowd never
  materializes a dense ``(m, n)`` array — gated by a forbidden
  ``_materialize_dense`` monkeypatch plus a ``tracemalloc`` peak-memory
  bound far below the dense table's footprint.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitsndiffs import HNDPower, hnd_power_solve
from repro.core.response import ResponseMatrix
from repro.evaluation.metrics import ranking_inversion_gap
from repro.linalg.power_iteration import PowerIterationDriver
from repro.truth_discovery.glad import GLADRanker


def planted_crowd(num_users, num_items, num_options, density, seed):
    """Planted-truth crowd: per-item truth, per-user ability in [0.4, 0.95]."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, num_options, size=num_items)
    ability = rng.uniform(0.4, 0.95, size=num_users)
    mask = rng.random((num_users, num_items)) < density
    mask[0, 0] = True
    users, items = np.nonzero(mask)
    correct = rng.random(users.size) < ability[users]
    wrong = (
        truth[items] + rng.integers(1, num_options, size=users.size)
    ) % num_options
    options = np.where(correct, truth[items], wrong)
    return ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )


# ----------------------------------------------------------------------- #
# Accelerated HnD: ranking equivalence and fallback
# ----------------------------------------------------------------------- #
class TestAcceleratedHnD:
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_momentum_within_tie_bound_on_planted_crowds(self, data):
        num_users = data.draw(st.integers(20, 120), label="num_users")
        num_items = data.draw(st.integers(8, 30), label="num_items")
        num_options = data.draw(st.integers(2, 4), label="num_options")
        density = data.draw(st.floats(0.2, 0.8), label="density")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        crowd = planted_crowd(num_users, num_items, num_options, density, seed)
        plain = HNDPower(random_state=0, tolerance=1e-8).rank(crowd)
        accel = HNDPower(random_state=0, tolerance=1e-8,
                         acceleration="momentum").rank(crowd)
        assert accel.diagnostics["acceleration"] in ("momentum",
                                                     "fallback-plain")
        assert ranking_inversion_gap(plain.scores, accel.scores) <= 1e-5

    def test_momentum_cuts_iterations_on_the_acceptance_crowd(self):
        crowd = planted_crowd(800, 120, 4, 0.2, seed=11)
        plain = HNDPower(random_state=0, tolerance=1e-10).rank(crowd)
        accel = HNDPower(random_state=0, tolerance=1e-10,
                         acceleration="momentum").rank(crowd)
        assert accel.diagnostics["acceleration"] == "momentum"
        # The ISSUE gate: >= 30% fewer iterations than the plain solve.
        assert (accel.diagnostics["iterations"]
                <= 0.7 * plain.diagnostics["iterations"])
        assert ranking_inversion_gap(plain.scores, accel.scores) <= 1e-5

    def test_diverging_accelerated_solve_falls_back_to_plain(self):
        """A matvec that explodes on its first application kills the
        accelerated attempt; the plain rerun converges and the result is
        relabeled ``fallback-plain``."""
        calls = {"n": 0}

        def matvec(vector):
            calls["n"] += 1
            if calls["n"] == 1:
                return np.full(vector.size, np.inf)
            return 0.5 * vector

        with np.errstate(invalid="ignore"):
            result, _, _ = hnd_power_solve(
                matvec, 16, tolerance=1e-8, max_iterations=200,
                random_state=0, acceleration="momentum",
            )
        assert result.acceleration == "fallback-plain"
        assert result.converged

    def test_unknown_acceleration_rejected(self):
        with pytest.raises(ValueError, match="acceleration"):
            PowerIterationDriver(lambda v: v, 4, acceleration="nesterov")


# ----------------------------------------------------------------------- #
# GLAD: O(nnz) M-step, no dense (m, n) hot path
# ----------------------------------------------------------------------- #
class TestGLADNoDense:
    def test_rank_never_materializes_dense(self, monkeypatch):
        m, n, answers_per_user = 1500, 1200, 12
        rng = np.random.default_rng(5)
        users = np.repeat(np.arange(m), answers_per_user)
        # Distinct items per user (stride 97 is coprime to n, so the
        # answers_per_user offsets never collide) without dense sampling.
        items = (users * 17 + np.tile(np.arange(answers_per_user), m) * 97) % n
        options = rng.integers(0, 3, size=users.size)
        crowd = ResponseMatrix.from_triples(
            users, items, options, shape=(m, n), num_options=3,
        )
        crowd.compiled  # compile outside the traced window

        def forbidden(self):  # pragma: no cover - failure path
            raise AssertionError("GLAD materialized the dense matrix")

        monkeypatch.setattr(ResponseMatrix, "_materialize_dense", forbidden)
        tracemalloc.start()
        try:
            ranking = GLADRanker(max_iterations=3).rank(crowd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(ranking.scores))
        # A single dense (m, n) float64 table would be ~14.4 MB; the O(nnz)
        # hot path stays an order of magnitude below it.
        assert peak < 4 * 1024 * 1024
