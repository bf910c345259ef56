"""PR 7 speed-war acceptance tests.

Four performance changes, four contracts:

* **Batched dispatch stays bit-identical**: HnD over the remote backend
  at 1/2/8 shards, with ``iteration_batch`` 1/4/32, produces scores
  bitwise equal to the fused single-process solve — including a run where
  a worker is SIGKILLed mid-solve with batching on, and a run where
  *every* worker dies and the batched loop finishes on the
  coordinator-local fallback.
* **The driver state is fully serializable**: export/restore round-trips
  through JSON (the wire format of a batched dispatch) and resuming from
  the serialized state continues the plain and momentum trajectories
  bit-for-bit.
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

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fault_injection import WorkerFleet, fast_supervision
from repro.api.execution import ExecutionPolicy
from repro.core.avghits import hnd_difference_step
from repro.core.hitsndiffs import HNDPower, hnd_power_solve
from repro.core.response import ResponseMatrix
from repro.engine import (
    ChaosProxy,
    RemoteEngine,
    ShardedResponse,
    rank_hnd_power,
)
from repro.engine.remote.worker import WorkerServer
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


@pytest.fixture(scope="module")
def crowd():
    return planted_crowd(400, 80, 4, 0.25, seed=3)


@pytest.fixture(scope="module")
def reference(crowd):
    """The fused single-process HnD solve the remote backend must reproduce."""
    return HNDPower(random_state=0).rank(crowd)


@pytest.fixture(scope="module")
def servers():
    pair = [WorkerServer(), WorkerServer()]
    for server in pair:
        server.serve_in_background()
    yield pair
    for server in pair:
        server.shutdown()


def _addresses(servers):
    return ["%s:%d" % (server.host, server.port) for server in servers]


def _assert_pinned(ranking, reference, *, backend, batch):
    assert np.array_equal(ranking.scores, reference.scores)
    assert ranking.diagnostics["iterations"] == reference.diagnostics["iterations"]
    assert ranking.diagnostics["backend"] == backend
    assert ranking.diagnostics["iteration_batch"] == batch


# ----------------------------------------------------------------------- #
# Bit-identity: batched dispatch
# ----------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 2, 8])
class TestBatchedBitIdentity:
    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_remote(self, crowd, reference, servers, num_shards, batch):
        sharded = ShardedResponse.split(crowd, num_shards)
        with RemoteEngine(sharded, _addresses(servers),
                          supervision=fast_supervision(),
                          iteration_batch=batch) as engine:
            ranking = rank_hnd_power(engine, random_state=0)
        _assert_pinned(ranking, reference, backend="remote", batch=batch)

    def test_accelerated_batched_matches_accelerated_fused(
            self, crowd, servers, num_shards):
        """Momentum composes with batching: same trajectory, same bits."""
        fused = HNDPower(random_state=0, acceleration="momentum").rank(crowd)
        sharded = ShardedResponse.split(crowd, num_shards)
        with RemoteEngine(sharded, _addresses(servers),
                          supervision=fast_supervision(),
                          iteration_batch=4) as engine:
            ranking = rank_hnd_power(engine, random_state=0,
                                     acceleration="momentum")
        assert np.array_equal(ranking.scores, fused.scores)
        assert (ranking.diagnostics["iterations"]
                == fused.diagnostics["iterations"])
        assert ranking.diagnostics["acceleration"] == "momentum"


class TestBatchedFaults:
    def test_killed_worker_mid_batched_solve_is_bit_identical(
            self, crowd, reference):
        """SIGKILL one of two workers mid-solve with batching on: chunks are
        pure state -> state, so the failover retry keeps the bits."""
        with WorkerFleet(2) as fleet:
            with ChaosProxy("127.0.0.1", fleet.workers[0].port) as proxy:
                proxy.on_request = (
                    lambda count: fleet.kill(0) if count == 10 else None
                )
                sharded = ShardedResponse.split(crowd, 8)
                with RemoteEngine(
                    sharded, [proxy.address, fleet.addresses[1]],
                    supervision=fast_supervision(),
                    iteration_batch=4,
                ) as engine:
                    hnd = rank_hnd_power(engine, random_state=0)
                    diagnostics = engine.diagnostics()
        assert np.array_equal(hnd.scores, reference.scores)
        assert diagnostics["alive_workers"] == 1
        assert diagnostics["reassignments"] >= 1

    def test_total_worker_loss_finishes_batched_solve_locally(
            self, crowd, reference):
        """Every worker dies mid-solve: the batched loop falls back to the
        coordinator-local fused step and still reproduces the bits."""
        with WorkerFleet(1) as fleet:
            with ChaosProxy("127.0.0.1", fleet.workers[0].port) as proxy:
                proxy.on_request = (
                    lambda count: fleet.kill(0) if count == 10 else None
                )
                sharded = ShardedResponse.split(crowd, 2)
                with RemoteEngine(
                    sharded, [proxy.address],
                    supervision=fast_supervision(),
                    iteration_batch=4,
                ) as engine:
                    hnd = rank_hnd_power(engine, random_state=0)
        assert np.array_equal(hnd.scores, reference.scores)


# ----------------------------------------------------------------------- #
# Driver state serialization (the substrate of batched dispatch)
# ----------------------------------------------------------------------- #
@pytest.mark.parametrize("acceleration", [None, "momentum"])
class TestDriverSerialization:
    def _matvec(self, crowd):
        return hnd_difference_step(crowd)

    def test_json_round_trip_resumes_bit_identically(self, crowd, acceleration):
        # HnD iterates on the score-*difference* vector, size m - 1.
        matvec, size = self._matvec(crowd), crowd.num_users - 1
        straight = PowerIterationDriver(matvec, size, random_state=0,
                                        acceleration=acceleration)
        straight.advance()
        chunked = PowerIterationDriver(matvec, size, random_state=0,
                                       acceleration=acceleration)
        while not chunked.finished:
            chunked.advance(steps=7)
            meta, arrays = chunked.export_state()
            # The wire format: JSON meta (big-int RNG state, +/-inf residual
            # included) plus raw float64 arrays.
            meta = json.loads(json.dumps(meta))
            chunked = PowerIterationDriver.from_state(matvec, meta, arrays)
        assert chunked.iterations == straight.iterations
        assert np.array_equal(chunked.result().vector, straight.result().vector)
        assert chunked.result().eigenvalue == straight.result().eigenvalue

    def test_restore_rejects_wrong_size(self, crowd, acceleration):
        matvec, size = self._matvec(crowd), crowd.num_users - 1
        driver = PowerIterationDriver(matvec, size, random_state=0,
                                      acceleration=acceleration)
        driver.advance(steps=3)
        meta, arrays = driver.export_state()
        other = PowerIterationDriver(lambda v: v, size + 1, random_state=0)
        with pytest.raises(ValueError):
            other.restore_state(meta, arrays)


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


# ----------------------------------------------------------------------- #
# ExecutionPolicy plumbing
# ----------------------------------------------------------------------- #
class TestPolicyIterationBatch:
    def test_default_and_validation(self):
        assert ExecutionPolicy().iteration_batch == 1
        with pytest.raises(ValueError, match="iteration_batch"):
            ExecutionPolicy(iteration_batch=0)

    @pytest.mark.parametrize("knobs", [
        {"iteration_batch": 32},
        {"shards": 4},
        {"shards": 2, "iteration_batch": 4},
    ])
    def test_rejected_without_remote_workers(self, knobs):
        """Remote-only knobs on the fused backend raise instead of being
        silently kept (e.g. ``iteration_batch=32`` with no workers)."""
        with pytest.raises(ValueError, match="remote_workers"):
            ExecutionPolicy(**knobs)

    @pytest.mark.parametrize("knob", ["backend", "workers"])
    def test_removed_knobs_are_gone(self, knob):
        """The backend follows from ``remote_workers``; there is no
        ``backend`` or worker-count knob left to ignore."""
        with pytest.raises(TypeError):
            ExecutionPolicy(**{knob: 4})

    def test_accepted_for_round_trip_backends(self):
        policy = ExecutionPolicy(remote_workers=["127.0.0.1:9101"], shards=2,
                                 iteration_batch=8)
        assert policy.iteration_batch == 8
        assert policy.resolved_backend == "remote"

    def test_batched_policy_rank_is_bit_identical(self, crowd, reference,
                                                  servers):
        from repro.api import rank

        policy = ExecutionPolicy(remote_workers=_addresses(servers), shards=2,
                                 supervision=fast_supervision(),
                                 iteration_batch=8)
        ranking = rank(crowd, "HnD", execution=policy, random_state=0)
        assert np.array_equal(ranking.scores, reference.scores)
        assert ranking.diagnostics["iteration_batch"] == 8
