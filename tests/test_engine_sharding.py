"""Tests for user-range sharding and the rank API over it.

Covers the shard plan :class:`RemoteEngine` computes from a matrix and a
shard count, ``repro.api.rank`` over the remote backend matching the fused
backend bit for bit (scores, not just rankings) across 1/2/8 shards, and
the degenerate shapes (empty shards, single user, more shards than users).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionPolicy, rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import RemoteEngine, rank_hnd_power, rank_majority_vote
from repro.truth_discovery.dawid_skene import DawidSkeneRanker
from repro.truth_discovery.majority import MajorityVoteRanker


def _random_response(num_users, num_items, num_options, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < density
    if not mask.any():
        mask[0, 0] = True
    users, items = np.nonzero(mask)
    options = rng.integers(0, num_options, size=users.size)
    return ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )


@pytest.fixture(scope="module")
def crowd():
    """A mid-size planted-truth crowd shared by the bit-identity tests.

    Per-item truths and per-user abilities give HnD a real eigengap, so it
    converges in tens of iterations and the remote solves stay quick.
    """
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 4, size=120)
    ability = rng.uniform(0.4, 0.95, size=700)
    users, items = np.nonzero(rng.random((700, 120)) < 0.25)
    correct = rng.random(users.size) < ability[users]
    wrong = (truth[items] + rng.integers(1, 4, size=users.size)) % 4
    return ResponseMatrix.from_triples(
        users, items, np.where(correct, truth[items], wrong),
        shape=(700, 120), num_options=4,
    )


class TestSplit:
    """The shard plan :class:`RemoteEngine` computes from a shard count."""

    def test_shards_tile_the_user_range(self, crowd, remote_workers):
        with RemoteEngine(crowd, remote_workers, shards=8) as engine:
            assert engine.num_shards == 8
            boundaries, cuts = engine.boundaries, engine.answer_cuts
        assert boundaries[0] == 0 and boundaries[-1] == crowd.num_users
        assert np.all(np.diff(boundaries) >= 0)
        assert cuts[0] == 0 and cuts[-1] == crowd.num_answers
        # Each answer range is exactly the answers of its user range.
        users, _, _ = crowd.triples
        for shard in range(8):
            owned = users[cuts[shard]:cuts[shard + 1]]
            assert np.all(owned >= boundaries[shard])
            assert np.all(owned < boundaries[shard + 1])

    def test_shard_triples_are_views_of_the_canonical_arrays(
        self, crowd, remote_workers
    ):
        users, _, _ = crowd.triples
        with RemoteEngine(crowd, remote_workers, shards=4) as engine:
            meta, arrays = engine._shard_payload(1)
            lo, hi = engine.answer_cuts[1], engine.answer_cuts[2]
        assert arrays["users"].base is users or arrays["users"].base is users.base
        # Zero-copy: the shipped slices read back the canonical memory.
        np.testing.assert_array_equal(arrays["users"], users[lo:hi])
        assert (meta["user_start"], meta["user_stop"]) == (
            engine.boundaries[1], engine.boundaries[2]
        )

    def test_split_balances_answers_not_users(self, power_user_crowd,
                                              remote_workers):
        with RemoteEngine(power_user_crowd, remote_workers, shards=2) as engine:
            cuts = engine.answer_cuts
            boundaries = engine.boundaries
        assert cuts[-1] == 100
        # The heavy user's block is not split (user ranges are atomic).
        assert boundaries[1] >= 1
        # Pinned: one answer quarter per shard, so the first owns no user.
        with RemoteEngine(power_user_crowd, remote_workers, shards=4) as engine:
            np.testing.assert_array_equal(engine.boundaries, [0, 0, 1, 26, 51])
            np.testing.assert_array_equal(engine.answer_cuts,
                                          [0, 0, 50, 75, 100])

    def test_more_shards_than_users_is_clamped(self, remote_workers):
        response = _random_response(3, 4, 3, 1.0, seed=0)
        with RemoteEngine(response, remote_workers, shards=16) as engine:
            assert engine.num_shards == 3
            assert engine.boundaries[-1] == 3

    def test_single_user_matrix(self, remote_workers):
        response = ResponseMatrix.from_triples(
            [0, 0], [0, 1], [1, 0], shape=(1, 2), num_options=2
        )
        ranking = rank(response, "MajorityVote",
                       execution=ExecutionPolicy(remote_workers=remote_workers,
                                                 shards=4))
        assert ranking.diagnostics["num_shards"] == 1
        assert ranking.scores.shape == (1,)
        np.testing.assert_array_equal(ranking.diagnostics["discovered_truths"],
                                      response.majority_choices())

    def test_empty_shards_are_noops(self, power_user_crowd, remote_workers):
        with RemoteEngine(power_user_crowd, remote_workers,
                          shards=4) as engine:
            assert engine.answer_cuts[0] == engine.answer_cuts[1]  # empty
            hnd = rank_hnd_power(engine, random_state=0)
            mv = rank_majority_vote(engine)
        assert np.array_equal(
            hnd.scores, HNDPower(random_state=0).rank(power_user_crowd).scores
        )
        assert np.array_equal(
            mv.scores, MajorityVoteRanker().rank(power_user_crowd).scores
        )

    def test_invalid_shard_count_rejected(self, crowd, remote_workers):
        with pytest.raises(ValueError, match="shards"):
            RemoteEngine(crowd, remote_workers, shards=0)


def _remote(remote_workers, num_shards):
    return ExecutionPolicy(remote_workers=remote_workers, shards=num_shards)


@pytest.mark.parametrize("num_shards", [1, 2, 8])
class TestRankerBitIdentity:
    """Acceptance pin: remote scores == fused scores exactly."""

    def test_majority_vote(self, crowd, remote_workers, num_shards):
        single = MajorityVoteRanker().rank(crowd)
        sharded = rank(crowd, "MajorityVote",
                       execution=_remote(remote_workers, num_shards))
        assert np.array_equal(sharded.scores, single.scores)
        np.testing.assert_array_equal(
            sharded.diagnostics["discovered_truths"],
            single.diagnostics["discovered_truths"],
        )

    def test_dawid_skene(self, crowd, remote_workers, num_shards):
        single = DawidSkeneRanker().rank(crowd)
        sharded = rank(crowd, "Dawid-Skene",
                       execution=_remote(remote_workers, num_shards))
        assert np.array_equal(sharded.scores, single.scores)
        assert sharded.diagnostics["iterations"] == single.diagnostics["iterations"]
        assert sharded.diagnostics["converged"] == single.diagnostics["converged"]
        np.testing.assert_array_equal(
            sharded.diagnostics["discovered_truths"],
            single.diagnostics["discovered_truths"],
        )

    def test_hnd_power(self, crowd, remote_workers, num_shards):
        single = HNDPower(random_state=0).rank(crowd)
        sharded = rank(crowd, "HnD", random_state=0,
                       execution=_remote(remote_workers, num_shards))
        assert np.array_equal(sharded.scores, single.scores)
        assert sharded.diagnostics["iterations"] == single.diagnostics["iterations"]
        assert (
            sharded.diagnostics["symmetry_flipped"]
            == single.diagnostics["symmetry_flipped"]
        )


class TestShardedRankerPlumbing:
    def test_diagnostics_report_the_engine(self, crowd, remote_workers):
        ranking = rank(crowd, "Dawid-Skene",
                       execution=_remote(remote_workers, 2))
        assert ranking.diagnostics["engine"] == "sharded"
        assert ranking.diagnostics["backend"] == "remote"
        assert ranking.diagnostics["num_shards"] == 2
        assert ranking.method == "Dawid-Skene"

    def test_hnd_trivial_matrix(self, remote_workers):
        response = ResponseMatrix.from_triples(
            [0, 0], [0, 1], [1, 0], shape=(1, 2), num_options=2
        )
        ranking = rank(response, "HnD", random_state=0,
                       execution=_remote(remote_workers, 2))
        assert ranking.scores.shape == (1,)
        assert ranking.diagnostics["converged"]


class TestConcurrentUse:
    def test_concurrent_ranks_on_one_sharding_stay_correct(self, crowd,
                                                           remote_workers):
        """Service threads sharing one matrix (each with its own 4-shard
        remote engine) must not clobber each other's results."""
        from concurrent.futures import ThreadPoolExecutor

        policy = _remote(remote_workers, 4)
        single_hnd = HNDPower(random_state=0).rank(crowd)
        single_mv = MajorityVoteRanker().rank(crowd)

        def run_hnd(_):
            return rank(crowd, "HnD", random_state=0, execution=policy)

        def run_mv(_):
            return rank(crowd, "MajorityVote", execution=policy)

        with ThreadPoolExecutor(max_workers=4) as pool:
            hnd_results = list(pool.map(run_hnd, range(3)))
            mv_results = list(pool.map(run_mv, range(3)))
        for ranking in hnd_results:
            assert np.array_equal(ranking.scores, single_hnd.scores)
        for ranking in mv_results:
            assert np.array_equal(ranking.scores, single_mv.scores)
