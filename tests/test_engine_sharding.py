"""Tests for user-range sharding and the rank API over it.

Covers the :class:`ShardedResponse` split / ``from_shards`` round-trip,
``repro.api.rank`` over the remote backend matching the fused backend
bit for bit (scores, not just rankings) across 1/2/8 shards, and the
degenerate shapes (empty shards, single user, more shards than users).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import ResponseShard, ShardedResponse
from repro.exceptions import InvalidResponseMatrixError
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
    def test_shards_tile_the_user_range(self, crowd):
        sharded = ShardedResponse.split(crowd, 8)
        assert sharded.num_shards == 8
        assert sharded.shards[0].user_start == 0
        assert sharded.shards[-1].user_stop == crowd.num_users
        for left, right in zip(sharded.shards, sharded.shards[1:]):
            assert left.user_stop == right.user_start
        assert sum(s.num_answers for s in sharded.shards) == crowd.num_answers

    def test_shard_triples_are_views_of_the_canonical_arrays(self, crowd):
        sharded = ShardedResponse.split(crowd, 4)
        users, _, _ = crowd.triples
        shard = sharded.shards[0]
        assert shard.users.base is users or shard.users.base is users.base
        # Zero-copy: the slices read back the canonical memory directly.
        lo, hi = sharded.answer_cuts[1], sharded.answer_cuts[2]
        np.testing.assert_array_equal(sharded.shards[1].users, users[lo:hi])

    def test_split_balances_answers_not_users(self):
        # One "power user" answers everything; the others answer one item.
        users = np.concatenate([np.zeros(50, dtype=int), np.arange(1, 51)])
        items = np.concatenate([np.arange(50), np.zeros(50, dtype=int)])
        options = np.zeros(100, dtype=int)
        response = ResponseMatrix.from_triples(
            users, items, options, shape=(51, 50), num_options=2
        )
        sharded = ShardedResponse.split(response, 2)
        counts = [s.num_answers for s in sharded.shards]
        assert sum(counts) == 100
        # The heavy user's block is not split (user ranges are atomic).
        assert sharded.boundaries[1] >= 1

    def test_more_shards_than_users_is_clamped(self):
        response = _random_response(3, 4, 3, 1.0, seed=0)
        sharded = ShardedResponse.split(response, 16)
        assert sharded.num_shards <= 3
        assert sharded.shards[-1].user_stop == 3

    def test_single_user_matrix(self, remote_workers):
        response = ResponseMatrix.from_triples(
            [0, 0], [0, 1], [1, 0], shape=(1, 2), num_options=2
        )
        sharded = ShardedResponse.split(response, 4)
        assert sharded.num_shards == 1
        ranking = rank(sharded, "MajorityVote",
                       execution=ExecutionPolicy(remote_workers=remote_workers))
        assert ranking.scores.shape == (1,)
        np.testing.assert_array_equal(ranking.diagnostics["discovered_truths"],
                                      response.majority_choices())

    def test_empty_shards_are_noops(self, crowd, remote_workers):
        # Boundaries with a deliberately empty middle shard.
        m = crowd.num_users
        sharded = ShardedResponse(crowd, [0, 300, 300, m])
        assert sharded.shards[1].num_answers == 0
        ranking = rank(sharded, "HnD", random_state=0,
                       execution=ExecutionPolicy(remote_workers=remote_workers))
        fused = HNDPower(random_state=0).rank(crowd)
        assert np.array_equal(ranking.scores, fused.scores)

    def test_invalid_boundaries_rejected(self, crowd):
        with pytest.raises(ValueError, match="start at 0"):
            ShardedResponse(crowd, [1, crowd.num_users])
        with pytest.raises(ValueError, match="non-decreasing"):
            ShardedResponse(crowd, [0, 400, 300, crowd.num_users])
        with pytest.raises(ValueError, match="num_shards"):
            ShardedResponse.split(crowd, 0)


class TestFromShards:
    def test_round_trip_is_equal_and_hash_equal(self, crowd):
        sharded = ShardedResponse.split(crowd, 8)
        rebuilt = ShardedResponse.from_shards(
            sharded.shards,
            shape=(crowd.num_users, crowd.num_items),
            num_options=crowd.num_options,
        )
        assert rebuilt.source == crowd
        assert hash(rebuilt.source) == hash(crowd)
        assert rebuilt.source.content_hash() == crowd.content_hash()

    def test_non_consecutive_shards_rejected(self, crowd):
        sharded = ShardedResponse.split(crowd, 4)
        shards = [sharded.shards[0], sharded.shards[2]]
        with pytest.raises(InvalidResponseMatrixError, match="consecutively"):
            ShardedResponse.from_shards(
                shards,
                shape=(crowd.num_users, crowd.num_items),
                num_options=crowd.num_options,
            )

    def test_coverage_must_match_declared_shape(self, crowd):
        sharded = ShardedResponse.split(crowd, 4)
        with pytest.raises(InvalidResponseMatrixError, match="declares"):
            ShardedResponse.from_shards(
                sharded.shards[:-1],
                shape=(crowd.num_users, crowd.num_items),
                num_options=crowd.num_options,
            )

    def test_empty_shard_list_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="at least one"):
            ShardedResponse.from_shards([], shape=(1, 1), num_options=2)

    @given(
        num_users=st.integers(min_value=1, max_value=30),
        num_items=st.integers(min_value=1, max_value=8),
        num_shards=st.integers(min_value=1, max_value=9),
        density=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_from_shards_round_trip_property(
        self, num_users, num_items, num_shards, density, seed
    ):
        """``from_shards(split(k)) == original`` (and hash-equal) for any k."""
        response = _random_response(num_users, num_items, 3, density, seed)
        sharded = ShardedResponse.split(response, num_shards)
        rebuilt = ShardedResponse.from_shards(
            sharded.shards,
            shape=(num_users, num_items),
            num_options=response.num_options,
        )
        assert rebuilt.source == response
        assert hash(rebuilt.source) == hash(response)
        assert rebuilt.source.content_hash() == response.content_hash()


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
    def test_rankers_accept_a_presplit_sharding(self, crowd, remote_workers):
        sharded = ShardedResponse.split(crowd, 3)
        direct = rank(sharded, "MajorityVote",
                      execution=_remote(remote_workers, 99))
        assert direct.diagnostics["num_shards"] == 3
        single = MajorityVoteRanker().rank(crowd)
        assert np.array_equal(direct.scores, single.scores)

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

    def test_shard_repr_and_local_users(self, crowd):
        sharded = ShardedResponse.split(crowd, 4)
        shard = sharded.shards[1]
        assert isinstance(shard, ResponseShard)
        assert shard.local_users.min() >= 0
        assert shard.local_users.max() < shard.num_users
        assert "ResponseShard" in repr(shard)


class TestConcurrentUse:
    def test_concurrent_ranks_on_one_sharding_stay_correct(self, crowd,
                                                           remote_workers):
        """Service threads sharing one ShardedResponse (each with its own
        remote engine) must not clobber each other's results."""
        from concurrent.futures import ThreadPoolExecutor

        sharded = ShardedResponse.split(crowd, 4)
        policy = _remote(remote_workers, 4)
        single_hnd = HNDPower(random_state=0).rank(crowd)
        single_mv = MajorityVoteRanker().rank(crowd)

        def run_hnd(_):
            return rank(sharded, "HnD", random_state=0, execution=policy)

        def run_mv(_):
            return rank(sharded, "MajorityVote", execution=policy)

        with ThreadPoolExecutor(max_workers=4) as pool:
            hnd_results = list(pool.map(run_hnd, range(3)))
            mv_results = list(pool.map(run_mv, range(3)))
        for ranking in hnd_results:
            assert np.array_equal(ranking.scores, single_hnd.scores)
        for ranking in mv_results:
            assert np.array_equal(ranking.scores, single_mv.scores)
