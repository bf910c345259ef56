"""Tests for ranking a crowd that arrives as user-range shards.

A crowd is often ingested in pieces (one per log partition, say) that are
fed through :meth:`ResponseBuilder.add_answers
<repro.core.response.ResponseBuilder.add_answers>`.  Every method must rank
the matrix built from 1, 2 or 8 user-range shards, fed in reverse order so
the builder has to re-sort, bit for bit like the matrix built in one piece:
scores, not just rankings.  The degenerate shapes (empty shards, a
single user, more shards than users) and concurrent ranks on one shared
sharded-built matrix are pinned too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseBuilder, ResponseMatrix
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


def _user_range_shards(matrix, num_shards):
    """``matrix``'s answers cut into ``num_shards`` equal user ranges."""
    users, items, options = matrix.triples
    bounds = np.linspace(0, matrix.num_users, num_shards + 1).astype(int)
    cuts = np.searchsorted(users, bounds)
    return [(users[lo:hi], items[lo:hi], options[lo:hi])
            for lo, hi in zip(cuts[:-1], cuts[1:])]


def _build_from_shards(matrix, shards):
    builder = ResponseBuilder(num_items=matrix.num_items,
                              num_options=matrix.num_options)
    for users, items, options in reversed(shards):
        builder.add_answers(users, items, options)
    return builder.build(num_users=matrix.num_users)


def _sharded(matrix, num_shards):
    return _build_from_shards(matrix, _user_range_shards(matrix, num_shards))


@pytest.fixture(scope="module")
def crowd():
    """A mid-size planted-truth crowd shared by the bit-identity tests.

    Per-item truths and per-user abilities give HnD a real eigengap, so it
    converges in tens of iterations.
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


@pytest.fixture(scope="module")
def power_user_crowd():
    """One "power user" answers all 50 items; users 1..50 answer one each."""
    users = np.concatenate([np.zeros(50, dtype=int), np.arange(1, 51)])
    items = np.concatenate([np.arange(50), np.zeros(50, dtype=int)])
    options = np.zeros(100, dtype=int)
    return ResponseMatrix.from_triples(
        users, items, options, shape=(51, 50), num_options=2
    )


class TestSplit:
    """Degenerate shard layouts still build the crowd they came from."""

    def test_more_shards_than_users_is_clamped(self):
        response = _random_response(3, 4, 3, 1.0, seed=0)
        shards = _user_range_shards(response, 16)
        assert sum(users.size > 0 for users, _, _ in shards) == 3
        built = _build_from_shards(response, shards)
        assert built.num_users == 3
        assert np.array_equal(
            rank(built, "MajorityVote").scores,
            MajorityVoteRanker().rank(response).scores,
        )

    def test_single_user_matrix(self):
        response = ResponseMatrix.from_triples(
            [0, 0], [0, 1], [1, 0], shape=(1, 2), num_options=2
        )
        ranking = rank(_sharded(response, 4), "MajorityVote")
        assert ranking.scores.shape == (1,)
        np.testing.assert_array_equal(ranking.diagnostics["discovered_truths"],
                                      response.majority_choices())

    def test_empty_shards_are_noops(self, power_user_crowd):
        empty = tuple(np.zeros(0, dtype=int) for _ in range(3))
        shards = _user_range_shards(power_user_crowd, 2)
        built = _build_from_shards(power_user_crowd,
                                   [empty, shards[0], empty, shards[1], empty])
        hnd = rank(built, "HnD", random_state=0)
        mv = rank(built, "MajorityVote")
        assert np.array_equal(
            hnd.scores, HNDPower(random_state=0).rank(power_user_crowd).scores
        )
        assert np.array_equal(
            mv.scores, MajorityVoteRanker().rank(power_user_crowd).scores
        )


@pytest.mark.parametrize("num_shards", [1, 2, 8])
class TestRankerBitIdentity:
    """Acceptance pin: scores on the sharded build == one-piece scores."""

    def test_majority_vote(self, crowd, num_shards):
        single = MajorityVoteRanker().rank(crowd)
        sharded = rank(_sharded(crowd, num_shards), "MajorityVote")
        assert np.array_equal(sharded.scores, single.scores)
        np.testing.assert_array_equal(
            sharded.diagnostics["discovered_truths"],
            single.diagnostics["discovered_truths"],
        )

    def test_dawid_skene(self, crowd, num_shards):
        single = DawidSkeneRanker().rank(crowd)
        sharded = rank(_sharded(crowd, num_shards), "Dawid-Skene")
        assert np.array_equal(sharded.scores, single.scores)
        assert sharded.diagnostics["iterations"] == single.diagnostics["iterations"]
        assert sharded.diagnostics["converged"] == single.diagnostics["converged"]
        np.testing.assert_array_equal(
            sharded.diagnostics["discovered_truths"],
            single.diagnostics["discovered_truths"],
        )

    def test_hnd_power(self, crowd, num_shards):
        single = HNDPower(random_state=0).rank(crowd)
        sharded = rank(_sharded(crowd, num_shards), "HnD", random_state=0)
        assert np.array_equal(sharded.scores, single.scores)
        assert sharded.diagnostics["iterations"] == single.diagnostics["iterations"]
        assert (
            sharded.diagnostics["symmetry_flipped"]
            == single.diagnostics["symmetry_flipped"]
        )


class TestShardedRankerPlumbing:
    def test_hnd_trivial_matrix(self):
        response = ResponseMatrix.from_triples(
            [0, 0], [0, 1], [1, 0], shape=(1, 2), num_options=2
        )
        ranking = rank(_sharded(response, 2), "HnD", random_state=0)
        assert ranking.scores.shape == (1,)
        assert ranking.diagnostics["converged"]


class TestConcurrentUse:
    def test_concurrent_ranks_on_one_sharding_stay_correct(self, crowd):
        """Service threads sharing one matrix built from 4 shards must not
        clobber each other's results."""
        from concurrent.futures import ThreadPoolExecutor

        shared = _sharded(crowd, 4)
        single_hnd = HNDPower(random_state=0).rank(crowd)
        single_mv = MajorityVoteRanker().rank(crowd)

        def run_hnd(_):
            return rank(shared, "HnD", random_state=0)

        def run_mv(_):
            return rank(shared, "MajorityVote")

        with ThreadPoolExecutor(max_workers=4) as pool:
            hnd_results = list(pool.map(run_hnd, range(3)))
            mv_results = list(pool.map(run_mv, range(3)))
        for ranking in hnd_results:
            assert np.array_equal(ranking.scores, single_hnd.scores)
        for ranking in mv_results:
            assert np.array_equal(ranking.scores, single_mv.scores)
