"""Tests for ``ExecutionPolicy`` and the unified ``rank()`` entry point.

Two backends exist: fused (the default) and remote (exactly when
``remote_workers`` is set).  These pin the policy's validation, the
bit-identity of the two backends through ``rank()``, and the rank-cache
contract that one entry serves both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionPolicy, rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import RankCache, ShardedResponse, SupervisionConfig
from repro.truth_discovery.majority import MajorityVoteRanker


@pytest.fixture(scope="module")
def crowd():
    """Planted truths and abilities: HnD converges in tens of iterations."""
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 4, size=80)
    ability = rng.uniform(0.4, 0.95, size=400)
    users, items = np.nonzero(rng.random((400, 80)) < 0.25)
    correct = rng.random(users.size) < ability[users]
    wrong = (truth[items] + rng.integers(1, 4, size=users.size)) % 4
    return ResponseMatrix.from_triples(
        users, items, np.where(correct, truth[items], wrong),
        shape=(400, 80), num_options=4,
    )


class TestExecutionPolicy:
    def test_backend_follows_remote_workers(self):
        assert ExecutionPolicy().resolved_backend == "fused"
        policy = ExecutionPolicy(remote_workers=["127.0.0.1:9101"], shards=4)
        assert policy.resolved_backend == "remote"

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ExecutionPolicy(shards=0)
        with pytest.raises(ValueError, match="iteration_batch"):
            ExecutionPolicy(iteration_batch=0)
        with pytest.raises(ValueError, match="at least one"):
            ExecutionPolicy(remote_workers=[])
        with pytest.raises(ValueError, match="supervision"):
            ExecutionPolicy(supervision=SupervisionConfig())


class TestUnifiedRank:
    """rank(matrix, name, execution=...) — the acceptance surface."""

    def test_all_backends_bit_identical(self, crowd, remote_workers):
        fused = rank(crowd, "HnD", random_state=0)
        remote = rank(
            crowd, "HnD", random_state=0,
            execution=ExecutionPolicy(remote_workers=remote_workers, shards=8),
        )
        reference = HNDPower(random_state=0).rank(crowd)
        for ranking in (fused, remote):
            assert np.array_equal(ranking.scores, reference.scores)

    def test_presplit_sharding_is_reused(self, crowd, remote_workers):
        reference = MajorityVoteRanker().rank(crowd)
        sharded = ShardedResponse.split(crowd, 3)
        ranking = rank(
            sharded, "MajorityVote",
            execution=ExecutionPolicy(remote_workers=remote_workers, shards=99),
        )
        assert ranking.diagnostics["num_shards"] == 3
        assert np.array_equal(ranking.scores, reference.scores)
        fused = rank(sharded, "MajorityVote")
        assert np.array_equal(fused.scores, reference.scores)

    def test_unknown_method_has_hint(self, crowd):
        with pytest.raises(KeyError, match="did you mean"):
            rank(crowd, "majority-vote-ish")

    def test_unsharded_method_rejected_on_sharded_backend(self, crowd):
        # Rejected before any socket is opened: the address is never dialed.
        with pytest.raises(ValueError, match="no shard-parallel kernels"):
            rank(crowd, "HITS",
                 execution=ExecutionPolicy(remote_workers=["127.0.0.1:9"]))

    def test_method_params_are_validated(self, crowd):
        with pytest.raises(TypeError, match="did you mean 'tolerance'"):
            rank(crowd, "HnD", tol=1e-9)

    def test_cache_shared_across_backends(self, crowd):
        """The backends are bit-identical, so one cache entry serves both:
        a fused-computed entry answers a remote-policy call without ever
        dialing the (unreachable) workers."""
        cache = RankCache()
        first = rank(crowd, "MajorityVote",
                     execution=ExecutionPolicy(cache=cache))
        warm = rank(
            crowd, "MajorityVote",
            execution=ExecutionPolicy(remote_workers=["127.0.0.1:9"], shards=4,
                                      cache=cache),
        )
        assert warm is first
        assert cache.stats() == {"hits": 1, "misses": 1, "bypasses": 0,
                                 "disk_hits": 0, "size": 1}

    def test_nondeterministic_random_state_bypasses_cache(self, crowd):
        cache = RankCache()
        rank(crowd, "HnD", execution=ExecutionPolicy(cache=cache))
        assert cache.stats()["bypasses"] == 1

    def test_rank_level_cache_overrides_policy(self, crowd):
        policy_cache = RankCache()
        override = RankCache()
        rank(crowd, "MajorityVote",
             execution=ExecutionPolicy(cache=policy_cache), cache=override)
        assert policy_cache.stats()["misses"] == 0
        assert override.stats()["misses"] == 1
