"""Tests for the unified ``rank()`` entry point and its ``cache=`` argument.

Every method runs on its fused ``O(nnz)`` kernels; ``cache=`` is the one
execution setting.  These pin that ``rank()`` reproduces the ranker class,
validates method names and parameters, bypasses the cache for
nondeterministic configurations, and rejects a ``cache=`` of the wrong
type before doing any work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import RankCache


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


class TestUnifiedRank:
    """rank(matrix, name, cache=...) — the acceptance surface."""

    def test_rank_matches_the_ranker_class(self, crowd):
        ranking = rank(crowd, "HnD", random_state=0)
        reference = HNDPower(random_state=0).rank(crowd)
        assert np.array_equal(ranking.scores, reference.scores)

    def test_unknown_method_has_hint(self, crowd):
        with pytest.raises(KeyError, match="did you mean"):
            rank(crowd, "majority-vote-ish")

    def test_method_params_are_validated(self, crowd):
        with pytest.raises(TypeError, match="did you mean 'tolerance'"):
            rank(crowd, "HnD", tol=1e-9)

    def test_nondeterministic_random_state_bypasses_cache(self, crowd):
        cache = RankCache()
        rank(crowd, "HnD", cache=cache)
        assert cache.stats()["bypasses"] == 1

    @pytest.mark.parametrize("call,type_name", [
        (lambda m: rank(m, "HnD", random_state=0, cache=False), "bool"),
        (lambda m: rank(m, "HnD", random_state=0, cache=0), "int"),
        (lambda m: rank(m, "HnD", random_state=0, cache=16), "int"),
        # Checked before the method lookup: no KeyError, no solve.
        (lambda m: rank(m, "no-such-method", cache={}), "dict"),
    ], ids=["rank-False", "rank-0", "rank-int", "rank-before-lookup"])
    def test_wrong_cache_type_rejected(self, crowd, call, type_name):
        """``rank`` takes a RankCache or None (a session builds its own)."""
        with pytest.raises(TypeError,
                           match=r"cache must be .* got %s$" % type_name):
            call(crowd)
