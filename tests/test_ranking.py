"""Tests for AbilityRanking / AbilityRanker result objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ranking import AbilityRanker, AbilityRanking, ranking_from_scores


class TestAbilityRanking:
    def test_order_sorts_ascending(self):
        ranking = AbilityRanking(scores=np.array([0.3, 0.1, 0.9]), method="test")
        np.testing.assert_array_equal(ranking.order, [1, 0, 2])

    def test_ranks_with_ties_are_averaged(self):
        ranking = AbilityRanking(scores=np.array([1.0, 1.0, 2.0]), method="test")
        np.testing.assert_allclose(ranking.ranks, [0.5, 0.5, 2.0])

    def test_top_and_bottom_users(self):
        ranking = AbilityRanking(scores=np.array([0.3, 0.1, 0.9, 0.5]), method="test")
        np.testing.assert_array_equal(ranking.top_users(2), [2, 3])
        np.testing.assert_array_equal(ranking.bottom_users(2), [1, 0])

    def test_top_users_negative_count_rejected(self):
        ranking = AbilityRanking(scores=np.array([1.0, 2.0]), method="test")
        with pytest.raises(ValueError):
            ranking.top_users(-1)
        with pytest.raises(ValueError):
            ranking.bottom_users(-1)

    def test_reversed_flips_order(self):
        ranking = AbilityRanking(scores=np.array([0.1, 0.5, 0.3]), method="test")
        np.testing.assert_array_equal(ranking.reversed().order, ranking.order[::-1])
        assert ranking.reversed().diagnostics["reversed"] is True

    def test_scores_flattened_to_1d(self):
        ranking = AbilityRanking(scores=np.array([[1.0], [2.0]]), method="test")
        assert ranking.scores.shape == (2,)
        assert ranking.num_users == 2

    def test_ranking_from_scores_helper(self):
        ranking = ranking_from_scores([1, 2, 3], "helper", {"note": "x"})
        assert ranking.method == "helper"
        assert ranking.diagnostics["note"] == "x"


class TestAbilityRankerBase:
    def test_rank_is_abstract(self):
        with pytest.raises(NotImplementedError):
            AbilityRanker().rank(None)

    def test_repr_contains_name(self):
        assert "ranker" in repr(AbilityRanker())


class TestStablePick:
    """``top_users``/``bottom_users`` and the decile pick select without a
    full sort, and return exactly what the stable argsort's slices do."""

    def test_matches_the_stable_argsort_on_tie_heavy_scores(self):
        rng = np.random.default_rng(2024)
        levels = np.array([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf])
        for case in range(3000):
            size = int(rng.integers(1, 80))
            scores = rng.choice(levels[: rng.integers(1, levels.size + 1)], size)
            if case % 10 == 0:
                scores[rng.integers(0, size)] = np.nan
            count = int(rng.integers(0, size + 3))
            order = np.argsort(scores, kind="stable")
            ranking = AbilityRanking(scores=scores, method="test")
            np.testing.assert_array_equal(ranking.bottom_users(count), order[:count])
            np.testing.assert_array_equal(ranking.top_users(count),
                                          order[::-1][:count])

    def test_top_users_break_ties_towards_the_later_user(self):
        ranking = AbilityRanking(scores=np.array([1.0, 2.0, 2.0, 0.0, 2.0]),
                                 method="test")
        np.testing.assert_array_equal(ranking.top_users(2), [4, 2])
        np.testing.assert_array_equal(ranking.bottom_users(3), [3, 0, 1])
        assert ranking.top_users(0).dtype == ranking.order.dtype
