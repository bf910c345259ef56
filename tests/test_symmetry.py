"""Tests for the decile-entropy symmetry-breaking heuristic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.symmetry import decile_entropies, orient_scores
from repro.irt.generators import generate_dataset


def _guessing_dataset():
    """Samejima data where low-ability users guess: entropy separates deciles."""
    return generate_dataset("samejima", 100, 150, 4, random_state=3)


class TestDecileEntropies:
    def test_high_ability_decile_has_lower_entropy(self):
        dataset = _guessing_dataset()
        # Feed the true abilities as scores: the top decile really is better.
        bottom, top = decile_entropies(dataset.response, dataset.abilities)
        assert top < bottom

    def test_group_size_at_least_one(self):
        dataset = generate_dataset("grm", 5, 10, 3, random_state=1)
        bottom, top = decile_entropies(dataset.response, dataset.abilities, decile=0.1)
        assert np.isfinite(bottom) and np.isfinite(top)

    def test_wrong_score_length_rejected(self):
        dataset = generate_dataset("grm", 10, 10, 3, random_state=1)
        with pytest.raises(ValueError):
            decile_entropies(dataset.response, np.zeros(5))

    def test_invalid_decile_rejected(self):
        dataset = generate_dataset("grm", 10, 10, 3, random_state=1)
        with pytest.raises(ValueError):
            decile_entropies(dataset.response, np.zeros(10), decile=0.0)
        with pytest.raises(ValueError):
            decile_entropies(dataset.response, np.zeros(10), decile=0.9)


class TestOrientScores:
    def test_correct_orientation_is_kept(self):
        dataset = _guessing_dataset()
        oriented, diag = orient_scores(dataset.response, dataset.abilities)
        assert not diag["symmetry_flipped"]
        np.testing.assert_allclose(oriented, dataset.abilities)

    def test_reversed_orientation_is_flipped_back(self):
        dataset = _guessing_dataset()
        oriented, diag = orient_scores(dataset.response, -dataset.abilities)
        assert diag["symmetry_flipped"]
        np.testing.assert_allclose(oriented, dataset.abilities)

    def test_flip_and_noflip_produce_same_final_ranking(self):
        dataset = _guessing_dataset()
        forward, _ = orient_scores(dataset.response, dataset.abilities)
        backward, _ = orient_scores(dataset.response, -dataset.abilities)
        np.testing.assert_array_equal(np.argsort(forward), np.argsort(backward))

    def test_diagnostics_contain_entropies(self):
        dataset = _guessing_dataset()
        _, diag = orient_scores(dataset.response, dataset.abilities)
        assert set(diag) >= {
            "symmetry_bottom_entropy",
            "symmetry_top_entropy",
            "symmetry_flipped",
        }

    def test_input_scores_not_mutated(self):
        dataset = _guessing_dataset()
        scores = dataset.abilities.copy()
        orient_scores(dataset.response, scores)
        np.testing.assert_allclose(scores, dataset.abilities)


class TestDecileRows:
    """The orientation counts only the two deciles' answers, with the
    entropies a count over every answer gives."""

    def test_a_selections_entropy_is_its_sub_crowds(self):
        response = _guessing_dataset().response
        rng = np.random.default_rng(5)
        for users in (np.arange(10), rng.integers(0, 100, 25), [3, 3, 3, 7],
                      rng.random(100) < 0.2):
            assert response.choice_entropy(users) \
                == response.subset_users(users).choice_entropy()

    def test_the_deciles_are_the_stable_orders_ends(self):
        response = _guessing_dataset().response
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.integers(0, 4, response.num_users).astype(float)
            order = np.argsort(scores, kind="stable")
            assert decile_entropies(response, scores) == (
                response.choice_entropy(order[:10]),
                response.choice_entropy(order[-10:]),
            )
