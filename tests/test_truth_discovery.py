"""Tests for the truth-discovery baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.response import ResponseMatrix
from repro.evaluation.metrics import spearman_accuracy
from repro.irt.estimation import GRMEstimator
from repro.irt.generators import generate_dataset
from repro.truth_discovery import (
    DawidSkeneRanker,
    GRMEstimatorRanker,
    HITSRanker,
    InvestmentRanker,
    MajorityVoteRanker,
    PooledInvestmentRanker,
    TrueAnswerRanker,
    TruthFinderRanker,
)

ITERATIVE_RANKERS = [HITSRanker, TruthFinderRanker, InvestmentRanker, PooledInvestmentRanker]


@pytest.fixture(scope="module")
def grm_dataset():
    return generate_dataset("grm", 80, 120, 3, random_state=31)


class TestIterativeBaselines:
    @pytest.mark.parametrize("ranker_cls", ITERATIVE_RANKERS)
    def test_returns_finite_scores(self, ranker_cls, grm_dataset):
        ranking = ranker_cls().rank(grm_dataset.response)
        assert ranking.num_users == 80
        assert np.all(np.isfinite(ranking.scores))

    @pytest.mark.parametrize("ranker_cls", ITERATIVE_RANKERS)
    def test_reports_discovered_truths(self, ranker_cls, grm_dataset):
        ranking = ranker_cls().rank(grm_dataset.response)
        truths = ranking.diagnostics["discovered_truths"]
        assert truths.shape == (120,)

    def test_hits_accuracy_on_high_discrimination_grm(self, grm_dataset):
        ranking = HITSRanker().rank(grm_dataset.response)
        assert spearman_accuracy(ranking, grm_dataset.abilities) > 0.7

    def test_hits_matches_dominant_eigenvector_of_cct(self, grm_dataset):
        ranking = HITSRanker(max_iterations=500, tolerance=1e-12).rank(grm_dataset.response)
        similarity = grm_dataset.response.user_similarity()
        values, vectors = np.linalg.eigh(similarity)
        dominant = np.abs(vectors[:, -1])
        correlation = abs(spearman_accuracy(ranking, dominant))
        assert correlation > 0.99

    def test_truthfinder_dampening_validation(self):
        with pytest.raises(ValueError):
            TruthFinderRanker(dampening=-1.0)
        with pytest.raises(ValueError):
            TruthFinderRanker(initial_trust=1.5)

    def test_truthfinder_undampened_variant_runs(self, grm_dataset):
        ranking = TruthFinderRanker(dampening=None, max_iterations=10).rank(
            grm_dataset.response
        )
        assert np.all((ranking.scores >= 0) & (ranking.scores <= 1))

    def test_investment_runs_fixed_iterations(self, grm_dataset):
        ranking = InvestmentRanker(num_iterations=10).rank(grm_dataset.response)
        assert ranking.diagnostics["iterations"] == 10

    def test_pooled_investment_weights_differ_from_investment(self, grm_dataset):
        invest = InvestmentRanker().rank(grm_dataset.response)
        pooled = PooledInvestmentRanker().rank(grm_dataset.response)
        assert not np.allclose(invest.scores, pooled.scores)

    def test_truth_discovery_output_majority_like_on_easy_items(self):
        # On strongly discriminative data the discovered truths should mostly
        # match the generating model's correct options.
        dataset = generate_dataset("grm", 100, 60, 3,
                                   discrimination_range=(5.0, 10.0), random_state=41)
        ranking = HITSRanker().rank(dataset.response)
        truths = ranking.diagnostics["discovered_truths"]
        agreement = np.mean(truths == dataset.correct_options)
        assert agreement > 0.8


class TestMajorityVote:
    def test_scores_are_agreement_rates(self):
        choices = np.array([[0, 0], [0, 1], [1, 1]])
        response = ResponseMatrix(choices, num_options=2)
        ranking = MajorityVoteRanker().rank(response)
        # Majority options: item0 -> 0, item1 -> 1.
        np.testing.assert_allclose(ranking.scores, [0.5, 1.0, 0.5])

    def test_unnormalized_counts(self):
        choices = np.array([[0, 0], [0, 1], [1, 1]])
        response = ResponseMatrix(choices, num_options=2)
        ranking = MajorityVoteRanker(normalize_by_answers=False).rank(response)
        np.testing.assert_allclose(ranking.scores, [1.0, 2.0, 1.0])


class TestCheatingBaselines:
    def test_true_answer_counts_correct(self, grm_dataset):
        ranking = TrueAnswerRanker(grm_dataset.correct_options).rank(grm_dataset.response)
        expected = (grm_dataset.response.choices == grm_dataset.correct_options).sum(axis=1)
        np.testing.assert_allclose(ranking.scores, expected)

    def test_true_answer_high_accuracy(self, grm_dataset):
        ranking = TrueAnswerRanker(grm_dataset.correct_options).rank(grm_dataset.response)
        assert spearman_accuracy(ranking, grm_dataset.abilities) > 0.85

    def test_grm_estimator_ranker_high_accuracy(self):
        # Five EM iterations already rank at rho ~0.89; the default 25 only
        # polish the item parameters, at five times the cost (the M-step is
        # a per-item L-BFGS with numeric gradients).
        dataset = generate_dataset("grm", 60, 40, 3, random_state=51)
        ranking = GRMEstimatorRanker(
            estimator=GRMEstimator(max_iterations=5)
        ).rank(dataset.response)
        assert ranking.diagnostics["iterations"] == 5
        assert spearman_accuracy(ranking, dataset.abilities) > 0.8

    def test_grm_estimator_with_explicit_option_order(self):
        dataset = generate_dataset("grm", 40, 25, 3, random_state=53)
        order = np.tile(np.arange(3), (25, 1))
        ranking = GRMEstimatorRanker(
            option_order=order, estimator=GRMEstimator(max_iterations=5)
        ).rank(dataset.response)
        assert np.all(np.isfinite(ranking.scores))


class TestDawidSkene:
    def test_recovers_truths_on_homogeneous_data(self):
        rng = np.random.default_rng(61)
        num_users, num_items, num_classes = 30, 60, 3
        truths = rng.integers(0, num_classes, size=num_items)
        accuracies = rng.uniform(0.4, 0.95, size=num_users)
        choices = np.empty((num_users, num_items), dtype=int)
        for user in range(num_users):
            correct = rng.random(num_items) < accuracies[user]
            noise = rng.integers(0, num_classes, size=num_items)
            choices[user] = np.where(correct, truths, noise)
        response = ResponseMatrix(choices, num_options=num_classes)
        ranking = DawidSkeneRanker().rank(response)
        discovered = ranking.diagnostics["discovered_truths"]
        assert np.mean(discovered == truths) > 0.9
        assert spearman_accuracy(ranking, accuracies) > 0.8

    def test_diagnostics_contain_priors(self, grm_dataset):
        ranking = DawidSkeneRanker(max_iterations=20).rank(grm_dataset.response)
        priors = ranking.diagnostics["class_priors"]
        assert priors.shape == (3,)
        assert priors.sum() == pytest.approx(1.0)

    def test_handles_missing_answers(self):
        dataset = generate_dataset("samejima", 30, 40, 3, answer_probability=0.7,
                                   random_state=63)
        ranking = DawidSkeneRanker(max_iterations=20).rank(dataset.response)
        assert np.all(np.isfinite(ranking.scores))
