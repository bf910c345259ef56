"""The paper's two "cheating" baselines.

Both receive ground-truth information about the items that an unsupervised
ability-discovery method never has (Section IV-A):

* :class:`TrueAnswerRanker` knows the correct option of every item and ranks
  users by the number of correctly answered items.
* :class:`GRMEstimatorRanker` knows the correctness *order* of every item's
  options, converts the responses into graded scores, fits a Graded Response
  Model with :class:`~repro.irt.estimation.GRMEstimator`, and ranks users by
  the estimated abilities.  This replaces the GIRTH package the paper used.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.ranking import AbilityRanking, SupervisedAbilityRanker
from repro.core.response import ResponseMatrix, score_against_truth
from repro.irt.estimation import GRMEstimator, grade_response_matrix
from repro.registry import register_ranker


@register_ranker(
    "True-Answer",
    params=("correct_options",),
    supervised=True,
    summary="Cheating baseline: rank by number of correct answers",
)
class TrueAnswerRanker(SupervisedAbilityRanker):
    """Rank users by the number of items they answered correctly."""

    name = "True-Answer"

    def __init__(self, correct_options: Sequence[int]) -> None:
        self.correct_options = np.asarray(correct_options, dtype=int)

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        scores = score_against_truth(response, self.correct_options).astype(float)
        return AbilityRanking(scores=scores, method=self.name,
                              diagnostics={"correct_options": self.correct_options})


@register_ranker(
    "GRM-estimator",
    params=("option_order", "estimator"),
    supervised=True,
    # A live GRMEstimator object cannot be fingerprinted faithfully, so
    # this method always bypasses the rank cache.
    cacheable=False,
    summary="Cheating baseline: abilities of a fitted Graded Response Model",
)
class GRMEstimatorRanker(SupervisedAbilityRanker):
    """Rank users by the EAP abilities of a fitted Graded Response Model.

    Parameters
    ----------
    option_order:
        ``(n, k)`` array listing each item's option indices from worst to
        best.  When omitted, options are assumed to already be numbered in
        increasing correctness (true for GRM-generated data and for the C1P
        generator).
    estimator:
        A configured :class:`GRMEstimator`; a default instance is created
        when omitted.
    """

    name = "GRM-estimator"

    def __init__(self, option_order: Optional[np.ndarray] = None,
                 estimator: Optional[GRMEstimator] = None) -> None:
        self.option_order = None if option_order is None else np.asarray(option_order, dtype=int)
        self.estimator = estimator or GRMEstimator()

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        # Both branches hand the estimator a ResponseMatrix, which it
        # consumes item-major off the answer triples — no dense (m, n)
        # choices matrix is materialized anywhere on this path.  The graded
        # matrix re-infers num_options from the observed grades (max + 1
        # per item, floor 2): the estimator must size each item's category
        # set from the data, not from the response's declared option count,
        # or never-picked trailing options would add spurious thresholds.
        if self.option_order is None:
            users, items, options = response.triples
            graded = ResponseMatrix.from_triples(
                users, items, options,
                shape=(response.num_users, response.num_items),
            )
        else:
            graded = grade_response_matrix(response, self.option_order)
        estimate = self.estimator.fit(graded)
        return AbilityRanking(
            scores=estimate.abilities,
            method=self.name,
            diagnostics={
                "iterations": estimate.iterations,
                "converged": estimate.converged,
                "log_likelihood": estimate.log_likelihood,
            },
        )
