"""Majority vote: the simplest truth-discovery baseline.

The discovered "truth" of each item is its most frequently chosen option;
users are ranked by how often they agree with the majority.  The paper's
code repository includes majority vote as a reference method, and it also
serves as the initialization of the Dawid–Skene EM baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.registry import register_ranker


def agreement_counts(
    users: np.ndarray,
    items: np.ndarray,
    options: np.ndarray,
    majority: np.ndarray,
    num_users: int,
) -> np.ndarray:
    """Per-user count of answers agreeing with the per-item majority option.

    ``O(nnz)`` over the flat answer triples.
    """
    agreeing = np.asarray(users)[np.asarray(options) == majority[np.asarray(items)]]
    return np.bincount(agreeing, minlength=num_users)


def agreement_scores(
    agreements: np.ndarray, answers_per_user: np.ndarray, normalize_by_answers: bool
) -> np.ndarray:
    """Agreement counts as scores: rates when normalized, else raw counts."""
    if normalize_by_answers:
        return agreements / np.maximum(answers_per_user, 1)
    return agreements.astype(float)


@register_ranker(
    "MajorityVote",
    params=("normalize_by_answers",),
    summary="Agreement rate with the per-item majority option",
)
class MajorityVoteRanker(AbilityRanker):
    """Rank users by their agreement rate with the per-item majority option."""

    name = "MajorityVote"

    def __init__(self, *, normalize_by_answers: bool = True) -> None:
        self.normalize_by_answers = normalize_by_answers

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        """Agreement counting on the flat answer triples: ``O(nnz)``, no
        dense ``(m, n)`` comparison matrix."""
        majority = response.majority_choices()
        users, items, options = response.triples
        agreements = agreement_counts(
            users, items, options, majority, response.num_users
        )
        scores = agreement_scores(
            agreements, response.answers_per_user, self.normalize_by_answers
        )
        return AbilityRanking(scores=scores, method=self.name,
                              diagnostics={"discovered_truths": majority})
