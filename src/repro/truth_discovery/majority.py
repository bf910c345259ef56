"""Majority vote: the simplest truth-discovery baseline.

The discovered "truth" of each item is its most frequently chosen option;
users are ranked by how often they agree with the majority.  The paper's
code repository includes majority vote as a reference method, and it also
serves as the initialization of the Dawid–Skene EM baseline.

Both statistics are *mergeable* over user-range shards: the per-item option
histogram behind the majority choice is a sum of integer partial histograms,
and the agreement counts are per-user (disjoint across shards), which is why
:mod:`repro.engine.remote` can evaluate this ranker over shards with
bit-identical scores.  :func:`agreement_counts` is the shared hook both
paths call.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_ranker
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix


def agreement_counts(
    users: np.ndarray,
    items: np.ndarray,
    options: np.ndarray,
    majority: np.ndarray,
    num_users: int,
    *,
    user_offset: int = 0,
) -> np.ndarray:
    """Per-user count of answers agreeing with the per-item majority option.

    ``O(batch)`` over any slice of answer triples; ``user_offset`` lets a
    user-range shard count into local row coordinates.  Integer-valued, so
    shard results concatenate into exactly the single-process counts.
    """
    agreeing = np.asarray(users)[np.asarray(options) == majority[np.asarray(items)]]
    return np.bincount(agreeing - user_offset, minlength=num_users)


def agreement_scores(
    agreements: np.ndarray, answers_per_user: np.ndarray, normalize_by_answers: bool
) -> np.ndarray:
    """Agreement counts as scores: rates when normalized, else raw counts."""
    if normalize_by_answers:
        return agreements / np.maximum(answers_per_user, 1)
    return agreements.astype(float)


def rank_majority_vote(
    source, *, normalize_by_answers: bool = True
) -> AbilityRanking:
    """MajorityVote: the one implementation, fused or remote.

    ``source`` is a :class:`ResponseMatrix` (agreement counting on the flat
    answer triples: ``O(nnz)``, no dense ``(m, n)`` comparison matrix) or a
    :class:`~repro.engine.remote.RemoteEngine`, whose shards histogram and
    count their own answers — integer statistics, so the scores match the
    fused ones exactly.
    """
    engine = None if isinstance(source, ResponseMatrix) else source
    if engine is None:
        majority = source.majority_choices()
        users, items, options = source.triples
        agreements = agreement_counts(
            users, items, options, majority, source.num_users
        )
        scores = agreement_scores(
            agreements, source.answers_per_user, normalize_by_answers
        )
    else:
        scores, majority = engine.majority_scores(
            normalize_by_answers=normalize_by_answers
        )
    diagnostics = {"discovered_truths": majority}
    if engine is not None:
        diagnostics.update(engine.diagnostics())
    return AbilityRanking(scores=scores, method="MajorityVote",
                          diagnostics=diagnostics)


@register_ranker(
    "MajorityVote",
    params=("normalize_by_answers",),
    runner=rank_majority_vote,
    summary="Agreement rate with the per-item majority option",
)
class MajorityVoteRanker(AbilityRanker):
    """Rank users by their agreement rate with the per-item majority option."""

    name = "MajorityVote"

    def __init__(self, *, normalize_by_answers: bool = True) -> None:
        self.normalize_by_answers = normalize_by_answers

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        return rank_majority_vote(
            response, normalize_by_answers=self.normalize_by_answers
        )
