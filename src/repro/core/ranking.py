"""Ranking result objects and the common ranker interface.

Every ability-discovery method in this library — HND variants, ABH variants,
and the truth-discovery baselines — implements the :class:`AbilityRanker`
interface: it consumes a :class:`~repro.core.response.ResponseMatrix` and
returns an :class:`AbilityRanking` with per-user scores, the induced order,
and method-specific diagnostics (iterations, convergence, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState


def _stable_pick(values: np.ndarray, count: int, *, largest: bool) -> np.ndarray:
    """The ``count`` extreme entries of ``values``, in stable-sort order.

    Exactly ``argsort(values, kind="stable")[:count]``, or with ``largest``
    ``argsort(values, kind="stable")[::-1][:count]``: ties go to the lower
    index among the smallest and to the higher index among the largest.
    ``np.partition`` finds the boundary value in ``O(m)``, and only the
    ``count`` picked entries are sorted.  Values with a NaN take the full
    sort, which places NaNs last.
    """
    values = np.asarray(values)
    count = min(int(count), values.size)
    if count == 0:
        return np.empty(0, dtype=np.intp)
    if count == values.size or np.isnan(values).any():
        order = np.argsort(values, kind="stable")
        return order[::-1][:count] if largest else order[:count]
    kth = values.size - count if largest else count - 1
    boundary = np.partition(values, kth)[kth]
    beyond = np.flatnonzero(values > boundary if largest else values < boundary)
    ties = np.flatnonzero(values == boundary)
    wanted = count - beyond.size
    ties = ties[ties.size - wanted:] if largest else ties[:wanted]
    picked = np.sort(np.concatenate([beyond, ties]))
    picked = picked[np.argsort(values[picked], kind="stable")]
    return picked[::-1] if largest else picked


@dataclass
class AbilityRanking:
    """The outcome of ranking users by ability.

    Attributes
    ----------
    scores:
        Per-user ability score (length ``m``); higher means more able.
        Scores are only meaningful up to monotone transformations — the
        object of interest is the induced ranking.
    method:
        Name of the method that produced the ranking.
    diagnostics:
        Method-specific extras (iterations, convergence flags, eigenvector
        variance, orientation-entropy values, ...).
    state:
        The :class:`~repro.core.solver_state.SolverState` the solver ended
        in, for methods that support warm-started re-ranking (``None``
        otherwise).  The rank cache stores it alongside the scores so an
        appended crowd can re-converge from it instead of solving cold.
    """

    scores: np.ndarray
    method: str
    diagnostics: Dict[str, object] = field(default_factory=dict)
    state: Optional[SolverState] = None

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float).ravel()

    @property
    def num_users(self) -> int:
        return int(self.scores.size)

    @property
    def order(self) -> np.ndarray:
        """User indices sorted from lowest to highest score (stable)."""
        return np.argsort(self.scores, kind="stable")

    @property
    def ranks(self) -> np.ndarray:
        """Rank of each user (0 = lowest score), with ties averaged.

        Average ranks make downstream Spearman correlations well defined in
        the presence of ties, matching :func:`scipy.stats.spearmanr`.
        """
        scores = self.scores
        order = np.argsort(scores, kind="stable")
        ranks = np.empty(scores.size, dtype=float)
        ranks[order] = np.arange(scores.size, dtype=float)
        # Average ranks over groups of tied scores.
        unique, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
        if unique.size != scores.size:
            sums = np.zeros(unique.size)
            np.add.at(sums, inverse, ranks)
            ranks = sums[inverse] / counts[inverse]
        return ranks

    def top_users(self, count: int) -> np.ndarray:
        """Indices of the ``count`` highest-scoring users, best first.

        ``order[::-1][:count]``, ties included, without sorting every user.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return _stable_pick(self.scores, count, largest=True)

    def bottom_users(self, count: int) -> np.ndarray:
        """Indices of the ``count`` lowest-scoring users, worst first.

        ``order[:count]``, ties included, without sorting every user.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return _stable_pick(self.scores, count, largest=False)

    def reversed(self) -> "AbilityRanking":
        """The same ranking with the orientation flipped (scores negated)."""
        return AbilityRanking(
            scores=-self.scores,
            method=self.method,
            diagnostics={**self.diagnostics, "reversed": True},
        )


class AbilityRanker:
    """Abstract base class of all ranking methods.

    Subclasses implement :meth:`rank`; the class-level :attr:`name` is used
    in experiment tables and plots.
    """

    #: Short method name used in result tables (e.g. "HnD", "ABH", "HITS").
    name: str = "ranker"

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        """Rank the users of ``response`` by ability."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SupervisedAbilityRanker(AbilityRanker):
    """Base class for "cheating" baselines that need ground-truth information.

    The paper's True-answer and GRM-estimator baselines receive the correct
    option (or the correctness order of options) for every item — knowledge
    an unsupervised ability-discovery method does not have.
    """

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        raise NotImplementedError


def ranking_from_scores(scores: np.ndarray, method: str,
                        diagnostics: Optional[Dict[str, object]] = None) -> AbilityRanking:
    """Convenience constructor used by the ranker implementations."""
    return AbilityRanking(scores=np.asarray(scores, dtype=float), method=method,
                          diagnostics=diagnostics or {})
