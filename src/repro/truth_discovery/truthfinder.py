"""TruthFinder (Yin, Han & Yu 2008) adapted to ability discovery.

TruthFinder interprets a user's score as the probability of being correct on
any item; an option's confidence is the probability that it is true given
the independent trust of the users who chose it:

* ``s <- C_row w`` (average confidence of the chosen options), and
* ``w <- 1 - exp(C^T log(1 - s))`` (noisy-or over the supporting users).

User scores are clipped away from 1 to keep ``log(1 - s)`` finite, and the
original TruthFinder dampening factor ``gamma`` (default 0.05) squashes the
aggregated confidence through a logistic so that options supported by many
trusted users do not all saturate at weight 1 — without it every user's
trust collapses to the same value and the ranking carries no signal.
Setting ``dampening=None`` recovers the undampened noisy-or formulation
exactly as printed in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.response import ResponseMatrix
from repro.irt.dichotomous import sigmoid
from repro.registry import register_ranker
from repro.truth_discovery.base import IterativeTruthRanker

_MAX_TRUST = 1.0 - 1e-9


@register_ranker(
    "TruthFinder",
    params=("initial_trust", "dampening", "max_iterations", "tolerance"),
    warm_startable=True,
    summary="TruthFinder trust propagation with implication dampening",
)
class TruthFinderRanker(IterativeTruthRanker):
    """TruthFinder; ranks users by their converged trustworthiness."""

    name = "TruthFinder"

    def __init__(self, *, initial_trust: float = 0.9, dampening: Optional[float] = 0.05,
                 max_iterations: int = 100, tolerance: float = 1e-6) -> None:
        if not 0 < initial_trust < 1:
            raise ValueError("initial_trust must lie strictly between 0 and 1")
        if dampening is not None and dampening <= 0:
            raise ValueError("dampening must be positive (or None to disable)")
        super().__init__(max_iterations=max_iterations, tolerance=tolerance)
        self.initial_trust = initial_trust
        self.dampening = dampening

    def initial_scores(self, response: ResponseMatrix) -> np.ndarray:
        return np.full(response.num_users, self.initial_trust)

    def update_option_weights(self, response: ResponseMatrix,
                              user_scores: np.ndarray) -> np.ndarray:
        trust = np.clip(user_scores, 0.0, _MAX_TRUST)
        log_distrust = np.log1p(-trust)
        aggregated = response.compiled.option_sums(log_distrust)
        if self.dampening is None:
            return 1.0 - np.exp(aggregated)
        # Original TruthFinder: confidence score sigma = -sum(log(1 - trust)),
        # squashed by a logistic with dampening factor gamma.
        return sigmoid(-self.dampening * aggregated)

    def update_user_scores(self, response: ResponseMatrix,
                           option_weights: np.ndarray,
                           previous_scores: np.ndarray) -> np.ndarray:
        return np.asarray(response.row_normalized() @ option_weights).ravel()

    def normalize_scores(self, scores: np.ndarray) -> np.ndarray:
        # TruthFinder scores are probabilities; no rescaling is needed, but we
        # keep them inside [0, 1) for numerical safety of the next iteration.
        return np.clip(scores, 0.0, _MAX_TRUST)
