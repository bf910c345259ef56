"""The original HITS algorithm applied to truth/ability discovery.

Kleinberg's Hubs-and-Authorities on the user-option bipartite graph
(Section III-A of the paper): user scores are proportional to the *sum* of
the weights of the options they chose and option weights to the sum of the
scores of the users choosing them.  The user scores converge to the
dominant eigenvector of ``C C^T``.
"""

from __future__ import annotations

import numpy as np

from repro.core.response import ResponseMatrix
from repro.registry import register_ranker
from repro.truth_discovery.base import IterativeTruthRanker


@register_ranker(
    "HITS",
    params=("max_iterations", "tolerance"),
    warm_startable=True,
    summary="Kleinberg HITS on the user-option bipartite graph",
)
class HITSRanker(IterativeTruthRanker):
    """Classic HITS; ranks users by their converged hub scores."""

    name = "HITS"

    def __init__(self, *, max_iterations: int = 200, tolerance: float = 1e-8) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance)

    def update_option_weights(self, response: ResponseMatrix,
                              user_scores: np.ndarray) -> np.ndarray:
        weights = response.compiled.option_sums(user_scores)
        norm = np.linalg.norm(weights)
        return weights / norm if norm else weights

    def update_user_scores(self, response: ResponseMatrix,
                           option_weights: np.ndarray,
                           previous_scores: np.ndarray) -> np.ndarray:
        return response.compiled.user_sums(option_weights)

    def normalize_scores(self, scores: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(scores)
        return scores / norm if norm else scores
