"""ABH spectral seriation (Atkins, Boman & Hendrickson 1998).

ABH ranks the users by the Fiedler vector — the eigenvector of the 2nd
smallest eigenvalue of the Laplacian ``L = D - C C^T`` of the user
similarity matrix.  On pre-P inputs the Fiedler-vector ordering realizes
C1P; on general inputs it serves as a heuristic, and it is the only prior
method with both properties, making it HND's head-to-head competitor.

Two implementations mirror the paper (Section III-F, Appendix E-B):

* :class:`ABHDirect` — materialize ``C C^T`` and its Laplacian and compute
  the Fiedler vector with Lanczos (``O(m^2 n)`` for the products).
* :class:`ABHPower` — Algorithm 2: power iteration on ``beta*I - M`` with
  ``M = S L T``, evaluated matrix-free.  ``beta`` is the largest diagonal
  entry of ``C C^T``; the iteration count grows with ``beta`` (Figure 14a),
  which is why ABH-power does not beat HND-power despite the similar
  per-iteration cost.

Both rank through :class:`~repro.core.hitsndiffs.EigenvectorRanker`, the
frame they share with the HnD rankers: the connectivity check, the
fewer-than-two-users return and the decile-entropy orientation
(Section III-D) live there, so each class here only computes its Fiedler
vector and its diagnostics.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.core.hitsndiffs import EigenvectorRanker
from repro.core.response import ResponseMatrix
from repro.linalg.operators import (
    apply_cumulative,
    apply_cumulative_into,
    apply_difference,
)
from repro.linalg.power_iteration import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    power_iteration_matvec,
)
from repro.linalg.spectral import fiedler_vector, laplacian
from repro.registry import register_ranker

RandomState = Optional[Union[int, np.random.Generator]]


@register_ranker(
    "ABH",
    params=("break_symmetry", "check_connectivity"),
    summary="ABH spectral ranking via the Fiedler vector (Lanczos)",
)
class ABHDirect(EigenvectorRanker):
    """ABH with a direct (Lanczos) Fiedler-vector computation.

    Parameters: see :class:`~repro.core.hitsndiffs.EigenvectorRanker`.
    """

    name = "ABH"

    def solve(self, response: ResponseMatrix):
        lap = laplacian(response.user_similarity())
        scores = fiedler_vector(sp.csr_matrix(lap) if response.num_users > 16 else lap)
        return scores, {"solver": "lanczos"}, None


@register_ranker(
    "ABH-power",
    params=("beta", "tolerance", "max_iterations", "break_symmetry",
            "check_connectivity", "random_state"),
    summary="ABH via shifted power iteration on the similarity Laplacian",
)
class ABHPower(EigenvectorRanker):
    """ABH via power iteration on ``beta*I - M`` (Algorithm 2 of the paper).

    The per-iteration cost is ``O(mn + m^2)`` because applying the Laplacian
    requires the degree vector of ``C C^T`` — computable once — plus a
    ``C (C^T s)`` product; the number of iterations grows with ``beta``
    (Appendix E-B), which this implementation exposes in its diagnostics so
    the Figure 14 analysis can be reproduced.

    Parameters
    ----------
    beta:
        Spectral shift.  Defaults to the largest diagonal entry of
        ``C C^T`` (the paper's choice); must dominate all entries and
        eigenvalues of ``M`` for the iteration to converge to the smallest
        eigenvector of ``M``.
    """

    name = "ABH-power"

    def __init__(
        self,
        *,
        beta: Optional[float] = None,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        break_symmetry: bool = True,
        check_connectivity: bool = False,
        random_state: RandomState = None,
    ) -> None:
        super().__init__(break_symmetry=break_symmetry,
                         check_connectivity=check_connectivity)
        self.beta = beta
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.random_state = random_state

    def solve(self, response: ResponseMatrix):
        m = response.num_users
        compiled = response.compiled
        # Degrees of C C^T: the count-weighted column sums per user, computable
        # from the cached per-column counts without materializing the product.
        degrees = compiled.user_sums(compiled.column_counts.astype(float))
        # Diagonal of C C^T: each binary entry is 1, so (C C^T)_uu is simply
        # the number of answers of user u (cached).
        diagonal = compiled.answers_per_user.astype(float)
        beta = self.beta if self.beta is not None else float(diagonal.max())
        # beta must upper-bound the entries and eigenvalues of M = S L T; the
        # largest diagonal entry of C C^T is the paper's practical choice but
        # the Laplacian's largest eigenvalue can exceed it, so we guard with
        # the Gershgorin bound 2 * max degree.
        beta = max(beta, 2.0 * float(degrees.max()))

        scores = np.empty(m, dtype=float)

        def matvec(score_diffs: np.ndarray) -> np.ndarray:
            apply_cumulative_into(score_diffs, scores)           # s = T s_diff
            weights = compiled.option_sums(scores)               # w = C^T s
            laplacian_scores = degrees * scores - compiled.user_sums(weights)
            return beta * score_diffs - apply_difference(laplacian_scores)

        result = power_iteration_matvec(
            matvec,
            m - 1,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            random_state=self.random_state,
        )
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual": result.residual,
            "beta": beta,
            "diff_vector_variance": float(np.var(result.vector)),
        }
        return apply_cumulative(result.vector), diagnostics, None
