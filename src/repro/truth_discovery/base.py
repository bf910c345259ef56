"""Shared machinery for the iterative truth-discovery baselines.

HITS, TruthFinder, Investment and PooledInvestment (Section III-A of the
paper) all follow the same template: alternate between updating per-user
trust scores from option weights and option weights from user scores, then
rank users by their final scores.  :class:`IterativeTruthRanker` factors the
loop, the convergence bookkeeping, and the extraction of "discovered truths"
(the highest-weight option per item) so the individual baselines only
implement their two update rules.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState, warm_solve


class IterativeTruthRanker(AbilityRanker):
    """Base class for HITS-style alternating user/option score iterations.

    Parameters
    ----------
    max_iterations:
        Iteration budget.  Investment and PooledInvestment do not converge
        in general (the paper fixes them at 10 iterations); convergent
        methods stop earlier via ``tolerance``.
    tolerance:
        L2 threshold on the change of the user score vector between
        iterations; ``None`` disables early stopping.
    """

    name = "iterative"

    def __init__(self, *, max_iterations: int = 100,
                 tolerance: Optional[float] = 1e-6) -> None:
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def initial_scores(self, response: ResponseMatrix) -> np.ndarray:
        """Initial per-user trust scores (default: all ones)."""
        return np.ones(response.num_users)

    def update_option_weights(self, response: ResponseMatrix,
                              user_scores: np.ndarray) -> np.ndarray:
        """Compute option weights (length ``sum_i k_i``) from user scores."""
        raise NotImplementedError

    def update_user_scores(self, response: ResponseMatrix,
                           option_weights: np.ndarray,
                           previous_scores: np.ndarray) -> np.ndarray:
        """Compute user scores (length ``m``) from option weights."""
        raise NotImplementedError

    def normalize_scores(self, scores: np.ndarray) -> np.ndarray:
        """Normalization applied after each user-score update (default: max-norm)."""
        peak = np.max(np.abs(scores))
        if peak == 0:
            return scores
        return scores / peak

    # ------------------------------------------------------------------ #
    def rank(
        self,
        response: ResponseMatrix,
        *,
        init_state: Optional[SolverState] = None,
    ) -> AbilityRanking:
        """Run the alternating iteration, optionally warm-started.

        ``init_state`` resumes from a previously converged user score
        vector (appended users start from the method's cold initial
        value) under :func:`~repro.core.solver_state.warm_solve`'s rule.
        Warm starts are only honoured for methods with a real stopping
        rule (``tolerance`` set): for the fixed-schedule methods
        (Investment family) a different initial vector would change the
        answer, not the cost, so their state is treated as incompatible
        and the solve runs cold.
        """
        cold = np.asarray(self.initial_scores(response), dtype=float)
        (scores, weights, iterations, converged, change), warm_mode = warm_solve(
            lambda start: self._iterate(response, cold if start is None else start),
            init_state, self.name, "user_scores", cold,
            residual=lambda loop: loop[-1],
            resumable=self.tolerance is not None,
        )
        diagnostics: Dict[str, object] = {
            "iterations": iterations,
            "converged": converged,
            "discovered_truths": discovered_truths(response, weights),
            "warm_start": warm_mode,
        }
        state = SolverState(
            self.name, {"user_scores": scores},
            iterations=iterations, residual=change,
        )
        return AbilityRanking(scores=scores, method=self.name,
                              diagnostics=diagnostics, state=state)

    def _iterate(
        self, response: ResponseMatrix, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, bool, float]:
        """One full solve from ``scores``; returns the loop's final state."""
        weights = np.zeros(response.num_option_columns)
        iterations = 0
        converged = False
        change = float("inf")
        for iterations in range(1, self.max_iterations + 1):
            weights = np.asarray(
                self.update_option_weights(response, scores), dtype=float
            )
            new_scores = np.asarray(
                self.update_user_scores(response, weights, scores), dtype=float
            )
            new_scores = self.normalize_scores(new_scores)
            change = float(np.linalg.norm(new_scores - scores))
            scores = new_scores
            if self.tolerance is not None and change < self.tolerance:
                converged = True
                break
            if not np.isfinite(change):
                # Residual blow-up: bail out so warm-start callers can
                # rerun cold instead of burning the iteration budget.
                break
        return scores, weights, iterations, converged, change


def discovered_truths(response: ResponseMatrix, option_weights: np.ndarray) -> np.ndarray:
    """Highest-weight option per item — the baseline's "truth" output.

    Ability discovery only needs the user ranking, but the truth-discovery
    baselines produce item labels as a by-product; exposing them lets the
    examples show the duality between the two problems.
    """
    option_weights = np.asarray(option_weights, dtype=float).ravel()
    num_items = response.num_items
    k = response.max_options
    offsets = np.asarray(response.column_offsets)
    # Spread the ragged option blocks into an (n, k_max) table padded with
    # -inf, so one argmax call replaces the per-item block scan.  Ties break
    # towards the lower option index, exactly like the per-block argmax.
    table = np.full((num_items, k), -np.inf)
    column_item = response.compiled.column_item
    option_of_column = np.arange(offsets[-1]) - offsets[:-1][column_item]
    table[column_item, option_of_column] = option_weights
    return table.argmax(axis=1).astype(int)
