"""Investment and PooledInvestment (Pasternack & Roth 2010).

Both baselines let each user "invest" their current trust uniformly across
the options they chose.  An option's credibility is a non-linear function of
the total investment it received, and users earn back trust proportional to
their share of each chosen option's credibility.

* **Investment** applies the growth function ``G(x) = x^g`` directly to the
  invested amount (``g = 1.2`` in the original paper).
* **PooledInvestment** additionally normalizes the credibility within each
  item's mutually exclusive options (``g = 1.4``).

Neither method converges in general; following Section IV-A of the paper,
they run a fixed number of iterations (default 10).  That fixed schedule is
also why the Investment family is **not warm-startable** (the registry
leaves ``warm_startable=False``): with no convergence criterion, "resume
from the previous solution" does not re-converge faster — it computes a
*different* 10-step trajectory, i.e. a different answer.  The shared
:class:`~repro.truth_discovery.base.IterativeTruthRanker` therefore treats
any offered state as incompatible when ``tolerance`` is ``None`` and runs
the paper's schedule cold.
"""

from __future__ import annotations

import numpy as np

from repro.core.response import ResponseMatrix
from repro.registry import Param, register_ranker
from repro.truth_discovery.base import IterativeTruthRanker


@register_ranker(
    "Invest",
    params=("growth_exponent", Param("num_iterations", attr="max_iterations")),
    summary="Investment algorithm (credibility grows as invested trust)",
)
class InvestmentRanker(IterativeTruthRanker):
    """Investment algorithm; ranks users by their final invested trust."""

    name = "Invest"

    def __init__(self, *, growth_exponent: float = 1.2,
                 num_iterations: int = 10) -> None:
        super().__init__(max_iterations=num_iterations, tolerance=None)
        self.growth_exponent = growth_exponent

    # ------------------------------------------------------------------ #
    def _invested_amounts(self, response: ResponseMatrix,
                          user_scores: np.ndarray) -> np.ndarray:
        """Per-user amount invested into each chosen option: ``s_u / n_u``."""
        answers = np.maximum(response.answers_per_user, 1)
        return user_scores / answers

    def update_option_weights(self, response: ResponseMatrix,
                              user_scores: np.ndarray) -> np.ndarray:
        per_user = self._invested_amounts(response, user_scores)
        invested = response.compiled.option_sums(per_user)
        return np.power(np.maximum(invested, 0.0), self.growth_exponent)

    def update_user_scores(self, response: ResponseMatrix,
                           option_weights: np.ndarray,
                           previous_scores: np.ndarray) -> np.ndarray:
        per_user = self._invested_amounts(response, previous_scores)
        total_invested = response.compiled.option_sums(per_user)
        # Each user's return from an option is proportional to their share of
        # the total investment into that option.
        share_denominator = np.where(total_invested > 0, total_invested, 1.0)
        option_return = option_weights / share_denominator
        per_option_return = response.compiled.user_sums(option_return)
        return per_user * per_option_return

    def normalize_scores(self, scores: np.ndarray) -> np.ndarray:
        peak = scores.max()
        return scores / peak if peak > 0 else scores


@register_ranker(
    "PooledInv",
    params=("growth_exponent", Param("num_iterations", attr="max_iterations")),
    summary="PooledInvestment (per-item pooling of grown credibility)",
)
class PooledInvestmentRanker(InvestmentRanker):
    """PooledInvestment: Investment with per-item pooling of option credibility."""

    name = "PooledInv"

    def __init__(self, *, growth_exponent: float = 1.4,
                 num_iterations: int = 10) -> None:
        super().__init__(growth_exponent=growth_exponent, num_iterations=num_iterations)

    def update_option_weights(self, response: ResponseMatrix,
                              user_scores: np.ndarray) -> np.ndarray:
        compiled = response.compiled
        per_user = self._invested_amounts(response, user_scores)
        invested = compiled.option_sums(per_user)
        grown = np.power(np.maximum(invested, 0.0), self.growth_exponent)
        # Pool the grown credibility within each item's option block: one
        # segment sum over the column -> item map replaces the per-item loop.
        totals = np.bincount(
            compiled.column_item, weights=grown, minlength=response.num_items
        )
        # grown >= 0, so a zero block total forces every weight in the block
        # to zero on its own; the where() only guards the division.
        safe_totals = np.where(totals > 0, totals, 1.0)[compiled.column_item]
        return invested * grown / safe_totals
