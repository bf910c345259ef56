"""HITSnDIFFS (HND): the paper's primary contribution, in three flavours.

All three variants compute the ordering of the 2nd largest eigenvector of
the AVGHITS update matrix ``U = C_row (C_col)^T`` and differ only in *how*:

* :class:`HNDPower` — Algorithm 1: power iteration on the difference update
  matrix ``U_diff = S U T`` implemented matrix-free with only matrix-vector
  products (``O(mnt)`` total).  This is the paper's recommended variant.
* :class:`HNDDirect` — Arnoldi iteration (``scipy.sparse.linalg.eigs``) on
  the materialized ``U`` (``O(m^2 n)`` for the materialization).
* :class:`HNDDeflation` — Hotelling deflation of ``U`` followed by a power
  iteration (Section III-F).

An eigenvector fixes the user order only up to reversal, so these three
and the two ABH rankers of :mod:`repro.c1p.abh` share one frame,
:class:`EigenvectorRanker`.  Its ``rank`` runs the optional connectivity
check (Section III-B), returns all-zero scores for a crowd of fewer than
two users, orients the solver's scores with the decile-entropy heuristic
(Section III-D) so that a larger score means higher ability, and builds
the :class:`~repro.core.ranking.AbilityRanking`.  Each ranker implements
only ``solve``: its eigenvector and its own diagnostics.  The frame lives
here so that ``hnd_power_solve``, ``hnd_difference_step`` and
``orient_scores`` stay globals of this module, looked up at call time
(``perfbench``'s tracer patches them here).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.avghits import (
    avghits_fixed_point,
    hnd_difference_step,
    update_matrix,
)
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState, warm_solve
from repro.core.symmetry import orient_scores
from repro.linalg.deflation import hotelling_deflation
from repro.linalg.operators import apply_cumulative
from repro.linalg.power_iteration import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    power_iteration_matvec,
)
from repro.linalg.spectral import second_largest_eigenvector
from repro.registry import register_ranker

RandomState = Optional[Union[int, np.random.Generator]]


class EigenvectorRanker(AbilityRanker):
    """The frame shared by the five eigenvector rankers (HnD and ABH).

    :meth:`rank` checks connectivity when asked, returns zero scores for a
    crowd of fewer than two users, orients the scores :meth:`solve`
    returns when ``break_symmetry`` is set, and builds the ranking.
    Keyword arguments of :meth:`rank` go to :meth:`solve` and
    :meth:`trivial_diagnostics`.

    Parameters
    ----------
    break_symmetry:
        Apply the decile-entropy orientation heuristic (Section III-D).
        Disable only when the caller wants the raw eigenvector ordering.
    check_connectivity:
        Verify that the user-option graph is connected before ranking and
        raise :class:`~repro.exceptions.DisconnectedGraphError` otherwise.
    """

    def __init__(self, *, break_symmetry: bool = True,
                 check_connectivity: bool = False) -> None:
        self.break_symmetry = break_symmetry
        self.check_connectivity = check_connectivity

    def solve(self, response: ResponseMatrix,
              **kwargs) -> Tuple[np.ndarray, dict, Optional[SolverState]]:
        """The unoriented scores, the diagnostics and the solver state."""
        raise NotImplementedError

    def trivial_diagnostics(self, **kwargs) -> dict:
        """Diagnostics of the fewer-than-two-users ranking (none by default)."""
        return {}

    def rank(self, response: ResponseMatrix, **kwargs) -> AbilityRanking:
        """Rank the users of ``response``: the frame around :meth:`solve`."""
        if self.check_connectivity:
            response.require_connected()
        m = response.num_users
        if m < 2:
            return AbilityRanking(scores=np.zeros(m), method=self.name,
                                  diagnostics=self.trivial_diagnostics(**kwargs))
        scores, diagnostics, state = self.solve(response, **kwargs)
        if self.break_symmetry:
            scores, symmetry_diag = orient_scores(response, scores)
            diagnostics.update(symmetry_diag)
        return AbilityRanking(scores=scores, method=self.name,
                              diagnostics=diagnostics, state=state)


def hnd_power_solve(
    diff_step,
    num_users: int,
    *,
    tolerance: float,
    max_iterations: int,
    random_state: RandomState,
    init_state: Optional[SolverState] = None,
    acceleration: Optional[str] = None,
):
    """The HnD power solve with optional warm start and momentum.

    Returns ``(result, state, warm_mode)``: the
    :class:`~repro.linalg.power_iteration.PowerIterationResult`, the
    captured :class:`SolverState` (the converged difference vector — the
    exact iterate a follow-up solve restarts from), and how the warm start
    went, decided by :func:`~repro.core.solver_state.warm_solve`.  A warm
    start is just a different initial vector (appended users start at 0):
    with no state the behaviour is exactly the pre-warm-start cold solve,
    from a random vector.

    ``acceleration`` opts into the momentum scheme of
    :class:`~repro.linalg.power_iteration.PowerIterationDriver`.  It gets
    the same treatment as warm starts: a blow-up (non-finite residual)
    after any warm fallback triggers one plain rerun, reported as
    ``acceleration="fallback-plain"`` on the result, so a mis-tuned
    momentum coefficient can cost time but never a ranking.
    """

    def solve(start: Optional[np.ndarray], accel: Optional[str] = acceleration):
        return power_iteration_matvec(
            diff_step,
            num_users - 1,
            initial=start,
            tolerance=tolerance,
            max_iterations=max_iterations,
            random_state=random_state,
            acceleration=accel,
        )

    result, warm_mode = warm_solve(solve, init_state, "HnD", "diff_vector",
                                   np.zeros(num_users - 1))
    if acceleration is not None and not np.isfinite(result.residual):
        result = dataclasses.replace(
            solve(None, None), acceleration="fallback-plain"
        )
    state = SolverState(
        "HnD",
        {"diff_vector": result.vector},
        iterations=result.iterations,
        residual=result.residual,
    )
    return result, state, warm_mode


@register_ranker(
    "HnD",
    params=("tolerance", "max_iterations", "break_symmetry",
            "check_connectivity", "random_state", "acceleration"),
    warm_startable=True,
    summary="HITSnDIFFS power iteration (Algorithm 1, the paper's method)",
)
class HNDPower(EigenvectorRanker):
    """HITSnDIFFS via the matrix-free power iteration of Algorithm 1.

    Parameters
    ----------
    tolerance:
        Convergence threshold on the L2 change of the (unit-norm) user score
        difference vector; the paper uses ``1e-5``.
    max_iterations:
        Iteration budget.
    break_symmetry, check_connectivity:
        See :class:`EigenvectorRanker`.
    random_state:
        Seed for the random initialization of the score differences.
    acceleration:
        ``None`` (plain power iteration) or ``"momentum"`` (adaptive
        heavy-ball).  Momentum changes the float trajectory — the contract
        is ranking equivalence within the ``ranking_inversion_gap`` tie
        bound, not bit-identity — and a diverging accelerated solve falls
        back to one plain rerun (``acceleration="fallback-plain"`` in the
        diagnostics), mirroring the warm-start fallback.
    """

    name = "HnD"

    def __init__(
        self,
        *,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        break_symmetry: bool = True,
        check_connectivity: bool = False,
        random_state: RandomState = None,
        acceleration: Optional[str] = None,
    ) -> None:
        super().__init__(break_symmetry=break_symmetry,
                         check_connectivity=check_connectivity)
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.random_state = random_state
        self.acceleration = acceleration

    def solve(self, response: ResponseMatrix, *,
              init_state: Optional[SolverState] = None):
        """Algorithm 1 on the compiled ``O(nnz)`` difference step.

        Each power iteration is one difference step of ``response``; the
        cumulative wrapper turns the converged differences into scores.
        ``init_state`` warm-starts the solve (see :func:`hnd_power_solve`).
        """
        result, state, warm_mode = hnd_power_solve(
            hnd_difference_step(response),
            response.num_users,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            random_state=self.random_state,
            init_state=init_state,
            acceleration=self.acceleration,
        )
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual": result.residual,
            "eigenvalue": result.eigenvalue,
            "diff_vector_variance": float(np.var(result.vector)),
            "warm_start": warm_mode,
            "acceleration": result.acceleration,
        }
        return apply_cumulative(result.vector), diagnostics, state

    def trivial_diagnostics(self, *,
                            init_state: Optional[SolverState] = None) -> dict:
        """The sub-2-user diagnostics, with the warm-capable ``warm_start`` key.

        No stored iterate fits the empty difference vector, so
        :func:`warm_solve`, given a solve with nothing to do, reports any
        offered state as incompatible.
        """
        _, warm_mode = warm_solve(lambda start: None, init_state, "HnD",
                                  "diff_vector", np.zeros(0))
        return {"iterations": 0, "converged": True, "warm_start": warm_mode}


@register_ranker(
    "HnD-direct",
    params=("break_symmetry", "check_connectivity"),
    summary="HITSnDIFFS via a direct Arnoldi eigensolve of U",
)
class HNDDirect(EigenvectorRanker):
    """HITSnDIFFS via a direct Arnoldi solve of the 2nd eigenvector of ``U``.

    Materializes ``U`` (``O(m^2)`` memory) and calls
    :func:`repro.linalg.spectral.second_largest_eigenvector`; used in the
    scalability comparison of Figure 5 and as a cross-check of HND-power.
    """

    name = "HnD-direct"

    def solve(self, response: ResponseMatrix):
        scores = second_largest_eigenvector(update_matrix(response))
        return scores, {"solver": "arnoldi"}, None


@register_ranker(
    "HnD-deflation",
    params=("tolerance", "max_iterations", "break_symmetry",
            "check_connectivity", "random_state"),
    summary="HITSnDIFFS via Hotelling deflation of U (Section III-F)",
)
class HNDDeflation(EigenvectorRanker):
    """HITSnDIFFS via Hotelling deflation of the update matrix ``U``.

    The dominant *right* eigenvector of ``U`` is known analytically (the
    all-ones direction, Lemma 4), so only the dominant left eigenvector needs
    a power-iteration run before deflating — still one more run than
    HND-power needs, which is why the paper finds deflation ~20% slower.
    """

    name = "HnD-deflation"

    def __init__(
        self,
        *,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        break_symmetry: bool = True,
        check_connectivity: bool = False,
        random_state: RandomState = None,
    ) -> None:
        super().__init__(break_symmetry=break_symmetry,
                         check_connectivity=check_connectivity)
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.random_state = random_state

    def solve(self, response: ResponseMatrix):
        result = hotelling_deflation(
            update_matrix(response),
            right_vector=avghits_fixed_point(response),
            eigenvalue=1.0,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            random_state=self.random_state,
        )
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual": result.residual,
        }
        return result.vector, diagnostics, None
