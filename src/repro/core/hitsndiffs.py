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

Each variant finishes with the decile-entropy symmetry-breaking heuristic so
that larger score means higher ability, and reports convergence diagnostics
in the returned :class:`~repro.core.ranking.AbilityRanking`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

from repro.api.registry import register_ranker
from repro.core.avghits import (
    avghits_fixed_point,
    difference_update_matrix,
    hnd_difference_step,
    update_matrix,
)
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState, warm_vector
from repro.core.symmetry import orient_scores
from repro.linalg.deflation import hotelling_deflation
from repro.linalg.operators import apply_cumulative
from repro.linalg.power_iteration import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    power_iteration_matvec,
)
from repro.linalg.spectral import second_largest_eigenvector

RandomState = Optional[Union[int, np.random.Generator]]


def _trivial_diagnostics(init_state: Optional[SolverState]) -> dict:
    """Diagnostics for the m < 2 degenerate crowd (nothing to iterate).

    The ``warm_start`` key is part of the warm-capable contract, so it is
    present even on the early return; a sub-2-user crowd has no difference
    vector, making any offered state incompatible by definition.
    """
    return {
        "iterations": 0,
        "converged": True,
        "warm_start": "cold" if init_state is None else "incompatible-cold",
    }


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
    went: ``"cold"`` (no state offered), ``"warm"`` (state used),
    ``"incompatible-cold"`` (state rejected up front — wrong method or a
    shrunk user axis), or ``"fallback-cold"`` (the warm attempt's residual
    blew up — non-finite, e.g. a poisoned state — and the solve was rerun
    cold).  A warm attempt that merely exhausts ``max_iterations`` with a
    finite residual keeps its iterate: it is at least as close to the
    fixed point as a cold rerun would get with the same budget, so
    rerunning would double the cost for nothing.

    A warm start is just a different initial vector: with no state the
    behaviour is exactly the pre-warm-start cold solve.

    ``acceleration`` opts into the momentum scheme of
    :class:`~repro.linalg.power_iteration.PowerIterationDriver`.  It gets
    the same treatment as warm starts: a blow-up (non-finite residual)
    after any warm fallback triggers one plain rerun, reported as
    ``acceleration="fallback-plain"`` on the result, so a mis-tuned
    momentum coefficient can cost time but never a ranking.
    """
    initial = warm_vector(init_state, "HnD", "diff_vector", num_users - 1, 0.0)
    warm_mode = "cold"
    if init_state is not None:
        warm_mode = "warm" if initial is not None else "incompatible-cold"

    def solve(start: Optional[np.ndarray], accel: Optional[str]):
        return power_iteration_matvec(
            diff_step,
            num_users - 1,
            initial=start,
            tolerance=tolerance,
            max_iterations=max_iterations,
            random_state=random_state,
            acceleration=accel,
        )

    result = solve(initial, acceleration)
    if initial is not None and not np.isfinite(result.residual):
        result = solve(None, acceleration)
        warm_mode = "fallback-cold"
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
class HNDPower(AbilityRanker):
    """HITSnDIFFS via the matrix-free power iteration of Algorithm 1.

    Parameters
    ----------
    tolerance:
        Convergence threshold on the L2 change of the (unit-norm) user score
        difference vector; the paper uses ``1e-5``.
    max_iterations:
        Iteration budget.
    break_symmetry:
        Apply the decile-entropy orientation heuristic (Section III-D).
        Disable only when the caller wants the raw eigenvector ordering.
    check_connectivity:
        Verify that the user-option graph is connected before ranking and
        raise :class:`~repro.exceptions.DisconnectedGraphError` otherwise.
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
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.break_symmetry = break_symmetry
        self.check_connectivity = check_connectivity
        self.random_state = random_state
        self.acceleration = acceleration

    def rank(
        self,
        response: ResponseMatrix,
        *,
        init_state: Optional[SolverState] = None,
    ) -> AbilityRanking:
        """Algorithm 1 on the compiled ``O(nnz)`` difference step.

        Each power iteration is one difference step of ``response``; then
        come the cumulative/difference wrappers, the diagnostics and the
        decile-entropy orientation.  ``hnd_power_solve``,
        ``hnd_difference_step`` and ``orient_scores`` are looked up as this
        module's globals at call time.
        """
        if self.check_connectivity:
            response.require_connected()
        m = response.num_users
        if m < 2:
            return AbilityRanking(scores=np.zeros(m), method=self.name,
                                  diagnostics=_trivial_diagnostics(init_state))
        result, state, warm_mode = hnd_power_solve(
            hnd_difference_step(response),
            m,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            random_state=self.random_state,
            init_state=init_state,
            acceleration=self.acceleration,
        )
        scores = apply_cumulative(result.vector)
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual": result.residual,
            "eigenvalue": result.eigenvalue,
            "diff_vector_variance": float(np.var(result.vector)),
            "warm_start": warm_mode,
            "acceleration": result.acceleration,
        }
        if self.break_symmetry:
            scores, symmetry_diag = orient_scores(response, scores)
            diagnostics.update(symmetry_diag)
        return AbilityRanking(scores=scores, method=self.name,
                              diagnostics=diagnostics, state=state)


@register_ranker(
    "HnD-direct",
    params=("break_symmetry", "check_connectivity"),
    summary="HITSnDIFFS via a direct Arnoldi eigensolve of U",
)
class HNDDirect(AbilityRanker):
    """HITSnDIFFS via a direct Arnoldi solve of the 2nd eigenvector of ``U``.

    Materializes ``U`` (``O(m^2)`` memory) and calls
    :func:`repro.linalg.spectral.second_largest_eigenvector`; used in the
    scalability comparison of Figure 5 and as a cross-check of HND-power.
    """

    name = "HnD-direct"

    def __init__(self, *, break_symmetry: bool = True,
                 check_connectivity: bool = False) -> None:
        self.break_symmetry = break_symmetry
        self.check_connectivity = check_connectivity

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        if self.check_connectivity:
            response.require_connected()
        m = response.num_users
        if m < 2:
            return AbilityRanking(scores=np.zeros(m), method=self.name)
        u = update_matrix(response)
        scores = second_largest_eigenvector(u)
        diagnostics: dict = {"solver": "arnoldi"}
        if self.break_symmetry:
            scores, symmetry_diag = orient_scores(response, scores)
            diagnostics.update(symmetry_diag)
        return AbilityRanking(scores=scores, method=self.name, diagnostics=diagnostics)


@register_ranker(
    "HnD-deflation",
    params=("tolerance", "max_iterations", "break_symmetry",
            "check_connectivity", "random_state"),
    summary="HITSnDIFFS via Hotelling deflation of U (Section III-F)",
)
class HNDDeflation(AbilityRanker):
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
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.break_symmetry = break_symmetry
        self.check_connectivity = check_connectivity
        self.random_state = random_state

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        if self.check_connectivity:
            response.require_connected()
        m = response.num_users
        if m < 2:
            return AbilityRanking(scores=np.zeros(m), method=self.name)
        u = update_matrix(response)
        result = hotelling_deflation(
            u,
            right_vector=avghits_fixed_point(response),
            eigenvalue=1.0,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            random_state=self.random_state,
        )
        scores = result.vector
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual": result.residual,
        }
        if self.break_symmetry:
            scores, symmetry_diag = orient_scores(response, scores)
            diagnostics.update(symmetry_diag)
        return AbilityRanking(scores=scores, method=self.name, diagnostics=diagnostics)


def hits_n_diffs(
    response: ResponseMatrix,
    *,
    variant: str = "power",
    **kwargs,
) -> AbilityRanking:
    """Functional entry point: rank users with the chosen HND variant.

    ``variant`` is one of ``"power"`` (default, Algorithm 1), ``"direct"``,
    or ``"deflation"``; remaining keyword arguments are forwarded to the
    corresponding ranker class.
    """
    variants = {
        "power": HNDPower,
        "direct": HNDDirect,
        "deflation": HNDDeflation,
    }
    try:
        ranker_cls = variants[variant]
    except KeyError:
        raise ValueError(
            "unknown HND variant %r; expected one of %s" % (variant, sorted(variants))
        ) from None
    return ranker_cls(**kwargs).rank(response)
