"""Power iteration with convergence tracking and opt-in momentum acceleration.

Both HND-power (Algorithm 1) and ABH-power (Algorithm 2) are power
iterations whose matrix-vector product is expressed as a sequence of cheap
sparse products rather than a materialized matrix.  The generic driver here
accepts either an explicit matrix or an arbitrary ``matvec`` callable, uses
the L2 norm of the iterate change as its convergence criterion (the paper
uses a tolerance of ``1e-5``), and reports the number of iterations — the
quantity analysed in Figure 14b of the paper.

One capability sits on top of the classic loop, off by default:

* **Momentum acceleration** (``acceleration="momentum"``): the heavy-ball /
  Chebyshev-momentum three-term recurrence ``w_{t+1} = A w_t - beta
  w_{t-1}`` with ``beta`` estimated adaptively from the observed residual
  contraction (the optimal ``beta`` is ``mu^2 / 4`` for sub-dominant
  eigenvalue ``mu``).  Momentum changes the float trajectory, so it is
  opt-in and callers gate it behind a ranking-equivalence contract (see
  :func:`repro.core.hitsndiffs.hnd_power_solve`).  With ``acceleration``
  unset the loop is arithmetically identical, op for op, to the plain
  driver — bit-identity pins on the unaccelerated path are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConvergenceError
from repro.linalg.normalize import l2_normalize

DEFAULT_TOLERANCE = 1e-5
DEFAULT_MAX_ITERATIONS = 10_000

#: Plain iterations run before momentum engages: the residual-contraction
#: ratio (which estimates the sub-dominant/dominant eigenvalue ratio, the
#: quantity the optimal momentum coefficient depends on) needs a few
#: transient-free samples to be meaningful.
MOMENTUM_WARMUP = 10

#: Accelerated iterations between re-estimation bursts.  The warm-up
#: estimate is biased low on ill-conditioned problems (the early
#: contraction is still transient-dominated), so ``beta`` is periodically
#: re-fit from a short burst of plain iterations deeper in the run.
MOMENTUM_REESTIMATE_EVERY = 30

#: Plain iterations per re-estimation burst.  Plain contraction of a mixed
#: error is bounded above by the true sub-dominant ratio, so burst
#: estimates approach the optimal coefficient from below — they can refine
#: ``beta`` in either direction but cannot systematically overshoot the
#: critical value the way contraction ratios measured *under* momentum can
#: (past critical, the accelerated contraction rate is independent of the
#: sub-dominant eigenvalue, so overshoot is invisible from inside the
#: accelerated regime).
MOMENTUM_BURST = 5

#: Accepted values of the ``acceleration`` knob.
ACCELERATIONS = (None, "momentum")


@dataclass(frozen=True)
class PowerIterationResult:
    """Outcome of a power iteration run.

    Attributes
    ----------
    vector:
        The converged (unit-norm) dominant eigenvector estimate.
    eigenvalue:
        Rayleigh-quotient estimate of the dominant eigenvalue.
    iterations:
        Number of iterations actually performed.
    converged:
        Whether the change between successive iterates fell below the
        tolerance before the iteration budget ran out.
    residual:
        L2 norm of the final change between iterates.
    acceleration:
        The acceleration scheme the run actually used: ``"none"`` or
        ``"momentum"`` (callers that fall back from a diverged accelerated
        attempt re-label the plain rerun, e.g. ``"fallback-plain"``).
    """

    vector: np.ndarray
    eigenvalue: float
    iterations: int
    converged: bool
    residual: float
    acceleration: str = "none"


def _as_matvec(
    operator: Union[np.ndarray, sp.spmatrix, Callable[[np.ndarray], np.ndarray]],
) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a matrix (dense or sparse) or callable into a matvec callable."""
    if callable(operator) and not sp.issparse(operator) and not isinstance(operator, np.ndarray):
        return operator
    matrix = operator

    def matvec(vector: np.ndarray) -> np.ndarray:
        return np.asarray(matrix @ vector).ravel()

    return matvec


class PowerIterationDriver:
    """The power-iteration loop and its momentum recurrence state.

    :func:`power_iteration_matvec` constructs one of these and runs it to
    completion with :meth:`advance`.  Parameters match
    :func:`power_iteration_matvec`; ``acceleration`` is ``None`` (the plain
    loop, arithmetically identical to the pre-driver implementation) or
    ``"momentum"`` (adaptive heavy-ball, see the module docstring).
    """

    def __init__(
        self,
        matvec: Callable[[np.ndarray], np.ndarray],
        size: int,
        *,
        initial: Optional[np.ndarray] = None,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        random_state: Optional[Union[int, np.random.Generator]] = None,
        acceleration: Optional[str] = None,
    ) -> None:
        if size < 1:
            raise ValueError("power iteration needs size >= 1")
        if acceleration not in ACCELERATIONS:
            raise ValueError(
                "unknown acceleration %r (choose from %s)"
                % (acceleration,
                   ", ".join(repr(name) for name in ACCELERATIONS))
            )
        self.matvec = matvec
        self.size = int(size)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.acceleration = acceleration
        self._rng = np.random.default_rng(random_state)
        if initial is None:
            vector = self._rng.standard_normal(size)
        else:
            vector = np.asarray(initial, dtype=float).copy()
            if vector.shape != (size,):
                raise ValueError(
                    "initial vector has shape %s, expected (%d,)"
                    % (vector.shape, size)
                )
        vector = l2_normalize(vector)
        if not np.any(vector):
            vector = l2_normalize(np.ones(size))
        self.vector = vector
        self.eigenvalue = 0.0
        self.residual = np.inf
        self.iterations = 0
        self.converged = False
        self._blown_up = False
        # Momentum recurrence state (inert when acceleration is None).
        self._previous: Optional[np.ndarray] = None
        self._beta = 0.0
        self._warmup_left = MOMENTUM_WARMUP if acceleration == "momentum" else 0
        self._ratio = 0.0
        self._until_burst = 0
        self._burst_left = 0
        self._burst_log_sum = 0.0
        self._burst_samples = 0
        self._fit_residual = np.inf
        # Fixed buffer set reused across iterations: the matvec output is
        # copied into an internal double buffer immediately, so the driver
        # never holds a reference to matvec-owned memory across iterations
        # (a matvec may reuse a retained buffer, or return a read-only
        # view) and all normalization / sign alignment runs in place with
        # no per-iteration allocations.  The matvec must not mutate its
        # input vector — the Rayleigh quotient needs the pre-update iterate.
        self._scratch = np.empty(self.size, dtype=float)
        self._buffers = (
            np.empty(self.size, dtype=float),
            np.empty(self.size, dtype=float),
        )

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def advance(self) -> None:
        """Iterate until converged, blown up, or out of iteration budget."""
        for _ in range(max(self.max_iterations - self.iterations, 0)):
            self._step()
            if self.converged or self._blown_up:
                break

    def _step(self) -> None:
        self.iterations += 1
        raw = np.asarray(self.matvec(self.vector), dtype=float).ravel()
        product = self._buffers[self.iterations % 2]
        np.copyto(product, raw)
        self.eigenvalue = float(np.dot(self.vector, product))
        if (
            self._previous is not None
            and self._beta > 0.0
            and self._warmup_left <= 0
            and self._burst_left == 0
        ):
            # Heavy-ball update on the rescaled recurrence: the saved
            # ``previous`` is the prior iterate divided by the norm that
            # normalized the current one, so subtracting ``beta * previous``
            # here is exactly ``A w_t - beta w_{t-1}`` up to the common
            # scaling the normalization below removes again.
            np.multiply(self._previous, self._beta, out=self._scratch)
            np.subtract(product, self._scratch, out=product)
        norm = float(np.linalg.norm(product))
        if norm == 0.0:
            # The operator annihilated the iterate; restart from a fresh
            # random direction rather than silently returning zeros.  The
            # restart also severs the momentum recurrence — the new
            # direction has no meaningful predecessor.
            np.copyto(product, l2_normalize(self._rng.standard_normal(self.size)))
            self._previous = None
            self._beta = 0.0
            if self.acceleration == "momentum":
                self._warmup_left = MOMENTUM_WARMUP
                self._ratio = 0.0
                self._until_burst = 0
                self._burst_left = 0
                self._burst_log_sum = 0.0
                self._burst_samples = 0
                self._fit_residual = np.inf
        else:
            product /= norm
        # Eigenvectors are defined up to sign; align before measuring change.
        flipped = np.dot(product, self.vector) < 0
        if flipped:
            np.negative(product, out=product)
        np.subtract(product, self.vector, out=self._scratch)
        residual = float(np.linalg.norm(self._scratch))
        if self.acceleration == "momentum" and norm != 0.0:
            self._update_momentum(norm, flipped, residual)
        self.vector = product
        self.residual = residual
        if residual < self.tolerance:
            self.converged = True
        elif not np.isfinite(residual):
            # Residual blow-up: the iterate left the representable range
            # (e.g. a poisoned warm-start vector, or runaway momentum).
            # Burning the rest of the budget cannot recover — stop
            # immediately so callers can fall back to a plain cold solve.
            self._blown_up = True

    def _update_momentum(self, norm: float, flipped: bool,
                         residual: float) -> None:
        """Adapt ``beta`` and save the rescaled previous iterate.

        The optimal heavy-ball coefficient is ``mu^2 / 4`` for sub-dominant
        eigenvalue ``mu``, and ``mu / lambda`` is exactly the asymptotic
        contraction ratio of the **plain** iteration — so ``mu`` is only
        ever estimated from plain steps.  Two sources feed it:

        * the warm-up (:data:`MOMENTUM_WARMUP` plain iterations) seeds
          ``beta`` from the smoothed contraction ratio;
        * every :data:`MOMENTUM_REESTIMATE_EVERY` accelerated iterations,
          momentum is suspended for a :data:`MOMENTUM_BURST`-step plain
          burst and ``beta`` is re-fit from the geometric-mean contraction
          across the burst (the first burst ratio spans the regime switch
          and is discarded).

        Plain contraction of a mixed error never exceeds ``mu / lambda``,
        so burst estimates approach the critical coefficient from below as
        transients die out — they correct the warm-up's transient bias on
        ill-conditioned problems without the failure mode of adapting from
        ratios measured *under* momentum (past the critical coefficient
        the accelerated rate no longer depends on ``mu``, so an overshoot
        driven by a noisy ratio is undetectable from inside the
        accelerated regime and permanently stalls the solve).  A *slight*
        overshoot — a burst ratio a hair above the true ``mu / lambda`` —
        is deliberately tolerated: just past critical the error modes turn
        into a decaying oscillation whose rate is still near-optimal, so
        the residual wobbling upward for a few steps is the *normal*
        signature of a well-fit ``beta``, not divergence (reacting to it,
        e.g. by halving ``beta``, is exactly the trap that turns a 2%%
        overshoot into a 50%% undershoot every cycle).  Only a residual
        that climbs two orders of magnitude above its level at the last
        fit triggers an early re-fit burst, and the driver-level blow-up
        stop plus the callers' plain-rerun fallback bound the damage of
        any remaining divergence.
        """
        ratio = -1.0
        if (
            np.isfinite(residual)
            and np.isfinite(self.residual)
            and self.residual > 0.0
            and residual > 0.0
        ):
            ratio = min(residual / self.residual, 0.999)
            self._ratio = (
                ratio if self._ratio == 0.0
                else 0.7 * self._ratio + 0.3 * ratio
            )
        if self._warmup_left > 0:
            self._warmup_left -= 1
            if self._warmup_left == 0 and self._ratio > 0.0:
                self._beta = 0.25 * (self._ratio * abs(self.eigenvalue)) ** 2
                self._until_burst = MOMENTUM_REESTIMATE_EVERY
                self._fit_residual = residual
        elif self._burst_left > 0:
            spans_regime_switch = self._burst_left == MOMENTUM_BURST
            self._burst_left -= 1
            if ratio > 0.0 and not spans_regime_switch:
                self._burst_log_sum += float(np.log(ratio))
                self._burst_samples += 1
            if self._burst_left == 0:
                lam = abs(self.eigenvalue)
                if self._burst_samples > 0 and lam > 0.0:
                    mu = lam * min(
                        float(np.exp(self._burst_log_sum / self._burst_samples)),
                        0.999,
                    )
                    self._beta = 0.25 * mu * mu
                self._burst_log_sum = 0.0
                self._burst_samples = 0
                self._until_burst = MOMENTUM_REESTIMATE_EVERY
                self._fit_residual = residual
        elif self._beta > 0.0:
            self._until_burst -= 1
            diverging = (
                np.isfinite(residual)
                and np.isfinite(self._fit_residual)
                and residual > 100.0 * self._fit_residual
            )
            if self._until_burst <= 0 or diverging:
                self._burst_left = MOMENTUM_BURST
                self._burst_log_sum = 0.0
                self._burst_samples = 0
        if self._previous is None:
            self._previous = np.empty(self.size, dtype=float)
        scale = (-1.0 if flipped else 1.0) / norm
        np.multiply(self.vector, scale, out=self._previous)

    def result(self) -> PowerIterationResult:
        return PowerIterationResult(
            vector=self.vector,
            eigenvalue=self.eigenvalue,
            iterations=self.iterations,
            converged=self.converged,
            residual=self.residual,
            acceleration=self.acceleration or "none",
        )


def power_iteration_matvec(
    matvec: Callable[[np.ndarray], np.ndarray],
    size: int,
    *,
    initial: Optional[np.ndarray] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_failure: bool = False,
    random_state: Optional[Union[int, np.random.Generator]] = None,
    acceleration: Optional[str] = None,
) -> PowerIterationResult:
    """Run the power method on an operator given only as a ``matvec``.

    Parameters
    ----------
    matvec:
        Callable computing ``A @ v`` for the implicit operator ``A``.
    size:
        Dimension of the vectors ``A`` acts on.
    initial:
        Starting vector.  A random vector is drawn when omitted.
    tolerance:
        Convergence threshold on the L2 norm of the iterate change
        (the paper's criterion, default ``1e-5``).
    max_iterations:
        Iteration budget.
    raise_on_failure:
        When True, raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    random_state:
        Seed or generator for the random initial vector.
    acceleration:
        ``None`` (plain power iteration, the default) or ``"momentum"``
        (adaptive heavy-ball; changes the float trajectory — see the
        module docstring).

    Returns
    -------
    PowerIterationResult
    """
    driver = PowerIterationDriver(
        matvec,
        size,
        initial=initial,
        tolerance=tolerance,
        max_iterations=max_iterations,
        random_state=random_state,
        acceleration=acceleration,
    )
    driver.advance()
    result = driver.result()
    if not result.converged and raise_on_failure:
        raise ConvergenceError(
            "power iteration did not converge in %d iterations (residual %.3g)"
            % (max_iterations, result.residual),
            iterations=result.iterations,
            residual=result.residual,
        )
    return result


def power_iteration(
    matrix: Union[np.ndarray, sp.spmatrix],
    *,
    initial: Optional[np.ndarray] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_failure: bool = False,
    random_state: Optional[Union[int, np.random.Generator]] = None,
    acceleration: Optional[str] = None,
) -> PowerIterationResult:
    """Run the power method on an explicit (dense or sparse) square matrix."""
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("power_iteration expects a square matrix, got shape %s" % (shape,))
    return power_iteration_matvec(
        _as_matvec(matrix),
        shape[0],
        initial=initial,
        tolerance=tolerance,
        max_iterations=max_iterations,
        raise_on_failure=raise_on_failure,
        random_state=random_state,
        acceleration=acceleration,
    )
