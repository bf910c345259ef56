"""Solver state for warm-started (incremental) rank updates.

The iterative methods in this library — HnD's power iteration, the
Dawid–Skene EM loop, and the HITS-family trust iterations — are fixed-point
solvers: the answer is the fixed point, and the iterate they carry between
steps (a score vector, a truth-posterior table) is *state* that any nearby
crowd can reuse.  After an ``add_answers`` batch the previous solution is an
excellent initial iterate: the solver re-converges in the handful of
iterations the perturbation actually needs instead of paying a full cold
solve (see ``benchmarks/BENCH_PR5.json`` for the committed numbers at the
200k x 5k scale).

:class:`SolverState` is the uniform container those methods capture into and
restore from.  A warm start never changes *what* is computed — it is only a
different initial iterate: given the same state, a solve walks the same
trajectory bit for bit.  What a warm start *does* relax is
history-independence: a warm-started solve stops at a point within the
method's convergence tolerance of the cold solution, not bitwise at it,
which is why warm starting is opt-in
(:meth:`repro.api.session.CrowdSession.rank` with ``warm_start=True``).

Every warm-capable ranker resumes through one rule, :func:`warm_solve`
(HnD's power solve, the Dawid–Skene EM loop and the HITS-family
iterations all call it):

* :func:`fit_iterate` fits the stored iterate onto the cold initial one.
  Append-only sessions only ever *grow*, so per-user vectors pad new
  trailing users, and per-item tables new trailing items, with the cold
  initial values.  A state from another method, a missing iterate, a
  shrunk axis or a changed class count is *incompatible*: the solve runs
  cold up front (``warm_start="incompatible-cold"``).
* Each convergence loop aborts on a non-finite residual, and only that
  reruns the solve cold (``warm_start="fallback-cold"``), so a poisoned
  state costs time but never corrupts a result.  A warm attempt that
  merely exhausts its iteration budget keeps its iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass
class SolverState:
    """Captured iteration state of one converged (or stopped) solver run.

    Attributes
    ----------
    method:
        Registry name of the method that produced the state; a state is
        only ever restored into the same method.
    vectors:
        The solver-specific iterate arrays, e.g. ``{"diff_vector": ...}``
        for HnD-Power or ``{"posteriors": ...}`` for Dawid–Skene.  Stored
        as copies — a state is immutable once captured.
    iterations:
        Iterations the producing run performed.
    residual:
        The producing run's final convergence residual.
    """

    method: str
    vectors: Dict[str, np.ndarray] = field(default_factory=dict)
    iterations: int = 0
    residual: float = float("inf")

    def __post_init__(self) -> None:
        self.vectors = {
            name: np.array(value, dtype=float, copy=True)
            for name, value in self.vectors.items()
        }

    def vector(self, name: str) -> Optional[np.ndarray]:
        return self.vectors.get(name)


def fit_iterate(
    state: Optional[SolverState],
    method: str,
    name: str,
    cold: np.ndarray,
) -> Optional[np.ndarray]:
    """Fit the stored iterate ``name`` onto the cold initial iterate, or ``None``.

    ``cold`` is what a cold solve would start from: a per-user vector or
    a per-item table.  The stored iterate overwrites the head of a copy of
    it along the first axis, so appended users or items keep their cold
    initial values.  A stored vector is flattened first.  Returns ``None``
    (*incompatible*, use a cold start) when the state is missing, was
    captured by another method, lacks ``name``, is empty, is longer than
    ``cold`` (axes only grow in append-only sessions), or has another
    trailing shape (a changed class count).  Non-finite entries pass
    through on purpose: :func:`warm_solve`'s residual guard catches them.
    """
    if state is None or state.method != method:
        return None
    stored = state.vector(name)
    if stored is None:
        return None
    stored = np.asarray(stored, dtype=float)
    if cold.ndim == 1:
        stored = stored.ravel()
    if stored.ndim != cold.ndim or stored.shape[1:] != cold.shape[1:]:
        return None
    if not 0 < stored.shape[0] <= cold.shape[0]:
        return None
    out = np.array(cold, dtype=float, copy=True)
    out[:stored.shape[0]] = stored
    return out


def warm_solve(
    solve: Callable[[Optional[np.ndarray]], T],
    state: Optional[SolverState],
    method: str,
    name: str,
    cold: np.ndarray,
    *,
    residual: Callable[[T], float] = attrgetter("residual"),
    resumable: bool = True,
) -> Tuple[T, str]:
    """The warm-start rule: resume ``solve`` from ``state`` if it fits, else solve cold.

    ``solve(start)`` runs the solver from the initial iterate ``start``,
    or from its own cold start when ``start`` is ``None``.  The stored
    iterate ``name`` is fitted onto ``cold`` with :func:`fit_iterate`.
    ``resumable=False`` declares every offered state incompatible: for a
    solver with a fixed iteration schedule a different start changes the
    answer, not the cost.

    Returns ``(result, warm_mode)``, where ``warm_mode`` is the ranking's
    ``diagnostics["warm_start"]``:

    * ``"cold"``: no state was offered;
    * ``"warm"``: the state fitted and the solve resumed from it;
    * ``"incompatible-cold"``: a state was offered but did not fit, so
      the solve ran cold up front;
    * ``"fallback-cold"``: the warm attempt's ``residual(result)`` was not
      finite (a poisoned state), so the solve reran cold.

    Only a non-finite residual triggers the rerun.  A warm attempt that
    exhausts its iteration budget with a finite residual keeps its
    iterate: a cold rerun with the same budget would land no closer to
    the fixed point, and would double the cost.
    """
    start = fit_iterate(state, method, name, cold) if resumable else None
    if start is None:
        return solve(None), "cold" if state is None else "incompatible-cold"
    result = solve(start)
    if np.isfinite(residual(result)):
        return result, "warm"
    return solve(None), "fallback-cold"
