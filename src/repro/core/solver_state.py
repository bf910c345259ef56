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

Adaptation rules (append-only sessions only ever *grow*):

* per-user vectors pad new trailing users with the method's cold initial
  value;
* per-item tables pad new trailing items with the cold initial rows;
* anything else — a different method name, a shrunk axis, a changed class
  count, non-finite entries — is *incompatible* and the caller falls back
  to a cold start (reported in the ranking diagnostics as
  ``warm_start="incompatible-cold"``).

The residual blow-up guard lives with the solvers: each convergence loop
aborts on a non-finite residual, and the warm-capable rankers rerun cold
whenever a warm attempt fails to converge (``warm_start="fallback-cold"``),
so an adversarial or stale state can cost time but never corrupt a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


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


def warm_vector(
    state: Optional[SolverState],
    method: str,
    name: str,
    size: int,
    fill,
) -> Optional[np.ndarray]:
    """Adapt a stored 1-D iterate to ``size`` entries, or ``None``.

    ``fill`` supplies the cold initial value for appended trailing entries:
    a scalar, or a length-``size`` array of cold initial values (the stored
    prefix overwrites its head).  Returns ``None`` — *incompatible*, use a
    cold start — when the state is missing, captured by another method, or
    larger than ``size`` (axes only grow in append-only sessions).
    Non-finite entries pass through deliberately: the solvers' residual
    blow-up guard handles them (one aborted iteration, then a cold rerun).
    """
    if state is None or state.method != method:
        return None
    stored = state.vector(name)
    if stored is None:
        return None
    stored = np.asarray(stored, dtype=float).ravel()
    if stored.size > size or stored.size == 0:
        return None
    out = np.empty(size, dtype=float)
    if np.ndim(fill) == 0:
        out.fill(float(fill))
    else:
        np.copyto(out, np.asarray(fill, dtype=float))
    out[:stored.size] = stored
    return out


def warm_table(
    state: Optional[SolverState],
    method: str,
    name: str,
    cold: np.ndarray,
) -> Optional[np.ndarray]:
    """Adapt a stored 2-D iterate onto the cold initial table, or ``None``.

    The stored rows overwrite the head of a copy of ``cold`` (appended
    items keep their cold initial rows).  The column count must match
    exactly — a changed class count invalidates the state — and the stored
    rows must fit; otherwise returns ``None``.  Non-finite entries pass
    through for the solvers' blow-up guard to catch.
    """
    if state is None or state.method != method:
        return None
    stored = state.vector(name)
    if stored is None:
        return None
    stored = np.asarray(stored, dtype=float)
    if stored.ndim != 2 or stored.shape[1] != cold.shape[1]:
        return None
    if stored.shape[0] > cold.shape[0] or stored.shape[0] == 0:
        return None
    out = np.array(cold, dtype=float, copy=True)
    out[:stored.shape[0]] = stored
    return out
