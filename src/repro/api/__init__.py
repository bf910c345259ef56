"""``repro.api`` — the single public entry point for ranking crowds.

Three pieces, one surface:

* :data:`~repro.registry.REGISTRY` / :func:`~repro.registry.register_ranker`
  (re-exported here) — the one source of truth for the method line-up (names, factories,
  param specs, cacheability flags); the CLI, the wire schema, the
  experiment suites, screening and the rank-cache fingerprints all
  resolve through it.  Its class, :class:`~repro.registry.Registry`
  (exported here as ``RankerRegistry``), backs the scenario line-up too,
  so every did-you-mean hint and supervised-method refusal is written
  once, in :mod:`repro.registry`.
* :func:`~repro.api.execution.rank` — ``rank(matrix, "HnD",
  random_state=0, cache=cache)``: the method's fused ``O(nnz)`` kernels,
  with an optional :class:`~repro.engine.cache.RankCache` as the one
  execution setting.  A call binds its method name and parameters to
  one ranker and one fingerprint (:func:`~repro.api.execution.bind`);
  :func:`~repro.api.execution.method_fingerprint` names that
  fingerprint (and, with ``warm_start=True``, checks that the method
  can warm-start).
* :class:`~repro.api.session.CrowdSession` — stateful serving: an
  incremental answer builder, a materialized matrix, and a hash-keyed
  rank cache (built over its store) whose staleness detection is
  automatic; :class:`~repro.api.manager.SessionManager` names many of
  them.

The registry is a leaf module: it imports only the standard library, so
the ranker modules in :mod:`repro.core` and elsewhere import it without
importing this package, and the package import graph has no cycle.

>>> from repro.api import CrowdSession, rank
"""

from __future__ import annotations

from repro.registry import (
    REGISTRY,
    Param,
    RankerRegistry,
    RankerSpec,
    register_ranker,
)
from repro.api.execution import method_fingerprint, rank
from repro.api.session import CrowdSession
from repro.api.manager import SessionManager
from repro.core.solver_state import SolverState

__all__ = [
    "REGISTRY",
    "Param",
    "RankerRegistry",
    "RankerSpec",
    "register_ranker",
    "rank",
    "method_fingerprint",
    "CrowdSession",
    "SessionManager",
    "SolverState",
]
