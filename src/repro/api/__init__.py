"""``repro.api`` — the single public entry point for ranking crowds.

Three pieces, one surface:

* :data:`~repro.api.registry.REGISTRY` / :func:`~repro.api.registry.register_ranker`
  — the one source of truth for the method line-up (names, factories,
  param specs, determinism flags); the CLI, the wire schema, the
  experiment suites, screening and the rank-cache fingerprints all
  resolve through it.  Its class, :class:`~repro.api.registry.Registry`
  (exported here as ``RankerRegistry``), backs the scenario line-up too,
  so every did-you-mean hint and supervised-method refusal is written
  once, in :mod:`repro.api.registry`.
* :func:`~repro.api.execution.rank` — ``rank(matrix, "HnD",
  random_state=0, cache=cache)``: the method's fused ``O(nnz)`` kernels,
  with an optional :class:`~repro.engine.cache.RankCache` as the one
  execution setting; :func:`~repro.api.execution.method_fingerprint`
  names the fingerprint a method and its parameters cache under (and,
  with ``warm_start=True``, checks that they can warm-start).
* :class:`~repro.api.session.CrowdSession` — stateful serving: an
  incremental answer builder, a materialized matrix, and a hash-keyed
  rank cache whose staleness detection is automatic.

>>> from repro.api import CrowdSession, rank
"""

from __future__ import annotations

import importlib

from repro.api.registry import (
    REGISTRY,
    Param,
    RankerRegistry,
    RankerSpec,
    register_ranker,
)

# The execution and session modules import the engine (and, transitively,
# the ranker implementations).  The ranker modules in turn import
# ``repro.api.registry`` *while they are being defined* — which triggers
# this package's import.  Resolving the heavy submodules lazily keeps that
# cycle open: importing ``repro.api`` mid-way through a ranker module only
# loads the stdlib-level registry.
_LAZY = {
    "rank": "repro.api.execution",
    "method_fingerprint": "repro.api.execution",
    "CrowdSession": "repro.api.session",
    "SessionManager": "repro.api.manager",
    "SolverState": "repro.core.solver_state",
}

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


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
