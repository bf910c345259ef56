"""``repro.api`` — the single public entry point for ranking crowds.

Four pieces, one surface:

* :data:`~repro.api.registry.REGISTRY` / :func:`~repro.api.registry.register_ranker`
  — the one source of truth for the method line-up (names, factories,
  param specs, determinism flags); the CLI, the experiment suites, and
  the rank-cache fingerprints all resolve through it.
* :class:`~repro.api.execution.ExecutionPolicy` — *how* to run, separated
  from *what* to run: the fused single-process kernels by default, remote
  socket workers when ``remote_workers`` names them (with ``shards``,
  ``iteration_batch`` and ``supervision``), and an optional ``cache``.
* :func:`~repro.api.execution.rank` — ``rank(matrix, "HnD",
  execution=ExecutionPolicy(remote_workers=[...], shards=8))``; the two
  backends are bit-identical by construction.
* :class:`~repro.api.session.CrowdSession` — stateful serving: an
  incremental answer builder, a materialized matrix, and a hash-keyed
  rank cache whose staleness detection is automatic.

>>> from repro.api import CrowdSession, ExecutionPolicy, rank
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
    "ExecutionPolicy": "repro.api.execution",
    "rank": "repro.api.execution",
    "warm_start_fingerprint": "repro.api.execution",
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
    "ExecutionPolicy",
    "rank",
    "warm_start_fingerprint",
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
