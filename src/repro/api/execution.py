"""``rank()``: run a registered method by name, optionally through a cache.

The paper's methods are pure functions of the response matrix, so the
entry point takes the matrix, a registered method name and the method's
parameters, and runs the method's fused in-process ``O(nnz)`` kernels::

    from repro.api import rank
    from repro.engine import RankCache

    ranking = rank(matrix, "HnD", random_state=0)
    cache = RankCache()
    ranking = rank(matrix, "HnD", random_state=0, cache=cache)  # memoized

``cache=`` is the one execution setting: a
:class:`~repro.engine.cache.RankCache` serves repeated queries of
unchanged data from its content-hash-keyed entries.

A call binds its method name and parameters once: the name resolves,
the parameter names are checked and the ranker is built a single time,
and its fingerprint is taken from that instance.  The bound ranker is
what the cache keys on and what solves a miss, so a cache hit builds
one ranker and a miss builds no second one.  :func:`method_fingerprint`
returns the fingerprint of the same binding; no other module derives
one from a name.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState
from repro.engine.cache import RankCache, ranker_fingerprint
from repro.registry import REGISTRY, RankerSpec


def _require_warm_startable(spec: RankerSpec) -> None:
    """``ValueError`` unless ``spec`` is registered ``warm_startable``.

    The one copy of this check and its prose, shared by :func:`rank`
    (``init_state=``) and :func:`bind` (``warm_start=True``).
    """
    if not spec.warm_startable:
        raise ValueError(
            "method %r does not support warm starts (registered "
            "warm_startable=False: no convergence criterion to resume, or "
            "chaotic dynamics — a warm result would not be equivalent to a "
            "cold solve); warm-startable methods: %s"
            % (spec.name,
               ", ".join(sorted(REGISTRY.names(warm_startable=True))))
        )


def bind(method: str, params: Dict[str, object], *,
         warm_start: bool = False) -> "BoundRanker":
    """Bind ``method`` and ``params`` to one ranker and its fingerprint.

    Unknown names raise ``KeyError``, unknown parameter names
    ``TypeError``, and values the constructor rejects its own error.
    With ``warm_start=True`` it is also the warm-start eligibility rule,
    so the error prose cannot drift between surfaces: ``ValueError`` when
    the method is not registered ``warm_startable`` (the check
    :func:`rank` shares for ``init_state=``) or when the parameter set is
    nondeterministic/uncacheable (no fingerprint means no keyed solver
    state to resume from).
    """
    spec = REGISTRY.get(method)
    if warm_start:
        _require_warm_startable(spec)
    bound = BoundRanker(spec, params)
    if warm_start and bound.cache_fingerprint() is None:
        raise ValueError(
            "warm start requires a deterministic, cacheable configuration "
            "of %r — the solver state is keyed by the method's parameter "
            "fingerprint; pass a fixed integer random_state instead of "
            "None or a live Generator" % (spec.name,)
        )
    return bound


def method_fingerprint(method: str, params: Dict[str, object], *,
                       warm_start: bool = False):
    """The cache fingerprint of ``method`` with ``params``; ``None`` if uncacheable.

    ``bind(method, params, warm_start=warm_start).cache_fingerprint()``,
    with :func:`bind`'s errors.  The server's coalescing key and the
    CLI's fail-fast check call it, so they name exactly the key
    :func:`rank` caches under.
    """
    return bind(method, params, warm_start=warm_start).cache_fingerprint()


def rank(
    response: ResponseMatrix,
    method: str,
    *,
    cache: Optional[RankCache] = None,
    init_state: Optional[SolverState] = None,
    **params,
) -> AbilityRanking:
    """Rank the users of ``response`` with a registered method.

    Parameters
    ----------
    response:
        The :class:`ResponseMatrix` to rank.
    method:
        A registered method name (see ``repro.api.REGISTRY``); unknown
        names raise ``KeyError`` with a did-you-mean hint.
    cache:
        Optional :class:`~repro.engine.cache.RankCache` serving repeated
        calls of unchanged data.  Anything else raises ``TypeError``
        before any work is done.
    init_state:
        Optional :class:`~repro.core.solver_state.SolverState` to
        warm-start the solve from (only for methods registered
        ``warm_startable``; ``ValueError`` otherwise).  An incompatible or
        diverging state falls back to a cold solve — see the ranking's
        ``diagnostics["warm_start"]``.  Warm starts relax bit-determinism
        to convergence-equivalence, so a cache hit computed from a
        different history may differ in the last bits while inducing the
        same ranking; :class:`~repro.api.session.CrowdSession` manages
        this end to end.
    **params:
        Method parameters (the registry validates the names), e.g.
        ``rank(matrix, "HnD", random_state=0, tolerance=1e-8)``.
    """
    if cache is not None and not isinstance(cache, RankCache):
        raise TypeError(
            "cache must be a RankCache or None, got %s" % type(cache).__name__
        )
    spec = REGISTRY.get(method)
    if init_state is not None:
        _require_warm_startable(spec)
    return BoundRanker(spec, params).run(response, cache=cache,
                                         init_state=init_state)


class BoundRanker(AbilityRanker):
    """A method spec and its parameters, bound to one ranker instance.

    Built by :func:`bind` and :func:`rank`.  The ranker is constructed
    once and its fingerprint taken once, so :meth:`cache_fingerprint`
    names the cache key without building another ranker, and a miss
    solves with the same instance.  The warm state is data, not a
    result-affecting parameter: :meth:`run` passes it to the solve, and
    the fingerprint never sees it.
    """

    def __init__(self, spec: RankerSpec, params: Dict[str, object]) -> None:
        self.name = spec.name
        self._ranker = spec.create(**params)
        self._fingerprint = ranker_fingerprint(self._ranker)
        self._init_state: Optional[SolverState] = None

    def cache_fingerprint(self):
        return self._fingerprint

    def run(self, response: ResponseMatrix, *, cache: Optional[RankCache] = None,
            init_state: Optional[SolverState] = None) -> AbilityRanking:
        """Rank ``response`` from ``init_state``, through ``cache`` when given."""
        self._init_state = init_state
        if cache is not None:
            return cache.rank(self, response)
        return self.rank(response)

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        # The warm state is only forwarded when present, so rankers that
        # are not warm-startable never receive an unexpected keyword.
        state_kwargs = (
            {} if self._init_state is None else {"init_state": self._init_state}
        )
        return self._ranker.rank(response, **state_kwargs)
