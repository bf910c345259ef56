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
:func:`method_fingerprint` names the fingerprint half of those keys for a
method name and its parameters; no other module derives one from a name.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api.registry import REGISTRY, RankerSpec
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState
from repro.engine.cache import RankCache, ranker_fingerprint


def _require_warm_startable(spec: RankerSpec) -> None:
    """``ValueError`` unless ``spec`` is registered ``warm_startable``.

    The one copy of this check and its prose, shared by :func:`rank`
    (``init_state=``) and :func:`method_fingerprint` (``warm_start=True``).
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


def method_fingerprint(method: str, params: Dict[str, object], *,
                       warm_start: bool = False):
    """The cache fingerprint of ``method`` with ``params``; ``None`` if uncacheable.

    The one place a fingerprint is derived from a method name: the
    session's per-fingerprint bookkeeping, the server's coalescing key and
    the CLI's fail-fast check all call it, so they name exactly the key
    :func:`rank` caches under.  Unknown names raise ``KeyError``, unknown
    parameter names ``TypeError``, and values the constructor rejects its
    own error.

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
    fingerprint = ranker_fingerprint(spec.create(**params))
    if warm_start and fingerprint is None:
        raise ValueError(
            "warm start requires a deterministic, cacheable configuration "
            "of %r — the solver state is keyed by the method's parameter "
            "fingerprint; pass a fixed integer random_state instead of "
            "None or a live Generator" % (spec.name,)
        )
    return fingerprint


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
    ranker = _SpecRanker(spec, params, init_state=init_state)
    if cache is not None:
        return cache.rank(ranker, response)
    return ranker.rank(response)


class _SpecRanker(AbilityRanker):
    """Internal adapter binding (method spec, params, warm state) to ``rank()``.

    Its cache fingerprint is that of the ranker the parameters describe;
    the warm state is data, not a result-affecting parameter, so the
    fingerprint never sees it.
    """

    def __init__(self, spec: RankerSpec, params: Dict[str, object],
                 init_state: Optional[SolverState] = None) -> None:
        spec.validate_params(params)
        self._spec = spec
        self._params = dict(params)
        self._init_state = init_state
        self.name = spec.name

    def cache_fingerprint(self):
        if not (self._spec.cacheable and self._spec.deterministic):
            return None
        return ranker_fingerprint(self._spec.create(**self._params))

    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        # The warm state is only forwarded when present, so rankers that
        # are not warm-startable never receive an unexpected keyword.
        state_kwargs = (
            {} if self._init_state is None else {"init_state": self._init_state}
        )
        return self._spec.create(**self._params).rank(response, **state_kwargs)
