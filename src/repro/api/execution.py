"""``rank()`` + :class:`ExecutionPolicy`: *what* to run vs *how* to run it.

The paper's methods are pure functions of the response matrix; how they
execute is an operational choice that must never change the answer.  There
are two choices: fused in-process ``O(nnz)`` kernels (the default), or
remote socket workers holding user-range shards.  :class:`ExecutionPolicy`
makes that choice an explicit value, and the policy is remote exactly when
it names worker addresses::

    from repro.api import ExecutionPolicy, rank

    ranking = rank(matrix, "HnD", random_state=0)                  # fused
    ranking = rank(matrix, "HnD", random_state=0,
                   execution=ExecutionPolicy(
                       remote_workers=["10.0.0.5:9101", "10.0.0.6:9101"],
                       shards=8))                                  # remote

Both return bit-identical scores (the determinism model of
:mod:`repro.engine.sharding`); the policy additionally carries a
:class:`~repro.engine.cache.RankCache` so repeated queries of unchanged
data are served from the hash-keyed cache regardless of backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.api.registry import REGISTRY, RankerSpec
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState
from repro.engine.cache import RankCache, ranker_fingerprint
from repro.engine.remote.coordinator import RemoteEngine, parse_worker_address
from repro.engine.remote.supervision import SupervisionConfig
from repro.engine.sharding import ShardedResponse

RankInput = Union[ResponseMatrix, ShardedResponse]


@dataclass
class ExecutionPolicy:
    """How a ranking runs — orthogonal to which method runs.

    The backend is not a knob: the policy is ``remote`` exactly when
    ``remote_workers`` is set, and ``fused`` (the single-process ``O(nnz)``
    kernels) otherwise.  Both return bit-identical scores.  The other
    execution knobs only mean something remotely, so setting one without
    ``remote_workers`` raises ``ValueError`` instead of being ignored.

    Attributes
    ----------
    shards:
        User-range shard count the remote workers split the answers into.
    remote_workers:
        Remote worker addresses (``"host:port"`` strings or ``(host,
        port)`` pairs); setting them selects the remote backend.
    supervision:
        :class:`~repro.engine.remote.supervision.SupervisionConfig`
        overriding the remote backend's timeout/retry/breaker defaults.
    iteration_batch:
        Solver iterations per remote round-trip (default 1 — per-op
        dispatch).  Above 1, the HnD power loop ships its serialized
        driver state and runs that many iterations per socket round-trip
        on a worker-held full replica of the fused kernel, amortizing the
        dispatch latency.  Execution-only: every batch size produces
        bit-identical scores, so the cache fingerprint ignores it.
    cache:
        Optional :class:`~repro.engine.cache.RankCache` serving repeated
        ``rank()`` calls of unchanged data.  The cache key ignores the
        execution policy entirely — the backends are bit-identical, so a
        ranking computed by one is a valid hit for the other.
    """

    shards: int = 1
    remote_workers: Optional[Sequence[Union[str, Tuple[str, int]]]] = None
    supervision: Optional[SupervisionConfig] = None
    iteration_batch: int = 1
    cache: Optional[RankCache] = None

    def __post_init__(self) -> None:
        if int(self.shards) < 1:
            raise ValueError("shards must be >= 1, got %r" % (self.shards,))
        self.shards = int(self.shards)
        if int(self.iteration_batch) < 1:
            raise ValueError(
                "iteration_batch must be >= 1, got %r" % (self.iteration_batch,)
            )
        self.iteration_batch = int(self.iteration_batch)
        if self.remote_workers is not None:
            # Normalize and fail fast on malformed addresses, long before a
            # socket is touched.
            self.remote_workers = tuple(
                parse_worker_address(worker) for worker in self.remote_workers
            )
            if not self.remote_workers:
                raise ValueError(
                    "remote_workers needs at least one host:port worker "
                    "address (leave it None for the fused backend)"
                )
            return
        remote_only = [
            "%s=%r" % (name, value)
            for name, value in (("shards", self.shards),
                                ("iteration_batch", self.iteration_batch))
            if value > 1
        ]
        if self.supervision is not None:
            remote_only.append("supervision")
        if remote_only:
            raise ValueError(
                "%s only applies to the remote backend — set remote_workers "
                "(host:port addresses); the fused backend runs in-process "
                "with nothing to shard, batch or supervise"
                % ", ".join(remote_only)
            )

    @property
    def resolved_backend(self) -> str:
        """``"remote"`` when worker addresses are set, else ``"fused"``."""
        return "remote" if self.remote_workers else "fused"


def warm_start_fingerprint(method: str, params: Dict[str, object]):
    """Validate that ``(method, params)`` can warm-start; return the fingerprint.

    The single source of the warm-start eligibility rules — the CLI's
    fail-fast check and :meth:`CrowdSession.rank(warm_start=True)
    <repro.api.session.CrowdSession.rank>` both call this, so the error
    prose cannot drift between surfaces.  Raises ``ValueError`` when the
    method is not registered ``warm_startable`` or when the parameter set
    is nondeterministic/uncacheable (no fingerprint means no keyed solver
    state to resume from).
    """
    spec = REGISTRY.get(method)
    if not spec.warm_startable:
        raise ValueError(
            "method %r does not support warm starts (no convergence "
            "criterion to resume, or chaotic dynamics — a warm result "
            "would not be equivalent to a cold solve); warm-startable "
            "methods: %s"
            % (spec.name,
               ", ".join(sorted(REGISTRY.names(warm_startable=True))))
        )
    fingerprint = ranker_fingerprint(spec.create(**params))
    if fingerprint is None:
        raise ValueError(
            "warm start requires a deterministic, cacheable configuration "
            "of %r — the solver state is keyed by the method's parameter "
            "fingerprint; pass a fixed integer random_state instead of "
            "None or a live Generator" % (spec.name,)
        )
    return fingerprint


def rank(
    response: RankInput,
    method: str,
    *,
    execution: Optional[ExecutionPolicy] = None,
    cache: Optional[RankCache] = None,
    init_state: Optional[SolverState] = None,
    **params,
) -> AbilityRanking:
    """Rank the users of ``response`` with a registered method.

    Parameters
    ----------
    response:
        A :class:`ResponseMatrix`, or a pre-split
        :class:`~repro.engine.sharding.ShardedResponse` (its shard layout
        is reused by the remote backend).
    method:
        A registered method name (see ``repro.api.REGISTRY``); unknown
        names raise ``KeyError`` with a did-you-mean hint.
    execution:
        The :class:`ExecutionPolicy`; default is fused single-process.
    cache:
        Overrides ``execution.cache`` when given.
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
    policy = execution if execution is not None else ExecutionPolicy()
    spec = REGISTRY.get(method)
    if init_state is not None and not spec.warm_startable:
        raise ValueError(
            "method %r does not support warm starts (registered "
            "warm_startable=False); warm-startable methods: %s"
            % (spec.name,
               ", ".join(sorted(REGISTRY.names(warm_startable=True))))
        )
    ranker = _PolicyRanker(spec, params, policy, init_state=init_state)
    rank_cache = cache if cache is not None else policy.cache
    if rank_cache is not None:
        return rank_cache.rank(ranker, response)
    return ranker.rank(response)


class _PolicyRanker(AbilityRanker):
    """Internal adapter binding (method spec, params, policy) to ``rank()``.

    Its cache fingerprint is that of the *fused* ranker the parameters
    describe: the backends are bit-identical, so rankings cached under one
    execution policy are valid hits for the other.
    """

    def __init__(self, spec: RankerSpec, params: Dict[str, object],
                 policy: ExecutionPolicy,
                 init_state: Optional[SolverState] = None) -> None:
        spec.validate_params(params)
        self._spec = spec
        self._params = dict(params)
        self._policy = policy
        self._init_state = init_state
        self.name = spec.name

    def cache_fingerprint(self):
        if not (self._spec.cacheable and self._spec.deterministic):
            return None
        return ranker_fingerprint(self._spec.create(**self._params))

    def rank(self, response: RankInput) -> AbilityRanking:
        # Warm state rides outside the registry param spec (it is data, not
        # a result-affecting parameter — the fingerprint must not see it),
        # and is only forwarded when present so non-warm-startable rankers
        # never receive an unexpected keyword.
        state_kwargs = (
            {} if self._init_state is None else {"init_state": self._init_state}
        )
        if not self._policy.remote_workers:
            matrix = (
                response.source
                if isinstance(response, ShardedResponse)
                else response
            )
            return self._spec.create(**self._params).rank(matrix, **state_kwargs)

        runner = self._spec.runner
        if runner is None:
            supported = sorted(
                spec.name for spec in REGISTRY if spec.runner is not None
            )
            raise ValueError(
                "method %r has no shard-parallel kernels, so the remote "
                "backend cannot run it; remote methods: %s — use the "
                "default fused backend instead"
                % (self._spec.name, ", ".join(supported))
            )
        # The shard split itself stays here (serial — it is O(S log nnz));
        # only kernel dispatch crosses the network boundary.
        sharded = (
            response
            if isinstance(response, ShardedResponse)
            else ShardedResponse.split(response, self._policy.shards)
        )
        with RemoteEngine(
            sharded,
            self._policy.remote_workers,
            supervision=self._policy.supervision,
            iteration_batch=self._policy.iteration_batch,
        ) as engine:
            return runner(engine, **state_kwargs, **self._params)
