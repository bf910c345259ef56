"""Stateful serving: an incrementally-growing crowd with a warm rank cache.

A :class:`CrowdSession` owns the three pieces a ranking service juggles by
hand — a :class:`~repro.core.response.ResponseBuilder` accumulating answer
triples, the materialized :class:`~repro.core.response.ResponseMatrix`, and
a :class:`~repro.engine.cache.RankCache` — and keeps them consistent:

* :meth:`add_answers` appends in ``O(batch)``; the matrix is re-materialized
  lazily, on the next read, through the canonical ``from_triples``
  validation (so a chunked session equals — and hash-equals — a one-shot
  build of the same answers).  Exact repeats are collapsed at
  materialization, so replaying an ingestion batch is idempotent;
  *conflicting* repeats (one user giving two different options for one
  item) raise at the next :attr:`matrix` access.
* staleness is **content-hash based**: the cache keys on
  ``ResponseMatrix.content_hash()``, so an append invalidates exactly the
  entries of the old matrix state (they age out of the LRU) while entries
  for other methods/parameters of the *new* state fill in on demand — and a
  no-op append (or re-ingesting identical data) still hits warm.
* :meth:`rank` / :meth:`top_k` route through :func:`repro.api.rank`, so the
  session serves any registered method.

>>> from repro.api import CrowdSession
>>> session = CrowdSession(num_items=3, num_options=4)
>>> _ = session.add_answers([0, 0, 1, 1], [0, 2, 0, 1], [1, 3, 1, 0])
>>> session.rank("MajorityVote").scores.shape
(2,)
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

import numpy as np

from repro.api.execution import rank as _rank, warm_start_fingerprint
from repro.core.ranking import AbilityRanking
from repro.core.response import ResponseBuilder, ResponseMatrix
from repro.core.solver_state import SolverState
from repro.engine.cache import RankCache
from repro.exceptions import InvalidResponseMatrixError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import SnapshotStore


class CrowdSession:
    """A growing crowd served through the unified ranking API.

    **Concurrency contract.**  A session is safe to share across threads:
    every *stateful* operation (:meth:`add_answers`, :meth:`add_user`,
    :meth:`rank`, :meth:`top_k`, the :attr:`matrix` /
    :meth:`content_hash` reads) holds one internal :class:`threading.RLock`
    for its whole duration, so the two stateful races — the lazy
    :attr:`matrix` rebuild (two readers must not both materialize, and an
    append must not invalidate a half-built matrix) and the warm-start
    lineage lookup (``_ranked_hashes`` is read by :meth:`rank` and written
    after it) — cannot interleave.  The size counters
    (:attr:`num_answers` / :attr:`num_users`) and :meth:`stats` are
    deliberately **lock-free snapshots** — monotonic integers read
    atomically under the GIL — so observability never waits behind a
    solve in flight.  The granularity is deliberately
    coarse: *operations on one session serialize*, including solves, so
    two concurrent :meth:`rank` calls on the same crowd run one after the
    other (the second usually lands a cache hit).  Concurrency comes from
    running many sessions — see :class:`~repro.api.manager.SessionManager`
    — and request-level dedup belongs above the session (``repro.serve``
    coalesces identical in-flight ranks before they reach the lock).  An
    append issued while another thread solves simply waits; it is never
    lost and never observed half-applied.

    Parameters
    ----------
    num_items:
        Fixed item count, when known up front (otherwise inferred as
        ``max(item) + 1`` over everything appended).
    num_options:
        Scalar or per-item option counts (inferred from the data when
        omitted).
    num_users:
        Minimum user-row count to materialize (e.g. registered users who
        have not answered yet); grows automatically past it.
    cache:
        The session's :class:`RankCache`, or an ``int`` capacity (at
        least 1) for a fresh one (default 128 entries).  A fresh cache is
        built over ``store`` when one is given; an explicit
        :class:`RankCache` is used as-is (attach the store to it yourself
        if you want the disk tier).  Any other type, ``bool`` included,
        raises ``TypeError``.
    store:
        Optional :class:`~repro.store.SnapshotStore`: rankings persist as
        snapshots through the cache, and — when ``name`` is also given —
        the crowd's triples persist after each rank of a changed crowd
        (write-behind, off the critical path), so the crowd itself
        survives a restart.  See :meth:`restore`.
    name:
        The crowd's durable name inside ``store``.  Without it the
        session still snapshots rankings (they are content-addressed,
        name-free) but the triples are not persisted.
    """

    def __init__(
        self,
        *,
        num_items: Optional[int] = None,
        num_options: Optional[Union[Sequence[int], int]] = None,
        num_users: Optional[int] = None,
        cache: Optional[Union[RankCache, int]] = None,
        store: "Optional[SnapshotStore]" = None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(cache, RankCache):
            self.cache = cache
        elif cache is None or (isinstance(cache, (int, np.integer))
                               and not isinstance(cache, bool)):
            self.cache = RankCache(
                maxsize=128 if cache is None else int(cache), store=store
            )
        else:
            raise TypeError(
                "cache must be a RankCache, an int capacity or None, got %s"
                % type(cache).__name__
            )
        self._builder = ResponseBuilder(num_items=num_items, num_options=num_options)
        self._min_users = None if num_users is None else int(num_users)
        self.store = store
        self.name = name
        # Content hash of the last crowd state handed to the store, so an
        # unchanged crowd is never re-persisted.
        self._persisted_hash: Optional[str] = None
        self._matrix: Optional[ResponseMatrix] = None
        # Reentrant: rank() holds the lock across the matrix property and
        # the nested top_k -> rank path.  See the class docstring for the
        # (deliberately coarse) contract.
        self._state_lock = threading.RLock()
        # Content hashes of every crowd state this session has ranked: the
        # warm-start lineage.  A shared RankCache holds solver states from
        # unrelated crowds under the same fingerprint; restricting the
        # lookup to this session's own history keeps a foreign state from
        # ever seeding a warm solve.
        self._ranked_hashes: set = set()

    @classmethod
    def from_matrix(cls, matrix: ResponseMatrix, **kwargs) -> "CrowdSession":
        """Start a session pre-loaded with an existing matrix's answers."""
        users, items, options = matrix.triples
        session = cls(
            num_items=matrix.num_items,
            num_options=matrix.num_options,
            num_users=matrix.num_users,
            **kwargs,
        )
        session.add_answers(users, items, options)
        return session

    @classmethod
    def restore(
        cls, store: "SnapshotStore", name: str, **kwargs
    ) -> "Optional[CrowdSession]":
        """Rebuild the persisted crowd ``name`` from ``store``, or ``None``.

        The triples reload through the canonical NPZ path (a restored
        session materializes hash-equal to the pre-restart crowd), and the
        restored content hash seeds both the warm-start lineage and the
        persisted-hash watermark — so the first post-restart rank of
        unchanged data is an exact snapshot hit, the first rank after an
        append warm-starts from the stored solver state, and an unchanged
        crowd is not immediately re-persisted.  A missing *or corrupt*
        persisted crowd answers ``None`` (the store already logged why):
        restoring can degrade to a cold, empty start but never fail.
        """
        matrix = store.load_crowd(name)
        if matrix is None:
            return None
        session = cls.from_matrix(matrix, store=store, name=name, **kwargs)
        restored_hash = matrix.content_hash()
        session._ranked_hashes.add(restored_hash)
        session._persisted_hash = restored_hash
        return session

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def add_answers(self, users, items=None, options=None) -> "CrowdSession":
        """Append a batch of answers; ``O(batch)``, matrix rebuilt lazily.

        Accepts either three parallel arrays ``(users, items, options)`` or
        a single ``(N, 3)`` array of answer *rows*.  A bare tuple is
        rejected rather than guessed at: for a 3 x 3 batch, columns and
        rows are indistinguishable, and silently transposing answers would
        corrupt the crowd.  Empty batches are true no-ops: the
        materialized matrix and every warm cache entry stay valid.
        """
        if items is None and options is None:
            if isinstance(users, tuple):
                raise InvalidResponseMatrixError(
                    "pass the three answer arrays as separate arguments — "
                    "add_answers(users, items, options) — or one (N, 3) "
                    "array of answer rows; a bare tuple is ambiguous "
                    "between the two"
                )
            triples = np.asarray(users)
            if triples.size == 0:
                return self
            if triples.ndim == 2 and triples.shape[1] == 3:
                users, items, options = triples[:, 0], triples[:, 1], triples[:, 2]
            else:
                raise InvalidResponseMatrixError(
                    "add_answers takes (users, items, options) arrays or an "
                    "(N, 3) triples array, got shape %s" % (triples.shape,)
                )
        with self._state_lock:
            before = self._builder.num_answers
            self._builder.add_answers(users, items, options)
            if self._builder.num_answers != before:
                self._matrix = None
        return self

    def add_user(self, items, options) -> int:
        """Append a whole new user's answers; returns the new user index."""
        with self._state_lock:
            user = self._builder.add_user(items, options)
            self._matrix = None  # a new user row changes the shape even if empty
        return user

    # ------------------------------------------------------------------ #
    # Materialized state
    # ------------------------------------------------------------------ #
    @property
    def num_answers(self) -> int:
        # Lock-free snapshot (see the class contract): a plain int read,
        # safe against a concurrent append under the GIL.
        return self._builder.num_answers

    @property
    def num_users(self) -> int:
        seen = self._builder.num_users
        return seen if self._min_users is None else max(seen, self._min_users)

    @property
    def matrix(self) -> ResponseMatrix:
        """The current crowd, materialized through ``from_triples``.

        Rebuilt only when answers arrived since the last build; a chunked
        ingestion history materializes equal (and hash-equal) to a one-shot
        ``from_triples`` of the same answers.  Exact repeated triples
        (replayed ingestion batches) are collapsed, so replays are
        idempotent; *conflicting* repeats (one user, one item, two
        different options) raise here, leaving the ingested state intact.
        """
        with self._state_lock:
            if self._matrix is None:
                self._matrix = self._builder.build(
                    num_users=self.num_users or None, deduplicate=True
                )
            return self._matrix

    def content_hash(self) -> str:
        """The stable digest of the current crowd (the cache's staleness key)."""
        return self.matrix.content_hash()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def rank(
        self,
        method: str = "HnD",
        *,
        warm_start: bool = False,
        **params,
    ) -> AbilityRanking:
        """Rank the current crowd; warm cache hits when nothing changed.

        The session cache is always consulted: identical (data, method,
        parameters) queries are served in ``O(nnz)`` hash time, and a real
        append changes the content hash, forcing a recompute.

        With ``warm_start=True`` that recompute becomes *incremental*: the
        solve restarts from the solver state the cache captured for the
        same method and parameters under the previous content hash, so an
        append of ``b`` answers costs the few iterations the perturbation
        needs instead of a full cold solve (committed numbers in
        ``benchmarks/BENCH_PR5.json``).  The contract relaxes from
        bit-determinism to *convergence equivalence*: the warm result
        induces the same ranking as a cold solve of the current crowd,
        with scores within the method's convergence tolerance — and an
        incompatible or diverging state falls back to a cold solve
        automatically (``diagnostics["warm_start"]``).  Requires a method
        registered ``warm_startable`` and a deterministic, cacheable
        parameter set (``ValueError`` otherwise); a no-op append still
        serves the exact warm cache hit.
        """
        with self._state_lock:
            init_state: Optional[SolverState] = None
            if warm_start:
                init_state = self._warm_state(method, params)
            ranking = _rank(self.matrix, method, cache=self.cache,
                            init_state=init_state, **params)
            # Record this crowd state in the warm-start lineage (the digest
            # is memoized on the matrix, so this costs a dict insert).
            current_hash = self.matrix.content_hash()
            self._ranked_hashes.add(current_hash)
            if (
                self.store is not None
                and self.name is not None
                and current_hash != self._persisted_hash
            ):
                # Persist the crowd that was just ranked, behind the solve:
                # the matrix object is immutable (an append builds a new
                # one), so handing it to the write-behind thread is safe,
                # and the watermark keeps an unchanged crowd from being
                # re-saved on every rank.
                store, name, matrix = self.store, self.name, self._matrix
                self._persisted_hash = current_hash
                store.defer(lambda: store.save_crowd(name, matrix))
        return ranking

    def _warm_state(self, method: str, params: Dict[str, object]) -> Optional[SolverState]:
        """Validate warm-startability and fetch the latest *own* state.

        The lookup is restricted to cache entries produced for this
        session's own crowd history (`_ranked_hashes`): on a shared cache,
        another crowd's converged state under the same fingerprint must
        solve cold here, not masquerade as a warm iterate.
        """
        fingerprint = warm_start_fingerprint(method, params)
        return self.cache.latest_state(fingerprint, hashes=self._ranked_hashes)

    def top_k(
        self,
        count: int,
        method: str = "HnD",
        *,
        warm_start: bool = False,
        **params,
    ) -> np.ndarray:
        """Indices of the ``count`` highest-ranked users, best first."""
        ranking = self.rank(method, warm_start=warm_start, **params)
        return ranking.top_users(count)

    def stats(self) -> Dict[str, object]:
        """Session counters: crowd size plus the cache's hit/miss/bypass.

        Lock-free (see the class contract): a stats probe must answer
        instantly even while another thread holds the lock through a
        solve, so these are atomic snapshot reads, not a locked view.
        """
        info: Dict[str, object] = {
            "num_users": self.num_users,
            "num_answers": self.num_answers,
            "materialized": self._matrix is not None,
        }
        info.update({"cache_%s" % key: value
                     for key, value in self.cache.stats().items()})
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CrowdSession(num_users=%d, num_answers=%d)" % (
            self.num_users, self.num_answers,
        )
