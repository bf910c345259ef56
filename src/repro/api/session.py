"""Stateful serving: an incrementally-growing crowd with a warm rank cache.

A :class:`CrowdSession` owns the three pieces a ranking service juggles by
hand — a :class:`~repro.core.response.ResponseBuilder` accumulating answer
triples, the materialized :class:`~repro.core.response.ResponseMatrix`, and
a :class:`~repro.engine.cache.RankCache` — and keeps them consistent:

* :meth:`add_answers` is the crowd's one accept point, and its checks
  are the only ones an answer gets: it validates a batch against the
  shape declared at construction and queues it in ``O(batch)`` without
  waiting on a solve.  The next read drains the queue into the builder,
  which only merges: it sorts the new answers and inserts them into the
  previous matrix's canonical triples, and the new matrix derives its
  content hash and compiled kernels from the previous matrix's.  So an
  append costs the batch's sort plus ``O(nnz)`` array copies, not a
  re-sort or a re-validation of the crowd (and a chunked session equals
  — and hash-equals — a one-shot build of the same answers).  The merge
  finds every repeat where it lands: exact repeats are dropped, so
  replaying an ingestion batch is idempotent; *conflicting* repeats (one
  user giving two different options for one item) raise at the next
  :attr:`matrix` access, and at every one after it.
* staleness is **content-hash based**: the cache keys on
  ``ResponseMatrix.content_hash()``, so an append invalidates exactly the
  entries of the old matrix state while entries for other
  methods/parameters of the *new* state fill in on demand — and a no-op
  append (or re-ingesting identical data) still hits warm.  The session
  records the content hash it last ranked each method fingerprint at: a
  warm start reads the solver state stored under exactly that key, and a
  rank at a new hash drops the entry the fingerprint left at the old one
  (:meth:`~repro.engine.cache.RankCache.discard`), so the cache keeps one
  entry per fingerprint, the one the next warm start resumes from.
* :meth:`rank` / :meth:`top_k` bind the method once, through
  :func:`~repro.api.execution.bind`, into the
  :class:`~repro.api.execution.BoundRanker` that :func:`repro.api.rank`
  also solves with, so the session serves any registered method.

>>> from repro.api import CrowdSession
>>> session = CrowdSession(num_items=3, num_options=4)
>>> _ = session.add_answers([0, 0, 1, 1], [0, 2, 0, 1], [1, 3, 1, 0])
>>> session.rank("MajorityVote").scores.shape
(2,)
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.execution import bind
from repro.core.ranking import AbilityRanking
from repro.core.response import ResponseBuilder, ResponseMatrix, _as_counts
from repro.core.solver_state import SolverState
from repro.engine.cache import RankCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import SnapshotStore


class CrowdSession:
    """A growing crowd served through the unified ranking API.

    **Concurrency contract.**  A session is safe to share across threads.
    :meth:`add_answers` and :meth:`add_user` validate, queue and count a
    batch under a short lock that no solve holds, so they return while
    another thread solves.  Reads of the crowd (:meth:`rank`,
    :meth:`top_k`, :attr:`matrix`, :meth:`content_hash`) hold one
    :class:`threading.RLock` throughout and first drain the queue into the
    builder, so the lazy rebuild and the warm-start record
    (``_ranked_at``) never interleave, and a read observes every batch
    accepted before it.  The counters (:attr:`num_answers`,
    :attr:`num_users`, :attr:`pending_answers`, :attr:`epoch`) and
    :meth:`stats` are lock-free snapshots, so observability never waits
    behind a solve.  Reads serialize: two concurrent :meth:`rank` calls on
    one crowd run one after the other (the second usually hits the cache).
    Concurrency comes from many sessions
    (:class:`~repro.api.manager.SessionManager`), and ``repro.serve``
    coalesces identical in-flight ranks, keyed on the :attr:`epoch`,
    before they reach the lock.

    Parameters
    ----------
    num_items:
        Fixed item count, when known up front (otherwise inferred as
        ``max(item) + 1`` over everything appended, or taken from the
        length of a per-item ``num_options``).
    num_options:
        Scalar or per-item option counts (inferred from the data when
        omitted).  The declared shape is checked here, once, and bounds
        every batch :meth:`add_answers` and :meth:`add_user` accept.
    num_users:
        Minimum user-row count to materialize (e.g. registered users who
        have not answered yet); grows automatically past it.  A whole
        number of at least 0.
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

    Attributes
    ----------
    cache:
        The session's own :class:`~repro.engine.cache.RankCache`, of the
        default capacity and over ``store``.  Nothing above the session
        hands one in or sizes it: a growing crowd keeps one entry per
        method fingerprint (see :meth:`rank`).
    """

    def __init__(
        self,
        *,
        num_items: Optional[int] = None,
        num_options: Optional[Union[Sequence[int], int]] = None,
        num_users: Optional[int] = None,
        store: "Optional[SnapshotStore]" = None,
        name: Optional[str] = None,
    ) -> None:
        self.cache = RankCache(store=store)
        self._builder = ResponseBuilder(num_items=num_items, num_options=num_options)
        self._min_users = (0 if num_users is None
                           else int(_as_counts(num_users, "num_users", 0)))
        self.store = store
        self.name = name
        # Content hash of the last crowd state handed to the store, so an
        # unchanged crowd is never re-persisted.
        self._persisted_hash: Optional[str] = None
        self._matrix: Optional[ResponseMatrix] = None
        # Accepted batches not yet in the builder, and the counters that
        # include them; all guarded by _accept_lock, which no solve holds.
        self._accept_lock = threading.Lock()
        self._queue: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending_answers = 0
        self._num_answers = 0
        self._num_users = 0
        self._epoch = 0
        # Reentrant: rank() holds the lock across the matrix property and
        # the nested top_k -> rank path (see the class contract).
        self._state_lock = threading.RLock()
        # Fingerprint -> the content hash this session last ranked it at,
        # with the restored crowd's hash as the fallback.  A warm start
        # reads only the state stored under that key, so another crowd's
        # state in the shared store never seeds a warm solve.
        self._ranked_at: Dict[Tuple, str] = {}
        self._restored_hash: Optional[str] = None

    @classmethod
    def from_matrix(cls, matrix: ResponseMatrix, **kwargs) -> "CrowdSession":
        """Start a session whose crowd is ``matrix``, installed as is.

        ``matrix`` becomes both the builder's base and the current matrix,
        with no copy and no sort: the first :attr:`matrix` read returns
        ``matrix`` itself, :attr:`pending_answers` is 0 and
        ``stats()["materialized"]`` is True at once.  It counts as one
        accepted batch (:attr:`epoch` 1), and later appends merge into it.
        """
        session = cls(
            num_items=matrix.num_items,
            num_options=matrix.num_options,
            num_users=matrix.num_users,
            **kwargs,
        )
        session._builder = ResponseBuilder.from_matrix(matrix)
        session._matrix = matrix
        session._num_answers = matrix.num_answers
        session._epoch = 1
        return session

    @classmethod
    def restore(
        cls, store: "SnapshotStore", name: str, **kwargs
    ) -> "Optional[CrowdSession]":
        """Rebuild the persisted crowd ``name`` from ``store``, or ``None``.

        The triples reload through the canonical NPZ path, and the loaded
        matrix becomes the session's crowd through :meth:`from_matrix`, so
        the first read re-sorts nothing and returns a matrix hash-equal to
        the pre-restart crowd.  The restored content hash becomes both the
        warm-start fallback key and the persisted-hash watermark — so the
        first post-restart rank of unchanged data is an exact snapshot hit,
        the first rank after an append warm-starts from the state stored
        under the restored hash, and an unchanged crowd is not immediately
        re-persisted; the digest is memoized on the served matrix, so that
        rank does not re-hash the crowd.  A missing *or corrupt* persisted
        crowd answers ``None`` (the store already logged why): restoring
        can degrade to a cold, empty start but never fail.
        """
        matrix = store.load_crowd(name)
        if matrix is None:
            return None
        session = cls.from_matrix(matrix, store=store, name=name, **kwargs)
        session._restored_hash = session._persisted_hash = matrix.content_hash()
        return session

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def add_answers(self, users, items, options) -> "CrowdSession":
        """Accept a batch of three parallel answer arrays; ``O(batch)``.

        A batch a later read would refuse raises here and leaves the crowd
        as it was: unequal lengths, a non-integer or negative index, an
        item at or past the declared ``num_items``, or an option at or past
        its item's declared count (:meth:`ResponseBuilder.check_batch
        <repro.core.response.ResponseBuilder.check_batch>`).  The one
        exception is a *conflicting* repeat (one user, one item, two
        options), which needs the crowd's answers to see and so raises at
        the next read.  An accepted batch counts at once and is safe from
        later mutation of the caller's arrays.  Empty batches are true
        no-ops: the epoch, the matrix and every warm cache entry stay
        valid.
        """
        batch = self._builder.check_batch(users, items, options)
        if batch[0].size:
            with self._accept_lock:
                self._queue_locked(batch, int(batch[0].max()) + 1)
        return self

    def add_user(self, items, options) -> int:
        """Accept a whole new user's answers; returns the new user index.

        Checked against the declared shape like :meth:`add_answers`.
        """
        users, items, options = self._builder.check_batch(
            np.zeros(np.size(items), dtype=np.int64), items, options
        )
        with self._accept_lock:
            # Past every registered row (num_users=), not only answered ones;
            # the new row exists even if items is empty.
            user = self.num_users
            users[:] = user
            self._queue_locked((users, items, options), user + 1)
        return user

    def _queue_locked(self, batch, num_users: int) -> None:
        """Queue and count a validated batch (caller holds the accept lock)."""
        self._queue.append(batch)
        self._pending_answers += batch[0].size
        self._num_answers += batch[0].size
        self._num_users = max(self._num_users, num_users)
        self._epoch += 1

    # ------------------------------------------------------------------ #
    # Materialized state
    # ------------------------------------------------------------------ #
    @property
    def num_answers(self) -> int:
        """Answers accepted so far, queued ones included."""
        return self._num_answers

    @property
    def num_users(self) -> int:
        return max(self._num_users, self._min_users)

    @property
    def pending_answers(self) -> int:
        """Accepted answers still queued for the next read."""
        return self._pending_answers

    @property
    def epoch(self) -> int:
        """Accepted batches and users so far: equal epochs, equal answers."""
        return self._epoch

    @property
    def matrix(self) -> ResponseMatrix:
        """The current crowd, materialized by the session's builder.

        Rebuilt only when answers arrived since the last build, by merging
        them into the last build's triples (:meth:`ResponseBuilder.build
        <repro.core.response.ResponseBuilder.build>`), with
        :attr:`num_users` rows at least; a chunked ingestion history
        materializes equal (and hash-equal) to a one-shot ``from_triples``
        of the same answers.  Exact repeated triples (replayed ingestion
        batches) are dropped, so replays are idempotent; *conflicting*
        repeats (one user, one item, two different options) raise here,
        leaving the ingested state intact.
        """
        with self._state_lock:
            if self._queue or self._matrix is None:
                self._matrix = None
                with self._accept_lock:  # drain the queue
                    batches, self._queue = self._queue, []
                    self._pending_answers = 0
                    num_users = self.num_users
                for batch in batches:  # validated and private: no copy
                    self._builder._extend(*batch)
                self._matrix = self._builder.build(num_users=num_users)
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

        The method and its parameters are bound once
        (:func:`~repro.api.execution.bind`): one ranker names the cache
        key and, on a miss, solves.  With a store and a name, a rank of a
        changed crowd queues a save of it behind the solve, or hands its
        matrix to the crowd's save still queued
        (:meth:`~repro.store.SnapshotStore.defer_crowd_save`).  That decision
        is taken under the accept lock, so once the manager's ``drop`` has
        detached the session, a rank still in flight queues no save and
        cannot bring the dropped crowd back.
        """
        with self._state_lock:
            bound = bind(method, params, warm_start=warm_start)
            # The cache key's fingerprint; None (uncacheable) records nothing.
            fingerprint = bound.cache_fingerprint()
            previous = self._ranked_at.get(fingerprint, self._restored_hash)
            init_state: Optional[SolverState] = None
            if warm_start and previous is not None:
                init_state = self.cache.latest_state(previous, fingerprint)
            # Read once: answers accepted during the solve belong to the
            # next read, not to the state recorded and persisted below.
            matrix = self.matrix
            ranking = bound.run(matrix, cache=self.cache, init_state=init_state)
            # Memoized on the matrix, so this does not re-hash the crowd.
            current_hash = matrix.content_hash()
            if fingerprint is not None and previous != current_hash:
                # The crowd only grows, so it is never ranked at `previous`
                # again; the new entry carries the next warm start's state.
                if previous is not None:
                    self.cache.discard(previous, fingerprint)
                self._ranked_at[fingerprint] = current_hash
            # Persist the crowd that was just ranked, behind the solve: the
            # matrix object is immutable (an append builds a new one), so
            # handing it to the write-behind thread is safe, the watermark
            # keeps an unchanged crowd from being re-saved on every rank,
            # and the store's one queued save per crowd writes the newest
            # state handed to it.  Decided and queued under the accept
            # lock, so a _detach() either comes first and no save is
            # queued, or comes after and the drop's flush drains the save
            # before removing.
            with self._accept_lock:
                store, name = self.store, self.name
                if store is not None and name is not None \
                        and current_hash != self._persisted_hash:
                    self._persisted_hash = current_hash
                    store.defer_crowd_save(name, matrix)
        return ranking

    def _detach(self) -> None:
        """Stop persisting this crowd's triples (the manager's ``drop``).

        Any rank that decides to persist after this call queues no save;
        one that decided before it has already queued its save, which the
        caller drains before it removes the durable state.
        """
        with self._accept_lock:
            self.name = None

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
        """Crowd size, queue and epoch, plus the cache's hit/miss/bypass.

        Lock-free (see the class contract): a stats probe answers at once
        even while another thread holds the lock through a solve.
        """
        info: Dict[str, object] = {
            "num_users": self.num_users,
            "num_answers": self.num_answers,
            "pending_answers": self.pending_answers,
            "epoch": self.epoch,
            "materialized": self._matrix is not None and not self._queue,
        }
        info.update({"cache_%s" % key: value
                     for key, value in self.cache.stats().items()})
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CrowdSession(num_users=%d, num_answers=%d)" % (
            self.num_users, self.num_answers,
        )
