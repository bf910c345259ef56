"""Hash-keyed LRU cache for repeated ``rank()`` calls on unchanged data.

A ranking is a pure function of ``(matrix canonical state, ranker class +
parameters)``.  PR 2 made the first half cheap to key — the canonical
triples are a normal form, so :meth:`ResponseMatrix.content_hash
<repro.core.response.ResponseMatrix.content_hash>` is an ``O(nnz)`` digest
that collides exactly on equal matrices — and :func:`ranker_fingerprint`
derives the second half from a ranker's constructor state.

:class:`RankCache` combines the two into an LRU map, so a service answering
repeated ranking queries over a slowly-changing crowd pays the full
``rank()`` cost once per (matrix, method) pair and ``O(nnz)`` hashing per
hit — at the committed 200k x 5k scenario that turns a roughly two-minute
sharded HnD-Power call into a ~38 ms warm hit, three orders of magnitude
(see ``benchmarks/BENCH_PR3.json``).

Nondeterministic rankers (a ``random_state`` of ``None`` or a live
``Generator``) are detected by the fingerprint and **bypass** the cache:
two calls would legitimately return different rankings, so serving a memo
would silently change semantics.

Each entry also carries a **state slot**: the
:class:`~repro.core.solver_state.SolverState` the producing solve ended in
(when the method captures one).  Scores and state are one entry — one unit
of the LRU accounting, evicted together.  After an append makes the
content hash stale, :class:`~repro.api.session.CrowdSession` looks up the
state stored under the exact key it last ranked the method at
(:meth:`RankCache.latest_state`), and then drops that superseded entry
(:meth:`RankCache.discard`): a growing crowd is never ranked at an older
state again.

With a :class:`~repro.store.SnapshotStore` attached (``store=``), the LRU
gains a disk tier: a memory miss consults the store before solving (a hit
is promoted into the LRU and returns the exact stored scores — bit
identity crosses process restarts), and every computed entry is written
back **behind** the solve on the store's write-behind thread, so
durability never sits on the serving latency path.  Corrupt or foreign
records are the store's problem by contract: its lookups return ``None``
(fall back cold) rather than raising, so attaching a store can never make
``rank()`` fail.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.api.registry import REGISTRY
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import SnapshotStore


def _fingerprint_value(value: object) -> Optional[object]:
    """A hashable, equality-faithful token for one ranker attribute.

    Returns ``None`` when the value cannot be fingerprinted faithfully
    (which marks the whole ranker uncacheable).
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return (type(value).__name__, value)
    if isinstance(value, np.dtype):
        return ("dtype", value.str)
    if isinstance(value, np.generic):
        return (type(value).__name__, value.item())
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        tokens = tuple(_fingerprint_value(item) for item in value)
        if any(token is None for token in tokens):
            return None
        return (type(value).__name__, tokens)
    if isinstance(value, dict):
        tokens = tuple(
            (key, _fingerprint_value(item)) for key, item in sorted(value.items())
        )
        if any(token is None for _, token in tokens):
            return None
        return ("dict", tokens)
    return None


def _nondeterministic_random_state(name: str, value: object) -> bool:
    """The uncacheable random-state shapes: fresh-seed-per-call or mutable."""
    return name == "random_state" and (
        value is None or isinstance(value, np.random.Generator)
    )


def ranker_fingerprint(ranker: AbilityRanker) -> Optional[Tuple]:
    """A hashable key identifying a ranker's class and parameters.

    Two rankers with equal fingerprints produce equal rankings on equal
    matrices.  Returns ``None`` — *uncacheable* — when that cannot be
    guaranteed: a method the registry marks non-cacheable, a parameter that
    cannot be faithfully tokenized, or a nondeterministic random state
    (``random_state`` of ``None`` draws a fresh seed per call; a live
    ``Generator`` mutates between calls).

    Resolution order:

    1. a ``cache_fingerprint()`` hook on the ranker
       (:class:`~repro.api.execution.BoundRanker` returns the fingerprint
       of the one ranker it built, so its entries are those of the ranker
       its parameters describe);
    2. the registry's param spec, for registered ranker classes — only the
       declared result-affecting parameters enter the key, so
       ``**kwargs``-style incidental state can never poison it with a
       silent ``None`` (cache-bypass) fingerprint;
    3. instance-``vars()`` introspection for unregistered rankers.
    """
    hook = getattr(ranker, "cache_fingerprint", None)
    if callable(hook):
        return hook()

    spec = REGISTRY.spec_for(type(ranker))
    if spec is not None:
        if not spec.cacheable:
            return None
        tokens = []
        for param in sorted(spec.params, key=lambda p: p.name):
            try:
                value = getattr(ranker, param.attribute)
            except AttributeError:
                return None
            if _nondeterministic_random_state(param.name, value):
                return None
            token = _fingerprint_value(value)
            if token is None:
                return None
            tokens.append((param.name, token))
        return (type(ranker).__module__, type(ranker).__qualname__, tuple(tokens))

    tokens = []
    for name, value in sorted(vars(ranker).items()):
        if _nondeterministic_random_state(name, value):
            return None
        token = _fingerprint_value(value)
        if token is None:
            return None
        tokens.append((name, token))
    return (type(ranker).__module__, type(ranker).__qualname__, tuple(tokens))


class RankCache:
    """Thread-safe LRU cache of :class:`AbilityRanking` results.

    Keys are ``(matrix content hash, ranker fingerprint)``; a hit costs one
    ``O(nnz)`` digest and one dict lookup, independent of the ranking
    method's cost.  Hits return the *stored* ranking object — treat cached
    rankings as read-only (their score arrays are shared across callers).

    Parameters
    ----------
    maxsize:
        Entries kept; the least recently used entry is evicted beyond it.
    store:
        Optional :class:`~repro.store.SnapshotStore` disk tier: memory
        misses consult it (hits are promoted into the LRU), computed
        entries are written back behind the solve, and
        :meth:`latest_state` falls through to its records.
    """

    def __init__(
        self, maxsize: int = 128, store: "Optional[SnapshotStore]" = None
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1, got %d" % maxsize)
        self.maxsize = maxsize
        self.store = store
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.disk_hits = 0
        self._entries: "OrderedDict[Tuple, AbilityRanking]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(
        self, ranker: AbilityRanker, response: ResponseMatrix
    ) -> Optional[Tuple]:
        """The cache key, or ``None`` when the ranker is uncacheable.

        ``(response.content_hash(), ranker fingerprint)``.
        """
        fingerprint = ranker_fingerprint(ranker)
        if fingerprint is None:
            return None
        return (response.content_hash(), fingerprint)

    def rank(
        self, ranker: AbilityRanker, response: ResponseMatrix
    ) -> AbilityRanking:
        """``ranker.rank(response)``, served from the cache when possible.

        A memory miss consults the disk tier (when a store is attached)
        before computing; a computed ranking is inserted and written back
        behind the solve.
        """
        key = self.key_for(ranker, response)
        if key is None:
            with self._lock:
                self.bypasses += 1
            return ranker.rank(response)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        if self.store is not None:
            # Disk tier: an exact stored answer (bit-identical scores, the
            # producing solver state riding along) beats recomputing.  The
            # store absorbs every failure mode as a miss, so this lookup
            # cannot raise.
            record = self.store.get_snapshot(key[0], key[1])
            if record is not None:
                ranking = record.to_ranking()
                self._insert(key, ranking)
                with self._lock:
                    self.disk_hits += 1
                return ranking
        ranking = ranker.rank(response)
        self._insert(key, ranking)
        if self.store is not None:
            # Write-behind: durability off the critical path.  The ranking
            # is immutable once returned, so handing it to the store's
            # worker thread is safe.
            store, content_hash, fingerprint = self.store, key[0], key[1]
            store.defer(lambda: store.put_snapshot(
                ranking, content_hash=content_hash, fingerprint=fingerprint,
            ))
        return ranking

    def _insert(self, key: Tuple, ranking: AbilityRanking) -> None:
        with self._lock:
            self._entries[key] = ranking
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def latest_state(
        self, content_hash: str, fingerprint: Optional[Tuple]
    ) -> Optional[SolverState]:
        """The solver state stored under exactly ``(content_hash, fingerprint)``.

        This is the warm-start lookup: after an append the crowd's *new*
        hash has no entry, but the entry its previous rank left holds the
        state the next solve resumes from.  The caller names that key —
        :class:`~repro.api.session.CrowdSession` records the hash it last
        ranked each fingerprint at — so a shared cache can never hand one
        crowd another crowd's state.  A memory miss reads the store's
        record for the key (a restart empties the LRU, not the disk).
        Returns ``None`` when neither tier holds a state for the key.
        """
        with self._lock:
            ranking = self._entries.get((content_hash, fingerprint))
        if ranking is None and self.store is not None:
            ranking = self.store.get_snapshot(content_hash, fingerprint)
        return None if ranking is None else ranking.state

    def discard(self, content_hash: str, fingerprint: Optional[Tuple]) -> None:
        """Drop the in-memory entry under the exact key, if there is one.

        The disk tier keeps its record; entries under other keys, other
        crowds' included, are not touched.
        """
        with self._lock:
            self._entries.pop((content_hash, fingerprint), None)

    def clear(self) -> None:
        """Drop the in-memory entries (the disk tier is not touched)."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.bypasses = self.disk_hits = 0

    def stats(self) -> Dict[str, int]:
        """Counters: ``hits``/``misses``/``bypasses``/``disk_hits``/``size``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
                "disk_hits": self.disk_hits,
                "size": len(self._entries),
            }
