"""``SessionManager``: a named-crowd registry over :class:`CrowdSession`.

A serving process hosts *many* crowds — one per task, classroom, or
survey — and the scripts that used to juggle ad-hoc one-off sessions all
re-implemented the same bookkeeping: name -> session lookup, a default
rank-cache capacity, and some bound on how many resident sessions memory
can hold.  :class:`SessionManager` is that bookkeeping, once:

* ``create`` / ``get`` / ``drop`` / ``names`` — the registry surface.
  Unknown names raise :class:`~repro.exceptions.UnknownCrowdError` with a
  did-you-mean hint (same discipline as the ranker registry); creating an
  existing name raises :class:`~repro.exceptions.CrowdExistsError` unless
  ``exist_ok`` asks for idempotent creation.
* a per-crowd **cache default** — sessions inherit the manager's cache
  capacity unless ``create`` overrides it.
* an **LRU bound** on resident sessions — every ``get``/``create``
  touch refreshes recency, and creating past ``max_sessions`` evicts the
  least recently used crowd (counted in ``stats()['evictions']``).
  Without a store, an evicted crowd is gone and a later request raises
  :class:`UnknownCrowdError`.  With ``store=`` (the durable tier), a
  manager *restores*: persisted crowds re-register at construction (a
  restarted server comes back knowing its crowds), an evicted-but-
  persisted crowd is transparently reloaded on the next ``get``/
  ``create`` (counted in ``stats()['restored']``), and eviction is
  therefore cheap — it sheds memory, not state.  ``drop`` removes the
  durable state too: drop-and-recreate is the recovery path for a
  poisoned crowd, and must not resurrect the bad data.

Both the ``repro.serve`` front end and the CLI route through this class,
and it is thread-safe: the registry map is guarded by its own lock, and
each :class:`CrowdSession` holds its own coarse operation lock, so
operations on *different* crowds run fully in parallel.

>>> from repro.api import SessionManager
>>> manager = SessionManager(max_sessions=2)
>>> _ = manager.create("quiz-a", num_items=3, num_options=4)
>>> _ = manager.get("quiz-a").add_answers([0, 1], [0, 0], [1, 1])
>>> manager.names()
('quiz-a',)
"""

from __future__ import annotations

import difflib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.api.session import CrowdSession
from repro.engine.cache import RankCache
from repro.exceptions import CrowdExistsError, UnknownCrowdError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import SnapshotStore


class SessionManager:
    """Thread-safe name -> :class:`CrowdSession` registry with an LRU bound.

    Parameters
    ----------
    max_sessions:
        Resident-session cap; creating beyond it evicts the least
        recently used crowd (its in-memory state is discarded).
    cache_size:
        Default per-session :class:`RankCache` capacity (the
        :class:`CrowdSession` default when omitted).
    store:
        Optional :class:`~repro.store.SnapshotStore` durable tier.  At
        construction, persisted crowds re-register (most recently saved
        first, up to ``max_sessions``); afterwards, sessions are created
        store-backed, misses try a restore before raising, and ``drop``
        removes durable state.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 64,
        cache_size: Optional[int] = None,
        store: "Optional[SnapshotStore]" = None,
    ) -> None:
        if int(max_sessions) < 1:
            raise ValueError(
                "max_sessions must be >= 1, got %r" % (max_sessions,)
            )
        self.max_sessions = int(max_sessions)
        self.cache_size = cache_size
        self.store = store
        self._sessions: "OrderedDict[str, CrowdSession]" = OrderedDict()
        self._lock = threading.Lock()
        self._evictions = 0
        self._created = 0
        self._dropped = 0
        self._restored = 0
        if store is not None:
            # Re-register what survived the last process: most recently
            # saved first, so when the durable set exceeds the resident
            # bound, the crowds most likely to be asked for come back warm
            # (the rest restore lazily on demand).
            with self._lock:
                for name in store.crowd_names()[: self.max_sessions]:
                    self._restore_locked(name)

    def _restore_locked(self, name: str) -> Optional[CrowdSession]:
        """Reload one persisted crowd into residency (caller holds lock).

        A crowd that fails to load (corrupt NPZ, hash mismatch — the
        store logged why) is treated as absent: restoring degrades, never
        raises.
        """
        if self.store is None:
            return None
        try:
            session = CrowdSession.restore(self.store, name, cache=self.cache_size)
        except Exception:  # a poisoned persisted crowd must not kill startup
            return None
        if session is None:
            return None
        self._sessions[name] = session
        self._sessions.move_to_end(name)
        self._restored += 1
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self._evictions += 1
        return session

    # ------------------------------------------------------------------ #
    # Registry surface
    # ------------------------------------------------------------------ #
    def create(
        self,
        name: str,
        *,
        exist_ok: bool = False,
        cache: Optional[Union[RankCache, int]] = None,
        **session_kwargs,
    ) -> CrowdSession:
        """Create (and return) the crowd registered under ``name``.

        ``session_kwargs`` go to :class:`CrowdSession` (``num_items``,
        ``num_options``, ``num_users``); ``cache`` defaults to the
        manager's ``cache_size``.  With ``exist_ok``, an already-resident
        name returns the existing session untouched — idempotent creation for
        at-least-once request streams; without it, a duplicate raises
        :class:`~repro.exceptions.CrowdExistsError`.  Creating past
        ``max_sessions`` evicts the least recently used crowd first.
        """
        if not isinstance(name, str) or not name:
            raise ValueError("crowd name must be a non-empty string, got %r"
                             % (name,))
        with self._lock:
            existing = self._sessions.get(name)
            if existing is None and self.store is not None:
                # A persisted crowd *exists* even when not resident:
                # creating over it must behave like creating over a
                # resident one (idempotent with exist_ok, an error
                # without), never silently shadow the durable data.
                existing = self._restore_locked(name)
            if existing is not None:
                if exist_ok:
                    self._sessions.move_to_end(name)
                    return existing
                raise CrowdExistsError(
                    "crowd %r already exists (%d users, %d answers); pass "
                    "exist_ok for idempotent creation or drop it first"
                    % (name, existing.num_users, existing.num_answers)
                )
            if cache is None and self.cache_size is not None:
                cache = self.cache_size
            session = CrowdSession(
                cache=cache,
                store=self.store,
                name=name if self.store is not None else None,
                **session_kwargs,
            )
            self._sessions[name] = session
            self._created += 1
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self._evictions += 1
            return session

    def get(self, name: str) -> CrowdSession:
        """The session under ``name``; :class:`UnknownCrowdError` otherwise.

        A hit refreshes the crowd's LRU recency.  With a store, a miss
        tries a restore first — an evicted-but-persisted crowd reloads
        transparently instead of erroring (this is what makes the LRU
        bound cheap).
        """
        with self._lock:
            session = self._sessions.get(name)
            if session is not None:
                self._sessions.move_to_end(name)
                return session
            if self.store is not None:
                session = self._restore_locked(name)
                if session is not None:
                    return session
            resident = list(self._sessions)
        close = difflib.get_close_matches(str(name), resident, n=3, cutoff=0.4)
        hint = ("; did you mean %s?" % " or ".join(repr(c) for c in close)
                if close else "")
        raise UnknownCrowdError(
            "unknown crowd %r%s (resident: %s)"
            % (name, hint, ", ".join(sorted(resident)) or "none")
        )

    def drop(self, name: str) -> bool:
        """Forget the crowd under ``name``; ``False`` if it was not resident.

        Dropping is idempotent by design (at-least-once request streams
        replay drops), hence the boolean instead of an error.
        """
        with self._lock:
            dropped = self._sessions.pop(name, None) is not None
            if self.store is not None:
                # The durable state goes with the resident state: dropping
                # is the recovery path for a poisoned crowd, and a later
                # create must start empty, not resurrect the old answers.
                # Drain the write-behind queue first — a save this crowd's
                # last rank deferred must land *before* the removal, not
                # after it (which would resurrect the dropped data).
                self.store.flush()
                dropped = self.store.drop_crowd(name) or dropped
            if dropped:
                self._dropped += 1
            return dropped

    def names(self) -> Tuple[str, ...]:
        """Resident crowd names, least recently used first."""
        with self._lock:
            return tuple(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def describe(self) -> List[Dict[str, object]]:
        """One summary dict per resident crowd (the ``list`` wire op).

        Sizes are read without refreshing recency — describing the fleet
        must not shuffle the eviction order.
        """
        with self._lock:
            sessions = list(self._sessions.items())
        return [
            {
                "name": name,
                "num_users": session.num_users,
                "num_answers": session.num_answers,
            }
            for name, session in sessions
        ]

    def stats(self) -> Dict[str, int]:
        """Counters: ``resident``/``created``/``dropped``/``evictions``/``restored``."""
        with self._lock:
            return {
                "resident": len(self._sessions),
                "created": self._created,
                "dropped": self._dropped,
                "evictions": self._evictions,
                "restored": self._restored,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SessionManager(resident=%d, max_sessions=%d)" % (
            len(self), self.max_sessions,
        )
