"""The asyncio serving front end: many named crowds, one event loop.

:class:`CrowdServer` builds its :class:`~repro.api.manager.SessionManager`
(and, with ``store_dir``, the durable store beneath it) from one
:class:`ServeConfig`, and hosts it behind a TCP endpoint speaking the
checksummed ``RPR2`` frames of :mod:`repro.engine.remote.protocol` with
the request/response schema of :mod:`repro.serve.schema`.  Every frame is
encoded and decoded through that module's ``encode_message`` and
``decode_payload``, looked up on the module at call time.  The mechanics
that make it safe under concurrent load, in dependency order:

**Micro-batched appends.**  ``add_answers`` hands the batch to
:meth:`CrowdSession.add_answers <repro.api.session.CrowdSession.add_answers>`
on the event loop, which validates and queues it under a short lock no
solve holds; the ack is immediate.  The session drains its queue at the
*next solve*, so a burst of appends between two ranks costs one matrix
re-materialization, and a rank admitted after an acked append always
observes it.  The server keeps no per-crowd state: the session owns its
answers and the manager owns which crowds are resident.

**Single-flight rank coalescing.**  Identical concurrent ranks — same
session and append ``epoch`` (the session's), same method-parameter
fingerprint (:func:`~repro.api.execution.method_fingerprint`), same
warm-start flag — await one in-flight solve and all receive the *same*
ranking object, hence bit-identical scores.  Equal epochs mean the same
accepted answers; cross-epoch duplicates (a repeated batch) still collapse
in the :class:`~repro.engine.cache.RankCache` underneath.  Nondeterministic
configurations (``random_state=None``) have no fingerprint and never
coalesce — two such requests legitimately differ, matching the cache's
bypass semantics.

**Solves off the loop.**  Every session-lock-taking operation (drain +
solve) runs on a bounded worker-thread pool, so the event loop keeps
accepting requests — and serving cache hits for *other* crowds — while a
cold solve grinds.  Sessions serialize their own operations internally
(:class:`~repro.api.session.CrowdSession`'s coarse lock), so concurrency
comes from hosting many crowds, exactly the serving workload.

**Rate limiting + backpressure.**  Each connection gets a
:class:`~repro.serve.ratelimit.TokenBucket`; an exhausted bucket is a
typed ``rate_limited`` rejection with ``retry_after`` — never a queued
wait.  Globally, at most ``max_queue`` solves may be dispatched-or-running
at once; past that, rank requests get a typed ``overloaded`` rejection
immediately (coalesced joiners ride free — they add no work).  A crowd's
queued answers are bounded the same way (``max_pending_answers``).  The
discipline: degrade loudly and boundedly, never hang, never grow an
unbounded queue.

**Diagnostics.**  The ``server_stats`` op snapshots every counter —
queue depth, coalesced/rejected counts, aggregate cache hit rate — from
lock-free or short-lock sources only, so observability never blocks on a
solve in flight.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.execution import method_fingerprint
from repro.api.manager import SessionManager
from repro.api.session import CrowdSession
from repro.engine.remote import protocol
from repro.engine.remote.protocol import ConnectionClosed
from repro.exceptions import (
    InvalidResponseMatrixError,
    ProtocolError,
    RateLimitedError,
    SchemaError,
    ServeError,
    ServerOverloadedError,
)
from repro.serve.ratelimit import TokenBucket
from repro.serve.schema import (
    PROTOCOL_VERSION,
    RANK_OPS,
    ServeRequest,
    error_frame,
    ok_frame,
)

Frame = Tuple[str, Dict[str, object], Dict[str, np.ndarray]]

#: Per-frame payload cap for this endpoint (the transport's own 2 GiB cap
#: is a corruption guard, not an admission policy); larger frames drop the
#: connection.
MAX_REQUEST_BYTES = 256 << 20

#: The ``retry_after`` hint, in seconds, on ``overloaded`` rejections: a
#: backoff suggestion, not a reservation.
OVERLOAD_RETRY_AFTER = 0.5


@dataclass
class ServeConfig:
    """Operational knobs of a :class:`CrowdServer`.

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from ``server.port`` / the CLI's ``READY`` line).
    max_queue:
        Bound on solves dispatched-or-running at once; rank requests past
        it are rejected with the typed ``overloaded`` error.  Coalesced
        requests do not count against it.
    solver_threads:
        Worker threads executing drains + solves.  Sessions serialize
        internally, so threads beyond the number of concurrently-active
        crowds buy nothing.
    rate, burst:
        Per-connection token-bucket rate limit (requests/s and bucket
        capacity).  ``rate=0`` disables limiting; ``burst=None`` defaults
        to one second of traffic, and an explicit ``burst`` must be at
        least one token.
    max_pending_answers:
        Per-crowd bound on queued (acknowledged but not yet drained)
        answers, :attr:`CrowdSession.pending_answers
        <repro.api.session.CrowdSession.pending_answers>`; appends past it
        are rejected ``overloaded``.
    max_sessions:
        Resident-crowd LRU bound, forwarded to the server's
        :class:`~repro.api.manager.SessionManager`.
    store_dir:
        Optional durable-store directory.  When set, crowds and rankings
        persist to a :class:`~repro.store.SnapshotStore` there, persisted
        crowds re-register on startup, and the first post-restart rank of
        unchanged data is served from a snapshot — see the README's
        "Durable state" walkthrough.  The server owns that store and
        closes it (draining its write-behind queue) on shutdown.
    allow_shutdown:
        Whether the wire ``shutdown`` op stops the server (disable when
        only the operator may stop the process).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 32
    solver_threads: int = 4
    rate: float = 0.0
    burst: Optional[float] = None
    max_pending_answers: int = 1_000_000
    max_sessions: int = 64
    store_dir: Optional[str] = None
    allow_shutdown: bool = True

    def __post_init__(self) -> None:
        for field in ("max_queue", "solver_threads", "max_sessions",
                      "max_pending_answers"):
            value = getattr(self, field)
            if int(value) < 1:
                raise ValueError("%s must be >= 1, got %r" % (field, value))
            setattr(self, field, int(value))
        if float(self.rate) < 0:
            raise ValueError("rate must be >= 0 (0 disables), got %r"
                             % (self.rate,))
        # A bucket below one token never grants a whole request, so every
        # request would be answered rate_limited.
        if self.burst is not None and float(self.burst) < 1:
            raise ValueError("burst must be >= 1 token, got %r" % (self.burst,))


class ServerStats:
    """Monotonic serving counters, safe across the loop + solver threads."""

    _NAMES = (
        "connections",
        "requests",
        "errors",
        "protocol_errors",
        "appends",
        "answers_buffered",
        "flush_failures",
        "solves",
        "coalesced",
        "rate_limited",
        "overloaded",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in self._NAMES}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


async def read_frame(reader: asyncio.StreamReader,
                     max_payload: Optional[int] = None) -> Frame:
    """Receive one frame from an asyncio stream.

    Same failure taxonomy as the blocking receiver: clean EOF between
    frames raises :class:`ConnectionClosed`, anything malformed raises
    :class:`~repro.exceptions.ProtocolError`.
    """
    try:
        prefix = await reader.readexactly(protocol.PREFIX_SIZE)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            raise ConnectionClosed("connection closed by peer") from err
        raise ProtocolError(
            "connection closed mid-frame (%d of %d prefix bytes missing)"
            % (protocol.PREFIX_SIZE - len(err.partial), protocol.PREFIX_SIZE)
        ) from err
    checksum, length = protocol.parse_prefix(prefix)
    if max_payload is not None and length > max_payload:
        raise ProtocolError(
            "frame payload of %d bytes exceeds this endpoint's %d-byte cap"
            % (length, max_payload)
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as err:
        raise ProtocolError(
            "connection closed mid-frame (%d of %d bytes missing)"
            % (length - len(err.partial), length)
        ) from err
    return protocol.decode_payload(payload, checksum)


async def write_frame(writer: asyncio.StreamWriter, frame: Frame) -> None:
    op, meta, arrays = frame
    writer.write(protocol.encode_message(op, meta, arrays))
    await writer.drain()


class CrowdServer:
    """Asyncio TCP server over a named-crowd :class:`SessionManager`.

    >>> server = CrowdServer(config=ServeConfig(port=0))
    >>> # async with server: ... (binds on enter, closes on exit)

    Use :meth:`start` / :meth:`aclose` (or the async context manager) from
    a running loop; :meth:`serve_forever` runs until the wire ``shutdown``
    op or :meth:`aclose`.
    """

    def __init__(self, *, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        store = None
        if self.config.store_dir is not None:
            from repro.store import SnapshotStore

            store = SnapshotStore(self.config.store_dir)
        self.manager = SessionManager(max_sessions=self.config.max_sessions,
                                      store=store)
        self.stats = ServerStats()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        # In-flight solves by (session, epoch, fingerprint, warm_start).
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shutdown = asyncio.Event()
        self._active_solves = 0
        self._open_connections = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "CrowdServer":
        if self._server is not None:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.solver_threads,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._started = time.monotonic()
        return self

    async def aclose(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            # Queued-but-unstarted solves are cancelled; a running solve
            # finishes (it holds a session lock and cannot be interrupted
            # safely mid-iteration).
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self.manager.store is not None:
            # Drain the write-behind queue so a clean shutdown leaves every
            # computed snapshot on disk.
            self.manager.store.close()

    async def serve_forever(self) -> None:
        """Serve until the wire ``shutdown`` op (or :meth:`aclose`)."""
        await self.start()
        await self._shutdown.wait()
        await self.aclose()

    async def __aenter__(self) -> "CrowdServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.inc("connections")
        self._open_connections += 1
        bucket = (
            TokenBucket(self.config.rate, self.config.burst)
            if self.config.rate > 0 else None
        )
        try:
            while not self._shutdown.is_set():
                try:
                    op, meta, arrays = await read_frame(reader, MAX_REQUEST_BYTES)
                except ConnectionClosed:
                    return
                except ProtocolError:
                    # The stream can no longer be trusted (bad magic, CRC
                    # mismatch, truncation): drop this connection only.
                    self.stats.inc("protocol_errors")
                    return
                frame = await self._handle_frame(op, meta, arrays, bucket)
                try:
                    await write_frame(writer, frame)
                except (ConnectionError, OSError):
                    return
                if frame[0] == "ok" and frame[1].get("op") == "shutdown":
                    self._shutdown.set()
                    return
        finally:
            self._open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_frame(
        self,
        op: str,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        bucket: Optional[TokenBucket],
    ) -> Frame:
        self.stats.inc("requests")
        request: Optional[ServeRequest] = None
        try:
            request = ServeRequest.from_frame(op, meta, arrays)
            if bucket is not None:
                wait = bucket.try_acquire()
                if wait > 0.0:
                    self.stats.inc("rate_limited")
                    raise RateLimitedError(
                        "client exceeded %g requests/s (burst %g); retry in "
                        "%.3f s" % (bucket.rate, bucket.burst, wait),
                        retry_after=wait,
                    )
            return await self._dispatch(request)
        except Exception as error:  # every failure becomes a typed reply
            if not isinstance(error, ServeError):
                self.stats.inc("errors")
            return error_frame(error, request)

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: ServeRequest) -> Frame:
        op = request.op
        if op == "ping":
            return ok_frame(request, {"server": "repro.serve",
                                      "uptime": time.monotonic() - self._started})
        if op == "create":
            self.manager.create(
                request.crowd,
                exist_ok=request.exist_ok,
                num_items=request.num_items,
                num_options=request.num_options,
                num_users=request.num_users,
            )
            return ok_frame(request, {"resident": len(self.manager)})
        if op == "drop":
            dropped = self.manager.drop(request.crowd)
            return ok_frame(request, {"dropped": dropped})
        if op == "list":
            return ok_frame(request, {"crowds": self.manager.describe()})
        if op == "stats":
            stats = self.manager.get(request.crowd).stats()
            return ok_frame(request, {"stats": stats})
        if op == "server_stats":
            return ok_frame(request, {"stats": self.server_stats()})
        if op == "add_answers":
            return self._accept_answers(request)
        if op in RANK_OPS:
            return await self._serve_rank(request)
        if op == "shutdown":
            if not self.config.allow_shutdown:
                raise SchemaError(
                    "the shutdown op is disabled on this server "
                    "(ServeConfig.allow_shutdown=False)"
                )
            return ok_frame(request)
        raise SchemaError("unhandled op %r" % op)  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Appends: queued by the session on the loop, drained in the solve
    # ------------------------------------------------------------------ #
    def _accept_answers(self, request: ServeRequest) -> Frame:
        session = self.manager.get(request.crowd)
        batch = request.answers[0].size
        if session.pending_answers + batch > self.config.max_pending_answers:
            self.stats.inc("overloaded")
            raise ServerOverloadedError(
                "crowd %r has %d answers buffered (cap %d); rank to "
                "flush, or retry later"
                % (request.crowd, session.pending_answers,
                   self.config.max_pending_answers),
                retry_after=OVERLOAD_RETRY_AFTER,
            )
        # The arrays are the request's buffers as received, views over the
        # payload's immutable bytes: the session's add_answers is the one
        # batch rule, and queues int64 buffers uncopied, an O(batch) cost.
        session.add_answers(*request.answers)
        self.stats.inc("appends")
        self.stats.inc("answers_buffered", batch)
        return ok_frame(request, {
            "buffered": batch,
            "pending_answers": session.pending_answers,
            "epoch": session.epoch,
        })

    def _solve_sync(self, session: CrowdSession, request: ServeRequest):
        """Rank on a worker thread; the rank drains the session's queue first.

        An append outside the crowd's declared shape is refused when it
        arrives (``add_answers`` answers ``bad_request``), so the one bad
        batch that reaches a rank is a *conflicting* repeat: a user
        answering one item twice with different options.  Refusing it
        needs the crowd's answers, so it surfaces at the session's
        materialization inside the rank that drains it, typed
        ``bad_request`` on that rank and counted in ``flush_failures``.
        Per the :class:`CrowdSession` contract it poisons the crowd's
        materialization until the crowd is dropped and re-created — the
        server surfaces that state on every rank rather than guessing
        which answer to discard.
        """
        try:
            return session.rank(
                request.method, warm_start=request.warm_start,
                **request.params
            )
        except InvalidResponseMatrixError:
            # The request was fine; the crowd's data is not.
            self.stats.inc("flush_failures")
            raise

    # ------------------------------------------------------------------ #
    # Ranks: single-flight coalescing onto executor solves
    # ------------------------------------------------------------------ #
    def _solve_key(self, request: ServeRequest) -> Optional[Tuple]:
        """The method-parameter half of the coalescing key: its fingerprint.

        ``None`` — never coalesce — for nondeterministic configurations,
        mirroring the rank cache's bypass.  Raises :class:`SchemaError` for
        parameter *values* the method's constructor rejects (names were
        already validated by the wire schema) and for an impossible warm
        start.
        """
        try:
            return method_fingerprint(request.method, request.params,
                                      warm_start=request.warm_start)
        except (TypeError, ValueError) as error:
            raise SchemaError(str(error)) from error

    async def _serve_rank(self, request: ServeRequest) -> Frame:
        session = self.manager.get(request.crowd)
        fingerprint = self._solve_key(request)
        key = (
            None if fingerprint is None
            else (session, session.epoch, fingerprint, request.warm_start)
        )
        future = self._inflight.get(key) if key is not None else None
        coalesced = future is not None
        if coalesced:
            self.stats.inc("coalesced")
        else:
            if self._active_solves >= self.config.max_queue:
                self.stats.inc("overloaded")
                raise ServerOverloadedError(
                    "solve queue is full (%d in flight, cap %d); retry later"
                    % (self._active_solves, self.config.max_queue),
                    retry_after=OVERLOAD_RETRY_AFTER,
                )
            self._active_solves += 1
            self.stats.inc("solves")
            future = asyncio.get_running_loop().run_in_executor(
                self._executor, self._solve_sync, session, request
            )
            if key is not None:
                self._inflight[key] = future

            def _finished(done_future, key=key) -> None:
                self._active_solves -= 1
                if key is not None:
                    self._inflight.pop(key, None)

            future.add_done_callback(_finished)
        ranking = await future
        return self._rank_frame(request, ranking, coalesced)

    def _rank_frame(self, request: ServeRequest, ranking, coalesced: bool) -> Frame:
        meta: Dict[str, object] = {
            "method": ranking.method,
            "num_users": int(ranking.scores.size),
            "served": "coalesced" if coalesced else "computed",
        }
        iterations = ranking.diagnostics.get("iterations")
        if iterations is not None:
            meta["iterations"] = int(iterations)
        warm_mode = ranking.diagnostics.get("warm_start")
        if request.warm_start and warm_mode is not None:
            meta["warm_start"] = warm_mode
        if ranking.diagnostics.get("snapshot_hit"):
            # Served from the durable store (post-restart warm path): the
            # client — and the persistence benchmark — can tell a ~ms
            # snapshot replay from a fresh solve.
            meta["snapshot_hit"] = True
        if request.op == "top_k":
            top = ranking.top_users(request.count)
            arrays = {
                "users": np.asarray(top, dtype=np.int64),
                "scores": np.ascontiguousarray(ranking.scores[top]),
            }
        else:
            arrays = {"scores": np.ascontiguousarray(ranking.scores)}
        return ok_frame(request, meta, arrays)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def server_stats(self) -> Dict[str, object]:
        """The ``server_stats`` payload — observability that never blocks.

        Built exclusively from lock-free reads and short-lock counters
        (the rank caches' own stats locks are never held across a solve),
        so this answers instantly even while every solver thread grinds.
        """
        cache = {"hits": 0, "misses": 0, "bypasses": 0, "disk_hits": 0}
        inflight = Counter(key[0] for key in list(self._inflight))
        crowds = []
        for name, session in self.manager.sessions():
            for key, value in session.cache.stats().items():
                if key in cache:
                    cache[key] += value
            crowds.append({
                "name": name,
                "num_answers": session.num_answers,
                "pending_answers": session.pending_answers,
                "epoch": session.epoch,
                "inflight": inflight[session],
            })
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        store = self.manager.store
        store_stats = store.stats() if store is not None else None
        return {
            "v": PROTOCOL_VERSION,
            "counters": self.stats.snapshot(),
            "queue": {
                "active_solves": self._active_solves,
                "max_queue": self.config.max_queue,
                "solver_threads": self.config.solver_threads,
                "open_connections": self._open_connections,
            },
            "sessions": self.manager.stats(),
            "cache": cache,
            "store": store_stats,
            "crowds": crowds,
            "uptime": time.monotonic() - self._started,
        }
