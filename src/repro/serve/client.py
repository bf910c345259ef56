"""Blocking client for a :class:`~repro.serve.server.CrowdServer`.

One :class:`ServeClient` is one TCP connection speaking the serve schema
over the framed transport — the counterpart the CI smoke test, the
benchmark harness, and user scripts drive.  It is deliberately *blocking*
(plain sockets, no asyncio): serving clients are usually load generators,
notebooks, or worker processes, and a synchronous call-per-request surface
is what those want.  Drive concurrency with threads or many clients — the
server multiplexes connections; one client multiplexing requests would
re-implement the server's job badly.

Error replies hydrate back into the same typed exceptions the server
raised, keyed on the wire ``code`` — so ``client.rank(...)`` raises
:class:`~repro.exceptions.RateLimitedError` with its ``retry_after``
exactly as server-side code would see it, and retry loops are written
against exception types, not string matching.

>>> with ServeClient("127.0.0.1", port) as client:   # doctest: +SKIP
...     client.create("quiz", num_items=100, num_options=4)
...     client.add_answers("quiz", users, items, options)
...     scores = client.rank("quiz", "HnD", random_state=0)
"""

from __future__ import annotations

import dataclasses
import socket
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.remote import protocol
from repro.exceptions import (
    CrowdExistsError,
    EngineError,
    RateLimitedError,
    SchemaError,
    ServeError,
    ServerOverloadedError,
    UnknownCrowdError,
)
from repro.serve.schema import ServeRequest, ServeResponse

#: Wire code -> the exception a failed call raises client-side.  Codes
#: outside the taxonomy (``engine_error``, ``internal``, future additions)
#: fall back to the :class:`ServeError` base so callers can still catch
#: everything serving-related in one clause.
_CODE_TO_ERROR = {
    "bad_request": SchemaError,
    "unknown_crowd": UnknownCrowdError,
    "crowd_exists": CrowdExistsError,
    "rate_limited": RateLimitedError,
    "overloaded": ServerOverloadedError,
}


def raise_for_response(response: ServeResponse) -> ServeResponse:
    """Hydrate an ``error`` response into its typed exception; pass ``ok``."""
    if response.ok:
        return response
    message = response.message or "server error"
    code = response.code or "error"
    cls = _CODE_TO_ERROR.get(code)
    if cls in (RateLimitedError, ServerOverloadedError):
        raise cls(message, retry_after=response.retry_after)
    if cls is not None:
        raise cls(message)
    if code == "engine_error":
        raise EngineError(message)
    error = ServeError(message)
    error.code = code
    raise error


class ServeClient:
    """One blocking connection to a serving endpoint.

    Parameters
    ----------
    host, port:
        The server's bind address (the CLI prints both on its ``READY``
        line).
    timeout:
        Socket timeout in seconds for connect and each reply (``None``
        waits forever — fine for a harness, unwise for production).
    """

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self._sock = socket.create_connection((host, self.port),
                                              timeout=timeout)
        self._requests = 0

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def call(self, request: ServeRequest) -> ServeResponse:
        """Send one request, wait for its reply, raise typed errors."""
        if request.request_id is None:
            self._requests += 1
            request = dataclasses.replace(request, request_id=self._requests)
        op, meta, arrays = request.frame()
        protocol.send_message(self._sock, op, meta, arrays)
        reply_op, reply_meta, reply_arrays = protocol.recv_message(self._sock)
        return raise_for_response(
            ServeResponse.from_frame(reply_op, reply_meta, reply_arrays)
        )

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Convenience surface (one method per wire op)
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, object]:
        return self.call(ServeRequest(op="ping")).meta

    def create(
        self,
        crowd: str,
        *,
        num_items: Optional[int] = None,
        num_options: Optional[Union[int, Sequence[int]]] = None,
        num_users: Optional[int] = None,
        exist_ok: bool = False,
    ) -> Dict[str, object]:
        return self.call(ServeRequest(
            op="create", crowd=crowd, num_items=num_items,
            num_options=(tuple(num_options)
                         if isinstance(num_options, (list, tuple))
                         else num_options),
            num_users=num_users, exist_ok=exist_ok,
        )).meta

    def drop(self, crowd: str) -> bool:
        return bool(self.call(ServeRequest(op="drop", crowd=crowd))
                    .meta.get("dropped"))

    def list(self) -> Tuple[Dict[str, object], ...]:
        return tuple(self.call(ServeRequest(op="list")).meta.get("crowds", ()))

    def add_answers(self, crowd: str, users, items, options) -> Dict[str, object]:
        """Buffer a batch of answers; returns the server's buffering ack.

        The batch is checked before it is sent, by the rule the server's
        session applies (:func:`~repro.core.response.validate_answer_batch`),
        so a malformed one raises
        :class:`~repro.exceptions.InvalidResponseMatrixError` here.
        """
        return self.call(ServeRequest(op="add_answers", crowd=crowd,
                                      answers=(users, items, options))).meta

    def rank(self, crowd: str, method: str = "HnD", *,
             warm_start: bool = False, **params) -> "RankResult":
        response = self.call(ServeRequest(
            op="rank", crowd=crowd, method=method,
            params=params, warm_start=warm_start,
        ))
        return RankResult(response)

    def top_k(self, crowd: str, count: int, method: str = "HnD", *,
              warm_start: bool = False, **params) -> "RankResult":
        response = self.call(ServeRequest(
            op="top_k", crowd=crowd, method=method, count=int(count),
            params=params, warm_start=warm_start,
        ))
        return RankResult(response)

    def stats(self, crowd: str) -> Dict[str, object]:
        return dict(self.call(ServeRequest(op="stats", crowd=crowd))
                    .meta.get("stats", {}))

    def server_stats(self) -> Dict[str, object]:
        return dict(self.call(ServeRequest(op="server_stats"))
                    .meta.get("stats", {}))

    def shutdown(self) -> None:
        """Ask the server to stop (it replies ``ok``, then exits its loop)."""
        self.call(ServeRequest(op="shutdown"))


class RankResult:
    """A rank/top_k reply: score arrays plus serving diagnostics."""

    def __init__(self, response: ServeResponse) -> None:
        self.meta = response.meta
        self.scores: np.ndarray = response.arrays.get(
            "scores", np.empty(0, dtype=float))
        #: Only on ``top_k`` replies: the selected user indices, best first.
        self.users: Optional[np.ndarray] = response.arrays.get("users")
        self.method: str = str(response.meta.get("method", ""))
        #: ``"computed"`` if this reply's solve ran for it, ``"coalesced"``
        #: if it shared another request's in-flight solve.
        self.served: str = str(response.meta.get("served", ""))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RankResult(method=%r, served=%r, num_users=%d)" % (
            self.method, self.served, self.scores.size,
        )
