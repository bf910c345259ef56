"""Versioned wire schema for the ``repro.serve`` protocol.

One request or response is one checksummed wire frame
(:mod:`repro.engine.remote.protocol`: ``MAGIC | crc32 | length | payload``,
payload = JSON header + raw array buffers).  This module is the *meaning*
of those frames — typed dataclasses plus validation — and deliberately
knows nothing about sockets, so the whole schema is testable from plain
``(op, meta, arrays)`` triples:

* a **request** frame's op is the operation name (:data:`OPS`); its JSON
  meta carries ``v`` (the protocol version — mandatory, checked first),
  the crowd name, and the per-op fields; answer batches travel as int64
  array buffers (``users`` / ``items`` / ``options``), never as JSON
  lists, so a million-answer append costs no JSON parsing.
* a **response** frame's op is ``"ok"`` or ``"error"``; error metas carry
  the stable ``code`` of the :class:`~repro.exceptions.ServeError`
  taxonomy plus prose (and ``retry_after`` for the throttling codes).

Every validation failure raises :class:`~repro.exceptions.SchemaError`
naming the offending field.  Unknown *operations* get the registry's
did-you-mean prose over :data:`OPS` (:func:`~repro.api.registry.unknown_name`);
ranking *methods* are resolved through the ranker registry, so its
did-you-mean prose, its supervised-method refusal and its parameter hint
reach the wire unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.registry import REGISTRY, unknown_name
from repro.exceptions import SchemaError, ServeError

#: Protocol version this build speaks.  Versioning is strict equality for
#: now: there is exactly one deployed version, and a silent best-effort
#: parse of a future frame would be worse than a typed rejection.
PROTOCOL_VERSION = 1

#: The request surface.  ``shutdown`` lets harnesses stop the server over
#: its own protocol.
OPS = (
    "ping",
    "create",
    "drop",
    "list",
    "add_answers",
    "rank",
    "top_k",
    "stats",
    "server_stats",
    "shutdown",
)

#: Ops that operate on one named crowd (``crowd`` is mandatory).
CROWD_OPS = ("create", "drop", "add_answers", "rank", "top_k", "stats")

#: Ops that request a solve — the ones the server rate-budgets hardest.
RANK_OPS = ("rank", "top_k")

#: JSON-scalar types a ranking-method parameter may carry on the wire.
_SCALAR = (bool, int, float, str, type(None))


def _field(meta: Dict[str, object], name: str, types, *, required: bool = False,
           default=None, label: str = "") -> object:
    """Fetch + type-check one meta field; :class:`SchemaError` otherwise."""
    value = meta.get(name, None)
    if value is None:
        if required:
            raise SchemaError("request field %r is required%s"
                              % (name, (" for op %r" % label) if label else ""))
        return default
    type_tuple = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass in JSON-land too; only accept it when asked.
    if not isinstance(value, type_tuple) or (
        isinstance(value, bool) and bool not in type_tuple
    ):
        raise SchemaError(
            "request field %r must be %s, got %r"
            % (name, "/".join(t.__name__ for t in type_tuple), value)
        )
    return value


def _int_field(meta, name, *, required=False, default=None, minimum=None,
               label=""):
    value = _field(meta, name, int, required=required, default=default,
                   label=label)
    if value is not None and minimum is not None and value < minimum:
        raise SchemaError("request field %r must be >= %d, got %d"
                          % (name, minimum, value))
    return value


def _answer_arrays(
    arrays: Dict[str, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the three answer buffers of an ``add_answers`` request.

    Structural checks only (present, integer, equal length, non-negative):
    range checks against the crowd's item/option counts belong to the
    session, whose ``add_answers`` refuses the batch before acking it.
    """
    out = []
    length = None
    for name in ("users", "items", "options"):
        array = arrays.get(name)
        if array is None:
            raise SchemaError(
                "add_answers needs the %r array buffer (int64 answer column)"
                % name
            )
        array = np.asarray(array)
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise SchemaError(
                "add_answers array %r must be a 1-D integer array, got "
                "dtype %s shape %s" % (name, array.dtype, array.shape)
            )
        if length is None:
            length = array.size
        elif array.size != length:
            raise SchemaError(
                "add_answers arrays must have equal length (users has %d, "
                "%s has %d)" % (length, name, array.size)
            )
        array = array.astype(np.int64, copy=False)
        if array.size and int(array.min()) < 0:
            raise SchemaError(
                "add_answers array %r contains negative indices" % name
            )
        out.append(array)
    return tuple(out)


def _validate_method(method: str, params: Dict[str, object]) -> None:
    """Resolve ``method`` through the ranker registry, typed for the wire.

    A typo'd method name surfaces the registry's did-you-mean hint; a
    supervised baseline gets the registry's one refusal (the CLI's and
    screening's too); a typo'd *parameter* name surfaces the registry's
    parameter hint.
    """
    try:
        REGISTRY.get_unsupervised(method).validate_params(params)
    except (KeyError, ValueError, TypeError) as error:
        raise SchemaError(error.args[0]) from error


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated request.

    Construct via :meth:`from_frame` (server side) or the keyword
    constructor + :meth:`frame` (client side); both ends share the same
    validation, so a client cannot emit a frame the server would reject
    on schema grounds.
    """

    op: str
    crowd: Optional[str] = None
    request_id: Optional[Union[int, str]] = None
    # create
    num_items: Optional[int] = None
    num_options: Optional[Union[int, Tuple[int, ...]]] = None
    num_users: Optional[int] = None
    exist_ok: bool = False
    # add_answers — three equal-length int64 arrays (users, items, options)
    answers: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    # rank / top_k
    method: str = "HnD"
    params: Dict[str, object] = field(default_factory=dict)
    warm_start: bool = False
    count: Optional[int] = None

    @classmethod
    def from_frame(
        cls,
        op: str,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "ServeRequest":
        """Parse + validate one received frame into a request."""
        if not isinstance(meta, dict):
            raise SchemaError("request meta must be a JSON object, got %r"
                              % type(meta).__name__)
        version = meta.get("v")
        if version != PROTOCOL_VERSION:
            raise SchemaError(
                "unsupported protocol version %r (this server speaks v%d)"
                % (version, PROTOCOL_VERSION)
            )
        if op not in OPS:
            raise SchemaError(unknown_name("op", op, OPS, "ops"))
        request_id = _field(meta, "id", (int, str))
        crowd = _field(meta, "crowd", str, required=op in CROWD_OPS, label=op)

        if op == "create":
            num_options = meta.get("num_options")
            if num_options is not None:
                if isinstance(num_options, int) and not isinstance(num_options, bool):
                    pass
                elif isinstance(num_options, (list, tuple)) and all(
                    isinstance(k, int) and not isinstance(k, bool)
                    for k in num_options
                ):
                    num_options = tuple(num_options)
                else:
                    raise SchemaError(
                        "request field 'num_options' must be an int or a "
                        "list of ints, got %r" % (num_options,)
                    )
            return cls(
                op=op, crowd=crowd, request_id=request_id,
                num_items=_int_field(meta, "num_items", minimum=1),
                num_options=num_options,
                num_users=_int_field(meta, "num_users", minimum=0),
                exist_ok=bool(_field(meta, "exist_ok", bool, default=False)),
            )

        if op == "add_answers":
            return cls(op=op, crowd=crowd, request_id=request_id,
                       answers=_answer_arrays(arrays))

        if op in RANK_OPS:
            method = _field(meta, "method", str, default="HnD")
            params = _field(meta, "params", dict, default={})
            for name, value in params.items():
                if not isinstance(name, str) or not isinstance(value, _SCALAR):
                    raise SchemaError(
                        "method parameter %r must map a string name to a "
                        "JSON scalar, got %r" % (name, value)
                    )
            _validate_method(method, params)
            count = _int_field(meta, "count", required=op == "top_k",
                               minimum=1, label=op)
            return cls(
                op=op, crowd=crowd, request_id=request_id,
                method=method, params=dict(params),
                warm_start=bool(_field(meta, "warm_start", bool, default=False)),
                count=count,
            )

        # ping / drop / list / stats / server_stats / shutdown: no payload
        return cls(op=op, crowd=crowd, request_id=request_id)

    def frame(self) -> Tuple[str, Dict[str, object], Dict[str, np.ndarray]]:
        """Encode this request as an ``(op, meta, arrays)`` frame triple."""
        meta: Dict[str, object] = {"v": PROTOCOL_VERSION}
        if self.request_id is not None:
            meta["id"] = self.request_id
        if self.crowd is not None:
            meta["crowd"] = self.crowd
        arrays: Dict[str, np.ndarray] = {}
        if self.op == "create":
            for name in ("num_items", "num_users"):
                value = getattr(self, name)
                if value is not None:
                    meta[name] = int(value)
            if self.num_options is not None:
                meta["num_options"] = (
                    int(self.num_options)
                    if isinstance(self.num_options, int)
                    else [int(k) for k in self.num_options]
                )
            if self.exist_ok:
                meta["exist_ok"] = True
        elif self.op == "add_answers":
            if self.answers is None:
                raise SchemaError("add_answers request carries no answers")
            users, items, options = self.answers
            arrays = {
                "users": np.asarray(users, dtype=np.int64),
                "items": np.asarray(items, dtype=np.int64),
                "options": np.asarray(options, dtype=np.int64),
            }
        elif self.op in RANK_OPS:
            meta["method"] = self.method
            if self.params:
                meta["params"] = dict(self.params)
            if self.warm_start:
                meta["warm_start"] = True
            if self.count is not None:
                meta["count"] = int(self.count)
        return self.op, meta, arrays


@dataclass(frozen=True)
class ServeResponse:
    """One parsed response: either a result or a typed error.

    ``ok`` responses carry the per-op result fields in ``meta`` and any
    bulk output (scores, top-user indices) in ``arrays``; ``error``
    responses carry the taxonomy ``code``, the prose ``message``, and —
    for the throttling codes — a ``retry_after`` hint in seconds.
    """

    ok: bool
    meta: Dict[str, object] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    code: Optional[str] = None
    message: Optional[str] = None
    retry_after: Optional[float] = None

    @classmethod
    def from_frame(
        cls,
        op: str,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "ServeResponse":
        if op == "ok":
            return cls(ok=True, meta=meta, arrays=arrays)
        if op == "error":
            retry_after = meta.get("retry_after")
            return cls(
                ok=False, meta=meta,
                code=str(meta.get("code", "error")),
                message=str(meta.get("message", "")),
                retry_after=None if retry_after is None else float(retry_after),
            )
        raise SchemaError("response frames are 'ok' or 'error', got %r" % op)


def ok_frame(
    request: Optional[ServeRequest],
    meta: Optional[Dict[str, object]] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[str, Dict[str, object], Dict[str, np.ndarray]]:
    """An ``ok`` response frame echoing the request's id and op."""
    out: Dict[str, object] = {"v": PROTOCOL_VERSION}
    if request is not None:
        out["op"] = request.op
        if request.request_id is not None:
            out["id"] = request.request_id
    out.update(meta or {})
    return "ok", out, dict(arrays or {})


def error_frame(
    error: Exception,
    request: Optional[ServeRequest] = None,
) -> Tuple[str, Dict[str, object], Dict[str, np.ndarray]]:
    """An ``error`` response frame for any exception a request raised.

    :class:`~repro.exceptions.ServeError` subclasses put their stable
    ``code`` (and ``retry_after``, when they carry one) on the wire;
    everything else maps to a coarse code so a client can at least tell a
    bad request from a server-side failure.  The exception class name
    rides along as ``etype`` for debugging.
    """
    from repro.exceptions import EngineError, InvalidResponseMatrixError

    meta: Dict[str, object] = {"v": PROTOCOL_VERSION}
    if request is not None:
        meta["op"] = request.op
        if request.request_id is not None:
            meta["id"] = request.request_id
    if isinstance(error, ServeError):
        meta["code"] = error.code
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            meta["retry_after"] = float(retry_after)
    elif isinstance(error, (InvalidResponseMatrixError, ValueError, TypeError,
                            KeyError)):
        meta["code"] = "bad_request"
    elif isinstance(error, EngineError):
        meta["code"] = "engine_error"
    else:
        meta["code"] = "internal"
    meta["message"] = (error.args[0] if isinstance(error, KeyError)
                       and error.args else str(error))
    meta["etype"] = type(error).__name__
    return "error", meta, {}
