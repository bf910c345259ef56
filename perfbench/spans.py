"""Span recording around the program's layers, from outside the program.

The benchmark times each layer by wrapping that layer's public functions
with a timing shim; nothing inside ``src/`` changes.  A span records its
name, start, end (``time.monotonic_ns``, one clock for every process on
the machine, so server spans line up with client timings), the span that
was open on the same thread when it started (its parent) and a few
attributes.  Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the union of its
children's intervals, clipped to the span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[int, int]


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: Optional[int], name: str,
                 start: int, end: int, attrs: Optional[dict] = None) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.attrs]

    @classmethod
    def from_json(cls, row: Sequence) -> "Span":
        return cls(*row)


class Tracer:
    """Collects spans from any thread; parents follow each thread's stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             annotate: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``annotate(result)`` may return attributes for the span.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
        attrs = annotate(result) if annotate is not None else None
        self.spans.append(Span(span_id, parent, name, start, end, attrs))
        return result

    def record(self, name: str, start: int, end: int) -> None:
        """Record an interval measured by the caller (no parent)."""
        self.spans.append(Span(next(self._ids), None, name, start, end))

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.to_json() for span in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span.from_json(row) for row in json.load(handle)]


# ---------------------------------------------------------------------- #
# Interval arithmetic
# ---------------------------------------------------------------------- #
def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge intervals into disjoint sorted ones."""
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered(intervals: Iterable[Interval], within: Interval) -> int:
    """Length of ``within`` covered by the union of ``intervals``."""
    lo, hi = within
    return sum(max(0, min(end, hi) - max(start, lo))
               for start, end in union(intervals))


def intersection_length(a: Sequence[Interval], b: Sequence[Interval]) -> int:
    """Total length of ``union(a) & union(b)``."""
    a, b = union(a), union(b)
    total, i, j = 0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Each span's duration minus the union of its children, by span id."""
    children: Dict[int, List[Interval]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - covered(children.get(span.id, ()),
                                              (span.start, span.end))
            for span in spans}


def _mean_ms(durations: Sequence[int]) -> float:
    return sum(durations) / len(durations) / 1e6 if durations else 0.0


def _share(flags: Sequence[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def layer_metrics(spans: Sequence[Span], ops: Sequence[Interval],
                  served: bool) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced measurement.

    ``spans`` are the spans that started inside the measurement window and
    ``ops`` the ``(start, end)`` of every operation the client timed in it.
    Times are means per call in ms; ``api.rank_self_ms`` is the session's
    own share of a rank, its children (materialize, cache, solve, orient)
    excluded.  ``trace.coverage`` is the share of the union of operation
    time that request-path spans cover (write-behind spans run beside the
    request path and are left out).
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name: str) -> List[int]:
        return [span.duration for span in by_name.get(name, ())]

    own = self_times(spans)
    outcomes = [span.attrs.get("outcome") for span in by_name.get("cache.rank", ())]
    hits = outcomes.count("hit")
    lookups = hits + outcomes.count("miss") + outcomes.count("disk_hit")
    solves = by_name.get("solve", [])
    op_ns = sum(end - start for start, end in ops)
    session_ns = sum(span.duration for span in spans
                     if span.parent is None and span.name.startswith("api."))
    request_path = [(span.start, span.end) for span in spans
                    if span.parent is None and not span.name.startswith("store.")]
    op_union = sum(end - start for start, end in union(ops))
    return {
        "serve.overhead_ms": (op_ns - session_ns) / len(ops) / 1e6 if served and ops else 0.0,
        "serve.encode_ms": _mean_ms(durations("serve.encode")),
        "serve.decode_ms": _mean_ms(durations("serve.decode")),
        "api.rank_self_ms": _mean_ms([own[span.id] for span in by_name.get("api.rank", ())]),
        "api.rank_calls": len(by_name.get("api.rank", ())),
        "api.flush_ms": _mean_ms(durations("api.add_answers")),
        "response.build_ms": _mean_ms(durations("response.build")),
        "response.build_calls": len(by_name.get("response.build", ())),
        "response.from_triples_ms": _mean_ms(durations("response.from_triples")),
        "response.compile_ms": _mean_ms(durations("response.compile")),
        "response.content_hash_ms": _mean_ms(durations("response.content_hash")),
        "response.content_hash_calls": len(by_name.get("response.content_hash", ())),
        "cache.hits": hits,
        "cache.misses": lookups - hits,
        "cache.disk_hits": outcomes.count("disk_hit"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.hit_ms": _mean_ms([span.duration for span in by_name.get("cache.rank", ())
                                  if span.attrs.get("outcome") == "hit"]),
        "cache.latest_state_ms": _mean_ms(durations("cache.latest_state")),
        "solve.calls": len(solves),
        "solve.ms": _mean_ms(durations("solve")),
        "solve.iterations_mean": (sum(span.attrs["iterations"] for span in solves)
                                  / len(solves) if solves else 0.0),
        "solve.matvec_ms": _mean_ms(durations("solve.matvec")),
        "solve.warm_share": _share([span.attrs["warm"] == "warm" for span in solves]),
        "solve.converged_share": _share([span.attrs["converged"] for span in solves]),
        "orient.ms": _mean_ms(durations("orient")),
        "orient.calls": len(by_name.get("orient", ())),
        "store.put_snapshot_ms": _mean_ms(durations("store.put_snapshot")),
        "store.save_crowd_ms": _mean_ms(durations("store.save_crowd")),
        "store.writeback_lag_ms": _mean_ms(durations("store.writeback")),
        "trace.coverage": intersection_length(request_path, ops) / op_union if op_union else 0.0,
    }


# ---------------------------------------------------------------------- #
# The wrappers: one per layer boundary
# ---------------------------------------------------------------------- #
def _solve_attrs(result) -> dict:
    power, _state, warm_mode = result
    return {"iterations": int(power.iterations), "converged": bool(power.converged),
            "warm": warm_mode}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer's public functions; returns an undo hook.

    Each name is patched where its caller looks it up:
    ``repro.core.hitsndiffs`` binds ``hnd_power_solve``, ``orient_scores``
    and ``hnd_difference_step`` as module globals at import, the server
    reaches the codec through the ``protocol`` module, and everything else
    is a method resolved on its class at call time.
    """
    from repro.api.session import CrowdSession
    from repro.core import hitsndiffs
    from repro.core.response import CompiledResponse, ResponseBuilder, ResponseMatrix
    from repro.engine.cache import RankCache
    from repro.engine.remote import protocol
    from repro.store.snapshot import SnapshotStore

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def method(owner, attr: str, name: str, annotate=None) -> None:
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], annotate))

    # serve: the wire codec the server encodes replies and decodes requests with
    method(protocol, "encode_message", "serve.encode")
    method(protocol, "decode_payload", "serve.decode")

    # api: the session calls the server (or a library caller) makes
    method(CrowdSession, "rank", "api.rank")
    method(CrowdSession, "add_answers", "api.add_answers")

    # core.response: materialize, validate, compile, hash
    method(ResponseBuilder, "build", "response.build")
    from_triples = ResponseMatrix.__dict__["from_triples"].__func__
    patch(ResponseMatrix, "from_triples",
          classmethod(tracer.wrap("response.from_triples", from_triples)))
    method(CompiledResponse, "__init__", "response.compile")
    content_hash = ResponseMatrix.__dict__["content_hash"]

    def traced_hash(self):
        # Only a digest actually computed is a span; memoized reads are free.
        if getattr(self, "_content_hash_memo", None) is not None:
            return content_hash(self)
        return tracer.call("response.content_hash", content_hash, (self,), {})

    patch(ResponseMatrix, "content_hash", functools.wraps(content_hash)(traced_hash))

    # engine.cache: memory tier, disk tier, warm-state lookup
    cache_rank = RankCache.__dict__["rank"]

    def traced_cache_rank(self, ranker, response):
        before = (self.hits, self.disk_hits, self.bypasses)

        def outcome(_result):
            after = (self.hits, self.disk_hits, self.bypasses)
            kind = ("hit" if after[0] > before[0] else
                    "disk_hit" if after[1] > before[1] else
                    "bypass" if after[2] > before[2] else "miss")
            return {"outcome": kind}

        return tracer.call("cache.rank", cache_rank, (self, ranker, response), {},
                           outcome)

    patch(RankCache, "rank", functools.wraps(cache_rank)(traced_cache_rank))
    method(RankCache, "latest_state", "cache.latest_state")

    # solve + orient, patched in the module whose globals HNDPower reads
    patch(hitsndiffs, "hnd_power_solve",
          tracer.wrap("solve", hitsndiffs.hnd_power_solve, _solve_attrs))
    make_step = hitsndiffs.hnd_difference_step

    def traced_make_step(response):
        return tracer.wrap("solve.matvec", make_step(response))

    patch(hitsndiffs, "hnd_difference_step", functools.wraps(make_step)(traced_make_step))
    patch(hitsndiffs, "orient_scores", tracer.wrap("orient", hitsndiffs.orient_scores))

    # store: snapshot and crowd writes, and the write-behind queue lag
    method(SnapshotStore, "put_snapshot", "store.put_snapshot")
    method(SnapshotStore, "save_crowd", "store.save_crowd")
    defer = SnapshotStore.__dict__["defer"]

    def traced_defer(self, job):
        queued = time.monotonic_ns()

        def timed_job():
            try:
                return job()
            finally:
                tracer.record("store.writeback", queued, time.monotonic_ns())

        return defer(self, timed_job)

    patch(SnapshotStore, "defer", functools.wraps(defer)(traced_defer))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall
