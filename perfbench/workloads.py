"""The benchmark's three workloads, each on seeded planted-truth crowds.

* ``offline-rank`` -- a library caller in a closed loop: ``from_triples``
  then ``repro.api.rank(matrix, "HnD")``, rotating through a few
  200k x 5k crowds.  No server, cache or store.
* ``append-rank`` -- one connection to a ``repro.cli serve`` subprocess
  (no store) holding one 50k x 2k crowd, repeating "append 200 held-out
  answers, then warm-started rank".
* ``serve-mix`` -- a server with a durable store holding 16 small crowds.
  Phase 1 is an open loop of Poisson arrivals over two pipelined
  connections (80% ``top_k``, 10% ``rank``, 10% appends, Zipf-skewed over
  crowds); phase 2 is a closed loop with the same mix and no think time.

Every workload returns a :class:`Result`: the named metrics (with units
and sample counts), the end-to-end metrics, the operation counts and the
output checks.  A traced run adds the per-layer metrics.
"""

from __future__ import annotations

import os
import queue
import re
import resource
import select
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import spans as spanlib
from crowds import Crowd, planted_crowd

from repro.api import rank
from repro.core.response import ResponseMatrix
from repro.engine.remote import protocol
from repro.evaluation.metrics import ranking_inversion_gap, spearman_accuracy
from repro.exceptions import EngineError, ProtocolError, ServeError
from repro.serve import ServeClient
from repro.serve.schema import ServeRequest, ServeResponse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``random_state`` of every rank the benchmark asks for.
SOLVE_SEED = 0
#: The warm-start tie contract: a warm result may differ from a cold solve
#: of the same crowd only on pairs closer than this (``ranking_inversion_gap``).
GAP_LIMIT = 1e-5
NUM_OPTIONS = 4
#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0
NPROC = len(os.sched_getaffinity(0))

#: Workload sizes.  ``tiny`` is the self-test scale.
SIZES = {
    "full": {
        "offline-rank": dict(num_users=200_000, num_items=5_000, answers_per_user=20,
                             crowds=3, spearman_floor=0.8),
        "append-rank": dict(num_users=50_000, num_items=2_000, answers_per_user=20,
                            batch=200, held_out=50_000, spearman_floor=0.8),
        "serve-mix": dict(num_users=5_000, num_items=500, answers_per_user=20,
                          crowds=16, held_out=10_000, rate=40.0, batch=20,
                          spearman_floor=0.75),
    },
    "tiny": {
        "offline-rank": dict(num_users=3_000, num_items=300, answers_per_user=20,
                             crowds=2, spearman_floor=0.6),
        "append-rank": dict(num_users=3_000, num_items=300, answers_per_user=20,
                            batch=50, held_out=5_000, spearman_floor=0.6),
        "serve-mix": dict(num_users=2_000, num_items=300, answers_per_user=20,
                          crowds=4, held_out=2_000, rate=40.0, batch=20,
                          spearman_floor=0.6),
    },
}

#: serve-mix request mix, in shuffled blocks of ten, and crowd skew.
MIX_BLOCK = ["top_k"] * 8 + ["rank", "add_answers"]
ZIPF_EXPONENT = 1.0
TOP_K = 10
#: Share of a serve-mix run spent in the open-loop phase.
OPEN_SHARE = 0.6


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    #: metric name -> (value, unit, samples); the human report.
    report: Dict[str, Tuple[float, str, int]]
    #: the end-to-end metrics of the JSON line, by name.
    e2e: Dict[str, float]
    attempted: int
    failed: int
    #: (check, passed, detail)
    checks: List[Tuple[str, bool, str]]
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def derive_seed(seed: int, *keys: int) -> int:
    """An independent, reproducible seed for one part of a workload."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _matrix(crowd: Crowd, indices: Optional[np.ndarray] = None) -> ResponseMatrix:
    users, items, options = ((crowd.users, crowd.items, crowd.options)
                             if indices is None else crowd.take(indices))
    return ResponseMatrix.from_triples(users, items, options,
                                       shape=(crowd.num_users, crowd.num_items),
                                       num_options=crowd.num_options)


def _replay_gap(crowd: Crowd, indices: np.ndarray, served: np.ndarray) -> float:
    """Gap between served scores and a cold in-process rank of the same answers."""
    cold = rank(_matrix(crowd, indices), "HnD", random_state=SOLVE_SEED)
    return ranking_inversion_gap(cold.scores, served)


# ---------------------------------------------------------------------- #
# offline-rank
# ---------------------------------------------------------------------- #
def offline_rank(seed: int, seconds: float, size: dict, tracer=None, **_) -> Result:
    crowds, setups = [], []
    for index in range(size["crowds"]):
        start = time.perf_counter()
        crowd = planted_crowd(size["num_users"], size["num_items"],
                              size["answers_per_user"], NUM_OPTIONS,
                              derive_seed(seed, 1, index))
        rank(_matrix(crowd), "HnD", random_state=SOLVE_SEED)
        setups.append(time.perf_counter() - start)
        crowds.append(crowd)

    uninstall = spanlib.install(tracer) if tracer is not None else None
    latencies: List[float] = []
    ops: List[Tuple[int, int]] = []
    final: Dict[int, np.ndarray] = {}
    failed = unconverged = answers = 0
    begin = time.monotonic_ns()
    deadline = begin + int(seconds * 1e9)
    try:
        while not ops or time.monotonic_ns() < deadline:
            index = len(ops) % len(crowds)
            crowd = crowds[index]
            start = time.monotonic_ns()
            try:
                ranking = rank(_matrix(crowd), "HnD", random_state=SOLVE_SEED)
            except Exception:
                traceback.print_exc()
                failed += 1
                ops.append((start, time.monotonic_ns()))
                continue
            end = time.monotonic_ns()
            ops.append((start, end))
            latencies.append((end - start) / 1e6)
            answers += crowd.num_answers
            final[index] = ranking.scores
            if not ranking.diagnostics.get("converged"):
                unconverged += 1
    finally:
        if uninstall is not None:
            uninstall()
    wall_s = (ops[-1][1] - begin) / 1e9

    spearman = float(np.mean([spearman_accuracy(final[index], crowds[index].abilities)
                              for index in sorted(final)])) if final else float("nan")
    checks = [
        ("every rank converged", unconverged == 0, "%d unconverged" % unconverged),
        ("spearman above floor", spearman > size["spearman_floor"],
         "%.4f vs floor %.2f" % (spearman, size["spearman_floor"])),
        ("every crowd ranked", len(final) == len(crowds),
         "%d of %d" % (len(final), len(crowds))),
    ]
    failed += unconverged
    report = _common_report(setups, own_peak_rss_mb(), failed, len(ops), spearman,
                            len(final))
    report["rank_p50_ms"] = (median(latencies), "ms", len(latencies))
    report["answers_per_s"] = (answers / wall_s, "answers/s", len(latencies))
    result = Result(
        "offline-rank", report,
        _e2e(report, "rank_p50_ms", len(latencies) / wall_s),
        attempted=len(ops), failed=failed, checks=checks,
        info={"crowds": len(crowds), "answers_per_crowd":
              [crowd.num_answers for crowd in crowds]},
    )
    if tracer is not None:
        result.layers = spanlib.layer_metrics(tracer.spans, ops, served=False)
    return result


def _common_report(setups, peak_rss_mb, failed, attempted, spearman, spearman_n):
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_share": (failed / attempted if attempted else 1.0, "ratio", attempted),
        "spearman": (spearman, "rho", spearman_n),
    }


def _e2e(report, p50_name: str, ops_per_s: float) -> Dict[str, float]:
    return {
        "setup_s": report["setup_s"][0],
        "peak_rss_mb": report["peak_rss_mb"][0],
        "spearman": report["spearman"][0],
        "op_p50_ms": report[p50_name][0],
        "ops_per_s": ops_per_s,
    }


# ---------------------------------------------------------------------- #
# The server subprocess
# ---------------------------------------------------------------------- #
class Server:
    """A ``repro.cli serve`` subprocess, started through the launcher."""

    def __init__(self, workdir: Path, *, traced: bool, store: Optional[Path] = None) -> None:
        self.trace_out = workdir / ("spans-%d.json" % time.monotonic_ns()) if traced else None
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        command += ["serve", "--port", "0", "--solver-threads", str(NPROC)]
        if store is not None:
            command += ["--store", str(store)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     cwd=str(ROOT))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline().strip() if ready else ""
            match = re.match(r"READY host=(\S+) port=(\d+)$", line)
            if match is None:
                raise RuntimeError("server did not report READY, got %r" % line)
        except BaseException:
            self.kill()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=REPLY_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> List[spanlib.Span]:
        """Shut the server down cleanly; returns its spans when traced."""
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        finally:
            self.kill()
        if self.trace_out is None:
            return []
        spans = spanlib.load_spans(str(self.trace_out))
        self.trace_out.unlink()
        return spans


def served_setup(workdir: Path, traced: bool, load: Callable, *,
                 store: bool = False):
    """Set up ``SETUP_REPEATS`` times; keep the last server running.

    One setup generates the crowds, starts a server (with a fresh store
    directory when ``store``), loads the crowds and runs the first cold
    ranks.  Returns ``(setup seconds per repeat, server, load's result)``.
    """
    setups = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server(workdir, traced=traced,
                        store=workdir / ("store-%d" % time.monotonic_ns()) if store else None)
        try:
            loaded = load(server)
        except BaseException:
            server.kill()
            raise
        setups.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    return setups, server, loaded


def _load_crowd(client: ServeClient, name: str, crowd: Crowd, indices: np.ndarray,
                chunk: int = 250_000) -> None:
    client.create(name, num_items=crowd.num_items, num_options=crowd.num_options,
                  num_users=crowd.num_users)
    for lo in range(0, indices.size, chunk):
        client.add_answers(name, *crowd.take(indices[lo:lo + chunk]))


def _counter_deltas(*windows: Tuple[dict, dict]) -> Dict[str, float]:
    """Server counters summed over ``(before, after)`` ``server_stats`` pairs.

    ``serve.dispatches`` is the server's ``counters.solves``: it counts
    executor dispatches, cache hits included.  Real solves are
    ``solve.calls`` (equivalently ``cache.misses`` without a disk tier).
    Each window's closing stats probe is not counted as a request.
    """
    def counter(stats: dict, name: str) -> int:
        return stats["counters"][name]

    def store(stats: dict, name: str) -> int:
        return (stats.get("store") or {}).get(name, 0)

    def delta(read, name: str) -> int:
        return sum(read(after, name) - read(before, name) for before, after in windows)

    return {
        "serve.requests": delta(counter, "requests") - len(windows),
        "serve.dispatches": delta(counter, "solves"),
        "serve.coalesced": delta(counter, "coalesced"),
        "serve.appends": delta(counter, "appends"),
        "serve.rate_limited": delta(counter, "rate_limited"),
        "serve.overloaded": delta(counter, "overloaded"),
        "serve.flush_failures": delta(counter, "flush_failures"),
        "serve.errors": delta(counter, "errors"),
        "store.writes": delta(store, "writes") + delta(store, "crowd_saves"),
        "store.write_failures": delta(store, "write_failures"),
    }


def _in_window(spans: Sequence[spanlib.Span], start: int, end: int) -> List[spanlib.Span]:
    return [span for span in spans if start <= span.start <= end]


# ---------------------------------------------------------------------- #
# append-rank
# ---------------------------------------------------------------------- #
def append_rank(seed: int, seconds: float, size: dict, tracer=None, *,
                workdir: Path, **_) -> Result:
    name, batch = "append", size["batch"]

    def load(server: Server) -> Crowd:
        crowd = planted_crowd(size["num_users"], size["num_items"],
                              size["answers_per_user"], NUM_OPTIONS,
                              derive_seed(seed, 2))
        with server.client() as client:
            _load_crowd(client, name, crowd, crowd.arrival[:-size["held_out"]])
            client.rank(name, "HnD", warm_start=True, random_state=SOLVE_SEED)
        return crowd

    setups, server, crowd = served_setup(workdir, tracer is not None, load)
    head = crowd.arrival[:-size["held_out"]]
    held = crowd.arrival[-size["held_out"]:]
    latencies: List[float] = []
    ops: List[Tuple[int, int]] = []
    warm_modes: List[object] = []
    acked = failed = 0
    scores = None
    try:
        with server.client() as client:
            before = client.server_stats()
            begin = time.monotonic_ns()
            deadline = begin + int(seconds * 1e9)
            while (not ops or time.monotonic_ns() < deadline) and acked + batch <= held.size:
                answers = crowd.take(held[acked:acked + batch])
                start = time.monotonic_ns()
                try:
                    client.add_answers(name, *answers)
                    acked += batch
                    reply = client.rank(name, "HnD", warm_start=True,
                                        random_state=SOLVE_SEED)
                except (ServeError, EngineError):  # a typed error reply
                    traceback.print_exc()
                    failed += 1
                    ops.append((start, time.monotonic_ns()))
                    continue
                end = time.monotonic_ns()
                ops.append((start, end))
                latencies.append((end - start) / 1e6)
                warm_modes.append(reply.meta.get("warm_start"))
                scores = reply.scores
            end_window = time.monotonic_ns()
            after = client.server_stats()
            stats = client.stats(name)
        peak_rss = server.peak_rss_mb()
    finally:
        server_spans = server.stop()
    wall_s = (ops[-1][1] - begin) / 1e9

    not_warm = sum(mode != "warm" for mode in warm_modes)
    appended = np.concatenate([head, held[:acked]])
    gap = _replay_gap(crowd, appended, scores) if scores is not None else float("inf")
    spearman = spearman_accuracy(scores, crowd.abilities) if scores is not None else float("nan")
    checks = [
        ("every cycle warm-started", not_warm == 0,
         "%d of %d cycles not warm" % (not_warm, len(warm_modes))),
        ("served scores match a cold replay", gap <= GAP_LIMIT,
         "ranking_inversion_gap %.3g (limit %g)" % (gap, GAP_LIMIT)),
        ("stats show every acknowledged answer", stats.get("num_answers") == appended.size,
         "%s served vs %d acknowledged" % (stats.get("num_answers"), appended.size)),
        ("spearman above floor", spearman > size["spearman_floor"],
         "%.4f vs floor %.2f" % (spearman, size["spearman_floor"])),
    ]
    failed += not_warm
    report = _common_report(setups, peak_rss, failed, len(ops), spearman, 1)
    report["append_rank_p50_ms"] = (median(latencies), "ms", len(latencies))
    report["append_rank_p90_ms"] = (percentile(latencies, 90), "ms", len(latencies))
    result = Result("append-rank", report,
                    _e2e(report, "append_rank_p50_ms", len(latencies) / wall_s),
                    attempted=len(ops), failed=failed, checks=checks,
                    info={"answers": int(crowd.num_answers), "appended": acked})
    if tracer is not None:
        result.layers = spanlib.layer_metrics(
            _in_window(server_spans, begin, end_window), ops, served=True)
        result.layers.update(_counter_deltas((before, after)))
    return result


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #
@dataclass
class Request:
    kind: str
    crowd: int
    frame: bytes
    due: int = 0
    #: held-out answer positions an append carries
    positions: Optional[np.ndarray] = None
    sent: int = 0
    replied: int = 0
    ok: bool = False


class Pipe:
    """One connection with pipelined frames: replies come back in order."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.inflight: "queue.Queue[Request]" = queue.Queue()
        self.error: Optional[BaseException] = None

    def send(self, request: Request) -> None:
        request.sent = time.monotonic_ns()
        self.inflight.put(request)
        self.sock.sendall(request.frame)

    def receive(self) -> Request:
        op, meta, arrays = protocol.recv_message(self.sock)
        request = self.inflight.get_nowait()
        request.replied = time.monotonic_ns()
        request.ok = ServeResponse.from_frame(op, meta, arrays).ok
        if not request.ok:
            print("serve-mix: %s failed: %s" % (request.kind, meta), file=sys.stderr)
        return request

    def receive_all(self, count: int) -> None:
        try:
            for _ in range(count):
                self.receive()
        except (OSError, ProtocolError) as error:
            self.error = error

    def close(self) -> None:
        self.sock.close()


class MixSource:
    """Draws serve-mix requests: the op mix, the Zipf crowd and held-out answers."""

    def __init__(self, crowds: Sequence[Crowd], names: Sequence[str], held_out: int,
                 batch: int) -> None:
        self.crowds, self.names, self.batch = crowds, names, batch
        weights = 1.0 / np.arange(1, len(crowds) + 1) ** ZIPF_EXPONENT
        self.crowd_p = weights / weights.sum()
        self.held = [crowd.arrival[-held_out:] for crowd in crowds]
        self.cursor = [0] * len(crowds)
        self.lock = threading.Lock()
        self.ids = 0

    def stream(self, seed: int) -> Iterator[Request]:
        """An endless seeded request stream.

        Op kinds come in shuffled blocks of ``MIX_BLOCK``, so every ten
        requests hold exactly the mix; crowds are drawn Zipf-skewed.
        """
        rng = np.random.default_rng(seed)
        while True:
            for kind in rng.permutation(MIX_BLOCK):
                crowd = int(rng.choice(len(self.crowds), p=self.crowd_p))
                yield self._request(str(kind), crowd)

    def _request(self, kind: str, crowd: int) -> Request:
        positions = None
        with self.lock:
            self.ids += 1
            request_id = self.ids
            if kind == "add_answers":
                start = self.cursor[crowd]
                if start + self.batch > self.held[crowd].size:
                    kind = "top_k"  # this crowd's held-out answers are used up
                else:
                    positions = self.held[crowd][start:start + self.batch]
                    self.cursor[crowd] = start + self.batch
        name = self.names[crowd]
        if kind == "add_answers":
            request = ServeRequest(op=kind, crowd=name, request_id=request_id,
                                   answers=self.crowds[crowd].take(positions))
        else:
            request = ServeRequest(op=kind, crowd=name, request_id=request_id,
                                   method="HnD", params={"random_state": SOLVE_SEED},
                                   warm_start=True,
                                   count=TOP_K if kind == "top_k" else None)
        return Request(kind, crowd, protocol.encode_message(*request.frame()),
                       positions=positions)


def _phase_counts(requests: Sequence[Request]) -> Tuple[int, int, int]:
    succeeded = sum(request.ok for request in requests)
    return len(requests), succeeded, len(requests) - succeeded


def serve_mix(seed: int, seconds: float, size: dict, tracer=None, *,
              workdir: Path, **_) -> Result:
    count = size["crowds"]
    names = ["crowd-%02d" % index for index in range(count)]

    def load(server: Server) -> List[Crowd]:
        crowds = [planted_crowd(size["num_users"], size["num_items"],
                                size["answers_per_user"], NUM_OPTIONS,
                                derive_seed(seed, 3, index)) for index in range(count)]
        with server.client() as client:
            for name, crowd in zip(names, crowds):
                _load_crowd(client, name, crowd, crowd.arrival[:-size["held_out"]])
            for name in names:
                client.rank(name, "HnD", warm_start=True, random_state=SOLVE_SEED)
        return crowds

    setups, server, crowds = served_setup(workdir, tracer is not None, load, store=True)
    source = MixSource(crowds, names, size["held_out"], size["batch"])
    rng = np.random.default_rng(derive_seed(seed, 3, 1000))
    requests = source.stream(derive_seed(seed, 3, 1001))
    open_s = seconds * OPEN_SHARE
    schedule: List[Request] = []
    due_s = rng.exponential(1.0 / size["rate"])
    while due_s < open_s:
        request = next(requests)
        request.due = int(due_s * 1e9)
        schedule.append(request)
        due_s += rng.exponential(1.0 / size["rate"])
    connections = min(2, NPROC)
    closed: List[Request] = []
    try:
        pipes = [Pipe(server.host, server.port) for _ in range(connections)]
        with server.client() as client:
            before = client.server_stats()
            # Phase 1: open loop; requests are timed from when they were due.
            receivers = []
            for index, pipe in enumerate(pipes):
                receivers.append(threading.Thread(
                    target=pipe.receive_all, args=(len(schedule[index::connections]),)))
                receivers[-1].start()
            begin = time.monotonic_ns()
            for index, request in enumerate(schedule):
                request.due += begin
                delay = (request.due - time.monotonic_ns()) / 1e9
                if delay > 0:
                    time.sleep(delay)
                pipes[index % connections].send(request)
            for receiver in receivers:
                receiver.join(REPLY_TIMEOUT_S)
            open_end = time.monotonic_ns()
            open_stats = client.server_stats()
            # Memory after the seeded open loop: later phases depend on timing.
            peak_rss = server.peak_rss_mb()
            # The seeded operation sequence is complete: score it.
            open_scores = [client.rank(name, "HnD", warm_start=True,
                                       random_state=SOLVE_SEED).scores for name in names]
            # Phase 2: closed loop over one connection, one request in flight.
            # (Two closed-loop connections made saturated throughput depend
            # on how their requests interleave, so it moved with the seed.)
            closed_stats = client.server_stats()
            closed_begin = time.monotonic_ns()
            closed_deadline = closed_begin + int((seconds - open_s) * 1e9)
            requests = source.stream(derive_seed(seed, 3, 2000))
            try:
                while time.monotonic_ns() < closed_deadline:
                    pipes[0].send(next(requests))
                    closed.append(pipes[0].receive())
            except (OSError, ProtocolError) as error:
                pipes[0].error = error
            end_window = time.monotonic_ns()
            after = client.server_stats()
            # Final state: a rank flushes every pending append.
            final_scores = [client.rank(name, "HnD", warm_start=True,
                                        random_state=SOLVE_SEED).scores for name in names]
            stats = [client.stats(name) for name in names]
        for pipe in pipes:
            pipe.close()
    finally:
        server_spans = server.stop()

    transport_errors = [str(pipe.error) for pipe in pipes if pipe.error is not None]
    lag_ms = [(request.sent - request.due) / 1e6 for request in schedule]
    reads = [(request.replied - request.due) / 1e6 for request in schedule
             if request.ok and request.kind != "add_answers"]
    acks = [(request.replied - request.due) / 1e6 for request in schedule
            if request.ok and request.kind == "add_answers"]
    done = [request for request in schedule + closed if request.replied]
    closed_done = [request for request in closed if request.ok]
    closed_s = (max(request.replied for request in closed) - closed_begin) / 1e9 \
        if closed else float("nan")
    open_counts, closed_counts = _phase_counts(schedule), _phase_counts(closed)
    failed = open_counts[2] + closed_counts[2]

    acked: List[List[np.ndarray]] = [[] for _ in names]
    for request in done:
        if request.ok and request.kind == "add_answers":
            acked[request.crowd].append(request.positions)
    gaps, missing = [], []
    for index, crowd in enumerate(crowds):
        indices = np.concatenate([crowd.arrival[:-size["held_out"]], *acked[index]])
        gaps.append(_replay_gap(crowd, indices, final_scores[index]))
        if stats[index].get("num_answers") != indices.size or stats[index].get("pending_answers"):
            missing.append(names[index])
    spearman = float(np.mean([spearman_accuracy(scores, crowd.abilities)
                              for scores, crowd in zip(open_scores, crowds)]))
    checks = [
        ("no transport errors", not transport_errors, "; ".join(transport_errors) or "none"),
        ("every scheduled request answered",
         all(request.replied for request in schedule), "%d of %d" % (
             sum(bool(request.replied) for request in schedule), len(schedule))),
        ("stats show every acknowledged answer", not missing,
         "crowds short: %s" % (", ".join(missing) or "none")),
        ("served scores match a cold replay", max(gaps) <= GAP_LIMIT,
         "max ranking_inversion_gap %.3g (limit %g)" % (max(gaps), GAP_LIMIT)),
        ("spearman above floor", spearman > size["spearman_floor"],
         "%.4f vs floor %.2f" % (spearman, size["spearman_floor"])),
    ]
    attempted = open_counts[0] + closed_counts[0]
    report = _common_report(setups, peak_rss, failed, attempted, spearman, len(crowds))
    report["read_p50_ms"] = (median(reads), "ms", len(reads))
    report["read_p99_ms"] = (percentile(reads, 99), "ms", len(reads))
    report["append_ack_p99_ms"] = (percentile(acks, 99), "ms", len(acks))
    report["saturated_rps"] = (len(closed_done) / closed_s, "req/s", len(closed_done))
    result = Result("serve-mix", report,
                    _e2e(report, "read_p50_ms", report["saturated_rps"][0]),
                    attempted=attempted, failed=failed, checks=checks,
                    info={"rate": size["rate"], "connections": connections,
                          "read_deciles_ms": [round(percentile(reads, q), 3)
                                              for q in range(10, 100, 10)],
                          "open_s": open_s, "closed_s": closed_s})
    loadgen = {
        "loadgen.sent": open_counts[0] + closed_counts[0],
        "loadgen.succeeded": open_counts[1] + closed_counts[1],
        "loadgen.failed": failed,
        "loadgen.open.sent": open_counts[0],
        "loadgen.open.succeeded": open_counts[1],
        "loadgen.open.failed": open_counts[2],
        "loadgen.closed.sent": closed_counts[0],
        "loadgen.closed.succeeded": closed_counts[1],
        "loadgen.closed.failed": closed_counts[2],
        "loadgen.lag_p99_ms": percentile(lag_ms, 99),
    }
    result.info.update(loadgen)
    if tracer is not None:
        ops = [(request.sent, request.replied) for request in done]
        measured = (_in_window(server_spans, begin, open_end)
                    + _in_window(server_spans, closed_begin, end_window))
        result.layers = spanlib.layer_metrics(measured, ops, served=True)
        result.layers.update(_counter_deltas((before, open_stats), (closed_stats, after)))
        result.layers.update(loadgen)
    return result


WORKLOADS = {
    "offline-rank": offline_rank,
    "append-rank": append_rank,
    "serve-mix": serve_mix,
}
