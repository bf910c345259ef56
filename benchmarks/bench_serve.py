"""Serving benchmark: the ``repro.serve`` front end at 200k x 5k (PR 8).

Drives a real server subprocess (``python -m repro.cli serve``, READY-line
handshake — the same path CI and harnesses use) with the canonical
200k-user x 5k-item, 1M-answer crowd and measures what a serving user
feels:

* **warm cache-hit ranks** — repeated identical ranks against an
  unchanged crowd, concurrent clients; per-request p50/p99 latency and
  sustained QPS.  Each request crosses the wire, the event loop, a solver
  thread, and the session's rank cache.
* **append-then-rank cycles** — a small batch is appended (micro-batched,
  acknowledged from the buffer) and the next rank flushes + re-solves;
  cycle p50/p99.
* **coalescing + throttling counters** — concurrent identical cold ranks
  must coalesce onto one solve, and a rate-limited server must reject
  with typed errors; both counters are asserted, not just reported.

The gate is relative and measured in-run, so it holds on hardware of any
speed: the served warm-hit p99 must stay within ``GATE_BOUND`` (one order
of magnitude) of the *direct* in-process RankCache hit on the same crowd
(~37 ms at this scale when the content hash is computed, far less once
memoized — we measure the same memoized path the server serves).

PR 9 adds the **persistence scenario** (``--persistence``): a server with
``--store`` ranks the crowd cold, is SIGKILLed once the write-behind tier
has persisted, and restarts against the same directory — the crowd must
re-register, and the first post-restart rank must be a bit-identical
snapshot replay at least ``PERSIST_GATE`` (10x) faster than the cold
solve, with a follow-up append warm-starting from the pre-restart solver
state.  The gate is relative and in-run, like the serving gate.

Usage::

    python benchmarks/bench_serve.py            # full 200k x 5k, print table
    python benchmarks/bench_serve.py --update   # full run, rewrite
                                                # benchmarks/BENCH_PR8.json
    python benchmarks/bench_serve.py --smoke    # reduced 20k x 1k gate for
                                                # CI (<60 s, exit 1 on
                                                # regression)
    python benchmarks/bench_serve.py --persistence            # restart-warm
                                                # scenario, full scale
    python benchmarks/bench_serve.py --persistence --smoke    # CI variant
    python benchmarks/bench_serve.py --update-persistence     # full run,
                                                # rewrite BENCH_PR9.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_perf import _scenario_crowd  # noqa: E402
from repro.api import CrowdSession  # noqa: E402
from repro.exceptions import RateLimitedError  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_PR8.json"
PERSIST_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_PR9.json"

#: Served warm-hit p99 must stay within this factor of the direct
#: in-process cache hit (the ISSUE's order-of-magnitude bound).
GATE_BOUND = 10.0

#: The first post-restart rank (a disk snapshot replay) must be at least
#: this many times faster than the cold solve it replaces.
PERSIST_GATE = 10.0

#: The persistence scenario ranks with the real eigensolve: the gate
#: compares a ~ms snapshot replay against the full HnD cold solve.
PERSIST_METHOD = "HnD"

#: The method every serving request uses.  MajorityVote keeps the *solve*
#: O(nnz)-cheap so the benchmark isolates the serving overheads (wire,
#: event loop, executor hop, cache lookup) instead of timing HnD's
#: eigensolve yet again — the cache-hit path is method-independent.
METHOD = "MajorityVote"


def _percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


class ServerProcess:
    """A ``repro.cli serve`` subprocess with READY-line handshake."""

    def __init__(self, *extra_args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *extra_args],
            stdout=subprocess.PIPE, text=True, cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        line = self.proc.stdout.readline().strip()
        match = re.match(r"READY host=(\S+) port=(\d+)$", line)
        if not match:
            self.proc.kill()
            raise RuntimeError("server did not report READY, got %r" % line)
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self, timeout: float = 120.0) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=timeout)

    def stop(self) -> None:
        try:
            with self.client(timeout=10.0) as client:
                client.shutdown()
            self.proc.wait(timeout=15)
        except Exception:
            # Last resort; the latency numbers are already collected.
            self.proc.kill()


def _load_crowd(client: ServeClient, name: str, users, items, options,
                num_items: int, num_options: int,
                chunk: int = 250_000) -> float:
    client.create(name, num_items=num_items, num_options=num_options)
    start = time.perf_counter()
    for lo in range(0, users.size, chunk):
        client.add_answers(name, users[lo:lo + chunk], items[lo:lo + chunk],
                           options[lo:lo + chunk])
    return time.perf_counter() - start


def _bench_direct_hits(users, items, options, num_items, num_options,
                       repeats: int) -> Dict[str, float]:
    """The in-run reference: RankCache hits with no server in the way.

    The memoized content hash and its leaf digests are dropped before
    every hit so each one pays the full O(nnz) hash the cache is keyed
    on — the documented serving cost of a warm hit (~37 ms at 200k x 5k,
    when the digest was one flat BLAKE2b), and the honest
    yardstick for the gate: the *server* additionally memoizes across
    requests, so comparing against the memoized lookup (microseconds)
    would gate wire overhead against a dict read.
    """
    session = CrowdSession(num_items=num_items, num_options=num_options)
    session.add_answers(users, items, options)
    session.rank(METHOD)  # cold solve; populates the cache
    matrix = session.matrix
    samples = []
    for _ in range(repeats):
        matrix._content_hash_memo = matrix._content_leaves = None
        start = time.perf_counter()
        session.rank(METHOD)
        samples.append((time.perf_counter() - start) * 1000.0)
    return {
        "direct_hit_p50_ms": round(_percentile(samples, 50), 4),
        "direct_hit_p99_ms": round(_percentile(samples, 99), 4),
    }


def _bench_warm_hits(server: ServerProcess, name: str, clients: int,
                     per_client: int) -> Dict[str, float]:
    """Concurrent identical ranks against an unchanged crowd."""
    def one_client(_):
        latencies = []
        with server.client() as client:
            for _ in range(per_client):
                start = time.perf_counter()
                client.rank(name, METHOD)
                latencies.append((time.perf_counter() - start) * 1000.0)
        return latencies

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(clients) as pool:
        batches = list(pool.map(one_client, range(clients)))
    wall = time.perf_counter() - wall_start
    samples = [sample for batch in batches for sample in batch]
    return {
        "warm_hit_requests": len(samples),
        "warm_hit_clients": clients,
        "warm_hit_p50_ms": round(_percentile(samples, 50), 3),
        "warm_hit_p99_ms": round(_percentile(samples, 99), 3),
        "warm_hit_qps": round(len(samples) / wall, 1),
    }


def _bench_append_rank_cycles(server: ServerProcess, name: str,
                              cycles: int, num_users: int, num_items: int,
                              batch: int = 200) -> Dict[str, float]:
    """Append a fresh-user batch, then rank: the incremental-serving loop."""
    samples = []
    with server.client() as client:
        for cycle in range(cycles):
            # Brand-new users answering item 0: guaranteed conflict-free
            # with every earlier answer, whatever the base density.
            base = num_users + cycle * batch
            fresh_users = np.arange(base, base + batch, dtype=np.int64)
            fresh_items = np.zeros(batch, dtype=np.int64)
            fresh_options = fresh_users % 2
            start = time.perf_counter()
            client.add_answers(name, fresh_users, fresh_items, fresh_options)
            client.rank(name, METHOD)
            samples.append((time.perf_counter() - start) * 1000.0)
    return {
        "append_rank_cycles": cycles,
        "append_batch": batch,
        "append_rank_p50_ms": round(_percentile(samples, 50), 2),
        "append_rank_p99_ms": round(_percentile(samples, 99), 2),
    }


def _bench_coalescing(server: ServerProcess, name: str, concurrent: int,
                      fresh_user: int) -> Dict[str, int]:
    """Concurrent identical cold ranks: the single-flight counters."""
    with server.client() as client:
        # A tiny append (a brand-new user, so guaranteed conflict-free)
        # bumps the epoch: the next rank is a fresh solve to coalesce on.
        client.add_answers(name, [fresh_user], [0], [1])

    def one_rank(_):
        with server.client() as client:
            return client.rank(name, METHOD).served

    with ThreadPoolExecutor(concurrent) as pool:
        served = list(pool.map(one_rank, range(concurrent)))
    with server.client() as client:
        counters = client.server_stats()["counters"]
    return {
        "coalesce_concurrent_requests": concurrent,
        "coalesce_served_coalesced": served.count("coalesced"),
        "coalesced_total": int(counters["coalesced"]),
        "solves_total": int(counters["solves"]),
    }


def _bench_rate_limit() -> Dict[str, int]:
    """A throttled server rejects typed — never queues, never hangs."""
    server = ServerProcess("--rate", "25", "--burst", "5")
    rejections = 0
    try:
        with server.client() as client:
            for _ in range(40):
                try:
                    client.ping()
                except RateLimitedError as error:
                    assert error.retry_after is not None
                    rejections += 1
        with server.client() as client:
            counters = client.server_stats()["counters"]
    finally:
        server.stop()
    return {
        "rate_limit_rejections": rejections,
        "rate_limited_counter": int(counters["rate_limited"]),
    }


def _wait_for_persistence(store_dir: Path, timeout: float = 300.0) -> float:
    """Poll until the write-behind tier has landed snapshot + crowd.

    Durability is deliberately off the serving latency path (write-behind
    thread), so the rank reply arriving does NOT mean the files exist yet
    — a SIGKILL issued immediately could land before the store has
    anything to replay.  The scenario kills only after both tiers are on
    disk, which is exactly the contract an operator gets from a graceful
    drain or a few idle milliseconds.
    """
    start = time.perf_counter()
    while time.perf_counter() - start < timeout:
        # A snapshot record appears only by its rename into place, and a
        # crowd's sidecar is renamed into place only after the NPZ it
        # names, so a ``.snap`` plus a sidecar prove both tiers are whole.
        # Temp files never end in ``.snap`` or ``.json``.
        if any((store_dir / "snapshots").glob("*.snap")) and any(
                (store_dir / "crowds").glob("*.json")):
            return time.perf_counter() - start
        time.sleep(0.05)
    raise RuntimeError("write-behind persistence did not land within %.0f s"
                       % timeout)


def run_persistence(num_users: int = 200_000, num_items: int = 5_000,
                    density: float = 0.001, *, smoke: bool = False,
                    store_dir: str = "persistence-store") -> Dict[str, object]:
    """The restart-warm scenario: cold solve, SIGKILL, warm restart."""
    import shutil
    import signal

    scale = "smoke" if smoke else "full"
    users, items, options, results = _scenario_crowd(
        num_users=num_users, num_items=num_items, density=density,
        scale=scale,
    )
    num_options = int(results["num_options"])
    store = Path(store_dir)
    if store.exists():
        shutil.rmtree(store)

    print("persistence: cold server with --store %s ..." % store)
    server = ServerProcess("--solver-threads", "4", "--store", str(store))
    killed = False
    try:
        with server.client(timeout=1800.0) as client:
            load_seconds = _load_crowd(client, "durable", users, items,
                                       options, num_items, num_options)
            start = time.perf_counter()
            cold = client.rank("durable", PERSIST_METHOD, random_state=7)
            cold_seconds = time.perf_counter() - start
            assert "snapshot_hit" not in cold.meta
        results["ingest_seconds"] = round(load_seconds, 3)
        results["persist_cold_rank_seconds"] = round(cold_seconds, 4)
        print("  ingest %.2f s, cold %s rank %.2f s"
              % (load_seconds, PERSIST_METHOD, cold_seconds))

        persist_seconds = _wait_for_persistence(store)
        results["persist_write_behind_seconds"] = round(persist_seconds, 3)
        print("  write-behind persisted snapshot + crowd after %.2f s"
              % persist_seconds)

        server.proc.send_signal(signal.SIGKILL)
        server.proc.wait(timeout=30)
        killed = True
        print("  SIGKILLed pid %d" % server.proc.pid)
    finally:
        if not killed:
            server.stop()

    print("persistence: restarted server against the same store ...")
    start = time.perf_counter()
    server = ServerProcess("--solver-threads", "4", "--store", str(store))
    restart_seconds = time.perf_counter() - start
    try:
        with server.client(timeout=1800.0) as client:
            crowds = client.list()
            names = [entry["name"] for entry in crowds]
            start = time.perf_counter()
            warm = client.rank("durable", PERSIST_METHOD, random_state=7)
            warm_seconds = time.perf_counter() - start
            identical = bool(np.array_equal(warm.scores, cold.scores))

            # An append after the restart: the pre-kill solver state must
            # seed the PR 5 warm-start path, not a cold re-solve.
            client.add_answers("durable", [num_users + 1, num_users + 2],
                               [0, 0], [1, 2])
            append = client.rank("durable", PERSIST_METHOD, random_state=7,
                                 warm_start=True)
            stats = client.server_stats()
    finally:
        server.stop()

    ratio = cold_seconds / max(warm_seconds, 1e-9)
    results.update({
        "persist_restart_seconds": round(restart_seconds, 3),
        "persist_crowds_restored": names,
        "persist_warm_rank_seconds": round(warm_seconds, 4),
        "persist_warm_snapshot_hit": bool(warm.meta.get("snapshot_hit")),
        "persist_warm_bit_identical": identical,
        "persist_append_warm_start": str(append.meta.get("warm_start")),
        "persist_disk_hits": int(stats["cache"]["disk_hits"]),
        "persist_store_snapshots": int(stats["store"]["snapshots"]),
        "persist_gate": PERSIST_GATE,
        "gate_warm_vs_cold_speedup": round(ratio, 1),
    })
    print("  restart %.2f s, warm rank %.4f s (%.0fx the cold solve)"
          % (restart_seconds, warm_seconds, ratio))

    failures = []
    if names != ["durable"]:
        failures.append("restarted server re-registered %r, expected "
                        "['durable']" % (names,))
    if not results["persist_warm_snapshot_hit"]:
        failures.append("first post-restart rank was not served from a "
                        "snapshot")
    if not identical:
        failures.append("snapshot replay was not bit-identical to the "
                        "cold solve")
    if ratio < PERSIST_GATE:
        failures.append(
            "post-restart warm rank %.4f s is only %.1fx the cold solve "
            "(%.2f s); bound is %.0fx"
            % (warm_seconds, ratio, cold_seconds, PERSIST_GATE))
    if results["persist_append_warm_start"] != "warm":
        failures.append(
            "post-restart append ranked with warm_start=%r, expected "
            "'warm'" % results["persist_append_warm_start"])
    results["gate_failures"] = failures
    return results


def run_serve(num_users: int = 200_000, num_items: int = 5_000,
              density: float = 0.001, *, smoke: bool = False) -> Dict[str, object]:
    scale = "smoke" if smoke else "full"
    users, items, options, results = _scenario_crowd(
        num_users=num_users, num_items=num_items, density=density,
        scale=scale,
    )
    num_options = int(results["num_options"])
    direct_repeats = 20 if smoke else 50
    warm_clients, per_client = (4, 25) if smoke else (8, 50)
    cycles = 3 if smoke else 5

    print("reference: direct in-process RankCache hits ...")
    results.update(_bench_direct_hits(users, items, options, num_items,
                                      num_options, direct_repeats))
    print("  p50 %.3f ms / p99 %.3f ms"
          % (results["direct_hit_p50_ms"], results["direct_hit_p99_ms"]))

    server = ServerProcess("--solver-threads", "4", "--max-queue", "64")
    try:
        with server.client() as client:
            load_seconds = _load_crowd(client, "bench", users, items,
                                       options, num_items, num_options)
            start = time.perf_counter()
            client.rank("bench", METHOD)  # cold solve + flush of the load
            cold_seconds = time.perf_counter() - start
        results["ingest_seconds"] = round(load_seconds, 3)
        results["cold_rank_seconds"] = round(cold_seconds, 3)
        print("ingest %.2f s, cold rank %.2f s" % (load_seconds, cold_seconds))

        print("serving: warm cache-hit ranks (%d clients x %d) ..."
              % (warm_clients, per_client))
        results.update(_bench_warm_hits(server, "bench", warm_clients,
                                        per_client))
        print("  p50 %.2f ms / p99 %.2f ms, %.0f req/s sustained"
              % (results["warm_hit_p50_ms"], results["warm_hit_p99_ms"],
                 results["warm_hit_qps"]))

        print("serving: append-then-rank cycles ...")
        results.update(_bench_append_rank_cycles(server, "bench", cycles,
                                                 num_users, num_items))
        print("  p50 %.1f ms / p99 %.1f ms"
              % (results["append_rank_p50_ms"], results["append_rank_p99_ms"]))

        print("serving: single-flight coalescing ...")
        results.update(_bench_coalescing(server, "bench",
                                         concurrent=warm_clients,
                                         fresh_user=num_users + 100_000))
        print("  %d/%d concurrent ranks coalesced (%d solves total)"
              % (results["coalesce_served_coalesced"],
                 results["coalesce_concurrent_requests"],
                 results["solves_total"]))
    finally:
        server.stop()

    print("throttling: rate-limited server ...")
    results.update(_bench_rate_limit())
    print("  %d typed rejections" % results["rate_limit_rejections"])

    ratio = (results["warm_hit_p99_ms"]
             / max(results["direct_hit_p99_ms"], 1e-6))
    results["gate_bound"] = GATE_BOUND
    results["gate_warm_p99_vs_direct_hit"] = round(ratio, 2)

    failures = []
    if ratio > GATE_BOUND:
        failures.append(
            "served warm-hit p99 %.2f ms is %.1fx the direct cache hit "
            "(%.2f ms); bound is %.0fx"
            % (results["warm_hit_p99_ms"], ratio,
               results["direct_hit_p99_ms"], GATE_BOUND))
    if results["coalesced_total"] < 1:
        failures.append("no concurrent rank coalesced onto an in-flight "
                        "solve")
    if results["rate_limited_counter"] < 1:
        failures.append("the throttled server never rejected a request")
    results["gate_failures"] = failures
    return results


_REPORT_KEYS = ("num_users", "num_items", "num_answers", "ingest_seconds",
                "cold_rank_seconds", "direct_hit_p50_ms",
                "direct_hit_p99_ms", "warm_hit_p50_ms", "warm_hit_p99_ms",
                "warm_hit_qps", "append_rank_p50_ms", "append_rank_p99_ms",
                "coalesced_total", "solves_total", "rate_limited_counter",
                "gate_warm_p99_vs_direct_hit")

_PERSIST_REPORT_KEYS = ("num_users", "num_items", "num_answers",
                        "ingest_seconds", "persist_cold_rank_seconds",
                        "persist_write_behind_seconds",
                        "persist_restart_seconds",
                        "persist_warm_rank_seconds",
                        "persist_warm_snapshot_hit",
                        "persist_warm_bit_identical",
                        "persist_append_warm_start", "persist_disk_hits",
                        "gate_warm_vs_cold_speedup")


def _print_report(results: Dict[str, object],
                  keys=_REPORT_KEYS) -> None:
    print()
    print("%-32s %12s" % ("metric", "value"))
    print("-" * 46)
    for key in keys:
        print("%-32s %12s" % (key, results.get(key)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced 20k x 1k CI gate (<60 s)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite benchmarks/BENCH_PR8.json")
    parser.add_argument("--persistence", action="store_true",
                        help="run the restart-warm persistence scenario "
                             "(SIGKILL + restart against --store-dir) "
                             "instead of the serving scenario")
    parser.add_argument("--update-persistence", action="store_true",
                        help="run the persistence scenario at full scale "
                             "and rewrite benchmarks/BENCH_PR9.json")
    parser.add_argument("--store-dir", default="persistence-store",
                        help="store directory for the persistence scenario "
                             "(wiped at the start of the run)")
    args = parser.parse_args(argv)

    if args.persistence or args.update_persistence:
        if args.smoke:
            results = run_persistence(num_users=20_000, num_items=1_000,
                                      density=0.01, smoke=True,
                                      store_dir=args.store_dir)
        else:
            results = run_persistence(store_dir=args.store_dir)
        _print_report(results, keys=_PERSIST_REPORT_KEYS)
        failures = results.pop("gate_failures")
        if args.update_persistence:
            payload = {
                "environment": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                },
                "protocol": {
                    "description": (
                        "A repro.cli serve --store subprocess hosts the "
                        "canonical 200k x 5k, 1M-answer crowd and solves "
                        "one cold %s rank; once the write-behind tier has "
                        "persisted the snapshot and the crowd NPZ, the "
                        "server is SIGKILLed and restarted against the "
                        "same directory.  The restarted server must "
                        "re-register the crowd, serve the first rank as a "
                        "bit-identical snapshot replay at least %.0fx "
                        "faster than the cold solve (the relative in-run "
                        "gate), and warm-start a follow-up append from "
                        "the pre-kill solver state."
                        % (PERSIST_METHOD, PERSIST_GATE)
                    ),
                },
                "persistence": results,
            }
            PERSIST_RESULTS_PATH.write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print("\nwrote %s" % PERSIST_RESULTS_PATH)
        if failures:
            for failure in failures:
                print("GATE FAILURE:", failure, file=sys.stderr)
            return 1
        print("\nall persistence gates passed")
        return 0

    if args.smoke:
        # Density is raised so the crowd still carries 200k answers: the
        # gate's reference is the O(nnz) hash, which must not vanish into
        # measurement noise at smoke scale.
        results = run_serve(num_users=20_000, num_items=1_000,
                            density=0.01, smoke=True)
    else:
        results = run_serve()
    _print_report(results)

    failures = results.pop("gate_failures")
    if args.update:
        payload = {
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "protocol": {
                "description": (
                    "A repro.cli serve subprocess (READY-line handshake) "
                    "hosts the canonical 200k x 5k, 1M-answer crowd; "
                    "latencies are per-request wall times measured "
                    "client-side over real sockets.  warm_hit_*: %d "
                    "concurrent clients issuing identical %s ranks against "
                    "the unchanged crowd (served from the session rank "
                    "cache).  append_rank_*: one micro-batched append of "
                    "%d answers followed by the rank that flushes and "
                    "re-solves.  The gate is in-run relative: served "
                    "warm-hit p99 must stay within %.0fx of the direct "
                    "in-process RankCache hit p99 on the same crowd, so "
                    "it holds on hardware of any speed.  Coalescing and "
                    "rate-limiting are asserted from the server's own "
                    "counters." % (results["warm_hit_clients"], METHOD,
                                   results["append_batch"], GATE_BOUND)
                ),
            },
            "serve": results,
        }
        RESULTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                                + "\n")
        print("\nwrote %s" % RESULTS_PATH)

    if failures:
        for failure in failures:
            print("GATE FAILURE:", failure, file=sys.stderr)
        return 1
    print("\nall serving gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
