"""CI chaos smoke: kill a remote worker mid-solve, demand the same bits.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [--log chaos-log.txt]

Spawns two real ``python -m repro.engine.remote.worker`` subprocesses on
localhost ephemeral ports, routes worker 1 through a frame-counting
:class:`~repro.engine.remote.chaos.ChaosProxy`, and ranks a sparse crowd
with HnD-Power over the remote backend.  After a fixed number of protocol
requests the proxy SIGKILLs worker 1 — mid-solve, past shard shipping —
and the run only passes if the coordinator reassigns the orphaned shards
and reproduces the fused ranker's scores **bit for bit**.

The proxy's frame-by-frame log (every forwarded request plus every
injected fault) is written to ``--log`` for upload as a CI artifact.

Exit status: 0 on success, 1 on any divergence or missed recovery.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

import numpy as np

from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import ChaosProxy, rank_hnd_power
from repro.engine.remote.coordinator import RemoteEngine
from repro.engine.remote.supervision import SupervisionConfig

from bench_perf import _BenchWorker

#: Kill worker 1 before this (1-based) proxied request is forwarded.
KILL_AT_REQUEST = 40


def _crowd(num_users: int = 4_000, num_items: int = 200,
           density: float = 0.02, num_options: int = 4,
           seed: int = 7) -> ResponseMatrix:
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < density
    users, items = np.nonzero(mask)
    options = rng.integers(0, num_options, size=users.size)
    return ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", default="chaos-log.txt",
                        help="where to write the proxy's frame log")
    args = parser.parse_args(argv)

    crowd = _crowd()
    reference = HNDPower(random_state=0).rank(crowd)
    supervision = SupervisionConfig(
        request_timeout=10.0, connect_timeout=3.0, max_attempts=2,
        backoff_base=0.05, backoff_max=0.2, heartbeat_interval=0.5,
        heartbeat_timeout=1.0, breaker_threshold=2, breaker_reset=1.0,
    )

    workers = [_BenchWorker(), _BenchWorker()]
    failures: List[str] = []
    try:
        with ChaosProxy(workers[1].host, workers[1].port,
                        log_path=args.log) as proxy:
            proxy.on_request = (
                lambda count: workers[1].kill()
                if count == KILL_AT_REQUEST else None
            )
            start = time.perf_counter()
            with RemoteEngine(
                crowd, [workers[0].address, proxy.address], shards=8,
                supervision=supervision,
            ) as engine:
                ranking = rank_hnd_power(engine, random_state=0)
                diagnostics = engine.diagnostics()
                events = engine.events()
            elapsed = time.perf_counter() - start

        if not np.array_equal(ranking.scores, reference.scores):
            failures.append("post-kill scores diverged from the fused ranker")
        if diagnostics["reassignments"] < 1:
            failures.append("no shard reassignment recorded — the kill "
                            "never disturbed the solve")
        if diagnostics["alive_workers"] != 1:
            failures.append("expected exactly one surviving worker, got %d"
                            % diagnostics["alive_workers"])
        kinds = [event["event"] for event in events]
        for expected in ("worker_lost", "shard_reassigned"):
            if expected not in kinds:
                failures.append("missing %r event in %r" % (expected, kinds))

        print("chaos smoke: killed worker 1 @ request %d; recovered in "
              "%.2f s with %d reassignment(s); bit-identical: %s"
              % (KILL_AT_REQUEST, elapsed, diagnostics["reassignments"],
                 not failures))
        print("chaos log (%d lines) -> %s" % (len(proxy.log), args.log))
    finally:
        for worker in workers:
            worker.stop()

    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
