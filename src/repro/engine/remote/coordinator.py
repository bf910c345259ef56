"""The remote coordinator: :class:`RemoteEngine`, shard kernels over sockets.

Data plane:

* **shard slices are shipped once**, at engine construction, round-robin
  over the configured workers.  Any worker can hold any shard, which is
  what makes reassignment possible.
* **per-iteration messages are small.**  Requests carry only the vector
  slice a shard can touch (user-range slices for gathers, the full
  option/posterior tables where answers index globally); replies carry the
  shard's gathered contributions or its disjoint user-row block.
* **every float reduction happens here, in canonical answer order** — the
  single sequential ``np.bincount`` scatter over the canonical triples,
  exactly the accumulation order of the fused kernels.  Workers never sum
  across answers that the fused kernels would not sum in the same order,
  so remote scores are **bit-identical to the fused backend at any
  shard/worker count** — a property that survives worker loss, because a
  reassigned (or coordinator-local) shard computes the same shard-pure
  function.

The methods themselves are not implemented here: ``rank_hnd_power``,
``rank_dawid_skene`` and ``rank_majority_vote`` take either a matrix or a
:class:`RemoteEngine` and ask it only for sufficient statistics.

Failure plane: requests go through
:class:`~repro.engine.remote.supervision.WorkerClient` (timeouts, retries
with backoff, circuit breaker, heartbeats).  When a worker is declared
lost — retries exhausted, breaker open, or connection refused — the
coordinator re-ships its shards to the least-loaded survivor, cascading
if that one fails too, and falls back to computing the shard locally
(through the same :class:`~repro.engine.remote.worker.ShardStore` code the
workers run) when no workers remain.  Reassignment is recorded in the
event log surfaced by :meth:`RemoteEngine.events` and counted in
``diagnostics()``.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.remote.supervision import (
    HeartbeatMonitor,
    SupervisionConfig,
    WorkerClient,
)
from repro.engine.remote.worker import ShardStore
from repro.engine.sharding import ShardedResponse
from repro.exceptions import (
    CircuitOpenError,
    EngineError,
    WorkerTimeoutError,
    WorkerUnavailableError,
)
from repro.linalg.operators import apply_cumulative_into, apply_difference
from repro.truth_discovery.majority import agreement_scores

WorkerAddress = Union[str, Tuple[str, int]]

#: Transport-level failures that trigger shard reassignment.
_FAILOVER_ERRORS = (WorkerUnavailableError, WorkerTimeoutError,
                    CircuitOpenError)


def parse_worker_address(value: WorkerAddress) -> Tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` to a ``(host, port)``."""
    if isinstance(value, str):
        host, sep, port = value.rpartition(":")
        if not sep or not host:
            raise ValueError(
                "worker address %r is not of the form host:port" % value
            )
        value = (host, port)
    host, port = value
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValueError("worker port %r is not an integer" % (port,))
    if not 0 < port < 65536:
        raise ValueError("worker port %d out of range" % port)
    return str(host), port


class RemoteEngine:
    """Shard kernels dispatched to remote workers with failover.

    Parameters
    ----------
    sharded:
        The sharding to execute over.
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs).  At least one is required; the engine connects and ships
        shard slices immediately.
    supervision:
        Timeout/retry/breaker/heartbeat knobs; defaults to
        :class:`~repro.engine.remote.supervision.SupervisionConfig`.
    local_fallback:
        When every worker is lost, solve orphaned shards in-process
        (default).  ``False`` raises
        :class:`~repro.exceptions.WorkerUnavailableError` instead —
        for callers that must not absorb remote load.
    iteration_batch:
        Solver iterations executed per ``hnd_chunk`` dispatch (default 1 —
        per-op dispatch, the pre-batching behaviour).  Above 1 the HnD
        power loop ships its serialized driver state and runs ``k``
        iterations per socket round-trip on a worker-held full replica
        (shipped once per worker, like shard slices); every value produces
        the same bits.

    Notes
    -----
    The engine owns sockets and a dispatch thread pool; use it as a
    context manager or call :meth:`close`.  It does **not** own the worker
    processes — :meth:`shutdown_workers` asks them to exit, for harnesses
    that want a clean teardown.
    """

    backend = "remote"

    def __init__(
        self,
        sharded: ShardedResponse,
        workers: Sequence[WorkerAddress],
        *,
        supervision: Optional[SupervisionConfig] = None,
        local_fallback: bool = True,
        iteration_batch: int = 1,
    ) -> None:
        if not workers:
            raise ValueError("remote backend needs at least one worker "
                             "address (host:port)")
        if int(iteration_batch) < 1:
            raise ValueError("iteration_batch must be >= 1, got %r"
                             % iteration_batch)
        self.sharded = sharded
        self.config = supervision or SupervisionConfig()
        self.local_fallback = bool(local_fallback)
        self.iteration_batch = int(iteration_batch)
        self._replica_on: set = set()
        self._local_diff_step = None
        addresses = [parse_worker_address(worker) for worker in workers]
        self._clients = [WorkerClient(host, port, self.config)
                         for host, port in addresses]
        self.num_workers = len(self._clients)
        self._alive = [True] * self.num_workers
        self._assignment: List[Optional[int]] = [None] * sharded.num_shards
        self._local_store: Optional[ShardStore] = None
        self._state_lock = threading.RLock()
        # Bounded so a flapping worker cannot grow memory without limit.
        self._events: "deque[Dict[str, object]]" = deque(maxlen=1000)
        self._reassignments = 0
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=min(max(sharded.num_shards, 1), 8),
            thread_name_prefix="repro-remote",
        )
        self._monitor = HeartbeatMonitor(
            dict(enumerate(self._clients)), self.config, self._event
        )
        self._finalizer = weakref.finalize(
            self, _release, self._clients, self._pool, self._monitor
        )
        try:
            self._ship_all()
        except Exception:
            self.close()
            raise
        self._monitor.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop heartbeats, close connections, shut the dispatch pool."""
        self._finalizer.detach()
        self._closed = True
        _release(self._clients, self._pool, self._monitor)

    def __enter__(self) -> "RemoteEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shutdown_workers(self) -> None:
        """Best-effort ``shutdown`` request to every still-alive worker."""
        for index, client in enumerate(self._clients):
            if not self._alive[index]:
                continue
            try:
                client.request("shutdown")
            except EngineError:
                pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def source(self):
        return self.sharded.source

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    def events(self) -> List[Dict[str, object]]:
        """A copy of the supervision event log (reassignments, failures)."""
        with self._state_lock:
            return list(self._events)

    def diagnostics(self) -> Dict[str, object]:
        """Execution facts merged into every ranking this engine computes."""
        info: Dict[str, object] = {
            "engine": "sharded",
            "backend": self.backend,
            "num_shards": self.num_shards,
        }
        with self._state_lock:
            info["num_workers"] = self.num_workers
            info["alive_workers"] = sum(self._alive)
            info["local_shards"] = self._assignment.count(None)
            info["reassignments"] = self._reassignments
        return info

    def _event(self, kind: str, **details: object) -> None:
        with self._state_lock:
            self._events.append({"event": kind, **details})

    # ------------------------------------------------------------------ #
    # Shard placement
    # ------------------------------------------------------------------ #
    def _shard_payload(self, shard_id: int):
        """The slices shipped for one shard (meta, arrays)."""
        users, items, options = self.sharded.source.triples
        cuts = self.sharded.answer_cuts
        boundaries = self.sharded.boundaries
        lo, hi = int(cuts[shard_id]), int(cuts[shard_id + 1])
        start, stop = int(boundaries[shard_id]), int(boundaries[shard_id + 1])
        meta = {"shard_id": shard_id, "user_start": start, "user_stop": stop}
        arrays = {
            "users": users[lo:hi],
            "items": items[lo:hi],
            "options": options[lo:hi],
            "columns": self.sharded.columns[lo:hi],
        }
        return meta, arrays

    def _ship(self, shard_id: int, worker_index: int) -> None:
        meta, arrays = self._shard_payload(shard_id)
        self._clients[worker_index].request("load_shard", meta, arrays,
                                            shard=shard_id)

    def _ship_all(self) -> None:
        pending = deque()
        for shard_id in range(self.num_shards):
            worker_index = shard_id % self.num_workers
            if self._alive[worker_index]:
                try:
                    self._ship(shard_id, worker_index)
                    self._assignment[shard_id] = worker_index
                    continue
                except _FAILOVER_ERRORS as err:
                    pending.extend(self._mark_dead(worker_index, err))
            pending.append(shard_id)
        self._place_orphans(pending)

    def _mark_dead(self, worker_index: int, err: BaseException) -> List[int]:
        """Declare a worker lost; returns the shards it orphans (idempotent)."""
        with self._state_lock:
            if not self._alive[worker_index]:
                return []
            self._alive[worker_index] = False
            orphans = [shard_id
                       for shard_id, owner in enumerate(self._assignment)
                       if owner == worker_index]
            for shard_id in orphans:
                self._assignment[shard_id] = -1  # in flight, owner pending
            self._event(
                "worker_lost", worker=self._clients[worker_index].address,
                shards=orphans, error=str(err), etype=type(err).__name__,
            )
        self._monitor.forget(worker_index)
        self._clients[worker_index].close()
        return orphans

    def _pick_target(self) -> Optional[int]:
        with self._state_lock:
            alive = [index for index in range(self.num_workers)
                     if self._alive[index]]
            if not alive:
                return None
            return min(alive, key=lambda index: (
                sum(1 for owner in self._assignment if owner == index), index
            ))

    def _place_orphans(self, pending: "deque[int]") -> None:
        """Re-ship orphaned shards to survivors, cascading; local last."""
        while pending:
            shard_id = pending.popleft()
            while True:
                target = self._pick_target()
                if target is None:
                    try:
                        self._assign_local(shard_id)
                    except WorkerUnavailableError:
                        # Mark every orphan as lost so concurrent dispatch
                        # threads fail typed instead of waiting forever.
                        with self._state_lock:
                            self._assignment[shard_id] = -2
                            for orphan in pending:
                                self._assignment[orphan] = -2
                        raise
                    break
                try:
                    self._ship(shard_id, target)
                except _FAILOVER_ERRORS as err:
                    pending.extend(self._mark_dead(target, err))
                    continue
                with self._state_lock:
                    self._assignment[shard_id] = target
                    self._reassignments += 1
                self._event("shard_reassigned", shard=shard_id,
                            worker=self._clients[target].address)
                break

    def _assign_local(self, shard_id: int) -> None:
        if not self.local_fallback:
            raise WorkerUnavailableError(
                "all %d remote workers are unavailable and local fallback "
                "is disabled" % self.num_workers, shard=shard_id,
            )
        with self._state_lock:
            if self._local_store is None:
                self._local_store = ShardStore()
            store = self._local_store
            meta, arrays = self._shard_payload(shard_id)
            store.load_shard(
                shard_id, arrays["users"], arrays["items"], arrays["options"],
                arrays["columns"], meta["user_start"], meta["user_stop"],
            )
            self._assignment[shard_id] = None
            self._reassignments += 1
        self._event("shard_local", shard=shard_id)

    def _handle_worker_failure(self, worker_index: int,
                               err: BaseException) -> None:
        with self._state_lock:  # serialize concurrent failure handling
            orphans = deque(self._mark_dead(worker_index, err))
            self._place_orphans(orphans)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _shard_request(self, shard_id: int, op: str,
                       meta: Dict[str, object],
                       arrays: Dict[str, np.ndarray]) -> np.ndarray:
        """One shard op, surviving worker loss via reassignment."""
        while True:
            with self._state_lock:
                owner = self._assignment[shard_id]
            if owner is None:
                return self._local_compute(shard_id, op, meta, arrays)
            if owner == -2:  # reassignment failed terminally
                raise WorkerUnavailableError(
                    "shard %d lost: all remote workers unavailable and "
                    "local fallback is disabled" % shard_id, shard=shard_id,
                )
            if owner == -1:
                # Reassignment in flight on another thread; acquiring the
                # state lock blocks until the handler resolves it.
                with self._state_lock:
                    continue
            try:
                _, reply = self._clients[owner].request(
                    op, {**meta, "shard_id": shard_id}, arrays, shard=shard_id
                )
                return np.asarray(reply["out"])
            except _FAILOVER_ERRORS as err:
                self._handle_worker_failure(owner, err)

    def _local_compute(self, shard_id: int, op: str,
                       meta: Dict[str, object],
                       arrays: Dict[str, np.ndarray]) -> np.ndarray:
        store = self._local_store
        if store is None or shard_id not in store:  # pragma: no cover
            raise EngineError("shard %d has no owner and no local copy"
                              % shard_id, shard=shard_id)
        return store.kernel(op, shard_id, meta, arrays)

    def _map(
        self,
        op: str,
        request_for: Callable[[int], Tuple[Dict[str, object],
                                           Dict[str, np.ndarray]]],
    ) -> List[np.ndarray]:
        """Run one op on every shard (worker-concurrent); shard order."""
        if self._closed:
            raise EngineError("RemoteEngine is closed")
        futures = []
        for shard_id in range(self.num_shards):
            meta, arrays = request_for(shard_id)
            futures.append(self._pool.submit(
                self._shard_request, shard_id, op, meta, arrays
            ))
        return [future.result() for future in futures]

    def _shard_bounds(self, shard_id: int) -> Tuple[int, int, int, int]:
        cuts = self.sharded.answer_cuts
        boundaries = self.sharded.boundaries
        return (int(cuts[shard_id]), int(cuts[shard_id + 1]),
                int(boundaries[shard_id]), int(boundaries[shard_id + 1]))

    # ------------------------------------------------------------------ #
    # Kernels: the sufficient statistics the rank_* runners ask for
    # ------------------------------------------------------------------ #
    def option_histograms(self) -> np.ndarray:
        """``(n, k_max)`` per-item option histograms (exact integer reduce)."""
        num_items, k = self.source.num_items, self.source.max_options
        partials = self._map(
            "histogram", lambda s: ({"num_items": num_items, "k": k}, {}),
        )
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial
        return total.reshape(num_items, k)

    def majority_scores(self, *, normalize_by_answers: bool = True):
        majority = self.option_histograms().argmax(axis=1).astype(int)
        blocks = self._map("agreements", lambda s: ({}, {"majority": majority}))
        scores = agreement_scores(np.concatenate(blocks),
                                  self.sharded.answers_per_user,
                                  normalize_by_answers)
        return scores, majority

    def option_sums(self, user_values: np.ndarray) -> np.ndarray:
        """``C^T v``: worker-parallel gather, sequential canonical scatter."""
        vec = np.ascontiguousarray(user_values, dtype=np.float64)

        def request_for(shard_id: int):
            _, _, start, stop = self._shard_bounds(shard_id)
            return {}, {"vec": vec[start:stop]}

        gathered = self._map("gather_user", request_for)
        scratch = np.empty(self.sharded.num_answers, dtype=np.float64)
        for shard_id, block in enumerate(gathered):
            lo, hi, _, _ = self._shard_bounds(shard_id)
            scratch[lo:hi] = block
        return np.bincount(
            self.sharded.columns, weights=scratch,
            minlength=self.sharded.num_columns,
        )

    def user_sums(self, option_values: np.ndarray) -> np.ndarray:
        """``C v``: workers finish disjoint user row blocks (no float reduce)."""
        vec = np.ascontiguousarray(option_values, dtype=np.float64)
        blocks = self._map("user_sums", lambda s: ({}, {"vec": vec}))
        return np.concatenate([np.asarray(block, dtype=np.float64)
                               for block in blocks])

    def avghits_apply(self, scores: np.ndarray) -> np.ndarray:
        """AVGHITS update ``s -> C_row ((C_col)^T s)`` — same scalings, bitwise."""
        weights = self.option_sums(scores)
        weights *= self.sharded.inv_column_counts
        updated = self.user_sums(weights)
        updated *= self.sharded.inv_answers_per_user
        return updated

    def hnd_difference_step(self) -> Callable[[np.ndarray], np.ndarray]:
        scores = np.empty(self.source.num_users, dtype=float)

        def diff_step(score_diffs: np.ndarray) -> np.ndarray:
            updated = self.avghits_apply(apply_cumulative_into(score_diffs, scores))
            return apply_difference(updated)

        return diff_step

    # ------------------------------------------------------------------ #
    # Batched-iteration dispatch (full-replica chunks)
    # ------------------------------------------------------------------ #
    def _replica_payload(self):
        source = self.sharded.source
        users, items, options = source.triples
        meta = {"num_users": source.num_users, "num_items": source.num_items}
        arrays = {
            "users": users,
            "items": items,
            "options": options,
            "num_options": np.asarray(source.num_options, dtype=np.int64),
        }
        return meta, arrays

    def _ensure_replica(self, worker_index: int) -> None:
        """Ship the full triples to a worker once (tracked per worker)."""
        with self._state_lock:
            shipped = worker_index in self._replica_on
        if shipped:
            return
        meta, arrays = self._replica_payload()
        self._clients[worker_index].request("load_replica", meta, arrays)
        with self._state_lock:
            self._replica_on.add(worker_index)

    def _local_hnd_step(self) -> Callable[[np.ndarray], np.ndarray]:
        """Coordinator-local fused difference step (total-worker-loss path).

        The coordinator holds the full source matrix anyway, so the local
        fallback for a chunk is simply the fused kernel — bit-identical to
        the replica the workers run.
        """
        if self._local_diff_step is None:
            from repro.core.avghits import hnd_difference_step as fused_step

            self._local_diff_step = fused_step(self.sharded.source)
        return self._local_diff_step

    def hnd_chunk_runner(self) -> Optional[Callable]:
        """Batched-iteration dispatch: k driver iterations per round-trip.

        ``None`` at ``iteration_batch == 1``: the power loop then runs on
        the coordinator, one dispatched matvec per iteration.  A chunk is
        a pure state-in/state-out function of the immutable replica, so
        failover is plain retry: if the worker dies mid-chunk the same
        input state is re-sent to a survivor (or advanced on the
        coordinator's own fused kernel once none remain), producing the
        same bytes the lost worker would have produced.
        """
        if self.iteration_batch == 1:
            return None

        def run_chunk(driver, steps: int) -> None:
            state_meta, state_arrays = driver.export_state()
            while True:
                target = self._pick_target()
                if target is None:
                    if not self.local_fallback:
                        raise WorkerUnavailableError(
                            "all %d remote workers are unavailable and "
                            "local fallback is disabled" % self.num_workers,
                        )
                    original = driver.matvec
                    driver.matvec = self._local_hnd_step()
                    try:
                        driver.advance(steps)
                    finally:
                        driver.matvec = original
                    return
                try:
                    self._ensure_replica(target)
                    reply_meta, reply_arrays = self._clients[target].request(
                        "hnd_chunk",
                        {"steps": int(steps), "state": state_meta},
                        state_arrays,
                    )
                    driver.restore_state(reply_meta["state"], reply_arrays)
                    return
                except _FAILOVER_ERRORS as err:
                    with self._state_lock:
                        self._replica_on.discard(target)
                    self._handle_worker_failure(target, err)

        return run_chunk

    def dawid_skene_accumulators(self, num_classes: int):
        num_items = self.source.num_items
        _, items, _ = self.source.triples

        def count_accumulator(posteriors: np.ndarray) -> np.ndarray:
            table = np.ascontiguousarray(posteriors, dtype=np.float64)
            blocks = self._map(
                "ds_counts",
                lambda s: ({"num_classes": num_classes},
                           {"posteriors": table}),
            )
            return np.concatenate(
                [np.asarray(block, dtype=np.float64) for block in blocks],
                axis=0,
            )

        def loglik_accumulator(log_confusion_flat: np.ndarray) -> np.ndarray:
            flat = np.ascontiguousarray(log_confusion_flat, dtype=np.float64)

            def request_for(shard_id: int):
                _, _, start, stop = self._shard_bounds(shard_id)
                return (
                    {"num_classes": num_classes},
                    {"logconf": flat[start * num_classes:stop * num_classes]},
                )

            blocks = self._map("ds_gather", request_for)
            gathered = np.empty((self.sharded.num_answers, num_classes),
                                dtype=np.float64)
            for shard_id, block in enumerate(blocks):
                lo, hi, _, _ = self._shard_bounds(shard_id)
                gathered[lo:hi, :] = np.asarray(block).reshape(hi - lo,
                                                               num_classes)
            return np.stack(
                [
                    np.bincount(
                        items,
                        weights=np.ascontiguousarray(gathered[:, label]),
                        minlength=num_items,
                    )
                    for label in range(num_classes)
                ],
                axis=1,
            )

        return count_accumulator, loglik_accumulator


def _release(clients: List[WorkerClient], pool: ThreadPoolExecutor,
             monitor: HeartbeatMonitor) -> None:
    """Tear down sockets and threads (used by close() and the finalizer)."""
    monitor.stop()
    for client in clients:
        client.close()
    pool.shutdown(wait=False, cancel_futures=True)
