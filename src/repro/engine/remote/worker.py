"""Standalone remote worker: holds shard slices, answers kernel requests.

Launch with ``python -m repro.engine.remote.worker --port N`` (``--port 0``
picks an ephemeral port).  The worker prints a single ``READY host=...
port=...`` line to stdout once it is accepting connections — harnesses and
CI parse that line to learn the bound port.

The compute lives in :class:`ShardStore`, a plain in-memory map from shard
id to its triple slices with one pure numpy method per kernel op.  Each
method is a shard-pure function — integer bincounts, per-user row blocks
or per-answer gathers — and every float sum across answers is left to the
coordinator's canonical-order scatter, which is what keeps remote results
bit-identical to the fused backend.  The coordinator instantiates
its own :class:`ShardStore` for the coordinator-local fallback path, so a
shard solved locally after a total worker loss produces the same bytes it
would have produced remotely.

The server is deliberately small: a listening socket, a thread per
connection, no framework.  Kernel ops are pure reads over immutable
arrays, so concurrent connections need no locking beyond the store's
mutation lock (``load_shard``).
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.engine.remote import protocol
from repro.engine.remote.protocol import ConnectionClosed
from repro.exceptions import ProtocolError
from repro.linalg.power_iteration import PowerIterationDriver
from repro.truth_discovery.majority import agreement_counts


def _one_hot_block(users_local: np.ndarray, columns: np.ndarray,
                   num_rows: int, num_columns: int) -> sp.csr_matrix:
    """A shard's one-hot CSR row block (canonical answer order per row).

    The shard's rows of the fused kernel's binary matrix: a SciPy matvec
    over it accumulates each user row in canonical answer order,
    bit-identical to the fused kernel.
    """
    counts = np.bincount(users_local, minlength=num_rows)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    block = sp.csr_matrix((num_rows, num_columns))
    block.data = np.ones(columns.size, dtype=np.float64)
    block.indices = np.ascontiguousarray(columns)
    block.indptr = indptr
    return block


class ShardStore:
    """Shard slices plus the per-shard kernel computations.

    Each shard is registered once via :meth:`load_shard` with the
    integer slices the coordinator ships; the kernel methods then answer
    per-iteration requests against the stored slices.
    """

    def __init__(self) -> None:
        self._shards: Dict[int, Dict[str, np.ndarray]] = {}
        self._lock = threading.Lock()
        self._replica: Optional[Dict[str, object]] = None
        self._replica_step = None

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._shards))

    def load_shard(
        self,
        shard_id: int,
        users: np.ndarray,
        items: np.ndarray,
        options: np.ndarray,
        columns: np.ndarray,
        user_start: int,
        user_stop: int,
    ) -> None:
        """Register (or re-register, idempotently) one shard's slices.

        ``users`` are global user ids (all within ``[user_start,
        user_stop)``); ``columns`` are the global binary-column ids of the
        shard's answers.  Arrays are copied so the store never aliases a
        receive buffer.
        """
        shard = {
            "users_local": np.asarray(users, dtype=np.int64) - int(user_start),
            "items": np.array(items, dtype=np.int64, copy=True),
            "options": np.array(options, dtype=np.int64, copy=True),
            "columns": np.array(columns, dtype=np.int64, copy=True),
            "user_start": int(user_start),
            "user_stop": int(user_stop),
        }
        with self._lock:
            self._shards[int(shard_id)] = shard

    def _shard(self, shard_id: int) -> Dict[str, np.ndarray]:
        try:
            return self._shards[int(shard_id)]
        except KeyError:
            raise KeyError("shard %d is not loaded on this worker" % shard_id)

    # ------------------------------------------------------------------ #
    # Kernel ops — one per coordinator request, shard-pure arithmetic
    # ------------------------------------------------------------------ #
    def gather_user(self, shard_id: int, vec_slice: np.ndarray) -> np.ndarray:
        """Per-answer user-score gather: ``out[j] = vec[user of answer j]``.

        ``vec_slice`` is the ``[user_start, user_stop)`` slice of the full
        user vector — the only part this shard's answers can touch.
        """
        shard = self._shard(shard_id)
        return np.take(np.asarray(vec_slice, dtype=np.float64),
                       shard["users_local"])

    def user_sums(self, shard_id: int, col_vec: np.ndarray) -> np.ndarray:
        """Per-user sums of the picked option values (disjoint row block).

        One fused CSR matvec over the shard's cached one-hot block.  The
        block is built lazily on first use (the column-space width comes
        from the request); a concurrent first use races benignly — both
        connections build the identical block and one wins the cache slot.
        """
        shard = self._shard(shard_id)
        col_vec = np.asarray(col_vec, dtype=np.float64)
        block = shard.get("block")
        if block is None or block.shape[1] != col_vec.size:
            block = _one_hot_block(
                shard["users_local"], shard["columns"],
                shard["user_stop"] - shard["user_start"], col_vec.size,
            )
            shard["block"] = block
        return block @ col_vec

    def histogram(self, shard_id: int, num_items: int, k: int) -> np.ndarray:
        """Shard's flat per-item option histogram (exact integers)."""
        shard = self._shard(shard_id)
        return np.bincount(shard["items"] * k + shard["options"],
                           minlength=num_items * k)

    def agreements(self, shard_id: int, majority: np.ndarray) -> np.ndarray:
        """Per-user majority-agreement counts (integer row block)."""
        shard = self._shard(shard_id)
        return agreement_counts(
            shard["users_local"], shard["items"], shard["options"],
            np.asarray(majority, dtype=np.int64),
            shard["user_stop"] - shard["user_start"],
        )

    def ds_counts(self, shard_id: int, num_classes: int,
                  posteriors: np.ndarray) -> np.ndarray:
        """Shard's block of the ``(m*k, k)`` confusion-count matrix."""
        shard = self._shard(shard_id)
        posteriors = np.asarray(posteriors, dtype=np.float64)
        keys = shard["users_local"] * num_classes + shard["options"]
        items = shard["items"]
        minlength = (shard["user_stop"] - shard["user_start"]) * num_classes
        return np.stack(
            [
                np.bincount(keys, weights=posteriors[items, label],
                            minlength=minlength)
                for label in range(num_classes)
            ],
            axis=1,
        )

    def ds_gather(self, shard_id: int, num_classes: int,
                  logconf_slice: np.ndarray) -> np.ndarray:
        """Per-answer log-confusion rows (E-step gather).

        ``logconf_slice`` is the ``[user_start*k, user_stop*k)`` row block
        of the flat log-confusion table.
        """
        shard = self._shard(shard_id)
        keys = shard["users_local"] * num_classes + shard["options"]
        return np.asarray(logconf_slice, dtype=np.float64)[keys]

    def kernel(self, op: str, shard_id: int, meta: Dict[str, object],
               arrays: Dict[str, np.ndarray]) -> np.ndarray:
        """Run one kernel request (``op`` in :data:`_KERNEL_OPS`) on a shard.

        The one request decoder, shared by the socket server and the
        coordinator's local fallback, so both compute identical bytes.
        """
        try:
            method, meta_keys, array_keys = _KERNEL_OPS[op]
        except KeyError:
            raise ValueError("unknown op %r" % op) from None
        args = [int(meta[key]) for key in meta_keys]
        args += [arrays[key] for key in array_keys]
        return getattr(self, method)(shard_id, *args)

    # ------------------------------------------------------------------ #
    # Full-replica ops (batched-iteration dispatch)
    # ------------------------------------------------------------------ #
    def load_replica(
        self,
        users: np.ndarray,
        items: np.ndarray,
        options: np.ndarray,
        num_options: np.ndarray,
        num_users: int,
        num_items: int,
    ) -> None:
        """Register (idempotently) the full canonical triples.

        Shipped once per worker by the coordinator when batched-iteration
        dispatch is on; :meth:`hnd_chunk` then advances solver state
        against a locally built replica of the fused kernel.
        """
        replica = {
            "users": np.array(users, dtype=np.int64, copy=True),
            "items": np.array(items, dtype=np.int64, copy=True),
            "options": np.array(options, dtype=np.int64, copy=True),
            "num_options": np.array(num_options, dtype=np.int64, copy=True),
            "num_users": int(num_users),
            "num_items": int(num_items),
        }
        with self._lock:
            self._replica = replica
            self._replica_step = None

    def _replica_diff_step(self):
        with self._lock:
            replica = self._replica
            step = self._replica_step
        if replica is None:
            raise KeyError("no replica is loaded on this worker")
        if step is None:
            from repro.core.avghits import hnd_difference_step
            from repro.core.response import ResponseMatrix

            matrix = ResponseMatrix.from_triples(
                replica["users"], replica["items"], replica["options"],
                shape=(replica["num_users"], replica["num_items"]),
                num_options=replica["num_options"],
            )
            step = hnd_difference_step(matrix)
            with self._lock:
                self._replica_step = step
        return step

    def hnd_chunk(
        self,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        steps: int,
    ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Advance a serialized power-iteration driver ``steps`` iterations.

        Pure state-in/state-out over the replica: identical column layout
        and accumulation order to the parent's ``CompiledResponse``, so a
        chunk is bit-identical to the same iterations run anywhere else —
        and re-running it after a failover produces the same bytes.
        """
        driver = PowerIterationDriver.from_state(
            self._replica_diff_step(), meta, arrays
        )
        driver.advance(int(steps))
        return driver.export_state()


#: op name -> (store method, meta keys, array keys) — the request surface.
_KERNEL_OPS = {
    "gather_user": ("gather_user", (), ("vec",)),
    "user_sums": ("user_sums", (), ("vec",)),
    "histogram": ("histogram", ("num_items", "k"), ()),
    "agreements": ("agreements", (), ("majority",)),
    "ds_counts": ("ds_counts", ("num_classes",), ("posteriors",)),
    "ds_gather": ("ds_gather", ("num_classes",), ("logconf",)),
}


class WorkerServer:
    """Threaded socket server wrapping a :class:`ShardStore`.

    One thread per connection; each connection processes requests
    sequentially (the coordinator pipelines per-worker requests over a
    single connection, so this matches the traffic shape).  A protocol
    error poisons only its own connection — the socket is closed and the
    server keeps serving others.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.store = ShardStore()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._threads: list = []

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` (or a shutdown op)."""
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                try:
                    op, meta, arrays = protocol.recv_message(conn)
                except ConnectionClosed:
                    return
                except (ProtocolError, OSError) as err:
                    print("worker: dropping connection: %s" % err,
                          file=sys.stderr, flush=True)
                    return
                try:
                    reply_meta, reply_arrays = self._dispatch(op, meta, arrays)
                except Exception as err:  # application error -> typed reply
                    protocol.send_message(
                        conn, "error",
                        {"message": str(err), "etype": type(err).__name__},
                    )
                    continue
                protocol.send_message(conn, "ok", reply_meta, reply_arrays)
                if op == "shutdown":
                    self.shutdown()
                    return
        except OSError:
            return  # peer vanished mid-reply; nothing to salvage
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _dispatch(self, op, meta, arrays):
        if op == "ping":
            return {"shards": list(self.store.shard_ids)}, {}
        if op == "shutdown":
            return {}, {}
        if op == "load_shard":
            self.store.load_shard(
                int(meta["shard_id"]),
                arrays["users"], arrays["items"], arrays["options"],
                arrays["columns"],
                int(meta["user_start"]), int(meta["user_stop"]),
            )
            return {"shard_id": int(meta["shard_id"])}, {}
        if op == "load_replica":
            self.store.load_replica(
                arrays["users"], arrays["items"], arrays["options"],
                arrays["num_options"],
                int(meta["num_users"]), int(meta["num_items"]),
            )
            return {}, {}
        if op == "hnd_chunk":
            state_meta, state_arrays = self.store.hnd_chunk(
                meta["state"], arrays, int(meta["steps"])
            )
            return {"state": state_meta}, state_arrays
        result = self.store.kernel(op, meta.get("shard_id"), meta, arrays)
        return {}, {"out": result}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.remote.worker",
        description="repro remote shard worker",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks an ephemeral port)")
    args = parser.parse_args(argv)
    server = WorkerServer(args.host, args.port)
    print("READY host=%s port=%d" % (server.host, server.port), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        server.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
