"""Remote execution backend: shard kernels behind a socket boundary.

The one alternative to the fused in-process kernels.  Shard slices are
shipped to the workers once, small per-iteration vectors are exchanged, and
every float reduction is performed coordinator-side in canonical answer
order.  The package also carries the failure handling a network needs:

* :mod:`~repro.engine.remote.protocol` — length-prefixed, checksummed
  message framing for numpy arrays.
* :mod:`~repro.engine.remote.worker` — a standalone worker process
  (``python -m repro.engine.remote.worker --port N``) holding shard slices
  and answering per-iteration kernel requests.
* :mod:`~repro.engine.remote.supervision` — per-request timeouts,
  retry with exponential backoff and jitter, heartbeats, and a per-worker
  circuit breaker.
* :mod:`~repro.engine.remote.coordinator` — :class:`RemoteEngine`, the
  sufficient-statistic kernels the ``rank_*`` runners call when handed an
  engine instead of a matrix.  It keeps all float reductions
  coordinator-side, so remote scores stay bit-identical to the fused
  backend, and reassigns a dead worker's shards to a survivor (or solves
  them coordinator-local) without changing a single bit of the result.
* :mod:`~repro.engine.remote.chaos` — a fault-injecting TCP proxy used by
  the fault-injection harness and CI chaos job.
"""

from repro.engine.remote.chaos import ChaosProxy
from repro.engine.remote.coordinator import RemoteEngine
from repro.engine.remote.supervision import (
    CircuitBreaker,
    SupervisionConfig,
    WorkerClient,
)
from repro.engine.remote.worker import ShardStore, WorkerServer

__all__ = [
    "ChaosProxy",
    "CircuitBreaker",
    "RemoteEngine",
    "ShardStore",
    "SupervisionConfig",
    "WorkerClient",
    "WorkerServer",
]
