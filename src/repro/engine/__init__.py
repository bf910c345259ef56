"""Execution engine: the remote backend, ingestion, caching.

Built on the triples-native storage: the canonical user-major
triples make user-range sharding a pure slice, and the paper's ranking
methods reduce over per-user contributions, so their sufficient statistics
merge across shards.  There are two ways to execute a method: fused, on
the in-process ``O(nnz)`` kernels, or over
:class:`~repro.engine.remote.RemoteEngine` — socket workers holding the
user-range shards the engine plans from a matrix and a shard count, with
supervised failover.  Each shard-capable method has one
implementation (``rank_hnd_power``, ``rank_dawid_skene``,
``rank_majority_vote``, re-exported here) that takes a matrix or a remote
engine, so the two are bit-identical.  The chunked readers stream datasets
bigger than the raw input buffers (:mod:`~repro.engine.ingest`), and the
``O(nnz)`` content hash keys an LRU cache over repeated ``rank()`` calls
(:mod:`~repro.engine.cache`).  Prefer the :func:`repro.api.rank` entry
point with an ``ExecutionPolicy``.
"""

from repro.core.hitsndiffs import rank_hnd_power
from repro.truth_discovery.dawid_skene import rank_dawid_skene
from repro.truth_discovery.majority import rank_majority_vote
from repro.engine.remote import (
    ChaosProxy,
    RemoteEngine,
    SupervisionConfig,
)
from repro.engine.ingest import (
    DEFAULT_CHUNK_SIZE,
    build_from_chunks,
    iter_triples_csv,
    iter_triples_npz,
    load_streaming,
    read_csv_header,
    read_npz_metadata,
)
from repro.engine.cache import RankCache, ranker_fingerprint

__all__ = [
    "RemoteEngine",
    "SupervisionConfig",
    "ChaosProxy",
    "rank_majority_vote",
    "rank_dawid_skene",
    "rank_hnd_power",
    "DEFAULT_CHUNK_SIZE",
    "iter_triples_npz",
    "iter_triples_csv",
    "read_csv_header",
    "read_npz_metadata",
    "build_from_chunks",
    "load_streaming",
    "RankCache",
    "ranker_fingerprint",
]
