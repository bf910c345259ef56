"""Execution engine: the fused rankers, streaming ingestion, caching.

Built on the triples-native storage: HnD, Dawid–Skene and MajorityVote
each have one ranking function (``rank_hnd_power``, ``rank_dawid_skene``,
``rank_majority_vote``, re-exported here) running ``O(nnz)`` kernels over
the canonical user-major answer triples.  The chunked readers stream
datasets bigger than the raw input buffers (:mod:`~repro.engine.ingest`),
and the ``O(nnz)`` content hash keys an LRU cache over repeated ``rank()``
calls (:mod:`~repro.engine.cache`).  Prefer the :func:`repro.api.rank`
entry point, whose one execution setting is ``cache=``.
"""

from repro.core.hitsndiffs import rank_hnd_power
from repro.truth_discovery.dawid_skene import rank_dawid_skene
from repro.truth_discovery.majority import rank_majority_vote
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
