"""Execution engine: the hash-keyed rank cache.

Each method has one entry point, the ``rank`` method of its registered
class, running fused ``O(nnz)`` kernels over the canonical user-major
answer triples.  This package adds the ``O(nnz)`` content hash keying an
LRU cache over repeated ``rank()`` calls (:mod:`~repro.engine.cache`).
Prefer the :func:`repro.api.rank` entry point, whose one execution setting
is ``cache=``.
"""

from repro.engine.cache import RankCache, ranker_fingerprint

__all__ = [
    "RankCache",
    "ranker_fingerprint",
]
