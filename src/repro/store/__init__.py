"""Durable state tier: content-addressed snapshots that survive restarts.

The serving stack's most expensive artifacts — converged solver iterates,
ranked scores, and the crowds themselves — used to live only in process
memory.  :class:`SnapshotStore` is the disk tier beneath them:

* :class:`~repro.engine.cache.RankCache` built with ``store=`` promotes
  disk hits into its in-memory LRU and writes new entries back behind the
  solve (see :mod:`repro.store.writeback`);
* :class:`~repro.api.session.CrowdSession` persists its triples through
  the canonical NPZ format, under a JSON sidecar that is the crowd's one
  record, so a crowd restores after a restart and its first warm start
  reads the state stored under the restored hash;
* :class:`~repro.api.manager.SessionManager` / ``repro.cli serve --store``
  re-register persisted crowds on startup and serve the first rank warm
  (a ~ms snapshot hit on unchanged data, the PR 5 warm-start path after
  an append).

Integrity discipline: atomic temp-then-rename writes, per-record BLAKE2b
checksums with a schema version over the serve wire's payload layout
(:mod:`repro.store.format`), a snapshot directory that is its own index
(a record's name is its key, its size its cost and its mtime its last
use, driving size-bounded LRU eviction), a crowd save whose one commit
point is its sidecar's rename (:mod:`repro.store.snapshot`), and a load
path where every defect becomes a logged, counted, *contained*
:class:`~repro.exceptions.SnapshotError` — the stack above falls back
cold, never hangs, never serves a wrong answer.
"""

from repro.store.format import (
    SCHEMA_VERSION,
    SnapshotRecord,
    decode_snapshot,
    encode_snapshot,
    fingerprint_digest,
    snapshot_key,
)
from repro.store.snapshot import DEFAULT_MAX_BYTES, SnapshotStore
from repro.store.writeback import WriteBehind

__all__ = [
    "DEFAULT_MAX_BYTES",
    "SCHEMA_VERSION",
    "SnapshotRecord",
    "SnapshotStore",
    "WriteBehind",
    "decode_snapshot",
    "encode_snapshot",
    "fingerprint_digest",
    "snapshot_key",
]
