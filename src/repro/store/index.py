"""The store's index file: snapshot eviction metadata, recoverable from the data.

``index.json`` is how the store answers "which snapshot records do I
hold, how big are they, what was used when" without decoding every
record — the TTL and LRU eviction policies read it, ``store ls``/``stats``
print it, and CI uploads it as an artifact.  It is deliberately **derived
state**: every fact in it can be rebuilt by scanning the record files
themselves, so a torn or corrupt index (a crash between the data rename
and the index rewrite is expected, not exceptional) costs one rebuild
scan, never data.

Crowds are not indexed: a crowd's JSON sidecar under ``crowds/`` is its
one record, so saving or dropping a crowd never rewrites this file.  An
index written by an older version still carries a ``crowds`` map; the
loader ignores it.

Writes go through the same atomic temp-then-:func:`os.replace` discipline
as the records, so a reader never observes a half-written index.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Optional

logger = logging.getLogger("repro.store")

INDEX_VERSION = 1


class StoreIndex:
    """In-memory image of ``index.json``; the store mutates and saves it.

    ``snapshots`` maps record key (``<content hash>-<fingerprint
    digest>``) -> ``{method, bytes, created, used}``.
    """

    def __init__(
        self, snapshots: Optional[Dict[str, Dict[str, object]]] = None
    ) -> None:
        self.snapshots = dict(snapshots or {})

    @classmethod
    def load(cls, path: Path) -> Optional["StoreIndex"]:
        """Parse ``index.json``, or ``None`` when it needs a rebuild.

        Missing, unparseable, wrong-versioned, or structurally wrong all
        answer ``None`` — the caller rebuilds from the record files, which
        are the source of truth.
        """
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
            logger.warning("store index %s unreadable (%s); rebuilding",
                           path, err)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("v") != INDEX_VERSION
            or not isinstance(payload.get("snapshots"), dict)
        ):
            logger.warning("store index %s malformed; rebuilding", path)
            return None
        return cls(payload["snapshots"])

    def save(self, path: Path) -> None:
        """Atomically rewrite ``index.json`` (temp + :func:`os.replace`)."""
        payload = {"v": INDEX_VERSION, "snapshots": self.snapshots}
        tmp = path.parent / (".tmp-index-%d" % os.getpid())
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        os.replace(tmp, path)

    def total_bytes(self) -> int:
        return sum(int(entry.get("bytes", 0)) for entry in self.snapshots.values())
