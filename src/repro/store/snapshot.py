"""``SnapshotStore``: the disk tier behind caches, sessions, and servers.

A store is one directory::

    <root>/
      snapshots/          <content_hash>-<fingerprint_digest>.snap records
      crowds/             <slug>.json records, each naming the
                          <slug>-<content_hash>.npz that holds the triples

The directory is its own index: a record's name is its key, its size is
its byte cost, and its mtime is its last use.  Opening a store lists
``snapshots/`` once and decodes nothing; an ``index.json`` left by an
older version is neither read nor written.

Records are content-addressed: the key is ``(matrix content hash, ranker
fingerprint digest)``, the same pair the in-memory
:class:`~repro.engine.cache.RankCache` keys on, so "is this exact answer
already on disk" is one ``O(nnz)`` hash plus a file read — and a hit
returns the **exact stored scores** (bit-identity is untouched by the
durable tier).

Durability discipline, in one sentence each:

* **Atomic writes** — every file (record, crowd NPZ, sidecar) is
  written to a ``.tmp-<pid>-*`` name in its final directory and
  :func:`os.replace`'d into place, so a reader sees the old state or the
  new state, never a torn file; a kill mid-write leaves only a temp file,
  reaped by the next open once its writer's process is gone.
* **One record per crowd** — a crowd's JSON sidecar is its only record
  and its rename is the save's one commit point: the NPZ it names carries
  its content hash in its file name, so a save never overwrites the bytes
  the current sidecar describes.  A kill before that rename leaves at
  most an NPZ that no sidecar names, which is not a crowd; the crowd's
  next completed save, or its drop, removes it.
* **Checksums** — records carry a BLAKE2b payload digest (see
  :mod:`repro.store.format`); crowd NPZs are validated by re-hashing the
  loaded matrix against the sidecar's recorded content hash, with the
  digest its ``digest`` field names (a sidecar without one holds the flat
  BLAKE2b that stores wrote before the digest became a Merkle list).
* **Typed, contained failure** — every load-path defect (truncated,
  bit-flipped, zero-length, unknown schema version, foreign record)
  becomes a :class:`~repro.exceptions.SnapshotError` *internally*, is
  logged and counted, removes the bad file, and surfaces to the caller as
  a plain miss: the stack above falls back cold, never hangs, never
  serves a wrong answer.
* **Bounded** — every write enforces a size/count LRU bound over the
  snapshot records, from sizes and last uses kept in memory with a
  running byte total, so a write below the bound sorts nothing;
  ``gc()`` applies the bounds now and can expire records by the
  creation time in their headers.
* **Reads write nothing** — a snapshot hit refreshes its record's LRU
  recency in memory; ``close()`` writes it to the record's mtime.  A
  kill loses no record, but it loses the recency of every hit since the
  store was opened: the LRU order falls back to the mtimes on disk.

The store is thread-safe behind one lock but **single-writer by design**:
one serving process owns a store directory at a time, matching how
``repro.cli serve --store`` deploys it.  Other processes may open it to
read (``store ls``/``stats``/``verify``): opening reaps only temp files
whose writing process is no longer running, never a live writer's.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.ranking import AbilityRanking
from repro.core.response import CONTENT_DIGEST, ResponseMatrix
from repro.exceptions import SnapshotError
from repro.store import format as record_format
from repro.store.format import SnapshotRecord, snapshot_key
from repro.store.writeback import WriteBehind

logger = logging.getLogger("repro.store")

SNAPSHOT_SUFFIX = ".snap"
_TMP_PREFIX = ".tmp-"
_TMP_PID = re.compile(r"\.tmp-(\d+)-")
_NPZ_NAME = re.compile(r"[A-Za-z0-9._-]+\.npz")

#: Default LRU bound on the snapshot records (crowd NPZs are explicit
#: state — created by name, removed by ``drop`` — and are not evicted).
DEFAULT_MAX_BYTES = 2 << 30


def _flat_content_hash(matrix: ResponseMatrix) -> str:
    """The flat BLAKE2b-16 over ``(m, n)``, the option counts and every
    triple: the content digest a sidecar without a ``digest`` field holds."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.array([matrix.num_users, matrix.num_items],
                           dtype=np.int64).tobytes())
    digest.update(matrix.num_options.astype(np.int64).tobytes())
    for array in matrix.triples:  # stored int32 where they fit; hashed as int64
        digest.update(np.ascontiguousarray(array, dtype="<i8"))
    return digest.hexdigest()


def _writer_running(name: str) -> bool:
    """Whether the process whose pid a temp file's name carries still runs."""
    match = _TMP_PID.match(name)
    if match is None:
        return False
    try:
        os.kill(int(match.group(1)), 0)
    except PermissionError:  # it runs, as another user
        return True
    except (OSError, OverflowError):
        return False
    return True


def _crowd_slug(name: str) -> str:
    """Filesystem-safe, collision-free file stem for a crowd name."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name)[:48].strip("._") or "crowd"
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).hexdigest()
    return "%s-%s" % (safe, digest)


class SnapshotStore:
    """Content-addressed snapshot + crowd persistence over one directory.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if absent.
    max_bytes:
        LRU bound on total snapshot-record bytes (``None`` = unbounded;
        default 2 GiB).  Enforced on every write and by :meth:`gc`.
    max_records:
        LRU bound on the snapshot-record count (``None`` = unbounded).
    clock:
        Time source (injectable for tests); defaults to :func:`time.time`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        max_records: Optional[int] = None,
        clock=time.time,
    ) -> None:
        if max_bytes is not None and int(max_bytes) < 1:
            raise ValueError("max_bytes must be >= 1 or None, got %r"
                             % (max_bytes,))
        if max_records is not None and int(max_records) < 1:
            raise ValueError("max_records must be >= 1 or None, got %r"
                             % (max_records,))
        self.root = Path(root)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.max_records = None if max_records is None else int(max_records)
        self._clock = clock
        self._snapshots_dir = self.root / "snapshots"
        self._crowds_dir = self.root / "crowds"
        self._lock = threading.RLock()
        self._writeback = WriteBehind()
        self._tmp_counter = 0
        # key -> [record bytes, last use]; _bytes is their running total.
        self._records: Dict[str, List[float]] = {}
        self._bytes = 0
        # Keys hit since the last close(), whose last use is not on disk.
        self._hit_keys: Set[str] = set()
        # Crowd name -> the matrix its one queued deferred save will write.
        self._pending_saves: Dict[str, ResponseMatrix] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self.expirations = 0
        self.writes = 0
        self.crowd_saves = 0
        self.crowd_saves_superseded = 0
        self.crowd_loads = 0

        self._snapshots_dir.mkdir(parents=True, exist_ok=True)
        self._crowds_dir.mkdir(parents=True, exist_ok=True)
        reaped = self._reap_tmp_files()
        if reaped:
            logger.info("reaped %d interrupted temp file(s) under %s",
                        reaped, self.root)
        with os.scandir(self._snapshots_dir) as entries:
            for entry in entries:
                if entry.name.endswith(SNAPSHOT_SUFFIX):
                    stat = entry.stat()
                    self._records[entry.name[:-len(SNAPSHOT_SUFFIX)]] = [
                        stat.st_size, stat.st_mtime]
                    self._bytes += stat.st_size

    # ------------------------------------------------------------------ #
    # Directory plumbing
    # ------------------------------------------------------------------ #
    def _reap_tmp_files(self) -> int:
        """Remove leftovers of interrupted writes.

        A temp file whose writer still runs is a write in progress, about
        to be renamed into place: it stays.
        """
        reaped = 0
        for directory in (self.root, self._snapshots_dir, self._crowds_dir):
            for leftover in directory.glob(_TMP_PREFIX + "*"):
                if _writer_running(leftover.name):
                    continue
                try:
                    leftover.unlink()
                    reaped += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        return reaped

    def _tmp_name(self, directory: Path, suffix: str = "") -> Path:
        with self._lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        return directory / ("%s%d-%d%s" % (_TMP_PREFIX, os.getpid(), counter,
                                           suffix))

    def _durable_tmp(self, directory: Path, data: bytes) -> Path:
        """Write ``data`` to a temp file in ``directory`` and fsync it.

        Called before the store lock is taken: the caller renames the
        temp file into place under the lock, so no lookup ever waits on
        an fsync.
        """
        tmp = self._tmp_name(directory)
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return tmp

    def _snapshot_path(self, key: str) -> Path:
        return self._snapshots_dir / (key + SNAPSHOT_SUFFIX)

    # ------------------------------------------------------------------ #
    # Snapshot records
    # ------------------------------------------------------------------ #
    def put_snapshot(
        self,
        ranking: AbilityRanking,
        *,
        content_hash: str,
        fingerprint: Optional[Tuple],
    ) -> Optional[str]:
        """Persist one ranking; returns its key (``None`` if uncacheable).

        Serialization and the fsynced temp-file write happen outside the
        store lock, so a lookup never waits on the disk; under the lock
        the record is renamed into place, the one file a put changes, and
        the LRU bounds are enforced, so a store never grows past its
        configured size by more than the one record being admitted.
        """
        if fingerprint is None:
            return None
        now = float(self._clock())
        data = record_format.encode_snapshot(
            ranking,
            content_hash=content_hash,
            fingerprint=fingerprint,
            created=now,
        )
        key = snapshot_key(content_hash, fingerprint)
        tmp = self._durable_tmp(self._snapshots_dir, data)
        with self._lock:
            os.replace(tmp, self._snapshot_path(key))
            self._forget_locked(key)
            self._records[key] = [len(data), now]
            self._bytes += len(data)
            self.writes += 1
            self._evict_locked(self.max_bytes, self.max_records, protect=key)
        return key

    def get_snapshot(
        self, content_hash: str, fingerprint: Optional[Tuple]
    ) -> Optional[SnapshotRecord]:
        """The stored record for the exact key, or ``None`` (fall back cold).

        Every defect — missing file, truncation, bit flips, an unknown
        schema version, a record whose *recorded* identity does not match
        the requested key (foreign/tampered file) — is logged, counted,
        quarantined, and reported as a miss.  A hit writes nothing: it
        refreshes the record's LRU recency in memory only, and
        :meth:`close` writes that recency to the record's mtime.
        """
        if fingerprint is None:
            return None
        key = snapshot_key(content_hash, fingerprint)
        record = self._load_record(key, content_hash)
        now = float(self._clock())
        with self._lock:
            if record is None:
                self.misses += 1
                return None
            self.hits += 1
            entry = self._records.get(key)
            if entry is not None:
                entry[1] = now
                self._hit_keys.add(key)
        return record

    def _load_record(self, key: str,
                     content_hash: str) -> Optional[SnapshotRecord]:
        path = self._snapshot_path(key)
        try:
            record = record_format.decode_snapshot(path.read_bytes(),
                                                   path=path)
        except FileNotFoundError:
            with self._lock:
                self._forget_locked(key)  # removed behind the store's back
            return None
        except (OSError, SnapshotError) as err:
            self._quarantine(key, str(err))
            return None
        if record.content_hash != content_hash:
            # The file decodes but records a different identity: foreign.
            self._quarantine(key, "records content hash %s under key %s"
                             % (record.content_hash, key))
            return None
        return record

    def _quarantine(self, key: str, reason: str) -> None:
        """Drop a record that failed validation; the caller reports a miss."""
        logger.warning("snapshot %s failed validation (%s); falling back "
                       "cold", key, reason)
        with self._lock:
            self.corrupt += 1
            self._remove_locked(key)

    def _remove_locked(self, key: str) -> None:
        """Delete one record's file, then forget it (caller holds the lock)."""
        self._snapshot_path(key).unlink(missing_ok=True)
        self._forget_locked(key)

    def _forget_locked(self, key: str) -> None:
        entry = self._records.pop(key, None)
        if entry is not None:
            self._bytes -= entry[0]
        self._hit_keys.discard(key)

    # ------------------------------------------------------------------ #
    # Crowd persistence (explicit named state, not evicted)
    # ------------------------------------------------------------------ #
    def _sidecar_path(self, name: str) -> Path:
        return self._crowds_dir / (_crowd_slug(name) + ".json")

    @staticmethod
    def _read_sidecar(path: Path) -> Optional[Dict[str, object]]:
        """A crowd's record, or ``None`` when it is absent or unreadable.

        A record whose ``file`` is not a plain NPZ name in ``crowds/`` is
        unreadable too, so no record can point a load or a drop elsewhere.
        """
        try:
            entry = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) \
                or not {"name", "file", "content_hash"} <= entry.keys() \
                or not _NPZ_NAME.fullmatch(str(entry["file"])):
            return None
        return entry

    def _crowd_records(self) -> List[Dict[str, object]]:
        """Every readable crowd record, read without the store lock."""
        records = (self._read_sidecar(path)
                   for path in sorted(self._crowds_dir.glob("*.json")))
        return [entry for entry in records if entry is not None]

    def save_crowd(self, name: str, matrix: ResponseMatrix) -> None:
        """Persist a crowd's triples via the canonical NPZ format.

        The NPZ is :meth:`ResponseMatrix.save` written to a temp name and
        fsynced; its final name, ``<slug>-<content hash>.npz``, carries
        its content hash, so it never replaces the bytes the current
        sidecar describes.  The JSON sidecar (name, NPZ file, content
        hash, sizes) is also written and fsynced as a temp file.  Both
        temp files land before the store lock is taken, so a lookup never
        waits on the disk.  The sidecar's ``digest`` field names the
        digest of its content hash
        (:data:`~repro.core.response.CONTENT_DIGEST`).  Under the lock the
        NPZ is renamed into place, then the sidecar; the sidecar's rename
        is the save's one commit point.  Only after it are the crowd's
        other NPZs deleted: the one the previous sidecar named, and any an
        interrupted save left.  A kill anywhere in between leaves the
        previous save loadable.  A kill inside a crowd's first save leaves
        nothing to restore: an NPZ that no sidecar names is not a crowd.
        """
        path = self._sidecar_path(name)
        previous = self._read_sidecar(path)
        content_hash = matrix.content_hash()
        npz_name = "%s-%s.npz" % (_crowd_slug(name), content_hash)
        tmp = self._tmp_name(self._crowds_dir, suffix=".npz")
        matrix.save(tmp)
        with tmp.open("rb+") as handle:
            os.fsync(handle.fileno())
        entry = {
            "name": name,
            "file": npz_name,
            "content_hash": content_hash,
            "digest": CONTENT_DIGEST,
            "bytes": tmp.stat().st_size,
            "num_users": matrix.num_users,
            "num_answers": matrix.num_answers,
            "saved": float(self._clock()),
        }
        sidecar = self._durable_tmp(
            self._crowds_dir, json.dumps(entry, sort_keys=True).encode("utf-8")
        )
        with self._lock:
            os.replace(tmp, self._crowds_dir / npz_name)
            os.replace(sidecar, path)
            self._remove_npzs_locked(name, previous, keep=npz_name)
            self.crowd_saves += 1

    def defer_crowd_save(self, name: str, matrix: ResponseMatrix) -> bool:
        """Save ``matrix`` as crowd ``name`` on the write-behind thread.

        A crowd has at most one queued save, which writes the newest
        matrix deferred for the crowd by the time it runs.  A request
        while it is queued only swaps in its matrix and counts in
        ``crowd_saves_superseded``, so the durable copy trails the newest
        request by at most one pass through the FIFO, however often the
        crowd changes.  A swapped-in state can thus be written before the
        snapshot of the rank that deferred it, which is queued behind the
        save: after a kill in between, the first rank of the restored
        crowd solves instead of reading that snapshot.  :meth:`flush`
        drains the queued save.  Returns ``False``, keeping nothing, after
        :meth:`close`.
        """
        def job() -> None:
            with self._lock:
                newest = self._pending_saves.pop(name)
            self.save_crowd(name, newest)

        with self._lock:  # the job pops under it, so it finds its entry
            if name in self._pending_saves:
                self._pending_saves[name] = matrix
                self.crowd_saves_superseded += 1
                return True
            if not self.defer(job):
                return False
            self._pending_saves[name] = matrix
            return True

    def load_crowd(self, name: str) -> Optional[ResponseMatrix]:
        """Reload a persisted crowd, or ``None`` (absent or corrupt).

        The sidecar names the NPZ, and the reloaded matrix must re-hash
        to the sidecar's recorded content hash — a missing, torn or
        bit-flipped NPZ that still happens to parse is rejected rather
        than served as a silently different crowd.  A sidecar without a
        ``digest`` field was written before the content digest became a
        Merkle list and is checked with the flat digest it holds; one that
        names a digest this version does not compute counts as corrupt.
        """
        entry = self._read_sidecar(self._sidecar_path(name))
        if entry is None:
            return None
        try:
            matrix = ResponseMatrix.load(self._crowds_dir / entry["file"])
        except Exception as err:
            logger.warning("persisted crowd %r failed to load (%s); "
                           "treating as absent", name, err)
            with self._lock:
                self.corrupt += 1
            return None
        recorded = str(entry["content_hash"])
        digest = entry.get("digest")
        if digest == CONTENT_DIGEST:
            actual = matrix.content_hash()
        elif digest is None:  # written before sidecars named their digest
            actual = _flat_content_hash(matrix)
        else:
            actual = None
        if actual != recorded:
            logger.warning(
                "persisted crowd %r hashes to %s with digest %r but its "
                "sidecar records %s; treating as corrupt",
                name, actual, digest, recorded,
            )
            with self._lock:
                self.corrupt += 1
            return None
        with self._lock:
            self.crowd_loads += 1
        return matrix

    def crowd_names(self) -> Tuple[str, ...]:
        """Names of persisted crowds, most recently saved first."""
        entries = sorted(self._crowd_records(),
                         key=lambda entry: float(entry.get("saved", 0.0)),
                         reverse=True)
        return tuple(str(entry["name"]) for entry in entries)

    def drop_crowd(self, name: str) -> bool:
        """Remove a crowd's durable state (sidecar, then every NPZ of it).

        This is the recovery path for a poisoned crowd — ``drop`` then
        re-create must not resurrect the bad data — so it is part of the
        manager's ``drop`` contract, not an optional cleanup.  The
        sidecar goes first: a kill in between leaves NPZs no sidecar
        names, which are not a crowd.  Returns whether a sidecar existed.
        """
        path = self._sidecar_path(name)
        entry = self._read_sidecar(path)
        with self._lock:
            try:
                path.unlink()
                dropped = True
            except FileNotFoundError:
                dropped = False
            self._remove_npzs_locked(name, entry)
            return dropped

    def _remove_npzs_locked(self, name: str, entry: Optional[Dict[str, object]],
                            keep: Optional[str] = None) -> None:
        """Delete crowd ``name``'s NPZs but ``keep`` (caller holds the lock).

        Those are the file its sidecar record ``entry`` names (``<slug>.npz``
        in stores from before content-hashed names) and every
        ``<slug>-<content hash>.npz``, so an NPZ an interrupted save left
        goes too.  The match is exact: a crowd whose slug extends this
        one's keeps its files.
        """
        slug = _crowd_slug(name)
        own = re.compile(re.escape(slug) + r"-[0-9a-f]{32}\.npz")
        names = {path.name for path in self._crowds_dir.glob(slug + "-*.npz")
                 if own.fullmatch(path.name)}
        if entry is not None:
            names.add(str(entry["file"]))
        names.discard(keep)
        for npz in names:
            (self._crowds_dir / npz).unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Eviction + maintenance
    # ------------------------------------------------------------------ #
    def _evict_locked(self, max_bytes: Optional[int],
                      max_records: Optional[int],
                      protect: Optional[str] = None) -> int:
        """LRU-evict records past the bounds; returns how many went.

        A store within its bounds returns at once, without sorting.  The
        record ``protect`` is never evicted: :meth:`put_snapshot` just
        wrote it and is about to return its key; a later write or
        :meth:`gc` pass can still shed it.
        """
        def over() -> bool:
            return (max_bytes is not None and self._bytes > max_bytes) or (
                max_records is not None and len(self._records) > max_records)

        if not over():
            return 0
        evicted = 0
        for key in sorted(self._records, key=lambda key: self._records[key][1]):
            if not over():
                break
            if key != protect:
                self._remove_locked(key)
                evicted += 1
        self.evictions += evicted
        return evicted

    def gc(
        self,
        *,
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = None,
        max_records: Optional[int] = None,
    ) -> Dict[str, int]:
        """Expire, then LRU-bound, the snapshot records now.

        ``ttl`` removes every record created more than ``ttl`` seconds
        ago, by the creation time in its header (a hit moves a record's
        last use, never its age); a record whose header cannot be read
        counts as expired.  ``max_bytes``/``max_records`` override the
        store's bounds for this pass only (the ``store gc`` CLI uses
        these).  Returns what was removed and what remains.
        """
        now = float(self._clock())
        with self._lock:
            expired = 0
            if ttl is not None:
                for key in list(self._records):
                    try:
                        _, created = record_format.read_header(
                            self._snapshot_path(key))
                        stale = now - created > ttl
                    except (SnapshotError, OSError):
                        stale = True
                    if stale:
                        self._remove_locked(key)
                        expired += 1
            self.expirations += expired
            evicted = self._evict_locked(
                self.max_bytes if max_bytes is None else int(max_bytes),
                self.max_records if max_records is None else int(max_records),
            )
            return {"expired": expired, "evicted": evicted,
                    "remaining": len(self._records), "bytes": self._bytes}

    def verify(self) -> List[Dict[str, object]]:
        """Decode every record + crowd fully; report per-file status.

        The maintenance surface behind ``repro.cli store verify``: unlike
        the lookup paths (which silently fall back cold), this *reports*
        corruption — and removes nothing, so an operator can inspect a
        bad file before the next lookup quarantines it.
        """
        report: List[Dict[str, object]] = []
        for path in sorted(self._snapshots_dir.glob("*" + SNAPSHOT_SUFFIX)):
            entry: Dict[str, object] = {
                "file": str(path.relative_to(self.root)), "kind": "snapshot",
            }
            try:
                record = record_format.decode_snapshot(
                    path.read_bytes(), path=path
                )
                if path.name != record.key + SNAPSHOT_SUFFIX:
                    raise SnapshotError(
                        "file name does not match the recorded identity %s"
                        % record.key, path=path,
                    )
                entry["status"] = "ok"
                entry["method"] = record.method
            except (SnapshotError, OSError) as err:
                entry["status"] = "corrupt"
                entry["error"] = str(err)
            report.append(entry)
        for path in sorted(self._crowds_dir.glob("*.json")):
            record = self._read_sidecar(path)
            entry = {"file": str(path.relative_to(self.root)),
                     "kind": "crowd", "status": "ok"}
            if record is None:
                entry.update(status="corrupt", error="unreadable crowd record")
            elif self.load_crowd(str(record["name"])) is None:
                entry.update(status="corrupt",
                             error="crowd failed to load or re-hash")
            report.append(entry)
        return report

    def ls(self) -> Dict[str, List[Dict[str, object]]]:
        """The snapshot records, most recently used first, and the crowd
        sidecars, for ``store ls``.

        Each record's method and creation time come from its header
        (absent when the header cannot be read); no array or NPZ is
        read.
        """
        with self._lock:
            snapshots = [
                {"key": key, "bytes": size, "used": used}
                for key, (size, used) in sorted(
                    self._records.items(), key=lambda item: item[1][1],
                    reverse=True)
            ]
        for entry in snapshots:
            try:
                entry["method"], entry["created"] = record_format.read_header(
                    self._snapshot_path(entry["key"]))
            except (SnapshotError, OSError):
                pass
        crowds = sorted(self._crowd_records(),
                        key=lambda entry: str(entry["name"]))
        return {"snapshots": snapshots, "crowds": crowds}

    # ------------------------------------------------------------------ #
    # Write-behind + lifecycle
    # ------------------------------------------------------------------ #
    def defer(self, job) -> bool:
        """Run ``job`` on the write-behind thread (FIFO, failure-isolated)."""
        return self._writeback.submit(job)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Barrier: wait until every deferred write so far has run."""
        return self._writeback.flush(timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain deferred writes, stop the write-behind thread, and write
        the last use of each record hit since the last close to its
        mtime, so a reopened store keeps the LRU order."""
        self._writeback.close(timeout)
        with self._lock:
            for key in list(self._hit_keys):
                used = self._records[key][1]
                try:
                    os.utime(self._snapshot_path(key), (used, used))
                except FileNotFoundError:
                    self._forget_locked(key)
            self._hit_keys.clear()

    def stats(self) -> Dict[str, object]:
        """Counters + sizes (the ``store stats`` CLI and server payload)."""
        crowds = len(self._crowd_records())
        with self._lock:
            return {
                "root": str(self.root),
                "snapshots": len(self._records),
                "crowds": crowds,
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "max_records": self.max_records,
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "writes": self.writes,
                "crowd_saves": self.crowd_saves,
                "crowd_saves_superseded": self.crowd_saves_superseded,
                "crowd_loads": self.crowd_loads,
                "write_failures": self._writeback.failures,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SnapshotStore(root=%r, snapshots=%d)" % (
            str(self.root), len(self._records),
        )
