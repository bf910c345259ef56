"""Snapshot record format: schema-versioned, checksummed, pickle-free.

One snapshot file holds one ranking result — scores, the producing
:class:`~repro.core.solver_state.SolverState`, and enough identity to
validate it on the way back in.  The payload is the serve wire's payload
(:func:`~repro.engine.remote.protocol.pack_payload`: a little-endian
header length, a JSON header listing the arrays, then the raw array
bytes) under a record prefix of its own: a whole-payload digest and
**nothing pickled**, so a corrupted or adversarial file can at worst
produce a typed :class:`~repro.exceptions.SnapshotError` (naming the
file), never code execution and never a silently wrong array.

File layout (all integers little-endian)::

    MAGIC (4)  b"RSN1"
    schema  u32          format version; unknown values fail typed
    digest  (16)         BLAKE2b-16 of the payload (bit flips fail typed)
    length  u64          payload byte count (truncation fails typed)
    payload              header_len u32 | header JSON | array buffers

The header records the snapshot's identity — the producing matrix's
``content_hash`` and the :func:`fingerprint_digest` of the ranker
fingerprint — so a record renamed onto the wrong key (a *foreign* record)
is detected by content, not trusted by filename.  The decoder ignores
header keys it does not read, so records written by older versions, which
carry one more key, still load; neither the JSON key order nor its
spacing is part of the format.

The schema version is *before* the checksum deliberately: a reader must be
able to say "written by a newer repro" without knowing how the newer
format computes its digest.

:func:`read_header` reads only the prefix and the JSON header — the
method and creation time ``store ls`` and ``store gc --ttl`` need —
without reading the arrays; a lookup and ``store verify`` decode the
whole record with :func:`decode_snapshot`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.ranking import AbilityRanking
from repro.core.solver_state import SolverState
from repro.engine.remote.protocol import (
    pack_payload,
    read_header as read_payload_header,
    unpack_payload,
)
from repro.exceptions import ProtocolError, SnapshotError

MAGIC = b"RSN1"
SCHEMA_VERSION = 1
DIGEST_SIZE = 16
#: MAGIC + schema + digest + payload length.
PREFIX_SIZE = len(MAGIC) + 4 + DIGEST_SIZE + 8
#: Snapshots hold score vectors and solver iterates — far below this; a
#: larger declared length is corruption, not data.
MAX_PAYLOAD = 2 << 30

_PREFIX = struct.Struct("<4sI%dsQ" % DIGEST_SIZE)

# Diagnostics values that survive the JSON round trip faithfully.
_JSON_SCALARS = (bool, int, float, str, type(None))


def _payload_digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


# --------------------------------------------------------------------------- #
# Fingerprint digest
# --------------------------------------------------------------------------- #
def fingerprint_digest(fingerprint: Tuple) -> str:
    """Stable hex digest of a ranker fingerprint, for disk keys.

    :func:`~repro.engine.cache.ranker_fingerprint` returns a nested tuple
    of primitives — hashable in-process, but ``hash()`` is salted per
    process.  This walks the same structure through a canonical, type-
    tagged, length-prefixed encoding into BLAKE2b-16, so equal
    fingerprints digest equal across processes and machines (the same
    property :meth:`ResponseMatrix.content_hash` gives the data half of
    the key).
    """
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    _feed_token(digest, fingerprint)
    return digest.hexdigest()


def _feed_token(digest, value: object) -> None:
    if value is None:
        digest.update(b"N")
    elif isinstance(value, bool):
        digest.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        data = str(value).encode("ascii")
        digest.update(b"I%d:" % len(data))
        digest.update(data)
    elif isinstance(value, float):
        digest.update(b"F")
        digest.update(struct.pack("<d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        digest.update(b"S%d:" % len(data))
        digest.update(data)
    elif isinstance(value, bytes):
        digest.update(b"Y%d:" % len(value))
        digest.update(value)
    elif isinstance(value, tuple):
        digest.update(b"T%d:" % len(value))
        for item in value:
            _feed_token(digest, item)
    else:
        # ranker_fingerprint only emits the shapes above; anything else
        # means the fingerprint contract changed under us.
        raise SnapshotError(
            "cannot digest fingerprint token of type %s"
            % type(value).__name__
        )


def snapshot_key(content_hash: str, fingerprint: Tuple) -> str:
    """The store key for a ``(matrix content hash, fingerprint)`` pair."""
    return _record_key(content_hash, fingerprint_digest(fingerprint))


def _record_key(content_hash: str, digest: str) -> str:
    return "%s-%s" % (content_hash, digest)


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
@dataclass
class SnapshotRecord:
    """One decoded snapshot: the ranking plus its recorded identity."""

    content_hash: str
    fingerprint: str  # fingerprint_digest hex
    method: str
    scores: np.ndarray
    state: Optional[SolverState] = None
    created: float = 0.0
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """The store key of the identity this record carries."""
        return _record_key(self.content_hash, self.fingerprint)

    def to_ranking(self) -> AbilityRanking:
        """Reconstruct the stored :class:`AbilityRanking`.

        Scores are the exact stored float64 bytes — a snapshot hit is
        bit-identical to the ranking that produced it.  The diagnostics
        gain ``snapshot_hit=True`` so callers (and the restart-warm
        benchmark) can tell a disk hit from a fresh solve.
        """
        diagnostics = dict(self.diagnostics)
        diagnostics["snapshot_hit"] = True
        return AbilityRanking(
            scores=self.scores,
            method=self.method,
            diagnostics=diagnostics,
            state=self.state,
        )


def _clean_diagnostics(diagnostics: Dict[str, object]) -> Dict[str, object]:
    """The JSON-faithful subset of a ranking's diagnostics."""
    cleaned: Dict[str, object] = {}
    for key, value in diagnostics.items():
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, _JSON_SCALARS):
            cleaned[str(key)] = value
    return cleaned


def encode_snapshot(
    ranking: AbilityRanking,
    *,
    content_hash: str,
    fingerprint: Tuple,
    created: float = 0.0,
) -> bytes:
    """Serialize one ranking into the snapshot file format."""
    arrays: Dict[str, np.ndarray] = {
        "scores": np.ascontiguousarray(ranking.scores, dtype=np.float64)
    }
    state = getattr(ranking, "state", None)
    state_meta = None
    if state is not None:
        state_meta = {
            "method": state.method,
            "iterations": int(state.iterations),
            "residual": float(state.residual),
            "vectors": sorted(state.vectors),
        }
        for name in state_meta["vectors"]:
            arrays["state.%s" % name] = np.ascontiguousarray(
                state.vectors[name], dtype=np.float64
            )
    header = {
        "kind": "snapshot",
        "method": ranking.method,
        "content_hash": content_hash,
        "fingerprint": fingerprint_digest(fingerprint),
        "created": float(created),
        "diagnostics": _clean_diagnostics(ranking.diagnostics),
        "state": state_meta,
    }
    payload = pack_payload(header, arrays)
    prefix = _PREFIX.pack(
        MAGIC, SCHEMA_VERSION, _payload_digest(payload), len(payload)
    )
    return prefix + payload


def _read_prefix(data: bytes, path: object) -> Tuple[bytes, int]:
    """Check a record's prefix; returns its ``(digest, payload length)``."""
    if len(data) < PREFIX_SIZE:
        raise SnapshotError(
            "snapshot file is %d bytes, shorter than the %d-byte prefix"
            % (len(data), PREFIX_SIZE),
            path=path,
        )
    magic, schema, digest, length = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(
            "bad snapshot magic %r (expected %r)" % (magic, MAGIC), path=path
        )
    if schema != SCHEMA_VERSION:
        raise SnapshotError(
            "unknown snapshot schema version %d (this build reads %d)"
            % (schema, SCHEMA_VERSION),
            path=path,
        )
    if length > MAX_PAYLOAD:
        raise SnapshotError(
            "declared payload of %d bytes exceeds the %d-byte cap"
            % (length, MAX_PAYLOAD),
            path=path,
        )
    return digest, length


def _method_and_created(header: Dict[str, object],
                        path: object) -> Tuple[str, float]:
    """A snapshot header's ``(method, created)``; a defect is a SnapshotError."""
    if header.get("kind") != "snapshot":
        raise SnapshotError("snapshot header is not a snapshot", path=path)
    try:
        return str(header["method"]), float(header.get("created", 0.0))
    except (KeyError, TypeError, ValueError) as err:
        raise SnapshotError(
            "malformed snapshot header fields: %s" % err, path=path
        ) from err


def read_header(path: Path) -> Tuple[str, float]:
    """The ``(method, created)`` of the record at ``path``, from its header.

    Reads the prefix, checks it as :func:`decode_snapshot` does, then
    reads and parses the header alone, never the arrays.  The payload
    digest covers the arrays too, so it is not checked here: a header
    that parses is no proof the record decodes.  A format defect raises
    :class:`SnapshotError`; a missing or unreadable file raises
    :class:`OSError`.
    """
    with open(path, "rb") as handle:
        _read_prefix(handle.read(PREFIX_SIZE), path)
        try:
            header = read_payload_header(handle)
        except ProtocolError as err:
            raise SnapshotError(str(err), path=path) from err
    return _method_and_created(header, path)


def decode_snapshot(data: bytes, *, path: object = None) -> SnapshotRecord:
    """Parse + validate snapshot bytes; any defect is a :class:`SnapshotError`.

    The validation order gives each corruption class its own message:
    zero-length/short prefix, bad magic, unknown schema version, declared
    length vs. actual bytes (truncation), checksum (bit flips), then the
    header and array structure.
    """
    digest, length = _read_prefix(data, path)
    payload = data[PREFIX_SIZE:]
    if len(payload) != length:
        raise SnapshotError(
            "truncated snapshot: payload is %d bytes, header declares %d"
            % (len(payload), length),
            path=path,
        )
    if _payload_digest(payload) != digest:
        raise SnapshotError("snapshot checksum mismatch", path=path)
    try:
        header, views = unpack_payload(payload)
    except ProtocolError as err:
        raise SnapshotError(str(err), path=path) from err
    method, created = _method_and_created(header, path)
    try:
        content_hash = str(header["content_hash"])
        fingerprint = str(header["fingerprint"])
        diagnostics = dict(header.get("diagnostics") or {})
        state_meta = header.get("state")
    except (KeyError, TypeError, ValueError) as err:
        raise SnapshotError(
            "malformed snapshot header fields: %s" % err, path=path
        ) from err
    # Copies, so a record does not pin its file's bytes and its arrays
    # are writable like the ranking that produced them.
    arrays = {name: view.copy() for name, view in views.items()}
    if "scores" not in arrays:
        raise SnapshotError("snapshot carries no scores array", path=path)

    state = None
    if state_meta is not None:
        try:
            vectors = {
                str(name): arrays["state.%s" % name]
                for name in state_meta["vectors"]
            }
            state = SolverState(
                method=str(state_meta["method"]),
                vectors=vectors,
                iterations=int(state_meta["iterations"]),
                residual=float(state_meta["residual"]),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise SnapshotError(
                "malformed solver state: %s" % err, path=path
            ) from err
    return SnapshotRecord(
        content_hash=content_hash,
        fingerprint=fingerprint,
        method=method,
        scores=arrays["scores"],
        state=state,
        created=created,
        diagnostics=diagnostics,
    )
