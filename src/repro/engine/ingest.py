"""Out-of-core triples ingestion: chunked readers feeding ``ResponseBuilder``.

The canonical triples of a crowd dataset fit in memory long before the raw
interchange files do (a CSV row costs ~15 bytes of text per answer *after*
parsing buffers, an uncompressed NPZ three decompression streams).  The
readers here therefore stream the on-disk formats written by
:meth:`ResponseMatrix.save <repro.core.response.ResponseMatrix.save>` in
bounded-size chunks:

* :func:`iter_triples_csv` reads the CSV format ``chunk_size`` lines at a
  time — at no point is the whole text file (or a whole-file parse) held.
* :func:`iter_triples_npz` streams the three NPZ members *in lockstep*
  through :mod:`zipfile`'s decompressing file objects, ``chunk_size`` rows
  at a time — the full arrays are never materialized.

:func:`build_from_chunks` pipes any chunk iterator into a
:class:`~repro.core.response.ResponseBuilder`; :func:`load_streaming` is the
end-to-end convenience (file -> ``ResponseMatrix``).
Chunks may split a user's answers across a boundary, be empty, or arrive
out of order — ``from_triples`` canonicalizes on build, and the edge cases
are pinned by ``tests/test_engine_ingest.py``.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.response import (
    ResponseBuilder,
    ResponseMatrix,
    npz_metadata,
    parse_csv_header,
)
from repro.exceptions import InvalidResponseMatrixError

#: Default rows per chunk: 64k answers = 1.5 MB of int64 triples.
DEFAULT_CHUNK_SIZE = 65_536

TripleChunk = Tuple[np.ndarray, np.ndarray, np.ndarray]


def read_csv_header(path: Union[str, Path]) -> Tuple[int, int, np.ndarray]:
    """Parse the shape / per-item option counts from a triples-CSV header.

    Delegates to the format owner
    (:func:`repro.core.response.parse_csv_header`), reading only the first
    line of the file.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return parse_csv_header(handle.readline(), path)


def iter_triples_csv(
    path: Union[str, Path], *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[TripleChunk]:
    """Yield ``(users, items, options)`` chunks from a triples CSV.

    Reads ``chunk_size`` data lines at a time; memory use is bounded by the
    chunk, not the file.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1, got %d" % chunk_size)
    path = Path(path)
    read_csv_header(path)  # validate up front for a better error
    with path.open("r", encoding="utf-8") as handle:
        handle.readline()  # header comment
        handle.readline()  # column-name line
        while True:
            lines = []
            for line in handle:
                if line.strip():
                    lines.append(line)
                if len(lines) >= chunk_size:
                    break
            if not lines:
                return
            try:
                table = np.loadtxt(lines, dtype=np.int64, delimiter=",",
                                   ndmin=2)
            except ValueError as err:
                # A mid-row truncation (power loss, partial copy) or stray
                # text surfaces here as a parse error, not an index crash.
                raise InvalidResponseMatrixError(
                    "%s: malformed triples row (truncated or corrupt "
                    "CSV?): %s" % (path, err)
                ) from err
            if table.shape[1] != 3:
                raise InvalidResponseMatrixError(
                    "%s: triples rows must have 3 columns "
                    "(user,item,option), found %d — truncated or corrupt "
                    "CSV?" % (path, table.shape[1])
                )
            yield table[:, 0], table[:, 1], table[:, 2]


def _read_npy_int64_stream(
    handle: IO[bytes],
) -> Tuple[int, np.dtype]:
    """Consume an NPY header, returning (row count, dtype) for a 1-D array."""
    try:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise InvalidResponseMatrixError(
                "unsupported NPY format version %s in NPZ member" % (version,)
            )
    except ValueError as err:
        # numpy's header readers raise bare ValueError on a truncated or
        # garbled NPY header; surface it as the library's input error.
        raise InvalidResponseMatrixError(
            "corrupt NPY header in NPZ member: %s" % err
        ) from err
    if len(shape) != 1 or fortran or not np.issubdtype(dtype, np.integer):
        raise InvalidResponseMatrixError(
            "NPZ member is not a flat integer array (shape %s, dtype %s); "
            "the streaming reader consumes the int64 triples "
            "ResponseMatrix.save writes" % (shape, dtype)
        )
    return int(shape[0]), dtype


def _read_exact(handle: IO[bytes], num_bytes: int) -> bytes:
    """Read exactly ``num_bytes`` from a (possibly decompressing) stream."""
    pieces = []
    remaining = num_bytes
    while remaining > 0:
        piece = handle.read(remaining)
        if not piece:
            raise InvalidResponseMatrixError(
                "NPZ member ended %d bytes early (truncated archive?)" % remaining
            )
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)


def iter_triples_npz(
    path: Union[str, Path], *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[TripleChunk]:
    """Yield ``(users, items, options)`` chunks from a saved NPZ archive.

    The three members are decompressed as *streams* (via :mod:`zipfile`) and
    consumed ``chunk_size`` rows at a time in lockstep, so peak memory is
    three chunk-sized buffers — never the full arrays.  Works on the
    archives :meth:`ResponseMatrix.save` writes (compressed or not).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1, got %d" % chunk_size)
    path = Path(path)
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile as err:
        raise InvalidResponseMatrixError(
            "%s is not a readable NPZ archive (truncated or corrupt): %s"
            % (path, err)
        ) from err
    with archive:
        names = set(archive.namelist())
        members = {}
        try:
            for field in ("users", "items", "options"):
                member = field + ".npy"
                if member not in names:
                    raise KeyError(field)
                members[field] = archive.open(member)
            lengths = {}
            dtypes = {}
            for field, handle in members.items():
                lengths[field], dtypes[field] = _read_npy_int64_stream(handle)
            if len(set(lengths.values())) != 1:
                raise InvalidResponseMatrixError(
                    "NPZ triple members have mismatched lengths %s" % lengths
                )
            total = lengths["users"]
            offset = 0
            while offset < total:
                rows = min(chunk_size, total - offset)
                chunk = tuple(
                    np.frombuffer(
                        _read_exact(members[field], rows * dtypes[field].itemsize),
                        dtype=dtypes[field],
                    ).astype(np.int64, copy=False)
                    for field in ("users", "items", "options")
                )
                offset += rows
                yield chunk
        except KeyError as missing:
            raise InvalidResponseMatrixError(
                "%s is not a ResponseMatrix archive (missing %r)"
                % (path, missing.args[0])
            ) from None
        except (zipfile.BadZipFile, zlib.error, EOFError) as err:
            # A member whose compressed stream is cut short or bit-flipped
            # fails inside zipfile/zlib mid-read; translate to the
            # library's input error instead of leaking a decoder traceback.
            raise InvalidResponseMatrixError(
                "%s: corrupt NPZ member stream (truncated or bit-damaged "
                "archive): %s" % (path, err)
            ) from err
        finally:
            for handle in members.values():
                handle.close()


def read_npz_metadata(path: Union[str, Path]) -> Tuple[int, int, np.ndarray]:
    """Shape and per-item option counts of a saved NPZ archive.

    Loads only the two small metadata members, not the triples, delegating
    the layout to the format owner (:func:`repro.core.response.npz_metadata`).
    """
    path = Path(path)
    with np.load(path) as payload:
        return npz_metadata(payload, path)


def build_from_chunks(
    chunks: Iterable[TripleChunk],
    *,
    shape: Optional[Tuple[int, int]] = None,
    num_options: Optional[Union[Sequence[int], int]] = None,
) -> ResponseMatrix:
    """Stream answer chunks into a :class:`ResponseBuilder` and build.

    Accepts any iterable of ``(users, items, options)`` batches — the file
    readers above, a network consumer, a generator over logs.  Empty chunks
    are no-ops; chunk boundaries may fall inside a user's answers; chunks
    may arrive in any order (``from_triples`` re-sorts on build when
    needed).
    """
    builder = ResponseBuilder(
        num_items=None if shape is None else shape[1],
        num_options=num_options,
    )
    for users, items, options in chunks:
        builder.add_answers(users, items, options)
    return builder.build(num_users=None if shape is None else shape[0])


def load_streaming(
    path: Union[str, Path], *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> ResponseMatrix:
    """Load a saved matrix (``.npz`` or ``.csv``) through the chunked readers.

    For archives written by :meth:`ResponseMatrix.save` this produces a
    matrix equal to :meth:`ResponseMatrix.load`'s, with peak raw input
    memory bounded by ``chunk_size`` rows.  Foreign NPZ archives with
    non-integer triple members are rejected (never silently truncated).
    """
    path = Path(path)
    if path.suffix == ".npz":
        m, n, per_item = read_npz_metadata(path)
        chunks = iter_triples_npz(path, chunk_size=chunk_size)
    elif path.suffix == ".csv":
        m, n, per_item = read_csv_header(path)
        chunks = iter_triples_csv(path, chunk_size=chunk_size)
    else:
        raise ValueError(
            "unsupported extension %r (use .npz or .csv)" % path.suffix
        )
    return build_from_chunks(chunks, shape=(m, n), num_options=per_item)
