"""Length-prefixed, checksummed socket framing for the serve protocol.

One message is one frame::

    MAGIC (4 bytes, b"RPR2") | crc32 (u32) | payload length (u32) | payload

and the payload is::

    header length (u32, little-endian) | header JSON (utf-8) | raw array buffers

:func:`pack_payload` and :func:`unpack_payload` own that payload layout,
and the snapshot records of :mod:`repro.store.format` reuse it under
their own prefix, so the repository has one array codec
(:func:`unpack_header` and :func:`read_header` parse the header alone,
for readers that need no array).  The JSON header carries a descriptor
``[name, dtype, shape]`` per array under ``"arrays"``; the array
buffers follow back-to-back in descriptor order as raw C-contiguous
bytes.  A wire header adds the operation name and a
small metadata dict.  Nothing is pickled: the format is JSON plus raw
array bytes, so a corrupted or malicious peer can at worst produce a
:class:`~repro.exceptions.ProtocolError`, never code execution.

The crc32 covers the payload, so a bit flipped in transit fails the
checksum and raises :class:`~repro.exceptions.ProtocolError` instead of
silently yielding a wrong array.  Truncation (EOF mid-frame) and a bad
magic likewise raise; a clean EOF *between* frames raises
:class:`ConnectionClosed`, an orderly end of the connection.  The magic
names the payload layout: ``RPR1`` frames wrote the header length
big-endian, so a peer built before the shared layout fails the magic
check instead of misreading the header.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import BinaryIO, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ProtocolError

MAGIC = b"RPR2"
_PREFIX = struct.Struct("!II")  # crc32, payload length
_HEADER_LEN = struct.Struct("<I")

#: Refuse frames beyond this size (2 GiB) — a corrupted length prefix must
#: not make the receiver attempt an absurd allocation.
MAX_PAYLOAD = 2 << 30


class ConnectionClosed(ProtocolError):
    """The peer closed the connection at a frame boundary (clean EOF)."""


def pack_payload(
    header: Dict[str, object],
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> bytes:
    """Serialize ``header`` plus raw ``arrays`` into one payload.

    The header gains the ``"arrays"`` descriptor list; every other key is
    the caller's.  :func:`unpack_payload` is the inverse.
    """
    buffers = []
    descriptors = []
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        descriptors.append([name, array.dtype.str, list(array.shape)])
        buffers.append(array.tobytes())
    encoded = json.dumps(
        dict(header, arrays=descriptors), separators=(",", ":")
    ).encode("utf-8")
    return b"".join([_HEADER_LEN.pack(len(encoded)), encoded, *buffers])


def unpack_header(payload: bytes) -> Tuple[Dict[str, object], int]:
    """Parse the header of a :func:`pack_payload` payload.

    Returns ``(header, offset)``: the header, ``"arrays"`` descriptors
    included, and the offset where the array buffers begin.  Nothing at
    or past ``offset`` is read, so ``payload`` may end there.  A short or
    non-JSON header raises :class:`~repro.exceptions.ProtocolError`.
    """
    try:
        (header_len,) = _HEADER_LEN.unpack_from(payload)
        offset = _HEADER_LEN.size + header_len
        if offset > len(payload):
            raise ValueError("header of %d bytes overruns the %d-byte payload"
                             % (header_len, len(payload)))
        header = json.loads(payload[_HEADER_LEN.size:offset].decode("utf-8"))
        if not isinstance(header, dict):
            raise TypeError("header is not a JSON object")
    except (struct.error, ValueError, TypeError) as err:
        raise ProtocolError("malformed payload header: %s" % err) from err
    return header, offset


def read_header(stream: BinaryIO) -> Dict[str, object]:
    """Read the header of the payload at a binary ``stream``'s position,
    leaving its array buffers unread.

    Defects raise :class:`~repro.exceptions.ProtocolError` as in
    :func:`unpack_header`.
    """
    head = stream.read(_HEADER_LEN.size)
    if len(head) == _HEADER_LEN.size:
        head += stream.read(min(_HEADER_LEN.unpack(head)[0], MAX_PAYLOAD))
    return unpack_header(head)[0]


def unpack_payload(
    payload: bytes,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Parse a :func:`pack_payload` payload; returns ``(header, arrays)``.

    The header comes back without its ``"arrays"`` descriptors.  Array
    values are read-only views over ``payload``.  Any structural defect
    (a short or non-JSON header, a bad descriptor, an array past the end,
    trailing bytes) raises :class:`~repro.exceptions.ProtocolError`.
    """
    header, offset = unpack_header(payload)
    try:
        descriptors = header.pop("arrays")
    except KeyError as err:
        raise ProtocolError("malformed payload header: %s" % err) from err
    arrays: Dict[str, np.ndarray] = {}
    try:
        for name, dtype_str, shape in descriptors:
            dtype = np.dtype(dtype_str)
            shape = tuple(int(dim) for dim in shape)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = count * dtype.itemsize
            if offset + nbytes > len(payload):
                raise ValueError(
                    "array %r extends %d bytes past the payload"
                    % (name, offset + nbytes - len(payload))
                )
            arrays[str(name)] = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            offset += nbytes
    except (TypeError, ValueError) as err:
        raise ProtocolError("malformed array descriptor: %s" % err) from err
    if offset != len(payload):
        raise ProtocolError(
            "payload has %d trailing bytes after the declared arrays"
            % (len(payload) - offset)
        )
    return header, arrays


def encode_message(
    op: str,
    meta: Optional[Dict[str, object]] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> bytes:
    """Serialize one message to a complete wire frame."""
    payload = pack_payload({"op": op, "meta": meta or {}}, arrays)
    return b"".join(
        [MAGIC, _PREFIX.pack(zlib.crc32(payload), len(payload)), payload]
    )


def send_message(
    sock: socket.socket,
    op: str,
    meta: Optional[Dict[str, object]] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    sock.sendall(encode_message(op, meta, arrays))


def _recv_exact(sock: socket.socket, num_bytes: int, *,
                at_boundary: bool) -> bytes:
    """Read exactly ``num_bytes``; distinguish clean EOF from truncation."""
    pieces = []
    remaining = num_bytes
    while remaining > 0:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            if at_boundary and remaining == num_bytes:
                raise ConnectionClosed("connection closed by peer")
            raise ProtocolError(
                "connection closed mid-frame (%d of %d bytes missing)"
                % (remaining, num_bytes)
            )
        pieces.append(piece)
        remaining -= len(piece)
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)


#: Bytes of the fixed frame prefix (magic + crc32 + payload length) — the
#: first read of any receiver, blocking or asyncio.
PREFIX_SIZE = len(MAGIC) + _PREFIX.size


def parse_prefix(prefix: bytes) -> Tuple[int, int]:
    """Validate a frame prefix; returns ``(checksum, payload length)``.

    Shared by the blocking :func:`recv_message` and the asyncio receiver
    in :mod:`repro.serve` — one place rejects a bad magic or an absurd
    length, whoever owns the socket.
    """
    if prefix[:4] != MAGIC:
        raise ProtocolError(
            "bad frame magic %r (expected %r)" % (prefix[:4], MAGIC)
        )
    checksum, length = _PREFIX.unpack(prefix[4:])
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            "frame payload length %d exceeds the %d-byte cap (corrupted "
            "length prefix?)" % (length, MAX_PAYLOAD)
        )
    return checksum, length


def decode_payload(
    payload: bytes, checksum: Optional[int] = None
) -> Tuple[str, Dict[str, object], Dict[str, np.ndarray]]:
    """Decode a received payload; returns ``(op, meta, arrays)``.

    Verifies the crc32 when ``checksum`` is given.  Array values are
    read-only views over ``payload``.  The payload-parsing half of
    :func:`recv_message`, split out so transports that already hold the
    complete frame bytes (the asyncio server) reuse the exact validation.
    """
    if checksum is not None and zlib.crc32(payload) != checksum:
        raise ProtocolError(
            "frame checksum mismatch (payload corrupted in transit)"
        )
    header, arrays = unpack_payload(payload)
    try:
        return header["op"], header["meta"], arrays
    except KeyError as err:
        raise ProtocolError("malformed frame header: %s" % err) from err


def recv_message(
    sock: socket.socket,
) -> Tuple[str, Dict[str, object], Dict[str, np.ndarray]]:
    """Receive one frame; returns ``(op, meta, arrays)``.

    Raises :class:`~repro.exceptions.ProtocolError` on any malformed
    frame and :class:`ConnectionClosed` on clean EOF between frames.
    Array values are read-only views over the received payload.
    """
    prefix = _recv_exact(sock, PREFIX_SIZE, at_boundary=True)
    checksum, length = parse_prefix(prefix)
    payload = _recv_exact(sock, length, at_boundary=False)
    return decode_payload(payload, checksum)
