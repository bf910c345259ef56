"""Length-prefixed, checksummed socket framing for the serve protocol.

One message is one frame::

    MAGIC (4 bytes, b"RPR1") | crc32 (u32) | payload length (u32) | payload

and the payload is::

    header length (u32) | header JSON (utf-8) | raw array buffers

The JSON header carries the operation name, a small metadata dict, and a
descriptor ``[name, dtype, shape]`` per array; the array buffers follow back-to-back in descriptor
order as raw C-contiguous bytes.  Nothing is pickled: the wire format is
JSON plus ``ndarray.tobytes()``, so a corrupted or malicious peer can at
worst produce a :class:`~repro.exceptions.ProtocolError`, never code
execution.

The crc32 covers the payload, so a bit flipped in transit fails the
checksum and raises :class:`~repro.exceptions.ProtocolError` instead of
silently yielding a wrong array.  Truncation (EOF mid-frame) and a bad
magic likewise raise; a clean EOF *between* frames raises
:class:`ConnectionClosed`, an orderly end of the connection.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ProtocolError

MAGIC = b"RPR1"
_PREFIX = struct.Struct("!II")  # crc32, payload length
_HEADER_LEN = struct.Struct("!I")

#: Refuse frames beyond this size (2 GiB) — a corrupted length prefix must
#: not make the receiver attempt an absurd allocation.
MAX_PAYLOAD = 2 << 30


class ConnectionClosed(ProtocolError):
    """The peer closed the connection at a frame boundary (clean EOF)."""


def encode_message(
    op: str,
    meta: Optional[Dict[str, object]] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> bytes:
    """Serialize one message to a complete wire frame."""
    buffers = []
    descriptors = []
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        descriptors.append([name, array.dtype.str, list(array.shape)])
        buffers.append(array.tobytes())
    header = json.dumps(
        {"op": op, "meta": meta or {}, "arrays": descriptors},
        separators=(",", ":"),
    ).encode("utf-8")
    payload = b"".join([_HEADER_LEN.pack(len(header)), header, *buffers])
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
    try:
        (header_len,) = _HEADER_LEN.unpack_from(payload)
        header = json.loads(payload[4:4 + header_len].decode("utf-8"))
        op = header["op"]
        meta = header["meta"]
        descriptors = header["arrays"]
    except (struct.error, ValueError, KeyError, UnicodeDecodeError) as err:
        raise ProtocolError("malformed frame header: %s" % err) from err
    arrays: Dict[str, np.ndarray] = {}
    offset = 4 + header_len
    for descriptor in descriptors:
        try:
            name, dtype_str, shape = descriptor
            dtype = np.dtype(dtype_str)
            shape = tuple(int(dim) for dim in shape)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = count * dtype.itemsize
            if offset + nbytes > len(payload):
                raise ValueError(
                    "array %r extends %d bytes past the payload"
                    % (name, offset + nbytes - len(payload))
                )
            arrays[name] = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            offset += nbytes
        except (TypeError, ValueError) as err:
            raise ProtocolError("malformed array descriptor: %s" % err) from err
    if offset != len(payload):
        raise ProtocolError(
            "frame has %d trailing bytes after the declared arrays"
            % (len(payload) - offset)
        )
    return op, meta, arrays


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
