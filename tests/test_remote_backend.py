"""Tests for :mod:`repro.engine.remote`: the checksummed wire framing.

The serve protocol speaks this framing.
:mod:`repro.engine.remote.protocol` frames ``(op, meta, arrays)`` as
``MAGIC | crc32 | length | payload``.  A round trip preserves every array
bit for bit, and every malformed frame (bad magic, truncation, a flipped
bit, an absurd length prefix) raises a typed
:class:`~repro.exceptions.ProtocolError` instead of yielding wrong data.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.engine.remote import protocol
from repro.exceptions import EngineError, ProtocolError


class TestProtocol:
    def _pipe(self):
        return socket.socketpair()

    def test_round_trip_preserves_arrays(self):
        left, right = self._pipe()
        arrays = {
            "ints": np.arange(17, dtype=np.int64),
            "floats": np.linspace(-1, 1, 12).reshape(3, 4),
        }
        protocol.send_message(left, "op", {"k": 3}, arrays)
        op, meta, received = protocol.recv_message(right)
        assert op == "op" and meta == {"k": 3}
        np.testing.assert_array_equal(received["ints"], arrays["ints"])
        np.testing.assert_array_equal(received["floats"], arrays["floats"])
        assert received["floats"].dtype == np.float64
        left.close(), right.close()

    def test_empty_message(self):
        left, right = self._pipe()
        protocol.send_message(left, "ping")
        assert protocol.recv_message(right) == ("ping", {}, {})
        left.close(), right.close()

    def test_corrupted_payload_fails_checksum(self):
        frame = bytearray(protocol.encode_message("op", {}, {
            "x": np.arange(8, dtype=np.float64)
        }))
        frame[-1] ^= 0xFF
        left, right = self._pipe()
        left.sendall(bytes(frame))
        with pytest.raises(ProtocolError, match="checksum"):
            protocol.recv_message(right)
        left.close(), right.close()

    def test_truncated_frame(self):
        frame = protocol.encode_message("op", {}, {
            "x": np.arange(64, dtype=np.float64)
        })
        left, right = self._pipe()
        left.sendall(frame[:30])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.recv_message(right)
        right.close()

    def test_bad_magic(self):
        left, right = self._pipe()
        left.sendall(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ProtocolError, match="magic"):
            protocol.recv_message(right)
        left.close(), right.close()

    def test_clean_eof_is_connection_closed(self):
        left, right = self._pipe()
        left.close()
        with pytest.raises(protocol.ConnectionClosed):
            protocol.recv_message(right)
        right.close()

    def test_oversized_length_rejected_before_allocation(self):
        import struct
        import zlib
        prefix = protocol.MAGIC + struct.pack(
            "!II", zlib.crc32(b""), protocol.MAX_PAYLOAD + 1
        )
        left, right = self._pipe()
        left.sendall(prefix)
        with pytest.raises(ProtocolError, match="cap"):
            protocol.recv_message(right)
        left.close(), right.close()

    def test_header_reads_stop_before_the_arrays(self):
        import io

        payload = protocol.pack_payload(
            {"op": "op", "meta": {}}, {"x": np.arange(4, dtype=np.float64)})
        header, offset = protocol.unpack_header(payload)
        assert header["op"] == "op" and len(payload) - offset == 32
        stream = io.BytesIO(payload)
        assert protocol.read_header(stream) == header
        assert stream.tell() == offset
        assert protocol.unpack_header(payload[:offset]) == (header, offset)
        for broken in (payload[:3], payload[:offset - 1], b"\x02\0\0\0[]"):
            with pytest.raises(ProtocolError, match="payload header"):
                protocol.unpack_header(broken)
            with pytest.raises(ProtocolError, match="payload header"):
                protocol.read_header(io.BytesIO(broken))

    def test_protocol_error_is_typed(self):
        assert issubclass(ProtocolError, EngineError)
