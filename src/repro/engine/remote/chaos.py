"""ChaosProxy: a fault-injecting TCP proxy for the remote backend.

Sits between the coordinator and one worker and forwards protocol frames
while injecting faults on command::

    proxy = ChaosProxy(worker_host, worker_port)
    proxy.start()
    engine = RemoteEngine(matrix, ["%s:%d" % (proxy.host, proxy.port)],
                          shards=4)
    proxy.set_fault("corrupt")        # flip payload bits from now on
    proxy.set_fault("pass")           # heal

Both directions are pumped **frame-aware** — the proxy parses the
``MAGIC | crc32 | length`` prefix and forwards whole frames — so faults
operate on protocol units and the client→server frame count is exact.
That counter drives deterministic mid-solve faults: ``on_request`` is
called with the running request number *before* the frame is forwarded,
letting a harness kill the worker after exactly N requests instead of
racing a wall-clock timer.

Faults (``set_fault(mode, ...)``):

* ``"pass"`` — forward faithfully (the default).
* ``"delay"`` — sleep ``delay`` seconds before forwarding each frame.
* ``"drop"`` — blackhole: consume frames, forward nothing (clients see
  a request timeout).
* ``"truncate"`` — forward only the first ``truncate_bytes`` bytes of the
  next frame, then sever that connection (clients see a cut-off frame).
* ``"corrupt"`` — XOR a byte in the payload, leaving the length intact
  (receivers see a checksum mismatch).
* ``"sever"`` — immediately close existing connections; new connections
  are accepted and instantly closed while the mode lasts.

Faults apply to a configurable ``direction``: ``"c2s"`` (requests),
``"s2c"`` (responses) or ``"both"``.  Every injected fault is appended to
:attr:`log` (and to ``log_path``, when given) for post-mortems.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.engine.remote.protocol import MAGIC

_PREFIX = struct.Struct("!II")


class _Fault:
    def __init__(self, mode: str, direction: str, delay: float,
                 truncate_bytes: int) -> None:
        self.mode = mode
        self.direction = direction
        self.delay = delay
        self.truncate_bytes = truncate_bytes


class ChaosProxy:
    """A programmable fault-injecting TCP forwarder (see module docs)."""

    MODES = ("pass", "delay", "drop", "truncate", "corrupt", "sever")

    def __init__(self, target_host: str, target_port: int,
                 host: str = "127.0.0.1", port: int = 0,
                 log_path: Optional[Union[str, Path]] = None) -> None:
        self.target = (target_host, int(target_port))
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self.log: List[str] = []
        self.log_path = None if log_path is None else Path(log_path)
        self.requests_forwarded = 0
        #: Called with the 1-based request number before forwarding it.
        self.on_request: Optional[Callable[[int], None]] = None
        self._fault = _Fault("pass", "both", 0.0, 0)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._conns: List[socket.socket] = []
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    # ------------------------------------------------------------------ #
    def start(self) -> "ChaosProxy":
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True, name="chaos-proxy")
        self._thread.start()
        self._log("proxy listening on %s -> %s:%d"
                  % (self.address, *self.target))
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        self._close_all()
        if self.log_path is not None:
            self.log_path.write_text("\n".join(self.log) + "\n")

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def set_fault(self, mode: str, *, direction: str = "both",
                  delay: float = 0.0, truncate_bytes: int = 16) -> None:
        """Switch the active fault; ``"sever"`` also cuts live connections."""
        if mode not in self.MODES:
            raise ValueError("unknown fault %r (one of %s)"
                             % (mode, ", ".join(self.MODES)))
        with self._lock:
            self._fault = _Fault(mode, direction, delay, truncate_bytes)
        self._log("fault set: %s (direction=%s)" % (mode, direction))
        if mode == "sever":
            self._close_all()

    def heal(self) -> None:
        self.set_fault("pass")

    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        with self._lock:
            self.log.append("[%.3f] %s" % (time.monotonic(), message))

    def _close_all(self) -> None:
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            if self._fault.mode == "sever":
                self._log("sever: refusing new connection")
                client.close()
                continue
            try:
                upstream = socket.create_connection(self.target, timeout=5.0)
            except OSError as err:
                self._log("upstream connect failed: %s" % err)
                client.close()
                continue
            with self._lock:
                self._conns += [client, upstream]
            for source, sink, direction in (
                (client, upstream, "c2s"), (upstream, client, "s2c"),
            ):
                threading.Thread(
                    target=self._pump, args=(source, sink, direction),
                    daemon=True,
                ).start()
            self._log("connection established")

    # ------------------------------------------------------------------ #
    def _read_exact(self, sock: socket.socket, n: int) -> bytes:
        pieces = []
        while n > 0:
            piece = sock.recv(min(n, 1 << 20))
            if not piece:
                raise ConnectionError("eof")
            pieces.append(piece)
            n -= len(piece)
        return b"".join(pieces)

    def _pump(self, source: socket.socket, sink: socket.socket,
              direction: str) -> None:
        """Forward whole protocol frames from ``source`` to ``sink``."""
        try:
            while not self._stop.is_set():
                prefix = self._read_exact(source, len(MAGIC) + _PREFIX.size)
                if prefix[:4] != MAGIC:  # not our protocol; bail out
                    raise ConnectionError("non-protocol bytes")
                _, length = _PREFIX.unpack(prefix[4:])
                frame = prefix + self._read_exact(source, length)
                if direction == "c2s":
                    with self._lock:
                        self.requests_forwarded += 1
                        count = self.requests_forwarded
                    if self.on_request is not None:
                        self.on_request(count)
                if not self._forward(frame, sink, direction):
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass

    def _forward(self, frame: bytes, sink: socket.socket,
                 direction: str) -> bool:
        fault = self._fault
        applies = fault.direction in ("both", direction)
        if applies and fault.mode == "delay":
            self._log("delaying %s frame %.3fs" % (direction, fault.delay))
            time.sleep(fault.delay)
        elif applies and fault.mode == "drop":
            self._log("dropping %s frame (%d bytes)" % (direction, len(frame)))
            return True
        elif applies and fault.mode == "truncate":
            cut = min(fault.truncate_bytes, len(frame))
            self._log("truncating %s frame to %d of %d bytes, severing"
                      % (direction, cut, len(frame)))
            sink.sendall(frame[:cut])
            return False
        elif applies and fault.mode == "corrupt":
            index = len(frame) - 1  # flip a payload byte, keep the prefix
            frame = frame[:index] + bytes([frame[index] ^ 0xFF])
            self._log("corrupting %s frame (%d bytes)" % (direction, len(frame)))
        elif fault.mode == "sever":
            self._log("severing during %s forward" % direction)
            return False
        sink.sendall(frame)
        return True
