"""Byte-stream links between nodes.

Three interchangeable flavors carry the same traffic:

* :func:`make_sync_pair`: in-process, synchronous delivery; used by the
  deterministic (event-time) harness and by protocol tests, optionally with
  seeded packet loss.
* :func:`make_queue_pair`: in-process, queue + pump thread per direction;
  used by the wall-clock benchmark harness so latency includes real queueing.
* :class:`TcpServer` / :func:`connect_tcp`: plain TCP for live runs.

Endpoints expose ``send(bytes)``, an ``on_receive`` callback slot, and
``close()``. Framing is the caller's concern (MQTT packets are
self-delimiting; the gateway uses a 4-byte length prefix).
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Callable

from .errors import TransportError

logger = logging.getLogger(__name__)

Receiver = Callable[[bytes], None]

CONNECT_ATTEMPTS = 5


class Endpoint:
    """One end of a bidirectional link."""

    def __init__(self, name: str = ""):
        self.name = name
        self.on_receive: Receiver | None = None
        self.on_close: Callable[[], None] | None = None
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, data: bytes) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.on_close:
            self.on_close()

    def _deliver(self, data: bytes) -> None:
        if self._closed:
            return
        if self.on_receive is None:
            raise TransportError(f"endpoint {self.name!r} has no receiver")
        self.on_receive(data)


class _SyncEndpoint(Endpoint):
    def __init__(self, name: str, drop: Callable[[bytes], bool] | None = None):
        super().__init__(name)
        self.peer: _SyncEndpoint | None = None
        self._drop = drop
        self.sent = 0
        self.dropped = 0

    def send(self, data: bytes) -> None:
        if self._closed or self.peer is None:
            return
        self.sent += 1
        if self._drop is not None and self._drop(data):
            self.dropped += 1
            return
        self.peer._deliver(data)

    def close(self) -> None:
        peer = self.peer
        super().close()
        if peer is not None and not peer.closed:
            peer.close()


def make_sync_pair(
    name_a: str = "a",
    name_b: str = "b",
    drop_a_to_b: Callable[[bytes], bool] | None = None,
    drop_b_to_a: Callable[[bytes], bool] | None = None,
) -> tuple[Endpoint, Endpoint]:
    """Synchronous in-process pair; ``drop_*`` hooks inject packet loss."""
    a = _SyncEndpoint(name_a, drop_a_to_b)
    b = _SyncEndpoint(name_b, drop_b_to_a)
    a.peer = b
    b.peer = a
    return a, b


class _QueueEndpoint(Endpoint):
    """Delivery decoupled through a queue drained by a pump thread."""

    def __init__(self, name: str):
        super().__init__(name)
        self.peer: _QueueEndpoint | None = None
        self._inbox: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._run, name=f"link-{name}", daemon=True)
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._pump.start()

    def queue_depth(self) -> int:
        return self._inbox.qsize()

    def send(self, data: bytes) -> None:
        if self._closed or self.peer is None or self.peer.closed:
            return
        self.peer._inbox.put(data)

    def _run(self) -> None:
        while True:
            data = self._inbox.get()
            if data is None:
                return
            if self._closed:
                return
            try:
                self._deliver(data)
            except Exception:
                logger.exception("receiver for %s raised", self.name)

    def close(self) -> None:
        peer = self.peer
        already = self._closed
        super().close()
        if not already:
            self._inbox.put(None)
        if peer is not None and not peer.closed:
            peer.close()


def make_queue_pair(name_a: str = "a", name_b: str = "b") -> tuple[Endpoint, Endpoint]:
    a = _QueueEndpoint(name_a)
    b = _QueueEndpoint(name_b)
    a.peer = b
    b.peer = a
    a.start()
    b.start()
    return a, b


class TcpEndpoint(Endpoint):
    def __init__(self, sock: socket.socket, name: str = ""):
        super().__init__(name or str(sock.getpeername()))
        self._sock = sock
        self._send_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, name=f"tcp-{self.name}", daemon=True)
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._reader.start()

    def send(self, data: bytes) -> None:
        if self._closed:
            return
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            logger.debug("send on %s failed: %s", self.name, exc)
            self.close()

    def _read_loop(self) -> None:
        while not self._closed:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            try:
                self._deliver(chunk)
            except Exception:
                logger.exception("receiver for %s raised", self.name)
                break
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpServer:
    """Accept loop handing each connection to ``on_connection(endpoint)``.

    The handler must set ``endpoint.on_receive`` before this call returns;
    the reader thread starts right after.
    """

    def __init__(self, host: str, port: int, on_connection: Callable[[TcpEndpoint], None]):
        self._on_connection = on_connection
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from None
        self._sock.listen(128)
        self.port = self._sock.getsockname()[1]
        self._closed = False
        self._thread = threading.Thread(target=self._accept_loop, name=f"tcp-accept-{self.port}", daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            endpoint = TcpEndpoint(conn, name=f"{addr[0]}:{addr[1]}")
            try:
                self._on_connection(endpoint)
            except Exception:
                logger.exception("connection handler failed")
                endpoint.close()
                continue
            endpoint.start()

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def connect_tcp(host: str, port: int, name: str = "", timeout_s: float = 5.0) -> TcpEndpoint:
    """Connect, retrying with a growing pause; a clean error once
    ``CONNECT_ATTEMPTS`` attempts have failed."""
    for attempt in range(CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
            break
        except OSError as exc:
            last = exc
            time.sleep(0.2 * (attempt + 1))
    else:
        raise TransportError(
            f"cannot connect {host}:{port} after {CONNECT_ATTEMPTS} attempts: {last}"
        )
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpEndpoint(sock, name=name or f"{host}:{port}")
