"""Byte-stream links between nodes, the loop that runs them, and the
process's one clock.

Every link lives on a :class:`Loop`, of one of two kinds:
:func:`make_queue_pair`, in-process, each send queued on the loop, under
either clock, optionally with seeded packet loss; or :class:`TcpServer` /
:func:`connect_tcp`, plain TCP, between the processes of a split run.

A process counts time on one clock, in milliseconds: a :class:`LogicalClock`
in event time, which stands still until the loop moves it to its next
timer, or a :class:`WallClock` in processing time, the milliseconds since
its start. The loop keys its timers in that clock's ms, and the tasks and
nodes read the same clock, the broker and its clients through their
endpoints' ``loop``.

Nothing in the package is thread-safe, these endpoints included: each
process runs every node it hosts, and their links, on one thread.
Endpoints expose ``send(bytes)``, an ``on_receive`` callback slot, their
``loop`` and ``close()``. Framing is the caller's concern (MQTT packets are
self-delimiting; the gateway uses a 4-byte length prefix).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import selectors
import socket
import time
from collections import deque
from typing import Callable, Iterator

from .errors import TransportError

logger = logging.getLogger(__name__)

Receiver = Callable[[bytes], None]

CONNECT_ATTEMPTS = 5


class LogicalClock:
    """Virtual milliseconds: ``now`` moves only when set, and never back."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def set(self, at_ms: int) -> None:
        if at_ms > self.now:
            self.now = at_ms


class WallClock:
    """Milliseconds of the wall since ``start``, a ``time.monotonic()``:
    ``now`` is exact, a call returns whole ms."""

    def __init__(self):
        self.start = time.monotonic()

    @property
    def now(self) -> float:
        return (time.monotonic() - self.start) * 1000

    def __call__(self) -> int:
        return int(self.now)


class Loop:
    """One process's scheduler: a ready deque of ``(endpoint, bytes)``
    deliveries, a timer heap and one selector, all run by :meth:`run_until`
    on the calling thread; ``after_turn`` runs after each turn. A timer is a
    task: a generator that yields the ms of ``clock`` it next runs at. A
    :class:`LogicalClock` moves to the next timer, never waiting; without a
    clock, the loop counts on a :class:`WallClock` of its own.

    The selector is a ``SelectSelector`` on purpose: epoll rounds its timeout
    up to a whole millisecond, a lag every timed send would carry. With no
    socket registered, its wait is a plain sleep.
    """

    def __init__(self, clock=None):
        self.clock = WallClock() if clock is None else clock
        self.ready: deque = deque()
        self.selector = selectors.SelectSelector()
        self.after_turn: Callable[[], None] = lambda: None
        self._timers: list = []  # heap of (due, rank, task)
        self._ranks = itertools.count()
        self.running = -1  # the rank of the task being run

    def start(self, task: Iterator[float]) -> None:
        """Run ``task`` to its next yield and keep it until the time it
        yields; tasks due together run in the order they were started."""
        self._resume(next(self._ranks), task)

    def _resume(self, rank: int, task: Iterator[float]) -> None:
        self.running = rank
        due = next(task, None)
        if due is not None:
            heapq.heappush(self._timers, (due, rank, task))

    def wake(self, rank: int, due: float) -> None:
        """Resume the task of ``rank`` (see ``running``) at ``due``
        instead, if it is waiting for later."""
        for index, (at, waiting, task) in enumerate(self._timers):
            if waiting == rank and due < at:
                self._timers[index] = (due, rank, task)
                heapq.heapify(self._timers)

    def run_until(self, done: Callable[[], bool], timeout_s: float | None = None) -> bool:
        """Run turns until ``done()`` holds; false if ``timeout_s`` passes
        first or, on a logical clock (no timeout there), once nothing is left.

        A turn waits for socket events until the next timer or the deadline
        is due, or only polls while deliveries are queued or the clock is
        logical. Then it runs the deliveries queued by then and the earliest
        timer due by then (ties in start order): a timer that yields a time
        already past runs on a later turn. A logical clock instead moves to
        the earliest timer and runs it, but only on a turn that starts with
        no delivery queued, and a turn runs deliveries until none is left,
        those they queue included: one instant's messages settle, and
        ``after_turn`` runs, before its next timer.
        """
        clock = self.clock
        virtual = isinstance(clock, LogicalClock)
        deadline = math.inf if timeout_s is None or virtual else clock.now + timeout_s * 1000
        ready, timers = self.ready, self._timers
        while not done():
            if virtual and not ready:
                if not timers:
                    return False
                clock.set(timers[0][0])
                _, rank, task = heapq.heappop(timers)
                self._resume(rank, task)
            now = clock.now
            if now >= deadline:
                return False
            wait = 0.0 if ready or virtual else min(timers[0][0] if timers else math.inf, deadline) - now
            if wait > 0.0 or self.selector.get_map():
                for key, events in self.selector.select(None if wait == math.inf else max(wait, 0.0) / 1000):
                    if events & selectors.EVENT_WRITE:
                        key.data.on_writable()
                    if events & selectors.EVENT_READ:
                        key.data.on_readable()
            count = len(ready)
            while count:
                endpoint, data = ready.popleft()
                try:
                    endpoint._deliver(data)
                except Exception:
                    logger.exception("receiver for %s raised", endpoint.name)
                count = len(ready) if virtual else count - 1
            if timers and timers[0][0] <= clock.now and not virtual:
                _, rank, task = heapq.heappop(timers)
                self._resume(rank, task)
            self.after_turn()
        return True

    def close(self) -> None:
        """Close every socket still registered; the loop runs no more."""
        for key in list((self.selector.get_map() or {}).values()):
            key.data.close()
        self.selector.close()


class Endpoint:
    """One end of a bidirectional link, run by ``loop``: what it receives
    arrives through the loop's ready deque."""

    loop: Loop

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


class _PairEndpoint(Endpoint):
    """One end of an in-process pair: a send reaches the peer through
    ``loop``'s ready deque, unless ``drop`` says it is lost."""

    def __init__(self, name: str, loop: Loop, drop: Callable[[bytes], bool] | None = None):
        super().__init__(name)
        self.loop = loop
        self.peer: _PairEndpoint | None = None
        self._drop = drop

    def send(self, data: bytes) -> None:
        if self._closed or self.peer is None:
            return
        if self._drop is not None and self._drop(data):
            return
        self.loop.ready.append((self.peer, data))

    def close(self) -> None:
        peer = self.peer
        super().close()
        if peer is not None and not peer.closed:
            peer.close()


def make_queue_pair(name_a: str, name_b: str, loop: Loop,
                    drop_a_to_b=None, drop_b_to_a=None) -> tuple[Endpoint, Endpoint]:
    """In-process pair whose sends wait in ``loop``'s ready deque;
    ``drop_*`` hooks inject packet loss."""
    a = _PairEndpoint(name_a, loop, drop_a_to_b)
    b = _PairEndpoint(name_b, loop, drop_b_to_a)
    a.peer, b.peer = b, a
    return a, b


class TcpEndpoint(Endpoint):
    """A connected socket on ``loop``; what the kernel does not take at once
    waits in an outbox until the socket is writable."""

    def __init__(self, sock: socket.socket, loop: Loop, name: str = ""):
        super().__init__(name or str(sock.getpeername()))
        sock.setblocking(False)
        self._sock = sock
        self.loop = loop
        self._outbox = bytearray()
        loop.selector.register(sock, selectors.EVENT_READ, self)

    def send(self, data: bytes) -> None:
        if self._closed:
            return
        flushing = not self._outbox
        self._outbox += data
        if flushing:
            self.on_writable()

    def on_writable(self) -> None:
        try:
            sent = self._sock.send(self._outbox)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            logger.debug("send on %s failed: %s", self.name, exc)
            self.close()
            return
        del self._outbox[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._outbox else 0)
        self.loop.selector.modify(self._sock, events, self)

    def on_readable(self) -> None:
        try:
            chunk = self._sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk:
            self.loop.ready.append((self, chunk))
        else:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self.loop.selector.unregister(self._sock)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpServer:
    """Listening socket on ``loop`` handing each connection to
    ``on_connection(endpoint)``; :meth:`Loop.close` closes it.

    The handler must set ``endpoint.on_receive`` before this call returns;
    the loop delivers the connection's bytes from its next turn on.
    """

    def __init__(self, host: str, port: int, on_connection: Callable[[TcpEndpoint], None],
                 loop: Loop):
        self._on_connection = on_connection
        self.loop = loop
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from None
        self._sock.listen(128)
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]
        loop.selector.register(self._sock, selectors.EVENT_READ, self)

    def on_readable(self) -> None:
        try:
            conn, addr = self._sock.accept()
        except OSError:
            return  # the client gave up before the accept
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        endpoint = TcpEndpoint(conn, self.loop, name=f"{addr[0]}:{addr[1]}")
        try:
            self._on_connection(endpoint)
        except Exception:
            logger.exception("connection handler failed")
            endpoint.close()

    def close(self) -> None:
        self.loop.selector.unregister(self._sock)
        self._sock.close()


def connect_tcp(host: str, port: int, loop: Loop, name: str = "",
                timeout_s: float = 5.0) -> TcpEndpoint:
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
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpEndpoint(sock, loop, name=name or f"{host}:{port}")
