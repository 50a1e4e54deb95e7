"""Broker core: sessions, subscription matching, and QoS 0/1 delivery.

The core is one state machine on its process's one thread; transports feed
it through :meth:`Broker.attach`. Node-local consumers (the fog's CEP feed)
attach through :meth:`Broker.subscribe_internal` / :meth:`publish_internal`,
which bypass the wire entirely and therefore never appear in packet counters.

Delivery ordering: per-connection FIFO holds for QoS 0; QoS 1 re-deliveries
(dup re-sends after a timeout) may arrive out of order relative to newer
publishes.

Each session keeps its unacked QoS 1 forwards in an :class:`Inflight`, the
helper the client uses too; :meth:`Broker.tick` re-sends the due ones, and
drops a session whose due re-send has no retries left.

Routes are cached per topic and emptied on every change that can alter a
match: attach, CONNECT, SUBSCRIBE, internal subscribe and drop.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..errors import AtmosphereError, MqttProtocolError
from ..transport import Endpoint, WallClock
from .packets import (
    ConnAck,
    Connect,
    Disconnect,
    MAX_PACKET_ID,
    Packet,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
    match_topic,
)

logger = logging.getLogger(__name__)

DEFAULT_RETRY_TIMEOUT_MS = 1000
DEFAULT_MAX_RETRIES = 5
# Most topics the route cache holds; a miss that would exceed it empties it.
ROUTE_CACHE_SIZE = 1024


@dataclass
class InflightEntry:
    publish: Publish
    last_sent_at: int
    retry_count: int = 0


class Inflight(dict):
    """The unacked QoS 1 publishes one side of a connection sent, by packet
    id, with the packet-id cursor: shared by broker sessions and clients.

    What happens once an entry's retries run out is the owner's policy.
    """

    def __init__(self):
        super().__init__()
        self.next_packet_id = 1

    def allocate_packet_id(self, taken=()) -> int:
        """The next packet id neither in flight nor in ``taken``."""
        for _ in range(MAX_PACKET_ID):
            pid = self.next_packet_id
            self.next_packet_id = pid % MAX_PACKET_ID + 1
            if pid not in self and pid not in taken:
                return pid
        raise MqttProtocolError("no free packet ids (65535 in flight)")

    def open(self, topic: str, payload: bytes, now_ms: int, taken=()) -> Publish:
        """A QoS 1 publish under a fresh packet id, held until acked."""
        pid = self.allocate_packet_id(taken)
        publish = Publish(topic=topic, payload=payload, qos=1, packet_id=pid)
        self[pid] = InflightEntry(publish=publish, last_sent_at=now_ms)
        return publish

    def due(self, now_ms: int, retry_timeout_ms: int, max_retries: int
            ) -> tuple[list[Publish], list[int]]:
        """Re-sends due at ``now_ms``, with dup set and counted, and the ids
        of the due entries whose retries have run out (left in place)."""
        resends: list[Publish] = []
        exhausted: list[int] = []
        for pid, entry in self.items():
            if now_ms - entry.last_sent_at < retry_timeout_ms:
                continue
            if entry.retry_count >= max_retries:
                exhausted.append(pid)
                continue
            entry.retry_count += 1
            entry.last_sent_at = now_ms
            entry.publish = Publish(
                topic=entry.publish.topic,
                payload=entry.publish.payload,
                qos=1,
                packet_id=pid,
                dup=True,
            )
            resends.append(entry.publish)
        return resends, exhausted

    def next_due(self, retry_timeout_ms: int) -> int | None:
        """When the earliest re-send falls due; None with nothing in flight."""
        return min((entry.last_sent_at + retry_timeout_ms for entry in self.values()), default=None)


@dataclass
class Session:
    """Per-connection state; clean-session always, nothing survives a drop."""

    client_id: str = ""
    endpoint: Endpoint | None = None
    connected: bool = False
    subscriptions: list = field(default_factory=list)  # of (topic_filter, qos)
    inflight: Inflight = field(default_factory=Inflight)
    buffer: bytearray = field(default_factory=bytearray)


class Broker:
    """MQTT-subset broker over pluggable transports."""

    def __init__(
        self,
        clock: Callable[[], int] | None = None,
        retry_timeout_ms: int = DEFAULT_RETRY_TIMEOUT_MS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        connect_hook: Callable[[str], bool] | None = None,
    ):
        self._clock = WallClock() if clock is None else clock
        self.retry_timeout_ms = retry_timeout_ms
        self.max_retries = max_retries
        # Security hook stub: return False to refuse a client id. Transport
        # hardening (TLS, credentials) is out of scope; this is the seam.
        self.connect_hook = connect_hook
        self.on_resend = lambda due_ms: None  # hook: the due time of a forward's first re-send
        self._sessions: list[Session] = []
        self._internal_subs: list[tuple[str, Callable[[str, bytes], None]]] = []
        # topic -> (internal callbacks, ((session, max granted qos), ...)),
        # filled by ``_route`` and emptied on any change that can alter a match
        self._routes: dict[str, tuple[tuple, tuple]] = {}
        # Internal deliveries wait here for the outermost ``_drain_internal``;
        # what a callback publishes back into the broker queues behind them.
        self._internal_pending: deque = deque()
        self._draining = False
        # Wire-level accounting, all sessions, both directions.
        self.counters = {"publish_in": 0, "publish_out": 0, "puback_in": 0, "puback_out": 0}

    # -- attachment ------------------------------------------------------

    def attach(self, endpoint: Endpoint) -> Session:
        """Bind a transport endpoint as a (not yet connected) session."""
        session = Session(endpoint=endpoint)
        endpoint.on_receive = lambda data: self.feed(session, data)
        endpoint.on_close = lambda: self._on_endpoint_closed(session)
        self._sessions.append(session)
        self._routes.clear()
        return session

    def subscribe_internal(self, topic_filter: str, callback: Callable[[str, bytes], None]) -> None:
        """Node-local subscription; deliveries are direct calls, not packets."""
        self._internal_subs.append((topic_filter, callback))
        self._routes.clear()

    def publish_internal(self, topic: str, payload: bytes, qos: int = 0) -> None:
        """Node-local publish injected into the routing core."""
        publish = Publish(
            topic=topic,
            payload=payload,
            qos=qos,
            packet_id=1 if qos == 1 else None,
        )
        self._route(publish, ack_session=None)
        self._drain_internal()

    # -- protocol handling ----------------------------------------------

    def feed(self, session: Session, data: bytes) -> None:
        buffer = session.buffer
        buffer.extend(data)
        while buffer:
            try:
                decoded = decode_packet(buffer)
            except AtmosphereError as exc:
                logger.warning("dropping %s: %s", session.client_id or "<pending>", exc)
                self._drop(session)
                break
            if decoded is None:
                break
            packet, consumed = decoded
            del buffer[:consumed]
            self._handle(session, packet)
        self._drain_internal()

    def _handle(self, session: Session, packet: Packet) -> None:
        if isinstance(packet, Publish) and session.connected:
            self.counters["publish_in"] += 1
            self.handle_publish(session, packet)
        elif isinstance(packet, PubAck) and session.connected:
            self.counters["puback_in"] += 1
            session.inflight.pop(packet.packet_id, None)
        elif isinstance(packet, Connect):
            if self.connect_hook is not None and not self.connect_hook(packet.client_id):
                self._send(session, ConnAck(return_code=5))  # not authorized
                self._drop(session)
                return
            for other in list(self._sessions):
                if other is not session and other.client_id == packet.client_id and other.connected:
                    logger.info("client id %s taken over", packet.client_id)
                    self._drop(other)
            session.client_id = packet.client_id
            session.connected = True
            self._routes.clear()
            self._send(session, ConnAck(return_code=0))
        elif not session.connected:
            logger.warning("packet before CONNECT; dropping connection")
            self._drop(session)
        elif isinstance(packet, Subscribe):
            granted = []
            for topic_filter, qos in packet.filters:
                session.subscriptions = [
                    (f, q) for f, q in session.subscriptions if f != topic_filter
                ]
                session.subscriptions.append((topic_filter, qos))
                granted.append(qos)
            self._routes.clear()
            self._send(session, SubAck(packet_id=packet.packet_id, granted=tuple(granted)))
        elif isinstance(packet, PingReq):
            self._send(session, PingResp())
        elif isinstance(packet, Disconnect):
            self._drop(session)
        else:
            logger.warning("unexpected %s from %s", type(packet).__name__, session.client_id)
            self._drop(session)

    def handle_publish(self, session: Session, publish: Publish) -> None:
        """Ack (QoS 1) and forward to every matching subscriber.

        Every PUBLISH is a new publication, a ``dup`` re-send included: once
        acked, its packet id may be reused (MQTT 3.1.1 section 4.3.2).
        """
        if publish.qos == 1:
            self._send(session, PubAck(packet_id=publish.packet_id))
        self._route(publish, ack_session=session)

    def _route(self, publish: Publish, ack_session: Session | None) -> None:
        route = self._routes.get(publish.topic)
        if route is None:
            route = self._match(publish.topic)
        callbacks, subscribers = route
        for callback in callbacks:
            self._internal_pending.append((callback, publish.topic, publish.payload))
        # One QoS 0 forward, encoded once, goes to every QoS 0 subscriber.
        shared = data = None
        for subscriber, granted in subscribers:
            if publish.qos == 0 or granted == 0:
                if shared is None:
                    shared = Publish(publish.topic, publish.payload)
                data = self._send(subscriber, shared, data)
            else:
                forward = subscriber.inflight.open(publish.topic, publish.payload, now := self._clock())
                self.on_resend(now + self.retry_timeout_ms)
                self._send(subscriber, forward)

    def tick(self, now_ms: int | None = None) -> int | None:
        """Drive QoS 1 retransmission; returns the next re-send's due time, or None."""
        now = self._clock() if now_ms is None else now_ms
        for session in list(self._sessions):
            resends, exhausted = session.inflight.due(
                now, self.retry_timeout_ms, self.max_retries
            )
            if exhausted:
                logger.warning("dropping %s: retries exhausted", session.client_id)
                self._drop(session)
                continue
            for publish in resends:
                self._send(session, publish)
        dues = [s.inflight.next_due(self.retry_timeout_ms) for s in self._sessions if s.inflight]
        return min(dues, default=None)

    # -- internals -------------------------------------------------------

    def _match(self, topic: str) -> tuple[tuple, tuple]:
        """Compute and cache the internal callbacks and the connected
        sessions, each with its highest granted QoS, that ``topic`` reaches."""
        callbacks = tuple(
            callback for topic_filter, callback in self._internal_subs
            if match_topic(topic_filter, topic)
        )
        subscribers = []
        for session in self._sessions:
            if not session.connected:
                continue
            granted = [qos for f, qos in session.subscriptions if match_topic(f, topic)]
            if granted:
                # One copy per client even when several filters match.
                subscribers.append((session, max(granted)))
        if len(self._routes) >= ROUTE_CACHE_SIZE:
            self._routes.clear()
        route = self._routes[topic] = (callbacks, tuple(subscribers))
        return route

    def _drain_internal(self) -> None:
        """Deliver queued internal subscriptions, oldest first.

        Only the outermost call drains: a callback's re-entrant publishes
        append to the queue and are delivered after the deliveries already
        queued (breadth first), and the cascade still completes before the
        original call returns. Event-time outputs depend on this order.
        """
        if self._draining:
            return
        self._draining = True
        while self._internal_pending:
            callback, topic, payload = self._internal_pending.popleft()
            try:
                callback(topic, payload)
            except Exception:
                logger.exception("internal subscriber for %s raised", topic)
        self._draining = False

    def _send(self, session: Session, packet: Packet, data: bytes | None = None) -> bytes | None:
        """Send ``packet``, encoding it unless its bytes are given as ``data``;
        returns its bytes once encoded."""
        if session.endpoint is None or session.endpoint.closed:
            return data
        if isinstance(packet, Publish):
            self.counters["publish_out"] += 1
        elif isinstance(packet, PubAck):
            self.counters["puback_out"] += 1
        if data is None:
            data = encode_packet(packet)
        session.endpoint.send(data)
        return data

    def _on_endpoint_closed(self, session: Session) -> None:
        if session in self._sessions:
            self._sessions.remove(session)
        self._routes.clear()

    def _drop(self, session: Session) -> None:
        self._on_endpoint_closed(session)
        if session.endpoint is not None:
            session.endpoint.close()

    def session_count(self) -> int:
        return len(self._sessions)
