"""Broker client used by edge, cloud and user nodes.

Shares the broker's at-least-once bookkeeping (:class:`.broker.Inflight`) on
the outbound side: QoS 1 publishes stay in flight until acked and are re-sent
with the dup flag by :meth:`MqttClient.tick`; one whose retries run out is
given up, and so is all in flight once the link closes. Packet counters live
here because round-trip accounting in the harness is measured from the
node's perspective.
"""

from __future__ import annotations

import logging
from typing import Callable

from ..errors import AtmosphereError, TransportError
from ..transport import Endpoint, WallClock
from .broker import DEFAULT_MAX_RETRIES, DEFAULT_RETRY_TIMEOUT_MS, Inflight
from .packets import (
    ConnAck,
    Connect,
    Disconnect,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
)

logger = logging.getLogger(__name__)


class MqttClient:
    def __init__(
        self,
        client_id: str,
        clock: Callable[[], int] | None = None,
        retry_timeout_ms: int = DEFAULT_RETRY_TIMEOUT_MS,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.client_id = client_id
        self._clock = WallClock() if clock is None else clock
        self.retry_timeout_ms = retry_timeout_ms
        self.max_retries = max_retries
        self._endpoint: Endpoint | None = None
        self._buffer = bytearray()
        self._connected = False
        self._pending_subacks: set[int] = set()
        self.inflight = Inflight()
        self.on_message: Callable[[str, bytes], None] | None = None
        self.on_resend = lambda due_ms: None  # hook: the due time of a publish's first re-send
        self.counters = {
            "publish_sent": 0,
            "publish_received": 0,
            "puback_sent": 0,
            "puback_received": 0,
        }

    @property
    def connected(self) -> bool:
        return self._connected

    def connect(self, endpoint: Endpoint, keep_alive_s: int = 60, timeout_s: float = 5.0) -> None:
        self._endpoint = endpoint
        endpoint.on_receive = self._feed
        endpoint.on_close = self._closed
        self._send(Connect(client_id=self.client_id, keep_alive_s=keep_alive_s))
        if not endpoint.wait_until(lambda: self._connected, timeout_s):
            raise TransportError(f"{self.client_id}: no CONNACK within {timeout_s}s")

    def subscribe(self, filters: list[tuple[str, int]], timeout_s: float = 5.0) -> None:
        pid = self.inflight.allocate_packet_id(self._pending_subacks)
        self._pending_subacks.add(pid)
        self._send(Subscribe(packet_id=pid, filters=tuple(filters)))
        if not self._endpoint.wait_until(lambda: pid not in self._pending_subacks, timeout_s):
            raise TransportError(f"{self.client_id}: no SUBACK within {timeout_s}s")

    def publish(self, topic: str, payload: bytes, qos: int = 0) -> int | None:
        """Publish; returns the packet id for QoS 1, None for QoS 0."""
        if self._endpoint is None or self._endpoint.closed:
            raise TransportError(f"{self.client_id}: not connected")
        if qos == 0:
            self.counters["publish_sent"] += 1
            self._send(Publish(topic=topic, payload=payload, qos=0))
            return None
        publish = self.inflight.open(topic, payload, now := self._clock(), self._pending_subacks)
        self.on_resend(now + self.retry_timeout_ms)
        self.counters["publish_sent"] += 1
        self._send(publish)
        return publish.packet_id

    def tick(self, now_ms: int | None = None) -> int | None:
        """Re-send the QoS 1 publishes past the retry timeout; the next due time, or None."""
        now = self._clock() if now_ms is None else now_ms
        resends, exhausted = self.inflight.due(now, self.retry_timeout_ms, self.max_retries)
        for pid in exhausted:
            logger.warning("%s: giving up on publish %d", self.client_id, pid)
            del self.inflight[pid]
        for publish in resends:
            self.counters["publish_sent"] += 1
            self._send(publish)
        return self.inflight.next_due(self.retry_timeout_ms)

    def disconnect(self) -> None:
        if self._endpoint is not None and not self._endpoint.closed:
            try:
                self._send(Disconnect())
            except AtmosphereError:
                pass
            self._endpoint.close()  # which marks this client disconnected

    def inflight_count(self) -> int:
        return len(self.inflight)

    def _closed(self) -> None:
        if self.inflight:  # a clean session keeps nothing
            logger.warning("%s: link closed; giving up %d publishes", self.client_id, len(self.inflight))
        self._connected = False
        self.inflight.clear()

    # -- inbound ----------------------------------------------------------

    def _feed(self, data: bytes) -> None:
        buffer = self._buffer
        buffer.extend(data)
        while buffer:
            try:
                decoded = decode_packet(buffer)
            except AtmosphereError as exc:
                logger.error("%s: protocol error: %s", self.client_id, exc)
                self.disconnect()
                return
            if decoded is None:
                return
            packet, consumed = decoded
            del buffer[:consumed]
            self._handle(packet)

    def _handle(self, packet) -> None:
        if isinstance(packet, Publish):
            self.counters["publish_received"] += 1
            # a re-send is a new publication once acked (MQTT 3.1.1 4.3.2)
            if packet.qos == 1:
                self.counters["puback_sent"] += 1
                self._send(PubAck(packet_id=packet.packet_id))
            if self.on_message is not None:
                self.on_message(packet.topic, packet.payload)
        elif isinstance(packet, PubAck):
            self.counters["puback_received"] += 1
            self.inflight.pop(packet.packet_id, None)
        elif isinstance(packet, ConnAck):
            if packet.return_code != 0:
                logger.error("%s: connection refused (%d)", self.client_id, packet.return_code)
                self.disconnect()
                return
            self._connected = True
        elif isinstance(packet, SubAck):
            self._pending_subacks.discard(packet.packet_id)

    def _send(self, packet) -> None:
        if self._endpoint is None:
            raise TransportError(f"{self.client_id}: not connected")
        self._endpoint.send(encode_packet(packet))
