"""Broker client used by edge, cloud and user nodes.

Shares the broker's at-least-once bookkeeping (:class:`.broker.Inflight`) on
the outbound side: QoS 1 publishes stay in flight until acked and are re-sent
with the dup flag on :meth:`MqttClient.tick`; one whose retries run out is
given up. Packet counters live here because round-trip
accounting in the harness is measured from the node's perspective.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable

from ..errors import AtmosphereError, TransportError
from ..transport import Endpoint
from .broker import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_TIMEOUT_MS,
    Inflight,
    wall_clock_ms,
)
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
        clock: Callable[[], int] = wall_clock_ms,
        retry_timeout_ms: int = DEFAULT_RETRY_TIMEOUT_MS,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.client_id = client_id
        self._clock = clock
        self.retry_timeout_ms = retry_timeout_ms
        self.max_retries = max_retries
        self._endpoint: Endpoint | None = None
        self._lock = threading.RLock()
        self._buffer = bytearray()
        self._connected = threading.Event()
        self._pending_subacks: dict[int, threading.Event] = {}
        self.inflight = Inflight()
        self.on_message: Callable[[str, bytes], None] | None = None
        self.counters = {
            "publish_sent": 0,
            "publish_received": 0,
            "puback_sent": 0,
            "puback_received": 0,
        }

    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    def connect(self, endpoint: Endpoint, keep_alive_s: int = 60, timeout_s: float = 5.0) -> None:
        self._endpoint = endpoint
        endpoint.on_receive = self._feed
        if hasattr(endpoint, "start"):
            endpoint.start()
        self._send(Connect(client_id=self.client_id, keep_alive_s=keep_alive_s))
        if not self._connected.wait(timeout_s):
            raise TransportError(f"{self.client_id}: no CONNACK within {timeout_s}s")

    def subscribe(self, filters: list[tuple[str, int]], timeout_s: float = 5.0) -> None:
        with self._lock:
            pid = self.inflight.allocate_packet_id(self._pending_subacks)
            acked = threading.Event()
            self._pending_subacks[pid] = acked
            self._send(Subscribe(packet_id=pid, filters=tuple(filters)))
        if not acked.wait(timeout_s):
            raise TransportError(f"{self.client_id}: no SUBACK within {timeout_s}s")

    def publish(self, topic: str, payload: bytes, qos: int = 0) -> int | None:
        """Publish; returns the packet id for QoS 1, None for QoS 0."""
        with self._lock:
            if qos == 0:
                self.counters["publish_sent"] += 1
                self._send(Publish(topic=topic, payload=payload, qos=0))
                return None
            publish = self.inflight.open(topic, payload, self._clock(), self._pending_subacks)
            self.counters["publish_sent"] += 1
            self._send(publish)
            return publish.packet_id

    def tick(self, now_ms: int | None = None) -> None:
        """Re-send unacked QoS 1 publishes past the retry timeout."""
        now = self._clock() if now_ms is None else now_ms
        with self._lock:
            resends, exhausted = self.inflight.due(now, self.retry_timeout_ms, self.max_retries)
            for pid in exhausted:
                logger.warning("%s: giving up on publish %d", self.client_id, pid)
                del self.inflight[pid]
            for publish in resends:
                self.counters["publish_sent"] += 1
                self._send(publish)

    def disconnect(self) -> None:
        if self._endpoint is not None and not self._endpoint.closed:
            try:
                self._send(Disconnect())
            except AtmosphereError:
                pass
            self._endpoint.close()
        self._connected.clear()

    def inflight_count(self) -> int:
        with self._lock:
            return len(self.inflight)

    # -- inbound ----------------------------------------------------------

    def _feed(self, data: bytes) -> None:
        with self._lock:
            self._buffer.extend(data)
            while True:
                try:
                    decoded = decode_packet(bytes(self._buffer))
                except AtmosphereError as exc:
                    logger.error("%s: protocol error: %s", self.client_id, exc)
                    self.disconnect()
                    return
                if decoded is None:
                    return
                packet, consumed = decoded
                del self._buffer[:consumed]
                self._handle(packet)

    def _handle(self, packet) -> None:
        if isinstance(packet, ConnAck):
            if packet.return_code != 0:
                logger.error("%s: connection refused (%d)", self.client_id, packet.return_code)
                self.disconnect()
                return
            self._connected.set()
        elif isinstance(packet, SubAck):
            acked = self._pending_subacks.pop(packet.packet_id, None)
            if acked is not None:
                acked.set()
        elif isinstance(packet, PubAck):
            self.counters["puback_received"] += 1
            self.inflight.pop(packet.packet_id, None)
        elif isinstance(packet, Publish):
            self.counters["publish_received"] += 1
            # a re-send is a new publication once acked (MQTT 3.1.1 4.3.2)
            if packet.qos == 1:
                self.counters["puback_sent"] += 1
                self._send(PubAck(packet_id=packet.packet_id))
            if self.on_message is not None:
                self.on_message(packet.topic, packet.payload)

    def _send(self, packet) -> None:
        if self._endpoint is None:
            raise TransportError(f"{self.client_id}: not connected")
        self._endpoint.send(encode_packet(packet))
