"""Broker client used by edge, cloud and user nodes.

Mirrors the broker's at-least-once behavior on the outbound side: QoS 1
publishes stay in flight until acked and are re-sent with the dup flag on
:meth:`MqttClient.tick`. Packet counters live here because round-trip
accounting in the harness is measured from the node's perspective.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable

from ..errors import AtmosphereError, TransportError
from ..transport import Endpoint
from .broker import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_TIMEOUT_MS,
    InflightEntry,
    wall_clock_ms,
)
from .packets import (
    ConnAck,
    Connect,
    Disconnect,
    MAX_PACKET_ID,
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
        self._next_packet_id = 1
        self.inflight: dict[int, InflightEntry] = {}
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
            pid = self._allocate_packet_id()
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
            pid = self._allocate_packet_id()
            publish = Publish(topic=topic, payload=payload, qos=1, packet_id=pid)
            self.inflight[pid] = InflightEntry(publish=publish, last_sent_at=self._clock())
            self.counters["publish_sent"] += 1
            self._send(publish)
            return pid

    def tick(self, now_ms: int | None = None) -> None:
        """Re-send unacked QoS 1 publishes past the retry timeout."""
        now = self._clock() if now_ms is None else now_ms
        with self._lock:
            for pid, entry in list(self.inflight.items()):
                if now - entry.last_sent_at < self.retry_timeout_ms:
                    continue
                if entry.retry_count >= self.max_retries:
                    logger.warning("%s: giving up on publish %d", self.client_id, pid)
                    del self.inflight[pid]
                    continue
                entry.retry_count += 1
                entry.last_sent_at = now
                entry.publish = Publish(
                    topic=entry.publish.topic,
                    payload=entry.publish.payload,
                    qos=1,
                    packet_id=pid,
                    dup=True,
                )
                self.counters["publish_sent"] += 1
                self._send(entry.publish)

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

    def _allocate_packet_id(self) -> int:
        for _ in range(MAX_PACKET_ID):
            pid = self._next_packet_id
            self._next_packet_id = pid % MAX_PACKET_ID + 1
            if pid not in self.inflight and pid not in self._pending_subacks:
                return pid
        raise TransportError("no free packet ids")

    def _send(self, packet) -> None:
        if self._endpoint is None:
            raise TransportError(f"{self.client_id}: not connected")
        self._endpoint.send(encode_packet(packet))


def drain_inflight(
    clients: list[MqttClient],
    timeout_s: float = 10.0,
    poll_s: float = 0.02,
) -> bool:
    """Wait until no client holds unacked QoS 1 publishes; True on success."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(c.inflight_count() == 0 for c in clients):
            return True
        time.sleep(poll_s)
    return all(c.inflight_count() == 0 for c in clients)
