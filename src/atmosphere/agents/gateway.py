"""Agent message gateway: registry, dispatch, and the channel servers/clients.

The registry lives on the fog node. Edge nodes attach over a byte channel
(the same transport family the broker uses, length-prefixed ACL JSON frames),
register their agents, and from then on every inter-agent message flows
through here; the gateway maintains FIFO delivery per agent. Services are
gateway-local handlers addressable like agents (the bench echo service, data
sinks); ``acl_in``/``acl_out`` count frames crossing the channel boundary.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Callable

from ..errors import GatewayError
from ..transport import Endpoint
from .model import (
    AclFrameDecoder,
    AclMessage,
    BROADCAST,
    GATEWAY_ADDRESS,
    encode_acl,
)

logger = logging.getLogger(__name__)

REGISTER_STREAM = "Register"
UNDELIVERABLE_STREAM = "Undeliverable"


class GatewayRegistry:
    """Agent membership plus per-agent FIFO queues.

    ``ready`` holds, in the order they got one, the ids of the agents whose
    queue got a message since it was last flushed.
    """

    def __init__(self):
        self.queues: dict[str, deque] = {}
        self.services: dict[str, Callable[[AclMessage], list[AclMessage]]] = {}
        self.ready: dict[str, None] = {}

    def register_agent(self, agent_id: str) -> None:
        if agent_id not in self.queues:
            self.queues[agent_id] = deque()

    def register_service(self, service_id: str, handler) -> None:
        self.services[service_id] = handler

    def dispatch(self, message: AclMessage) -> list[AclMessage]:
        """Enqueue FIFO to each receiver; returns service replies.

        Unknown named receivers produce an undeliverable notice back to the
        sender; the remaining receivers are still delivered. An unregistered
        sender is an error.
        """
        if message.sender not in self.queues and message.sender not in self.services:
            raise GatewayError(f"unregistered sender {message.sender!r}")
        replies: list[AclMessage] = []
        if message.receivers == BROADCAST:
            for agent_id, queue in self.queues.items():
                if agent_id != message.sender:
                    queue.append(message)
                    self.ready[agent_id] = None
            return replies
        for receiver in message.receivers:
            if receiver in self.queues:
                self.queues[receiver].append(message)
                self.ready[receiver] = None
            elif receiver in self.services:
                try:
                    replies.extend(self.services[receiver](message) or [])
                except Exception:
                    logger.exception("service %s failed", receiver)
            else:
                self.queues[message.sender].append(
                    AclMessage(
                        performative="INFORM",
                        sender=GATEWAY_ADDRESS,
                        receivers=(message.sender,),
                        content={"stream": UNDELIVERABLE_STREAM, "receiver": receiver},
                        sent_at=message.sent_at,
                    )
                )
                self.ready[message.sender] = None
        return replies

    def drain(self, agent_id: str) -> list[AclMessage]:
        self.ready.pop(agent_id, None)
        queue = self.queues.get(agent_id)
        if not queue:
            return []
        out = list(queue)
        queue.clear()
        return out


class GatewayServer:
    """Channel-facing side of the gateway."""

    def __init__(self):
        self.registry = GatewayRegistry()
        self._lock = threading.RLock()
        self._channels: list[_Channel] = []
        self._agent_channel: dict[str, _Channel] = {}
        self.counters = {"acl_in": 0, "acl_out": 0}

    def attach_channel(self, endpoint: Endpoint) -> None:
        channel = _Channel(endpoint)
        endpoint.on_receive = lambda data: self._on_data(channel, data)
        with self._lock:
            self._channels.append(channel)
        if hasattr(endpoint, "start"):
            endpoint.start()

    def register_service(self, service_id: str, handler) -> None:
        with self._lock:
            self.registry.register_service(service_id, handler)

    def _on_data(self, channel: _Channel, data: bytes) -> None:
        for message in channel.decoder.feed(data):
            self.handle_message(channel, message)

    def handle_message(self, channel: _Channel, message: AclMessage) -> None:
        with self._lock:
            if (
                message.receivers != BROADCAST
                and GATEWAY_ADDRESS in message.receivers
                and message.stream == REGISTER_STREAM
            ):
                # Platform handshake, not agent traffic: not counted.
                for agent_id in message.content.get("agents", []):
                    self.registry.register_agent(agent_id)
                    self._agent_channel[agent_id] = channel
                return
            self.counters["acl_in"] += 1
            try:
                replies = self.registry.dispatch(message)
            except GatewayError as exc:
                logger.warning("dropping frame: %s", exc)
                return
            self._flush()
            for reply in replies:
                self.deliver(reply)

    def deliver(self, message: AclMessage) -> None:
        """Gateway-origin delivery (service replies, node notices)."""
        with self._lock:
            receivers = (
                [a for a in self.registry.queues if a != message.sender]
                if message.receivers == BROADCAST
                else list(message.receivers)
            )
            for receiver in receivers:
                if receiver in self.registry.queues:
                    self.registry.queues[receiver].append(message)
                    self.registry.ready[receiver] = None
            self._flush()

    def _flush(self) -> None:
        ready = self.registry.ready
        for agent_id in list(ready):
            channel = self._agent_channel.get(agent_id)
            if channel is None:
                continue  # stays queued until the agent's channel registers
            queue = self.registry.queues[agent_id]
            while queue:
                message = queue.popleft()
                self.counters["acl_out"] += 1
                channel.endpoint.send(encode_acl(_addressed(message, agent_id)))
            ready.pop(agent_id, None)


def _addressed(message: AclMessage, receiver: str) -> AclMessage:
    """Rewrite broadcast fan-out as a directly-addressed copy for the wire."""
    if message.receivers == BROADCAST or len(message.receivers) > 1:
        return AclMessage(
            performative=message.performative,
            sender=message.sender,
            receivers=(receiver,),
            content=message.content,
            sent_at=message.sent_at,
        )
    return message


class _Channel:
    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.decoder = AclFrameDecoder()


class GatewayClient:
    """Edge-node side of the gateway channel."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._endpoint: Endpoint | None = None
        self._decoder = AclFrameDecoder()
        self.on_message: Callable[[AclMessage], None] | None = None
        self.counters = {"acl_sent": 0, "acl_received": 0}

    def connect(self, endpoint: Endpoint) -> None:
        self._endpoint = endpoint
        endpoint.on_receive = self._feed
        if hasattr(endpoint, "start"):
            endpoint.start()

    def register(self, agent_ids: list[str], at: int = 0) -> None:
        self.send(
            AclMessage(
                performative="REQUEST",
                sender=self.node_id,
                receivers=(GATEWAY_ADDRESS,),
                content={"stream": REGISTER_STREAM, "agents": list(agent_ids)},
                sent_at=at,
            ),
            count=False,
        )

    def send(self, message: AclMessage, count: bool = True) -> None:
        if self._endpoint is None:
            raise GatewayError(f"{self.node_id}: gateway channel not connected")
        if count:
            self.counters["acl_sent"] += 1
        self._endpoint.send(encode_acl(message))

    def _feed(self, data: bytes) -> None:
        for message in self._decoder.feed(data):
            self.counters["acl_received"] += 1
            if self.on_message is not None:
                self.on_message(message)
