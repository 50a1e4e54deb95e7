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

    Every message put in a queue gets a dispatch number, kept in step with it
    in ``numbers``; a message queued for several agents shares one number, and
    numbers never decrease along a queue. ``ready`` holds, in the order they
    got one, the ids of the agents whose queue got a message since it was
    last flushed.
    """

    def __init__(self):
        self.queues: dict[str, deque] = {}
        self.numbers: dict[str, deque] = {}
        self.services: dict[str, Callable[[AclMessage], list[AclMessage]]] = {}
        self.ready: dict[str, None] = {}
        self._dispatched = 0

    def register_agent(self, agent_id: str) -> None:
        if agent_id not in self.queues:
            self.queues[agent_id] = deque()
            self.numbers[agent_id] = deque()

    def register_service(self, service_id: str, handler) -> None:
        self.services[service_id] = handler

    def next_number(self) -> int:
        self._dispatched += 1
        return self._dispatched

    def enqueue(self, agent_id: str, number: int, message: AclMessage) -> None:
        self.queues[agent_id].append(message)
        self.numbers[agent_id].append(number)
        self.ready[agent_id] = None

    def dispatch(self, message: AclMessage) -> list[AclMessage]:
        """Enqueue FIFO to each receiver; returns service replies.

        Unknown named receivers produce an undeliverable notice back to the
        sender; the remaining receivers are still delivered. An unregistered
        sender is an error.
        """
        if message.sender not in self.queues and message.sender not in self.services:
            raise GatewayError(f"unregistered sender {message.sender!r}")
        replies: list[AclMessage] = []
        number = self.next_number()
        if message.receivers == BROADCAST:
            for agent_id in self.queues:
                if agent_id != message.sender:
                    self.enqueue(agent_id, number, message)
            return replies
        for receiver in message.receivers:
            if receiver in self.queues:
                self.enqueue(receiver, number, message)
            elif receiver in self.services:
                try:
                    replies.extend(self.services[receiver](message) or [])
                except Exception:
                    logger.exception("service %s failed", receiver)
            else:
                notice = AclMessage(
                    performative="INFORM",
                    sender=GATEWAY_ADDRESS,
                    receivers=(message.sender,),
                    content={"stream": UNDELIVERABLE_STREAM, "receiver": receiver},
                    sent_at=message.sent_at,
                )
                self.enqueue(message.sender, self.next_number(), notice)
                # later receivers get the message under a number past the
                # notice's, so that no queue's numbers ever decrease
                number = self.next_number()
        return replies

    def drain(self, agent_id: str) -> list[AclMessage]:
        self.ready.pop(agent_id, None)
        queue = self.queues.get(agent_id)
        if not queue:
            return []
        out = list(queue)
        queue.clear()
        self.numbers[agent_id].clear()
        return out


class GatewayServer:
    """Channel-facing side of the gateway."""

    def __init__(self):
        self.registry = GatewayRegistry()
        self._agent_channel: dict[str, _Channel] = {}
        self.counters = {"acl_in": 0, "acl_out": 0}

    def attach_channel(self, endpoint: Endpoint) -> None:
        channel = _Channel(endpoint)
        endpoint.on_receive = lambda data: self._on_data(channel, data)

    def register_service(self, service_id: str, handler) -> None:
        self.registry.register_service(service_id, handler)

    def _on_data(self, channel: _Channel, data: bytes) -> None:
        for message in channel.decoder.feed(data):
            self.handle_message(channel, message)

    def handle_message(self, channel: _Channel, message: AclMessage) -> None:
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
        registry = self.registry
        number = registry.next_number()
        if message.receivers == BROADCAST:
            receivers = [a for a in registry.queues if a != message.sender]
        else:
            receivers = [r for r in message.receivers if r in registry.queues]
        for receiver in receivers:
            registry.enqueue(receiver, number, message)
        self._flush()

    def _flush(self) -> None:
        """Send the queues of the ready agents whose channel is registered,
        one frame per (message, channel) naming that channel's receivers.

        The queues are walked in dispatch-number order, so each agent gets
        its messages in dispatch order, those held for a late channel first.
        An agent whose channel has not registered stays queued and ready.
        """
        registry = self.registry
        # dispatch number -> (message, channel -> the agents it is sent to there)
        pending: dict[int, tuple[AclMessage, dict]] = {}
        for agent_id in list(registry.ready):
            channel = self._agent_channel.get(agent_id)
            if channel is None:
                continue  # stays queued until the agent's channel registers
            queue = registry.queues[agent_id]
            numbers = registry.numbers[agent_id]
            for number, message in zip(numbers, queue):
                slot = pending.get(number)
                if slot is None:
                    slot = pending[number] = (message, {})
                slot[1].setdefault(channel, []).append(agent_id)
            queue.clear()
            numbers.clear()
            del registry.ready[agent_id]
        # numbers never decrease along a queue, so this keeps each agent's order
        for number in sorted(pending):
            message, by_channel = pending[number]
            for channel, names in by_channel.items():
                frame = message
                if message.receivers == BROADCAST or len(names) < len(message.receivers):
                    frame = AclMessage(
                        performative=message.performative,
                        sender=message.sender,
                        receivers=tuple(names),
                        content=message.content,
                        sent_at=message.sent_at,
                    )
                self.counters["acl_out"] += 1
                channel.endpoint.send(encode_acl(frame))


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

    def close(self) -> None:
        if self._endpoint is not None:
            self._endpoint.close()

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
