"""Agent message gateway: the fog-side server and the edge-side client.

The server lives on the fog node. Edge nodes attach over a byte channel
(the same transport family the broker uses, length-prefixed ACL JSON frames)
and register their agents, which binds each agent to that channel; from then
on every inter-agent message flows through here. Each message is sent at
dispatch, one frame per channel naming that channel's receivers, so every
agent gets its messages in dispatch order. A message to an agent that has
not registered gets its sender an Undeliverable notice. Services are
gateway-local handlers addressable like agents (the bench echo service, data
sinks); ``acl_in``/``acl_out`` count frames crossing the channel boundary.
"""

from __future__ import annotations

import logging
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


class GatewayServer:
    """Channel-facing side of the gateway; ``channels`` maps each registered
    agent to the channel it registered on."""

    def __init__(self):
        self.channels: dict[str, _Channel] = {}
        self.services: dict[str, Callable[[AclMessage], list[AclMessage]]] = {}
        self.counters = {"acl_in": 0, "acl_out": 0}

    def attach_channel(self, endpoint: Endpoint) -> None:
        channel = _Channel(endpoint)
        endpoint.on_receive = lambda data: self._on_data(channel, data)

    def register_service(self, service_id: str, handler) -> None:
        self.services[service_id] = handler

    def _on_data(self, channel: _Channel, data: bytes) -> None:
        for message in channel.decoder.feed(data):
            self.handle_message(channel, message)

    def handle_message(self, channel: _Channel, message: AclMessage) -> None:
        """Send agent traffic on, then the replies of the services it names.

        An unknown named receiver gets the sender an Undeliverable notice,
        sent between the frames for the receivers named before it and those
        for the rest. A frame from an unregistered sender is dropped, and so
        is a Register frame whose ``agents`` is not a list of agent ids.
        """
        if (
            message.receivers != BROADCAST
            and GATEWAY_ADDRESS in message.receivers
            and message.stream == REGISTER_STREAM
        ):
            # Platform handshake, not agent traffic: not counted.
            agents = message.content.get("agents", [])
            if not isinstance(agents, list) or not all(isinstance(a, str) and a for a in agents):
                logger.warning("dropping Register frame: agents %r are not agent ids", agents)
                return
            for agent_id in agents:
                self.channels[agent_id] = channel
            return
        self.counters["acl_in"] += 1
        sender = message.sender
        if sender not in self.channels and sender not in self.services:
            logger.warning("dropping frame: unregistered sender %r", sender)
            return
        if message.receivers == BROADCAST:
            self._send(message, message.receivers)
            return
        replies: list[AclMessage] = []
        start = 0
        for i, receiver in enumerate(message.receivers):
            if receiver in self.channels:
                continue
            if receiver in self.services:
                try:
                    replies.extend(self.services[receiver](message) or [])
                except Exception:
                    logger.exception("service %s failed", receiver)
                continue
            self._send(message, message.receivers[start:i])
            start = i + 1
            notice = AclMessage(
                performative="INFORM",
                sender=GATEWAY_ADDRESS,
                receivers=(sender,),
                content={"stream": UNDELIVERABLE_STREAM, "receiver": receiver},
                sent_at=message.sent_at,
            )
            self._send(notice, notice.receivers)
        self._send(message, message.receivers[start:])
        for reply in replies:
            self.deliver(reply)

    def deliver(self, message: AclMessage) -> None:
        """Gateway-origin delivery (service replies, node notices)."""
        self._send(message, message.receivers)

    def _send(self, message: AclMessage, receivers) -> None:
        """Send ``message`` to those of ``receivers`` that are registered
        agents (every one but the sender for a broadcast), one frame per
        channel naming that channel's receivers."""
        if receivers == BROADCAST:
            receivers = [a for a in self.channels if a != message.sender]
        by_channel: dict[_Channel, list[str]] = {}
        for receiver in receivers:
            channel = self.channels.get(receiver)
            if channel is not None:
                by_channel.setdefault(channel, []).append(receiver)
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

    @property
    def connected(self) -> bool:
        """Whether it has a channel, and the channel is still open."""
        return self._endpoint is not None and not self._endpoint.closed

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
        if not self.connected:
            raise GatewayError(f"{self.node_id}: gateway channel not connected")
        if count:
            self.counters["acl_sent"] += 1
        self._endpoint.send(encode_acl(message))

    def _feed(self, data: bytes) -> None:
        for message in self._decoder.feed(data):
            self.counters["acl_received"] += 1
            if self.on_message is not None:
                self.on_message(message)
