"""User client: subscribes to the user topic, records alerts, and can push
rule updates to edge agents. All of it rides plain broker pub/sub; nothing
here touches a CEP engine."""

from __future__ import annotations

import json
import logging

from ..agents import RULE_UPDATE_STREAM
from ..errors import AtmosphereError
from ..events import SchemaRegistry, decode_event
from ..mqtt import MqttClient
from . import topics

logger = logging.getLogger(__name__)


class UserNode:
    def __init__(self, node_id: str, fog_id: str, registry: SchemaRegistry, qos: int = 0):
        self.node_id = node_id
        self.fog_id = fog_id
        self.registry = registry
        self.qos = qos
        self.client: MqttClient | None = None
        self.alerts: list = []  # decoded Events published for the user

    def attach(self, client: MqttClient) -> None:
        self.client = client
        client.on_message = self._on_message
        client.subscribe([(topics.user_topic(self.fog_id), self.qos)])

    def _on_message(self, topic: str, payload: bytes) -> None:
        try:
            event = decode_event(payload, self.registry)
        except AtmosphereError:
            return  # rule updates and foreign chatter on the shared topic
        if event.source == self.node_id:
            return
        self.alerts.append(event)

    def publish_rule_update(self, agent_id: str, rule_doc: dict, at: int = 0) -> None:
        payload = json.dumps(
            {"_stream": RULE_UPDATE_STREAM, "_ts": at, "_src": self.node_id,
             "agent": agent_id, "rule": rule_doc},
            separators=(",", ":"),
        ).encode("utf-8")
        assert self.client is not None
        self.client.publish(topics.user_topic(self.fog_id), payload, qos=self.qos)

    def publish_raw(self, payload: bytes) -> None:
        assert self.client is not None
        self.client.publish(topics.user_topic(self.fog_id), payload, qos=self.qos)
