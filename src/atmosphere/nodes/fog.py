"""Fog node: the broker-attached CEP engine plus the audience router.

The engine feed comes from node-local broker subscriptions on the input
topic (and any configured peer/cloud feeds); everything arriving there is
processed identically regardless of origin. Every emission is published on
exactly one topic chosen by its pattern's ``target`` tag. The user topic is
never subscribed here, which is what keeps user traffic out of the engine.
The patterns and extra inputs are taken as ``load_scenario`` checked them.
"""

from __future__ import annotations

from ..errors import AtmosphereError
from ..events import SchemaRegistry, decode_event, encode_event
from ..mqtt import Broker
from ..patterns import PatternDef
from . import topics
from .host import EngineHost


class FogNode(EngineHost):
    def __init__(
        self,
        node_id: str,
        broker: Broker,
        registry: SchemaRegistry,
        patterns: list[PatternDef],
        extra_inputs: tuple = (),
        qos: int = 0,
        wall_clock=None,
    ):
        super().__init__(node_id, registry, wall_clock)
        self.broker = broker
        self.qos = qos
        for pattern in patterns:
            self.engine.deploy(pattern)
        broker.subscribe_internal(topics.fog_input(node_id), self.on_payload)
        for topic in extra_inputs:
            broker.subscribe_internal(topic, self.on_payload)

    def on_payload(self, topic: str, payload: bytes) -> None:
        try:
            event = decode_event(payload, self.registry)
        except AtmosphereError as exc:
            self._dead_letter(f"decode failed on {topic}: {exc}", payload)
            return
        try:
            emissions = self.engine.ingest(event)
        except AtmosphereError as exc:
            self._dead_letter(f"ingest failed on {topic}: {exc}", payload)
            return
        self._route(emissions)

    def _route(self, emissions) -> None:
        for emission in emissions:
            if emission.target_tag == "user":
                topic = topics.user_topic(self.node_id)
            else:
                topic = topics.fog_output(self.node_id, emission.target_tag)
            payload = encode_event(emission.event, self.registry)
            self.emission_log.append(emission)
            self.routed_count += 1
            self.broker.publish_internal(topic, payload, qos=self.qos)
