"""Cloud node: source ingestion with normalizing transformers, a CEP engine,
and per-audience sinks (a fog-bound topic, or a notification record stub).

External sources publish raw JSON of arbitrary shape; a transformer maps
source paths onto one canonical stream. Fog-origin feeds use passthrough
transformers since they already carry canonical event payloads. Sources,
transformers, sinks and pattern targets are taken as ``load_scenario``
checked them; only the source payloads are checked here.
"""

from __future__ import annotations

import json
import logging

from ..errors import AtmosphereError
from ..events import Event, SchemaRegistry, decode_event, encode_event
from ..mqtt import MqttClient
from ..patterns import PatternDef
from ..record import Record
from .host import EngineHost

logger = logging.getLogger(__name__)


class TransformerSpec(Record):
    __slots__ = ("id", "output_stream", "kind", "fields", "defaults")

    def __init__(self, id: str, output_stream: str, kind: str = "map", fields: tuple = (),
                 defaults: dict | None = None):
        self.id = id
        self.output_stream = output_stream
        self.kind = kind  # map | passthrough
        self.fields = fields  # of (source_path, canonical_field)
        self.defaults = {} if defaults is None else defaults


class SinkSpec(Record):
    __slots__ = ("id", "kind", "targets", "topic")

    def __init__(self, id: str, kind: str, targets: tuple, topic: str | None = None):
        self.id = id
        self.kind = kind  # topic | notification
        self.targets = targets  # routing audiences served by this sink
        self.topic = topic


class SourceSpec(Record):
    __slots__ = ("topic", "transformer")

    def __init__(self, topic: str, transformer: str):
        self.topic = topic
        self.transformer = transformer


def _walk_path(doc, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


class CloudNode(EngineHost):
    def __init__(
        self,
        node_id: str,
        registry: SchemaRegistry,
        patterns: list[PatternDef],
        sources: list[SourceSpec],
        transformers: list[TransformerSpec],
        sinks: list[SinkSpec],
        clock,
        qos: int = 0,
    ):
        super().__init__(node_id, registry, clock)
        self.qos = qos
        self.transformers = {t.id: t for t in transformers}
        self.sources = {s.topic: s for s in sources}
        self._sink_by_target = {target: sink for sink in sinks for target in sink.targets}
        for pattern in patterns:
            self.engine.deploy(pattern)
        self.client: MqttClient | None = None
        self.notifications: list[dict] = []

    def attach(self, client: MqttClient) -> None:
        """Wire an already-connected broker client and subscribe the sources."""
        self.client = client
        client.on_message = self.on_message
        if self.sources:
            client.subscribe([(topic, self.qos) for topic in self.sources])

    def on_message(self, topic: str, payload: bytes) -> None:
        source = self.sources.get(topic)
        if source is None:
            logger.debug("%s: ignoring message on %s", self.node_id, topic)
            return
        transformer = self.transformers[source.transformer]
        try:
            event = self._transform(transformer, payload)
            emissions = self.engine.ingest(self._stamp(event))
        except AtmosphereError as exc:
            self._dead_letter(f"{transformer.id}: {exc}", payload)
            return
        except KeyError as exc:
            self._dead_letter(f"{transformer.id}: missing source path {exc}", payload)
            return
        self._route(emissions)

    def _transform(self, transformer: TransformerSpec, payload: bytes) -> Event:
        if transformer.kind == "passthrough":
            return decode_event(payload, self.registry)
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise AtmosphereError(f"malformed source JSON: {exc}") from None
        fields = dict(transformer.defaults)
        for source_path, canonical in transformer.fields:
            try:
                fields[canonical] = _walk_path(doc, source_path)
            except KeyError:
                # A declared default makes the source path optional.
                if canonical not in transformer.defaults:
                    raise
        schema = self.registry.get(transformer.output_stream)
        return Event(
            stream=transformer.output_stream,
            fields=schema.validate(fields),
            timestamp=self._clock(),
            source=self.node_id,
        )

    def _route(self, emissions) -> None:
        for emission in emissions:
            sink = self._sink_by_target[emission.target_tag]
            self.emission_log.append(emission)
            self.routed_count += 1
            if sink.kind == "topic":
                payload = encode_event(emission.event, self.registry)
                assert self.client is not None
                self.client.publish(sink.topic, payload, qos=self.qos)
            else:
                self.notifications.append(
                    {
                        "sink": sink.id,
                        "pattern": emission.produced_by,
                        "stream": emission.event.stream,
                        "at": emission.event.timestamp,
                        "fields": emission.event.fields,
                    }
                )
