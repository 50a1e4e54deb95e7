"""What the fog and cloud nodes share: hosting one CEP engine."""

from __future__ import annotations

import logging

from ..cep import Engine
from ..errors import AtmosphereError
from ..events import SchemaRegistry

logger = logging.getLogger(__name__)


class EngineHost:
    """A node that runs one CEP engine; each subclass routes its emissions
    in ``_route``."""

    def __init__(self, node_id: str, registry: SchemaRegistry, wall_clock):
        self.node_id = node_id
        self.registry = registry
        self.engine = Engine(node_id, registry, wall_clock=wall_clock)
        self.dead_letters: list[tuple[str, str]] = []
        self.emission_log: list = []
        self.routed_count = 0

    @property
    def ingest_count(self) -> int:
        return self.engine.ingest_count

    def advance(self, to_ms: int) -> None:
        # a wall-clock reading captured before an ingest stamped a newer
        # time must not read as a regression
        to_ms = max(to_ms, self.engine.now_ms)
        try:
            emissions = self.engine.advance_clock(to_ms)
        except AtmosphereError as exc:
            self._dead_letter(f"boundary at {to_ms} failed: {exc}", b"")
            return
        self._route(emissions)

    def _dead_letter(self, reason: str, payload: bytes) -> None:
        logger.warning("%s dead-letter: %s", self.node_id, reason)
        self.dead_letters.append((reason, payload[:200].decode("utf-8", "replace")))
