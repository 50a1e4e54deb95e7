"""Edge node: the agent host plus its broker and gateway attachments.

Each edge owns a set of agents (one room's devices, say), one broker session
subscribed to the fog's edge-output topic and the user topic, and one gateway
channel carrying ACL traffic. Stimuli go through per-agent FIFO mailboxes and
are processed strictly serially per agent; rule updates apply between steps,
and one that adds or replaces a timer rule starts its timer then.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass

from ..agents import (
    AclMessage,
    Agent,
    FogPublish,
    GatewayClient,
    OutboundAcl,
    RULE_UPDATE_STREAM,
    SensorSample,
    TimerFire,
)
from ..agents.model import MessageTrigger
from ..errors import AtmosphereError
from ..events import Event, SchemaRegistry, decode_event, encode_event
from ..mqtt import MqttClient
from . import topics

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class _RuleUpdate:
    agent_id: str
    rule_doc: dict


class EdgeNode:
    def __init__(
        self,
        node_id: str,
        fog_id: str,
        agent_specs: list,
        registry: SchemaRegistry,
        clock,
        qos: int = 0,
    ):
        self.node_id = node_id
        self.fog_id = fog_id
        self.registry = registry
        self.qos = qos
        self._clock = clock
        self.agents: dict[str, Agent] = {}
        self.mailboxes: dict[str, deque] = {}
        for spec in agent_specs:
            agent = Agent(spec)
            self.agents[agent.id] = agent
            self.mailboxes[agent.id] = deque()
        self.broker_client: MqttClient | None = None
        self.gateway_client: GatewayClient | None = None
        self.effect_log: list = []
        self.dead_letters: list[str] = []
        self.on_event = None  # hook: (topic, Event) for fog-output deliveries
        self.on_acl = None  # hook: AclMessage received from the gateway
        self.on_timer = None  # hook: the due time of a timer a rule update started
        self._timer_next: dict[tuple[str, str], int] = {}
        self._timer_count: dict[tuple[str, str], int] = {}
        self._consumers = self._index_consumers()
        # Set after every mailbox append, cleared when ``pump`` starts, so a
        # driver can skip edges with nothing to do.
        self.has_work = False

    # -- attachments -----------------------------------------------------------

    def attach_broker(self, client: MqttClient) -> None:
        self.broker_client = client
        client.on_message = self._on_broker_message
        client.subscribe(
            [
                (topics.fog_output(self.fog_id, "edge"), self.qos),
                (topics.user_topic(self.fog_id), self.qos),
            ]
        )

    def attach_gateway(self, client: GatewayClient) -> None:
        self.gateway_client = client
        client.on_message = self._on_gateway_message
        client.register(list(self.agents), at=self._clock())

    def start_timers(self, now_ms: int) -> int | None:
        """Schedule the timer rules the agents hold now, in declaration
        order (agents, then rules); one not yet scheduled is first due a
        period after ``now_ms``. Returns when the first one is due, ``None``
        without timers."""
        self._timer_period = {(agent.id, rule.id): rule.trigger.period_ms
                              for agent in self.agents.values() for rule in agent.timer_rules()}
        self._timer_next = {key: self._timer_next.get(key, now_ms + period)
                            for key, period in self._timer_period.items()}
        return min(self._timer_next.values(), default=None)

    # -- inbound ------------------------------------------------------------------

    def _on_broker_message(self, topic: str, payload: bytes) -> None:
        if topic == topics.user_topic(self.fog_id):
            self._on_user_payload(payload)
            return
        try:
            event = decode_event(payload, self.registry)
        except AtmosphereError as exc:
            self.dead_letters.append(f"broker payload on {topic}: {exc}")
            return
        if self.on_event is not None:
            self.on_event(topic, event)
        consumers = self._consumers.get(event.stream, ())
        stimulus = AclMessage(
            performative="INFORM",
            sender=event.source,
            receivers=consumers or (self.node_id,),
            content={"stream": event.stream, "fields": event.fields},
            sent_at=event.timestamp,
        )
        for agent_id in consumers:
            self.mailboxes[agent_id].append(stimulus)
        if consumers:
            self.has_work = True

    def _on_user_payload(self, payload: bytes) -> None:
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(doc, dict) or doc.get("_stream") != RULE_UPDATE_STREAM:
            return  # user-bound notices are not for the edge
        agent_id = doc.get("agent")
        rule_doc = doc.get("rule")
        if agent_id in self.agents and isinstance(rule_doc, dict):
            self.mailboxes[agent_id].append(_RuleUpdate(agent_id, rule_doc))
            self.has_work = True

    def _on_gateway_message(self, message: AclMessage) -> None:
        if self.on_acl is not None:
            self.on_acl(message)
        receivers = (
            list(self.agents)
            if message.receivers == "broadcast"
            else [r for r in message.receivers if r in self.agents]
        )
        for agent_id in receivers:
            self.mailboxes[agent_id].append(message)
        if receivers:
            self.has_work = True

    def inject_sensor(self, agent_id: str, sensor: str, value, at: int) -> None:
        self.mailboxes[agent_id].append(SensorSample(sensor, value, at))
        self.has_work = True

    def _index_consumers(self) -> dict[str, tuple]:
        """Stream -> ids of the agents with a message rule on it, in
        declaration order."""
        out: dict[str, list] = {}
        for agent in self.agents.values():
            streams = {
                rule.trigger.stream
                for rule in agent.rules
                if isinstance(rule.trigger, MessageTrigger)
            }
            for stream in streams:
                out.setdefault(stream, []).append(agent.id)
        return {stream: tuple(ids) for stream, ids in out.items()}

    # -- processing --------------------------------------------------------------

    def tick_timers(self, now_ms: int) -> int | None:
        """Fire the earliest timer due by ``now_ms``, if any (ties in
        declaration order, agents then rules); returns when the next one is
        due, ``None`` without timers."""
        if not self._timer_next:
            return None
        key = min(self._timer_next, key=self._timer_next.__getitem__)
        at = self._timer_next[key]
        if at <= now_ms:
            self.fire_timer(*key, at)
            self._timer_next[key] = at + self._timer_period[key]
        return min(self._timer_next.values())

    def fire_timer(self, agent_id: str, rule_id: str, at: int) -> None:
        key = (agent_id, rule_id)
        self._timer_count[key] = self._timer_count.get(key, 0) + 1
        self.mailboxes[agent_id].append(TimerFire(rule_id, self._timer_count[key], at))
        self.has_work = True

    def pump(self) -> int:
        """Drain mailboxes serially (agents in declaration order); returns the
        number of stimuli processed."""
        self.has_work = False
        processed = 0
        progress = True
        while progress:
            progress = False
            for agent_id, agent in self.agents.items():
                mailbox = self.mailboxes[agent_id]
                while mailbox:
                    item = mailbox.popleft()
                    processed += 1
                    progress = True
                    if isinstance(item, _RuleUpdate):
                        self._apply_rule_update(agent, item.rule_doc)
                        continue
                    self._execute(agent, agent.step(item))
        return processed

    def _apply_rule_update(self, agent: Agent, rule_doc: dict) -> None:
        """Replace (by id) or add one of ``agent``'s rules. A timer rule it
        adds or replaces is first due a period after now, and a replaced
        rule's schedule goes."""
        try:
            rule = agent.apply_rule_update(rule_doc)
        except AtmosphereError as exc:
            self.dead_letters.append(f"rule update for {agent.id}: {exc}")
            return
        # an update can add or replace a message trigger
        self._consumers = self._index_consumers()
        key = (agent.id, rule.id)
        self._timer_next.pop(key, None)
        self.start_timers(self._clock())
        if key in self._timer_next and self.on_timer is not None:
            self.on_timer(self._timer_next[key])

    def _execute(self, agent: Agent, effects: list) -> None:
        for effect in effects:
            self.effect_log.append(effect)
            if isinstance(effect, OutboundAcl):
                if self.gateway_client is None:
                    self.dead_letters.append(f"{agent.id}: no gateway attached")
                    continue
                self.gateway_client.send(effect.message)
            elif isinstance(effect, FogPublish):
                if self.broker_client is None:
                    self.dead_letters.append(f"{agent.id}: no broker attached")
                    continue
                try:
                    event = Event(effect.stream, effect.fields, effect.at, self.node_id)
                    payload = encode_event(event, self.registry)
                    self.broker_client.publish(effect.topic, payload, qos=self.qos)
                except AtmosphereError as exc:  # a bad event, or a closed broker link
                    self.dead_letters.append(f"{agent.id}: fog publish failed: {exc}")
