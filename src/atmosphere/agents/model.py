"""Agent-side data model: ACL messages and wire framing, declarative rules,
agent specifications, stimuli and effects.

Rules are configuration data (trigger -> guard -> actions), not code, so a
whole scenario stays declarative. Field maps in actions may interpolate
``$value`` (the trigger value), ``$attr.<name>`` and ``$state.<name>``.
"""

from __future__ import annotations

import json
import logging
import re
import struct

from ..errors import ConfigError, MqttProtocolError, PayloadError
from ..events import IDENT_RE
from ..mqtt.packets import validate_topic_name
from ..record import Record
from .exprs import guard_references, parse_guard

logger = logging.getLogger(__name__)

BROADCAST = "broadcast"
GATEWAY_ADDRESS = "$gateway"
PERFORMATIVES = ("INFORM", "REQUEST")


class AclMessage(Record):
    """One ACL message; :func:`decode_acl_body` checks those off the wire."""

    __slots__ = ("performative", "sender", "receivers", "content", "sent_at")

    def __init__(self, performative: str, sender: str, receivers: tuple, content: dict, sent_at: int):
        self.performative = performative
        self.sender = sender
        self.receivers = receivers  # of agent/service ids, or the BROADCAST marker string
        self.content = content
        self.sent_at = sent_at

    @property
    def stream(self) -> str | None:
        value = self.content.get("stream")
        return value if isinstance(value, str) else None


# built once: ``json.dumps`` with these options builds a new encoder per call
_ACL_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def encode_acl(message: AclMessage) -> bytes:
    doc = {
        "performative": message.performative,
        "sender": message.sender,
        "receivers": BROADCAST if message.receivers == BROADCAST else list(message.receivers),
        "content": message.content,
        "sent_at": message.sent_at,
    }
    body = _ACL_JSON.encode(doc).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def decode_acl_body(body: bytes) -> AclMessage:
    """Decode one frame body, or raise PayloadError if it is not a valid
    message: a known performative, a string sender, a non-empty list of
    string receivers or the broadcast marker, an object content and a
    non-negative integer ``sent_at``."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PayloadError(f"malformed ACL frame: {exc}") from None
    if not isinstance(doc, dict):
        raise PayloadError("ACL frame must be a JSON object")
    try:
        performative = doc["performative"]
        sender = doc["sender"]
        receivers = doc["receivers"]
        content = doc["content"]
        sent_at = doc["sent_at"]
    except KeyError as exc:
        raise PayloadError(f"bad ACL frame: {exc}") from None
    if performative not in PERFORMATIVES:
        raise PayloadError(f"unknown performative {performative!r}")
    if not isinstance(sender, str):
        raise PayloadError("ACL sender must be a string")
    if receivers != BROADCAST:
        if not isinstance(receivers, list) or not receivers or not all(
            isinstance(receiver, str) for receiver in receivers
        ):
            raise PayloadError("ACL receivers must be a non-empty list of ids unless broadcast")
        receivers = tuple(receivers)
    if not isinstance(content, dict):
        raise PayloadError("ACL content must be an object")
    if not isinstance(sent_at, int) or isinstance(sent_at, bool) or sent_at < 0:
        raise PayloadError("ACL sent_at must be a non-negative integer")
    return AclMessage(performative, sender, receivers, content, sent_at)


class AclFrameDecoder:
    """Incremental decoder for the 4-byte big-endian length-prefixed framing."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[AclMessage]:
        """The messages of the frames ``data`` completes; a bad frame is
        logged and dropped, and the frames around it still decode."""
        self._buffer.extend(data)
        out = []
        while len(self._buffer) >= 4:
            (length,) = struct.unpack_from(">I", self._buffer, 0)
            if len(self._buffer) < 4 + length:
                break
            body = bytes(self._buffer[4 : 4 + length])
            del self._buffer[: 4 + length]
            try:
                out.append(decode_acl_body(body))
            except PayloadError as exc:
                logger.warning("dropping ACL frame: %s", exc)
        return out


# -- triggers ---------------------------------------------------------------


class SensorTrigger(Record):
    __slots__ = ("sensor",)

    def __init__(self, sensor: str):
        self.sensor = sensor


class MessageTrigger(Record):
    __slots__ = ("stream",)

    def __init__(self, stream: str):
        self.stream = stream


class TimerTrigger(Record):
    __slots__ = ("period_ms",)

    def __init__(self, period_ms: int):
        self.period_ms = period_ms


Trigger = SensorTrigger | MessageTrigger | TimerTrigger


# -- actions ------------------------------------------------------------------


class SendAction(Record):
    __slots__ = ("receivers", "stream", "fields")

    def __init__(self, receivers: tuple, stream: str, fields: dict):
        self.receivers = receivers  # of agent/service ids, or the BROADCAST marker string
        self.stream = stream
        self.fields = fields


class ActuateAction(Record):
    __slots__ = ("actuator", "value")

    def __init__(self, actuator: str, value: object):
        self.actuator = actuator
        self.value = value


class PublishFogAction(Record):
    __slots__ = ("topic", "stream", "fields")

    def __init__(self, topic: str, stream: str, fields: dict):
        self.topic = topic
        self.stream = stream
        self.fields = fields


class SetStateAction(Record):
    __slots__ = ("var", "expr", "expr_text")

    def __init__(self, var: str, expr: object, expr_text: str = ""):
        self.var = var
        self.expr = expr  # parsed guard-language expression
        self.expr_text = expr_text


class LogAction(Record):
    __slots__ = ("template",)

    def __init__(self, template: str):
        self.template = template


Action = (
    SendAction
    | ActuateAction
    | PublishFogAction
    | SetStateAction
    | LogAction
)


class Rule(Record):
    __slots__ = ("id", "trigger", "guard", "actions", "guard_text")

    def __init__(self, id: str, trigger: Trigger, guard: object | None, actions: tuple,
                 guard_text: str | None = None):
        self.id = id
        self.trigger = trigger
        self.guard = guard  # parsed expression
        self.actions = actions
        self.guard_text = guard_text


class AgentSpec(Record):
    __slots__ = ("id", "attributes", "state", "sensors", "actuators", "rules")

    def __init__(self, id: str, attributes: dict | None = None, state: dict | None = None,
                 sensors: tuple = (), actuators: dict | None = None, rules: tuple = ()):
        self.id = id
        self.attributes = {} if attributes is None else attributes
        self.state = {} if state is None else state
        self.sensors = sensors
        self.actuators = {} if actuators is None else actuators  # name -> initial value
        self.rules = rules


# -- stimuli -----------------------------------------------------------------


class SensorSample(Record):
    __slots__ = ("sensor", "value", "at")

    def __init__(self, sensor: str, value: object, at: int):
        self.sensor = sensor
        self.value = value
        self.at = at


class TimerFire(Record):
    __slots__ = ("rule_id", "count", "at")

    def __init__(self, rule_id: str, count: int, at: int):
        self.rule_id = rule_id
        self.count = count
        self.at = at


Stimulus = SensorSample | TimerFire | AclMessage


# -- effects -------------------------------------------------------------------


class Actuation(Record):
    __slots__ = ("agent_id", "actuator", "value")

    def __init__(self, agent_id: str, actuator: str, value: object):
        self.agent_id = agent_id
        self.actuator = actuator
        self.value = value


class OutboundAcl(Record):
    __slots__ = ("message",)

    def __init__(self, message: AclMessage):
        self.message = message


class FogPublish(Record):
    __slots__ = ("topic", "stream", "fields", "at")

    def __init__(self, topic: str, stream: str, fields: dict, at: int):
        self.topic = topic
        self.stream = stream
        self.fields = fields
        self.at = at


class StateChange(Record):
    __slots__ = ("agent_id", "var", "value")

    def __init__(self, agent_id: str, var: str, value: object):
        self.agent_id = agent_id
        self.var = var
        self.value = value


class LogLine(Record):
    __slots__ = ("agent_id", "text")

    def __init__(self, agent_id: str, text: str):
        self.agent_id = agent_id
        self.text = text


class RuleError(Record):
    __slots__ = ("agent_id", "rule_id", "message")

    def __init__(self, agent_id: str, rule_id: str, message: str):
        self.agent_id = agent_id
        self.rule_id = rule_id
        self.message = message


Effect = Actuation | OutboundAcl | FogPublish | StateChange | LogLine | RuleError


# -- config parsing ------------------------------------------------------------

_INTERP_RE = re.compile(r"\$(value|attr\.[A-Za-z_][A-Za-z0-9_]*|state\.[A-Za-z_][A-Za-z0-9_]*)")


def parse_trigger(doc: dict, path: str) -> Trigger:
    kind = doc.get("kind")
    if kind == "sensor":
        return SensorTrigger(sensor=_req_str(doc, "sensor", path))
    if kind == "message":
        return MessageTrigger(stream=_req_str(doc, "stream", path))
    if kind == "timer":
        period = doc.get("period_ms")
        if type(period) is not int or period <= 0:  # JSON true is a bool, not an int
            raise ConfigError("timer trigger needs a positive period_ms", path)
        return TimerTrigger(period_ms=period)
    raise ConfigError(f"unknown trigger kind {kind!r}", path)


def parse_action(doc: dict, path: str) -> Action:
    kind = doc.get("kind")
    if kind == "broadcast":
        return SendAction(
            receivers=BROADCAST,
            stream=_req_str(doc, "stream", path),
            fields=dict(doc.get("fields", {})),
        )
    if kind == "send":
        receivers = doc.get("receivers")
        if not isinstance(receivers, list) or not receivers or not all(
            isinstance(receiver, str) and receiver for receiver in receivers
        ):
            raise ConfigError("send action needs a non-empty list of receiver ids", path)
        return SendAction(
            receivers=tuple(receivers),
            stream=_req_str(doc, "stream", path),
            fields=dict(doc.get("fields", {})),
        )
    if kind == "actuate":
        if "value" not in doc:
            raise ConfigError("actuate action needs a value", path)
        return ActuateAction(actuator=_req_str(doc, "actuator", path), value=doc["value"])
    if kind == "publish_fog":
        return PublishFogAction(
            topic=parse_topic(validate_topic_name, doc.get("topic"), f"{path}/topic"),
            stream=_req_str(doc, "stream", path),
            fields=dict(doc.get("fields", {})),
        )
    if kind == "set_state":
        expr_text = _req_str(doc, "expr", path)
        return SetStateAction(
            var=_req_str(doc, "var", path),
            expr=parse_guard(expr_text),
            expr_text=expr_text,
        )
    if kind == "log":
        return LogAction(template=_req_str(doc, "template", path))
    raise ConfigError(f"unknown action kind {kind!r}", path)


def parse_rule(doc: dict, path: str) -> Rule:
    rule_id = _req_str(doc, "id", path)
    trigger = parse_trigger(doc.get("trigger", {}), f"{path}/trigger")
    guard_text = doc.get("guard")
    guard = None
    if guard_text is not None:
        if not isinstance(guard_text, str):
            raise ConfigError("guard must be a string expression", f"{path}/guard")
        guard = parse_guard(guard_text)
    actions_doc = doc.get("actions")
    if not isinstance(actions_doc, list) or not actions_doc:
        raise ConfigError("rule needs a non-empty actions list", f"{path}/actions")
    actions = tuple(
        parse_action(a, f"{path}/actions/{i}") for i, a in enumerate(actions_doc)
    )
    return Rule(id=rule_id, trigger=trigger, guard=guard, actions=actions, guard_text=guard_text)


def parse_agent_spec(doc: dict, path: str) -> AgentSpec:
    agent_id = _req_str(doc, "id", path)
    rules_doc = doc.get("rules", [])
    if not isinstance(rules_doc, list):
        raise ConfigError("rules must be a list", f"{path}/rules")
    spec = AgentSpec(
        id=agent_id,
        attributes=dict(doc.get("attributes", {})),
        state=dict(doc.get("state", {})),
        sensors=tuple(doc.get("sensors", [])),
        actuators=dict(doc.get("actuators", {})),
        rules=tuple(parse_rule(r, f"{path}/rules/{i}") for i, r in enumerate(rules_doc)),
    )
    validate_agent_spec(spec, path)
    return spec


def validate_agent_spec(spec: AgentSpec, path: str = "") -> None:
    if not IDENT_RE.match(spec.id.replace(".", "_")):
        raise ConfigError(f"invalid agent id {spec.id!r}", path)
    for i, rule in enumerate(spec.rules):
        rule_path = f"{path}/rules/{i}"
        if isinstance(rule.trigger, SensorTrigger) and rule.trigger.sensor not in spec.sensors:
            raise ConfigError(
                f"rule {rule.id!r} triggers on undeclared sensor {rule.trigger.sensor!r}",
                rule_path,
            )
        if rule.guard is not None:
            _check_refs(guard_references(rule.guard), spec, rule.id, rule_path)
        for action in rule.actions:
            if isinstance(action, ActuateAction) and action.actuator not in spec.actuators:
                raise ConfigError(
                    f"rule {rule.id!r} actuates undeclared actuator {action.actuator!r}",
                    rule_path,
                )
            if isinstance(action, SetStateAction):
                if action.var not in spec.state:
                    raise ConfigError(
                        f"rule {rule.id!r} sets undeclared state var {action.var!r}",
                        rule_path,
                    )
                _check_refs(guard_references(action.expr), spec, rule.id, rule_path)
            for template_field in _template_fields(action):
                ref = template_field[1:]
                if ref.startswith("attr.") and ref[5:] not in spec.attributes:
                    raise ConfigError(
                        f"rule {rule.id!r} interpolates unknown {ref!r}", rule_path
                    )
                if ref.startswith("state.") and ref[6:] not in spec.state:
                    raise ConfigError(
                        f"rule {rule.id!r} interpolates unknown {ref!r}", rule_path
                    )


def _check_refs(refs, spec: AgentSpec, rule_id: str, path: str) -> None:
    for scope, name in refs:
        if scope == "state" and name not in spec.state:
            raise ConfigError(
                f"rule {rule_id!r} references undeclared state.{name}", path
            )
        if scope == "attr" and name not in spec.attributes:
            raise ConfigError(
                f"rule {rule_id!r} references undeclared attr.{name}", path
            )


def _template_fields(action: Action):
    if isinstance(action, (SendAction, PublishFogAction)):
        return [v for v in action.fields.values() if isinstance(v, str) and v.startswith("$")]
    if isinstance(action, ActuateAction):
        value = action.value
        return [value] if isinstance(value, str) and value.startswith("$") else []
    if isinstance(action, LogAction):
        return ["$" + m for m in _INTERP_RE.findall(action.template)]
    return []


def parse_topic(check, topic, path: str) -> str:
    """``topic`` if it is a string that passes ``check`` (a topic name or
    topic filter check), else ConfigError at ``path``."""
    if not isinstance(topic, str):
        raise ConfigError("topic must be a string", path)
    try:
        check(topic)
    except MqttProtocolError as exc:
        raise ConfigError(str(exc), path) from None
    return topic


def _req_str(doc: dict, key: str, path: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"missing or invalid {key!r}", path)
    return value

