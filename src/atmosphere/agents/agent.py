"""Rule evaluation for one agent.

``step`` is deterministic: given the agent specification, the stimulus and the
current state, rules whose trigger matches are evaluated in declaration order, guards
gate the actions, and actions execute in order. State and actuator mutations
apply immediately (so a later rule in the same step sees them) and are also
reported as effects. A guard or interpolation failure skips that rule with a
:class:`RuleError` effect; the agent keeps running.
"""

from __future__ import annotations

import logging
from dataclasses import replace

from ..errors import GuardError
from .exprs import eval_expr, eval_guard
from .model import (
    AclMessage,
    Actuation,
    ActuateAction,
    Effect,
    FogPublish,
    LogAction,
    LogLine,
    MessageTrigger,
    OutboundAcl,
    PublishFogAction,
    Rule,
    RuleError,
    SendAction,
    SensorSample,
    SensorTrigger,
    SetStateAction,
    StateChange,
    Stimulus,
    TimerFire,
    TimerTrigger,
    _INTERP_RE,
    parse_rule,
    validate_agent_spec,
)

logger = logging.getLogger(__name__)

RULE_UPDATE_STREAM = "RuleUpdate"


class Agent:
    def __init__(self, spec):
        self.spec = spec
        self.id = spec.id
        self.state = dict(spec.state)
        self.actuators = dict(spec.actuators)
        self.rules: list[Rule] = list(spec.rules)

    # -- stimulus handling ---------------------------------------------------

    def step(self, stimulus: Stimulus) -> list[Effect]:
        matched = [rule for rule in self.rules if self._matches(rule, stimulus)]
        if not matched:
            logger.debug("%s: no rule for %s", self.id, stimulus)
            return []
        value, at = self._trigger_value(stimulus)
        effects: list[Effect] = []
        for rule in matched:
            try:
                if rule.guard is not None and not eval_guard(
                    rule.guard, value, self.state, self.spec.attributes
                ):
                    continue
                effects.extend(self._run_actions(rule, value, at))
            except GuardError as exc:
                effects.append(RuleError(self.id, rule.id, str(exc)))
        return effects

    def apply_rule_update(self, rule_doc: dict) -> Rule:
        """Replace (by id) or append a rule; applied between steps. The rule
        is checked against the spec as the loader checks the rules it loads;
        one that fails raises ConfigError and leaves the rules unchanged."""
        path = f"agent {self.id} rule update"
        rule = parse_rule(rule_doc, path)
        ids = [existing.id for existing in self.rules]
        rules = list(self.rules)
        if rule.id in ids:
            rules[ids.index(rule.id)] = rule
        else:
            rules.append(rule)
        validate_agent_spec(replace(self.spec, rules=tuple(rules)), path)
        self.rules = rules
        return rule

    def timer_rules(self) -> list[Rule]:
        return [r for r in self.rules if isinstance(r.trigger, TimerTrigger)]

    # -- internals ---------------------------------------------------------------

    def _matches(self, rule: Rule, stimulus: Stimulus) -> bool:
        trigger = rule.trigger
        if isinstance(stimulus, SensorSample):
            return isinstance(trigger, SensorTrigger) and trigger.sensor == stimulus.sensor
        if isinstance(stimulus, TimerFire):
            return isinstance(trigger, TimerTrigger) and rule.id == stimulus.rule_id
        if isinstance(stimulus, AclMessage):
            return isinstance(trigger, MessageTrigger) and trigger.stream == stimulus.stream
        return False

    def _trigger_value(self, stimulus: Stimulus):
        if isinstance(stimulus, SensorSample):
            return stimulus.value, stimulus.at
        if isinstance(stimulus, TimerFire):
            return stimulus.count, stimulus.at
        fields = stimulus.content.get("fields")
        value = fields.get("value") if isinstance(fields, dict) else None
        return value, stimulus.sent_at

    def _run_actions(self, rule: Rule, value, at: int) -> list[Effect]:
        effects: list[Effect] = []
        for action in rule.actions:
            if isinstance(action, ActuateAction):
                resolved = self._interpolate(action.value, value)
                self.actuators[action.actuator] = resolved
                effects.append(Actuation(self.id, action.actuator, resolved))
            elif isinstance(action, SendAction):
                effects.append(
                    OutboundAcl(
                        AclMessage(
                            performative="INFORM",
                            sender=self.id,
                            receivers=action.receivers,
                            content={
                                "stream": action.stream,
                                "fields": self._interpolate_map(action.fields, value),
                            },
                            sent_at=at,
                        )
                    )
                )
            elif isinstance(action, PublishFogAction):
                effects.append(
                    FogPublish(
                        topic=action.topic,
                        stream=action.stream,
                        fields=self._interpolate_map(action.fields, value),
                        at=at,
                    )
                )
            elif isinstance(action, SetStateAction):
                new_value = eval_expr(action.expr, value, self.state, self.spec.attributes)
                self.state[action.var] = new_value
                effects.append(StateChange(self.id, action.var, new_value))
            elif isinstance(action, LogAction):
                text = _INTERP_RE.sub(
                    lambda m: str(self._resolve_ref(m.group(1), value)), action.template
                )
                effects.append(LogLine(self.id, text))
        return effects

    def _interpolate_map(self, fields: dict, value) -> dict:
        return {name: self._interpolate(v, value) for name, v in fields.items()}

    def _interpolate(self, template, value):
        if isinstance(template, str) and template.startswith("$"):
            match = _INTERP_RE.fullmatch(template)
            if match:
                return self._resolve_ref(match.group(1), value)
        return template

    def _resolve_ref(self, ref: str, value):
        if ref == "value":
            return value
        scope, name = ref.split(".", 1)
        pool = self.spec.attributes if scope == "attr" else self.state
        if name not in pool:
            raise GuardError(f"undefined reference {ref}")
        return pool[name]
