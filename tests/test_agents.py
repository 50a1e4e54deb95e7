from __future__ import annotations

import json

import pytest

from atmosphere.agents import (
    Agent,
    AclFrameDecoder,
    AclMessage,
    Actuation,
    BROADCAST,
    FogPublish,
    GATEWAY_ADDRESS,
    GatewayClient,
    GatewayServer,
    LogLine,
    OutboundAcl,
    REGISTER_STREAM,
    RuleError,
    SensorSample,
    StateChange,
    TimerFire,
    UNDELIVERABLE_STREAM,
    decode_acl_body,
    encode_acl,
    parse_agent_spec,
)
from atmosphere.errors import ConfigError, GuardError, PayloadError
from atmosphere.agents.exprs import eval_expr, eval_guard, parse_guard
from atmosphere.transport import make_sync_pair


def vent_spec(agent_id="e2.vent", receivers=None):
    action = (
        {"kind": "broadcast", "stream": "O2Level", "fields": {"value": "$value"}}
        if receivers is None
        else {"kind": "send", "receivers": receivers, "stream": "O2Level", "fields": {"value": "$value"}}
    )
    return parse_agent_spec(
        {
            "id": agent_id,
            "sensors": ["o2"],
            "rules": [{"id": "o2-share", "trigger": {"kind": "sensor", "sensor": "o2"}, "actions": [action]}],
        },
        path="/vent",
    )


def light_spec(agent_id="e4.light", floor=3, threshold_guard="value <= 90"):
    return parse_agent_spec(
        {
            "id": agent_id,
            "attributes": {"floor": floor},
            "actuators": {"external_light": False},
            "rules": [
                {
                    "id": "light-on",
                    "trigger": {"kind": "message", "stream": "O2Level"},
                    "guard": threshold_guard,
                    "actions": [
                        {"kind": "actuate", "actuator": "external_light", "value": True},
                        {
                            "kind": "publish_fog",
                            "topic": "f1/in",
                            "stream": "ExternalLight",
                            "fields": {"isOn": True, "floor": "$attr.floor"},
                        },
                    ],
                }
            ],
        },
        path="/light",
    )


def o2_message(value, sender="e2.vent", at=1000):
    return AclMessage(
        performative="INFORM",
        sender=sender,
        receivers=BROADCAST,
        content={"stream": "O2Level", "fields": {"value": value}},
        sent_at=at,
    )


class TestStep:
    def test_low_o2_actuates_and_publishes_with_interpolation(self):
        agent = Agent(light_spec())
        effects = agent.step(o2_message(85))
        assert effects == [
            Actuation("e4.light", "external_light", True),
            FogPublish("f1/in", "ExternalLight", {"isOn": True, "floor": 3}, 1000),
        ]
        assert agent.actuators["external_light"] is True

    def test_guard_boundary_95_produces_no_effects(self):
        agent = Agent(light_spec())
        assert agent.step(o2_message(95)) == []
        assert agent.actuators["external_light"] is False

    def test_guard_boundary_exactly_90_passes(self):
        agent = Agent(light_spec())
        assert len(agent.step(o2_message(90))) == 2

    def test_sensor_sample_broadcasts_value(self):
        agent = Agent(vent_spec())
        effects = agent.step(SensorSample("o2", 92, at=500))
        assert effects == [
            OutboundAcl(
                AclMessage(
                    performative="INFORM",
                    sender="e2.vent",
                    receivers=BROADCAST,
                    content={"stream": "O2Level", "fields": {"value": 92}},
                    sent_at=500,
                )
            )
        ]

    def test_unmatched_stimulus_is_ignored(self):
        agent = Agent(light_spec())
        assert agent.step(SensorSample("humidity", 40, at=0)) == []

    def test_two_rules_fire_in_declaration_order(self):
        spec = parse_agent_spec(
            {
                "id": "a",
                "sensors": ["s"],
                "state": {"n": 0},
                "rules": [
                    {
                        "id": "first",
                        "trigger": {"kind": "sensor", "sensor": "s"},
                        "actions": [{"kind": "log", "template": "first $value"}],
                    },
                    {
                        "id": "second",
                        "trigger": {"kind": "sensor", "sensor": "s"},
                        "actions": [{"kind": "set_state", "var": "n", "expr": "state.n + 1"}],
                    },
                ],
            },
            path="/a",
        )
        agent = Agent(spec)
        effects = agent.step(SensorSample("s", 7, at=0))
        assert effects == [LogLine("a", "first 7"), StateChange("a", "n", 1)]

    def test_guard_type_error_skips_rule_and_reports(self):
        agent = Agent(light_spec())
        effects = agent.step(o2_message("not-a-number"))
        assert len(effects) == 1
        assert isinstance(effects[0], RuleError)
        assert agent.actuators["external_light"] is False

    def test_timer_value_is_fire_count(self):
        spec = parse_agent_spec(
            {
                "id": "h",
                "rules": [
                    {
                        "id": "humidity",
                        "trigger": {"kind": "timer", "period_ms": 1000},
                        "actions": [
                            {
                                "kind": "send",
                                "receivers": ["f1.svc"],
                                "stream": "Humidity",
                                "fields": {"value": "$value"},
                            }
                        ],
                    }
                ],
            },
            path="/h",
        )
        agent = Agent(spec)
        effects = agent.step(TimerFire("humidity", count=3, at=3000))
        assert effects[0].message.content["fields"] == {"value": 3}

    def test_state_updates_visible_to_later_rules_in_same_step(self):
        spec = parse_agent_spec(
            {
                "id": "c",
                "sensors": ["s"],
                "state": {"count": 0},
                "rules": [
                    {
                        "id": "bump",
                        "trigger": {"kind": "sensor", "sensor": "s"},
                        "actions": [{"kind": "set_state", "var": "count", "expr": "state.count + 1"}],
                    },
                    {
                        "id": "alarm",
                        "trigger": {"kind": "sensor", "sensor": "s"},
                        "guard": "state.count >= 2",
                        "actions": [{"kind": "log", "template": "count hit $state.count"}],
                    },
                ],
            },
            path="/c",
        )
        agent = Agent(spec)
        assert agent.step(SensorSample("s", 0, at=0)) == [StateChange("c", "count", 1)]
        assert agent.step(SensorSample("s", 0, at=1)) == [
            StateChange("c", "count", 2),
            LogLine("c", "count hit 2"),
        ]


class TestRuleUpdate:
    def test_update_changes_subsequent_behavior(self):
        agent = Agent(light_spec())
        assert len(agent.step(o2_message(85))) == 2
        agent.apply_rule_update(
            {
                "id": "light-on",
                "trigger": {"kind": "message", "stream": "O2Level"},
                "guard": "value <= 70",
                "actions": [{"kind": "actuate", "actuator": "external_light", "value": True}],
            }
        )
        assert agent.step(o2_message(85)) == []
        assert len(agent.step(o2_message(65))) == 1

    def test_update_with_new_id_appends(self):
        agent = Agent(light_spec())
        agent.apply_rule_update(
            {
                "id": "extra",
                "trigger": {"kind": "message", "stream": "Ping"},
                "actions": [{"kind": "log", "template": "pong"}],
            }
        )
        msg = AclMessage("INFORM", "x", ("e4.light",), {"stream": "Ping", "fields": {}}, 1)
        assert agent.step(msg) == [LogLine("e4.light", "pong")]

    @pytest.mark.parametrize("action, match", [
        ({"kind": "actuate", "actuator": "door", "value": 1}, "undeclared actuator 'door'"),
        ({"kind": "log", "template": "$state.ghost"}, "unknown 'state.ghost'"),
        ({"kind": "publish_fog", "topic": "f1/+/in", "stream": "S", "fields": {}}, "wildcards"),
    ])
    def test_update_failing_the_spec_check_leaves_the_rules(self, action, match):
        agent = Agent(light_spec())
        rules = list(agent.rules)
        with pytest.raises(ConfigError, match=match):
            agent.apply_rule_update({
                "id": "light-on",
                "trigger": {"kind": "message", "stream": "O2Level"},
                "actions": [action],
            })
        assert agent.rules == rules
        agent.step(o2_message(85))
        assert agent.actuators == {"external_light": True}


class TestSpecValidation:
    def test_unknown_sensor_rejected(self):
        with pytest.raises(ConfigError, match="undeclared sensor"):
            parse_agent_spec(
                {
                    "id": "a",
                    "rules": [
                        {
                            "id": "r",
                            "trigger": {"kind": "sensor", "sensor": "ghost"},
                            "actions": [{"kind": "log", "template": "x"}],
                        }
                    ],
                },
                path="/a",
            )

    def test_unknown_actuator_rejected(self):
        with pytest.raises(ConfigError, match="undeclared actuator"):
            parse_agent_spec(
                {
                    "id": "a",
                    "sensors": ["s"],
                    "rules": [
                        {
                            "id": "r",
                            "trigger": {"kind": "sensor", "sensor": "s"},
                            "actions": [{"kind": "actuate", "actuator": "ghost", "value": 1}],
                        }
                    ],
                },
                path="/a",
            )

    def test_guard_referencing_undeclared_state_rejected(self):
        with pytest.raises(ConfigError, match="state.n"):
            parse_agent_spec(
                {
                    "id": "a",
                    "sensors": ["s"],
                    "rules": [
                        {
                            "id": "r",
                            "trigger": {"kind": "sensor", "sensor": "s"},
                            "guard": "state.n > 0",
                            "actions": [{"kind": "log", "template": "x"}],
                        }
                    ],
                },
                path="/a",
            )

    def test_empty_actions_rejected(self):
        with pytest.raises(ConfigError, match="actions"):
            parse_agent_spec(
                {
                    "id": "a",
                    "sensors": ["s"],
                    "rules": [{"id": "r", "trigger": {"kind": "sensor", "sensor": "s"}, "actions": []}],
                },
                path="/a",
            )


class TestGuardLanguage:
    def test_arithmetic_and_boolean_operators(self):
        expr = parse_guard("(value * 2 + 1) / 3 >= 7 and not (value = 0)")
        assert eval_guard(expr, 10, {}, {}) is True
        assert eval_guard(expr, 5, {}, {}) is False

    def test_string_equality(self):
        expr = parse_guard("value = 'open'")
        assert eval_guard(expr, "open", {}, {}) is True

    def test_division_by_zero_is_guard_error(self):
        expr = parse_guard("value / 0 > 1")
        with pytest.raises(GuardError):
            eval_guard(expr, 1, {}, {})

    def test_expression_value(self):
        expr = parse_guard("state.count + 1")
        assert eval_expr(expr, None, {"count": 2}, {}) == 3

    def test_cross_type_comparison_is_guard_error(self):
        expr = parse_guard("value < 'abc'")
        with pytest.raises(GuardError):
            eval_guard(expr, 1, {}, {})


class TestDispatch:
    """Dispatch through the server, each agent on a channel of its own."""

    def make_server(self, ids=("e1", "e2", "e3", "e4", "e5", "e6")):
        server = GatewayServer()
        return server, {agent_id: gateway_channel(server, [agent_id]) for agent_id in ids}

    def test_broadcast_reaches_all_but_sender(self):
        server, channels = self.make_server()
        channels["e2"][0].send(o2_message(88, sender="e2"))
        for agent_id in ("e1", "e3", "e4", "e5", "e6"):
            assert [m.receivers for m in channels[agent_id][1]] == [(agent_id,)]
        assert channels["e2"][1] == []

    def test_directed_send_reaches_only_target(self):
        server, channels = self.make_server()
        message = AclMessage("INFORM", "e2", ("e4",), {"stream": "S", "fields": {}}, 0)
        channels["e2"][0].send(message)
        assert channels["e4"][1] == [message]
        assert all(not channels[a][1] for a in ("e1", "e2", "e3", "e5", "e6"))

    def test_unknown_receiver_notice_and_others_still_delivered(self):
        server, channels = self.make_server()
        channels["e2"][0].send(
            AclMessage("INFORM", "e2", ("ghost", "e4"), {"stream": "S", "fields": {}}, 0)
        )
        assert len(channels["e4"][1]) == 1
        [notice] = channels["e2"][1]
        assert notice.stream == UNDELIVERABLE_STREAM
        assert notice.content["receiver"] == "ghost"

    def test_unregistered_sender_dropped(self, caplog):
        server, channels = self.make_server()
        channels["e1"][0].send(o2_message(88, sender="nobody"))
        assert "unregistered sender 'nobody'" in caplog.text
        assert all(not frames for _, frames in channels.values())
        assert server.counters == {"acl_in": 1, "acl_out": 0}

    def test_fifo_order_per_sender_receiver_pair(self):
        server, channels = self.make_server(ids=("a", "b"))
        for i in range(10):
            channels["a"][0].send(
                AclMessage("INFORM", "a", ("b",), {"stream": "S", "fields": {"value": i}}, i)
            )
        assert [m.content["fields"]["value"] for m in channels["b"][1]] == list(range(10))


class TestWireFormat:
    def test_acl_frame_round_trip(self):
        message = o2_message(85)
        decoder = AclFrameDecoder()
        assert decoder.feed(encode_acl(message)) == [message]

    def test_partial_frames_buffer(self):
        message = o2_message(85)
        raw = encode_acl(message)
        decoder = AclFrameDecoder()
        assert decoder.feed(raw[:3]) == []
        assert decoder.feed(raw[3:10]) == []
        assert decoder.feed(raw[10:]) == [message]

    def test_two_frames_in_one_chunk(self):
        a, b = o2_message(85), o2_message(86)
        decoder = AclFrameDecoder()
        assert decoder.feed(encode_acl(a) + encode_acl(b)) == [a, b]

    @pytest.mark.parametrize("key, value", [
        ("performative", "BOGUS"),
        ("sender", 5),
        ("receivers", []),
        ("receivers", [["e1"]]),
        ("receivers", "e1"),
        ("content", [1]),
        ("sent_at", None),
    ])
    def test_bad_body_rejected(self, key, value):
        good = {"performative": "INFORM", "sender": "a", "receivers": ["b"],
                "content": {"stream": "S"}, "sent_at": 1}
        assert decode_acl_body(json.dumps(good).encode()) == AclMessage(
            "INFORM", "a", ("b",), {"stream": "S"}, 1)
        with pytest.raises(PayloadError):
            decode_acl_body(json.dumps(dict(good, **{key: value})).encode())

    def test_bad_frame_between_good_ones_is_dropped_alone(self, caplog):
        a, b = o2_message(85), o2_message(86)
        bad = encode_acl(AclMessage("BOGUS", "e2.vent", BROADCAST, {}, 0))
        decoder = AclFrameDecoder()
        assert decoder.feed(encode_acl(a) + bad + encode_acl(b)) == [a, b]
        assert "unknown performative 'BOGUS'" in caplog.text


class TestGatewayChannels:
    def test_register_send_and_echo_service_counters(self):
        server = GatewayServer()
        received = []

        def echo(message):
            return [
                AclMessage(
                    "INFORM",
                    "echo",
                    (message.sender,),
                    message.content,
                    message.sent_at,
                )
            ]

        server.register_service("echo", echo)
        client_end, server_end = make_sync_pair()
        server.attach_channel(server_end)
        client = GatewayClient("probe")
        client.connect(client_end)
        client.on_message = received.append
        client.register(["probe"])
        client.send(
            AclMessage("INFORM", "probe", ("echo",), {"stream": "BenchProbe", "fields": {"rid": 1}}, 0)
        )
        assert len(received) == 1
        assert received[0].content["fields"] == {"rid": 1}
        assert server.counters == {"acl_in": 1, "acl_out": 1}
        assert client.counters == {"acl_sent": 1, "acl_received": 1}

    def test_cross_channel_agent_messaging_preserves_fifo(self):
        server = GatewayServer()
        a_end, a_server = make_sync_pair()
        b_end, b_server = make_sync_pair()
        server.attach_channel(a_server)
        server.attach_channel(b_server)
        client_a = GatewayClient("edge-a")
        client_b = GatewayClient("edge-b")
        client_a.connect(a_end)
        client_b.connect(b_end)
        inbox_b = []
        client_b.on_message = inbox_b.append
        client_a.register(["a1"])
        client_b.register(["b1"])
        for i in range(5):
            client_a.send(
                AclMessage("INFORM", "a1", ("b1",), {"stream": "S", "fields": {"value": i}}, i)
            )
        assert [m.content["fields"]["value"] for m in inbox_b] == list(range(5))
        assert server.counters == {"acl_in": 5, "acl_out": 5}

    @pytest.mark.parametrize("bad", [
        AclMessage("BOGUS", "a1", ("b1",), {"stream": "S"}, 0),
        AclMessage("INFORM", "a1", ("b1",), [1], 0),
    ])
    def test_bad_frame_in_a_chunk_loses_only_itself(self, bad):
        server = GatewayServer()
        a_end, a_server = make_sync_pair()
        b_end, b_server = make_sync_pair()
        server.attach_channel(a_server)
        server.attach_channel(b_server)
        client_a, client_b = GatewayClient("edge-a"), GatewayClient("edge-b")
        client_a.connect(a_end)
        client_b.connect(b_end)
        inbox_b = []
        client_b.on_message = inbox_b.append
        client_a.register(["a1"])
        client_b.register(["b1"])
        first, second = value_message("a1", ("b1",), 1), value_message("a1", ("b1",), 2)
        chunk = encode_acl(first) + encode_acl(bad) + encode_acl(second)
        a_end.send(chunk)  # into the server
        assert inbox_b == [first, second]
        assert server.counters == {"acl_in": 2, "acl_out": 2}
        b_server.send(chunk)  # into the client
        assert inbox_b == [first, second, first, second]
        assert client_b.counters["acl_received"] == 4

    @pytest.mark.parametrize("agents", [[["x"]], 5, "ab", [None], [""], None])
    def test_register_frame_without_agent_ids_is_dropped(self, agents, caplog):
        """A bad Register is dropped with a warning; the good one after it in
        the same read registers ``x1`` alone."""
        server = GatewayServer()
        client_end, server_end = make_sync_pair()
        server.attach_channel(server_end)

        def register(agent_ids):
            content = {"stream": REGISTER_STREAM, "agents": agent_ids}
            return encode_acl(AclMessage("REQUEST", "edge-x", (GATEWAY_ADDRESS,), content, 0))

        client_end.send(register(agents) + register(["x1"]))
        assert list(server.channels) == ["x1"]
        assert server.counters == {"acl_in": 0, "acl_out": 0}
        assert "dropping Register frame" in caplog.text


def value_message(sender, receivers, value):
    return AclMessage("INFORM", sender, receivers, {"stream": "S", "fields": {"value": value}}, value)


def gateway_channel(server, agent_ids, register=True):
    """A client on a new sync channel to ``server``, and the frames it gets."""
    client_end, server_end = make_sync_pair()
    server.attach_channel(server_end)
    client = GatewayClient(f"edge-{agent_ids[0]}")
    client.connect(client_end)
    frames = []
    client.on_message = frames.append
    if register:
        client.register(list(agent_ids))
    return client, frames


def inbox(frames, agent_id):
    """Values ``agent_id`` got, one per frame naming it, in arrival order."""
    return [
        m.content["fields"]["value"] if m.stream == "S" else m.stream
        for m in frames
        for r in m.receivers
        if r == agent_id
    ]


class TestGatewayFrames:
    """One frame per (message, channel), naming that channel's receivers."""

    def test_one_frame_per_channel_naming_its_receivers(self):
        server = GatewayServer()
        sender, _ = gateway_channel(server, ["s"])
        _, frames_x = gateway_channel(server, ["x1", "x2", "x3"])
        _, frames_y = gateway_channel(server, ["y1"])
        sender.send(value_message("s", ("x1", "y1", "x2", "x3"), 7))
        assert server.counters == {"acl_in": 1, "acl_out": 2}
        assert [m.receivers for m in frames_x] == [("x1", "x2", "x3")]
        assert [m.receivers for m in frames_y] == [("y1",)]
        assert frames_x[0].content == frames_y[0].content == {"stream": "S", "fields": {"value": 7}}

    def test_broadcast_one_frame_per_channel_without_the_sender(self):
        server = GatewayServer()
        _, frames_x = gateway_channel(server, ["x1", "x2"])
        sender, frames_y = gateway_channel(server, ["y1", "s"])
        sender.send(value_message("s", BROADCAST, 1))
        assert server.counters == {"acl_in": 1, "acl_out": 2}
        assert [m.receivers for m in frames_x] == [("x1", "x2")]
        assert [m.receivers for m in frames_y] == [("y1",)]

    def test_fifo_per_agent_mixing_one_and_many_receivers(self):
        server = GatewayServer()
        sender, _ = gateway_channel(server, ["s"])
        _, frames = gateway_channel(server, ["x1", "x2", "x3"])
        sends = [("x1",), ("x1", "x2", "x3"), ("x2",), ("x3", "x1"), ("x2", "x3"), ("x1",)]
        for value, receivers in enumerate(sends):
            sender.send(value_message("s", receivers, value))
        for agent_id in ("x1", "x2", "x3"):
            expected = [v for v, receivers in enumerate(sends) if agent_id in receivers]
            assert inbox(frames, agent_id) == expected
        assert server.counters["acl_out"] == len(sends)  # one channel: one frame each

    def test_message_to_unregistered_agent_is_undeliverable_until_it_registers(self):
        server = GatewayServer()
        sender, frames_s = gateway_channel(server, ["s"])
        late, frames_y = gateway_channel(server, ["y1"], register=False)
        sender.send(value_message("s", ("y1",), 0))
        assert [(m.stream, m.content["receiver"]) for m in frames_s] == [(UNDELIVERABLE_STREAM, "y1")]
        late.register(["y1"])
        sender.send(value_message("s", ("y1",), 1))
        assert inbox(frames_y, "y1") == [1]  # the first message is not held for it
        assert len(frames_s) == 1
        assert server.counters == {"acl_in": 2, "acl_out": 2}

    def test_undeliverable_notice_keeps_its_place(self):
        server = GatewayServer()
        sender, frames = gateway_channel(server, ["x1", "x2"])
        sender.send(value_message("x1", ("x2", "ghost", "x1"), 5))
        assert inbox(frames, "x2") == [5]
        assert inbox(frames, "x1") == [UNDELIVERABLE_STREAM, 5]
        assert server.counters["acl_out"] == 3
        assert [(m.receivers, m.stream) for m in frames] == [
            (("x2",), "S"), (("x1",), UNDELIVERABLE_STREAM), (("x1",), "S"),
        ]

    def test_service_reply_through_deliver_is_grouped(self):
        server = GatewayServer()
        server.register_service(
            "fan", lambda message: [value_message("fan", ("x1", "y1", "x2"), 9)]
        )
        sender, _ = gateway_channel(server, ["s"])
        _, frames_x = gateway_channel(server, ["x1", "x2"])
        _, frames_y = gateway_channel(server, ["y1"])
        sender.send(value_message("s", ("fan",), 0))
        assert server.counters == {"acl_in": 1, "acl_out": 2}
        assert [m.receivers for m in frames_x] == [("x1", "x2")]
        assert [m.receivers for m in frames_y] == [("y1",)]
        server.deliver(value_message("$gateway", BROADCAST, 10))
        assert server.counters["acl_out"] == 5  # one more frame per channel
        assert [m.receivers for m in frames_x[1:]] == [("x1", "x2")]
        assert [m.receivers for m in frames_y[1:]] == [("y1",)]


class TestScriptedLoopGoldenLog:
    def test_deterministic_effect_log(self):
        """Two agents behind a gateway, scripted stimuli, hand-derived log."""
        vent = Agent(vent_spec())
        light = Agent(light_spec(agent_id="e4.light"))
        server = GatewayServer()
        channels = {agent.id: gateway_channel(server, [agent.id]) for agent in (vent, light)}

        log: list[str] = []

        def run_step(agent, stimulus):
            for effect in agent.step(stimulus):
                if isinstance(effect, OutboundAcl):
                    channels[agent.id][0].send(effect.message)
                    log.append(f"{agent.id} acl {effect.message.content['stream']}"
                               f" {effect.message.content['fields']}")
                elif isinstance(effect, Actuation):
                    log.append(f"{agent.id} actuate {effect.actuator}={effect.value}")
                elif isinstance(effect, FogPublish):
                    log.append(f"{agent.id} fog {effect.topic} {effect.stream} {effect.fields}")

        def drain_all():
            # Fixed interleaving: agents in declaration order, frames in arrival order.
            for agent in (vent, light):
                frames = channels[agent.id][1]
                received = frames[:]
                frames.clear()
                for message in received:
                    run_step(agent, message)

        run_step(vent, SensorSample("o2", 92, at=1000))
        drain_all()
        run_step(vent, SensorSample("o2", 85, at=2000))
        drain_all()

        assert log == [
            "e2.vent acl O2Level {'value': 92}",
            "e2.vent acl O2Level {'value': 85}",
            "e4.light actuate external_light=True",
            "e4.light fog f1/in ExternalLight {'isOn': True, 'floor': 3}",
        ]

    def test_same_script_twice_is_identical(self):
        runs = []
        for _ in range(2):
            agent = Agent(light_spec())
            effects = []
            for value in (95, 88, 91, 70):
                effects.extend(agent.step(o2_message(value)))
            runs.append(effects)
        assert runs[0] == runs[1]
