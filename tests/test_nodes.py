from __future__ import annotations

import json

import pytest

from atmosphere.events import Event, EventSchema, SchemaRegistry, decode_event, encode_event
from atmosphere.mqtt import Broker
from atmosphere.nodes import (
    CloudNode,
    EdgeNode,
    FogNode,
    SinkSpec,
    SourceSpec,
    TransformerSpec,
    UserNode,
    topics,
)
from atmosphere.agents import AclMessage, GatewayClient, GatewayServer, parse_agent_spec
from atmosphere.patterns import parse_pattern
from atmosphere.transport import LogicalClock, Loop, make_queue_pair

from .links import attach_client, settle

MINUTE = 60_000
HOUR = 3_600_000

ECHO_PATTERN = (
    '@Name("Echo") @Tag(name="domainName", value="fog") @Tag(name="target", value="edge") '
    "insert into Echo select a1.* from pattern [(every a1 = Ping)]"
)
TO_CLOUD_PATTERN = (
    '@Name("Up") @Tag(name="domainName", value="fog") @Tag(name="target", value="cloud") '
    "insert into Up select a1.* from pattern [(every a1 = Ping)]"
)
LIGHT_BATCH = """
@Name("ExternalLightByFloor")
@Tag(name="domainName", value="fog")
@Tag(name="target", value="fog")
insert into ExternalLightByFloor
select current_timestamp() as timestamp, a1.floor as floor, count(a1.isOn) as count
from pattern [(every a1 = ExternalLight(a1.isOn = true))].win:time_batch(10 minutes)
group by a1.floor
"""
SURVEILLANCE = """
@Name("SurveillanceUnit")
@Tag(name="domainName", value="fog")
@Tag(name="target", value="user")
insert into SurveillanceUnit
select a1.timestamp as timestamp, a1.floor as floor
from pattern [(every a1 = ExternalLightByFloor(a1.count >= 4))]
"""

# A 1 s batch grouped by floor, a filter on the floor it counts, and a 1 s
# batch that never reads the floor.
NULL_FLOOR_PATTERNS = [
    '@Name("ByFloor") @Tag(name="domainName", value="fog") @Tag(name="target", value="fog") '
    "insert into ByFloor select a1.floor as floor, count(a1.isOn) as count "
    "from pattern [(every a1 = ExternalLight(a1.isOn = true))].win:time_batch(1 seconds) "
    "group by a1.floor",
    '@Name("HighFloor") @Tag(name="domainName", value="fog") @Tag(name="target", value="fog") '
    "insert into HighFloor select a1.floor as floor from pattern [(every a1 = ByFloor(a1.floor > 2))]",
    '@Name("PerSecond") @Tag(name="domainName", value="fog") @Tag(name="target", value="fog") '
    "insert into PerSecond select count(a1.isOn) as count "
    "from pattern [(every a1 = ExternalLight)].win:time_batch(1 seconds) group by a1.isOn",
]


def registry_with(*schemas) -> SchemaRegistry:
    return SchemaRegistry(list(schemas))


@pytest.fixture()
def loop():
    return Loop(LogicalClock())


def subscriber(broker, client_id, topic_filter, loop):
    client = attach_client(broker, client_id, loop)
    inbox = []
    client.on_message = lambda topic, payload: inbox.append((topic, payload))
    client.subscribe([(topic_filter, 0)])
    return client, inbox


class TestFogRouting:
    def test_user_target_reaches_user_topic_only(self, loop):
        registry = registry_with(
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"})
        )
        broker = Broker()
        fog = FogNode(
            "f1", broker, registry,
            [parse_pattern(LIGHT_BATCH), parse_pattern(SURVEILLANCE)], loop.clock,
        )
        _, user_inbox = subscriber(broker, "u", topics.user_topic("f1"), loop)
        _, fog_out_inbox = subscriber(broker, "peer", topics.fog_output("f1", "fog"), loop)
        publisher = attach_client(broker, "edge", loop)
        for i in range(4):
            event = Event("ExternalLight", {"isOn": True, "floor": 3}, 1000 + i, f"e{i}")
            publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
        settle(loop)
        fog.advance(10 * MINUTE)
        settle(loop)
        assert len(fog_out_inbox) == 1  # the per-floor count, audience fog
        assert len(user_inbox) == 1
        alert = decode_event(user_inbox[0][1], registry)
        assert alert.stream == "SurveillanceUnit"
        assert alert.fields == {"timestamp": 10 * MINUTE, "floor": 3}
        assert alert.source == "f1"

    def test_cloud_target_routes_to_cloud_output(self, loop):
        registry = registry_with(EventSchema("Ping", {"n": "integer"}))
        broker = Broker()
        fog = FogNode("f1", broker, registry, [parse_pattern(TO_CLOUD_PATTERN)], loop.clock)
        _, cloud_inbox = subscriber(broker, "c1", topics.fog_output("f1", "cloud"), loop)
        publisher = attach_client(broker, "edge", loop)
        event = Event("Ping", {"n": 1}, 5, "e1")
        publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
        settle(loop)
        assert len(cloud_inbox) == 1
        assert fog.routed_count == 1

    def test_malformed_payload_dead_letters_without_crash(self, loop):
        registry = registry_with(EventSchema("Ping", {"n": "integer"}))
        broker = Broker()
        fog = FogNode("f1", broker, registry, [parse_pattern(ECHO_PATTERN)], loop.clock)
        publisher = attach_client(broker, "edge", loop)
        publisher.publish(topics.fog_input("f1"), b"{broken")
        settle(loop)
        assert len(fog.dead_letters) == 1
        event = Event("Ping", {"n": 1}, 5, "e1")
        publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
        settle(loop)
        assert fog.ingest_count == 1

    def test_peer_fog_input_processed_like_edge_input(self, loop):
        registry = registry_with(EventSchema("Ping", {"n": "integer"}))
        broker = Broker()
        fog = FogNode("f2", broker, registry, [parse_pattern(ECHO_PATTERN)], loop.clock)
        _, edge_inbox = subscriber(broker, "edge", topics.fog_output("f2", "edge"), loop)
        peer = attach_client(broker, "f1-client", loop)
        event = Event("Ping", {"n": 7}, 10, "f1")
        peer.publish(topics.fog_input("f2"), encode_event(event, registry))
        settle(loop)
        assert fog.ingest_count == 1
        assert len(edge_inbox) == 1

    def test_stale_advance_is_a_noop_not_a_regression(self, loop):
        registry = registry_with(
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"})
        )
        broker = Broker()
        fog = FogNode("f1", broker, registry, [parse_pattern(LIGHT_BATCH)], loop.clock)
        publisher = attach_client(broker, "edge", loop)
        event = Event("ExternalLight", {"isOn": True, "floor": 1}, 700_000, "e1")
        publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
        settle(loop)
        assert fog.engine.now_ms == 700_000
        fog.advance(600_000)  # a lagging caller must not crash the node
        assert fog.engine.now_ms == 700_000
        assert fog.dead_letters == []

    def test_raising_boundary_dead_letters_and_later_boundaries_fire(self, loop):
        registry = registry_with(
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"})
        )
        broker = Broker()
        patterns = [parse_pattern(p) for p in NULL_FLOOR_PATTERNS]
        fog = FogNode("f1", broker, registry, patterns, loop.clock)
        _, fog_out_inbox = subscriber(broker, "peer", topics.fog_output("f1", "fog"), loop)
        publisher = attach_client(broker, "edge", loop)

        def second(start_ms, floor):
            for at in range(start_ms, start_ms + 1000, 100):
                event = Event("ExternalLight", {"isOn": True, "floor": floor}, at, "e1")
                publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
            settle(loop)

        second(0, None)  # HighFloor compares the null floor at the boundary
        fog.advance(1000)
        settle(loop)
        assert [reason for reason, _ in fog.dead_letters] == [
            "boundary at 1000 failed: cannot compare NoneType with int"
        ]
        assert fog_out_inbox == []
        second(1000, 3)
        fog.advance(2000)
        settle(loop)
        streams = sorted(decode_event(payload, registry).stream for _, payload in fog_out_inbox)
        assert streams == ["ByFloor", "HighFloor", "PerSecond"]
        assert len(fog.dead_letters) == 1

    def test_extra_inputs_feed_the_engine(self, loop):
        registry = registry_with(EventSchema("Ping", {"n": "integer"}))
        broker = Broker()
        fog = FogNode(
            "f1", broker, registry, [parse_pattern(ECHO_PATTERN)], loop.clock,
            extra_inputs=(topics.cloud_fog_output("c1"),),
        )
        cloud = attach_client(broker, "c1", loop)
        event = Event("Ping", {"n": 2}, 3, "c1")
        cloud.publish(topics.cloud_fog_output("c1"), encode_event(event, registry))
        settle(loop)
        assert fog.ingest_count == 1


class TestArrivalStamp:
    """The host decides the time each arrival enters its engine at, and puts
    it on the event: its own in event time, the clock's in processing time."""

    def build(self, loop, clock):
        registry = registry_with(
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"})
        )
        broker = Broker()
        fog = FogNode("f1", broker, registry, [parse_pattern(LIGHT_BATCH)], clock)
        ingested = []
        ingest = fog.engine.ingest
        fog.engine.ingest = lambda event: ingested.append(event) or ingest(event)
        publisher = attach_client(broker, "edge", loop)

        def send(ts):
            event = Event("ExternalLight", {"isOn": True, "floor": 1}, ts, "e1")
            publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
            settle(loop)

        return fog, ingested, send

    def test_arrivals_stamped_with_the_clock_and_batches_fire_on_advance(self, loop):
        wall = [5_000]
        fog, ingested, send = self.build(loop, lambda: wall[0])
        send(999_999_999)  # the event's own timestamp is replaced
        wall[0] = 90_000
        send(0)
        assert [event.timestamp for event in ingested] == [5_000, 90_000]
        assert fog.engine.now_ms == 90_000
        fog.advance(11 * MINUTE)
        [emission] = fog.emission_log
        assert emission.event.fields["count"] == 2
        assert emission.event.timestamp == 10 * MINUTE

    def test_a_stale_reading_never_regresses_the_engine(self, loop):
        wall = [10_000]
        fog, ingested, send = self.build(loop, lambda: wall[0])
        send(0)
        wall[0] = 4_000  # a stale reading must not move the clock backwards
        send(0)
        assert [event.timestamp for event in ingested] == [10_000, 10_000]
        assert fog.engine.now_ms == 10_000
        assert fog.dead_letters == []

    def test_event_time_keeps_the_events_own_timestamp(self, loop):
        fog, ingested, send = self.build(loop, loop.clock)
        send(700_000)
        send(0)  # behind the engine clock: refused, not restamped
        assert [event.timestamp for event in ingested] == [700_000, 0]
        assert fog.ingest_count == 1
        assert fog.dead_letters[0][0] == (
            f"ingest failed on {topics.fog_input('f1')}: event at 0 behind engine clock 700000"
        )


class TestUserBridge:
    def make_fog(self, loop):
        registry = registry_with(EventSchema("Ping", {"n": "integer"}), EventSchema("Notice", {"text": "string"}))
        broker = Broker()
        fog = FogNode("f1", broker, registry, [parse_pattern(ECHO_PATTERN)], loop.clock)
        return registry, broker, fog

    def test_user_topic_never_reaches_the_engine(self, loop):
        registry, broker, fog = self.make_fog(loop)
        user = UserNode("u", "f1", registry)
        user.attach(attach_client(broker, "u", loop))
        edge = attach_client(broker, "edge", loop)
        before = fog.ingest_count
        for i in range(100):
            notice = Event("Notice", {"text": f"n{i}"}, i, "e1")
            edge.publish(topics.user_topic("f1"), encode_event(notice, registry))
        settle(loop)
        assert fog.ingest_count == before
        assert len(user.alerts) == 100

    def test_rule_update_reaches_edge_and_flips_behavior(self, loop):
        registry, broker, fog = self.make_fog(loop)
        spec = parse_agent_spec(
            {
                "id": "e1.light",
                "actuators": {"light": False},
                "rules": [
                    {
                        "id": "on-low",
                        "trigger": {"kind": "message", "stream": "O2Level"},
                        "guard": "value <= 90",
                        "actions": [{"kind": "actuate", "actuator": "light", "value": True}],
                    }
                ],
            },
            path="/a",
        )
        edge = EdgeNode("e1", "f1", [spec], registry, clock=lambda: 0)
        edge.attach_broker(attach_client(broker, "e1", loop))
        user = UserNode("u", "f1", registry)
        user.attach(attach_client(broker, "u", loop))
        user.publish_rule_update(
            "e1.light",
            {
                "id": "on-low",
                "trigger": {"kind": "message", "stream": "O2Level"},
                "guard": "value <= 70",
                "actions": [{"kind": "actuate", "actuator": "light", "value": True}],
            },
        )
        settle(loop)
        edge.pump()
        assert edge.agents["e1.light"].rules[0].guard_text == "value <= 70"
        # user-bound chatter on the shared topic is ignored by the user node itself
        assert user.alerts == []

    def test_rule_update_failing_the_spec_check_is_dead_lettered(self, loop):
        registry, broker, fog = self.make_fog(loop)
        spec = parse_agent_spec(
            {
                "id": "e1.light",
                "actuators": {"light": False},
                "rules": [{"id": "on-low", "trigger": {"kind": "message", "stream": "O2Level"},
                           "actions": [{"kind": "log", "template": "low"}]}],
            },
            path="/a",
        )
        edge = EdgeNode("e1", "f1", [spec], registry, clock=lambda: 0)
        edge.attach_broker(attach_client(broker, "e1", loop))
        user = UserNode("u", "f1", registry)
        user.attach(attach_client(broker, "u", loop))
        rules = list(edge.agents["e1.light"].rules)
        user.publish_rule_update(
            "e1.light",
            {"id": "on-low", "trigger": {"kind": "message", "stream": "O2Level"},
             "actions": [{"kind": "actuate", "actuator": "door", "value": 1}]},
        )
        settle(loop)
        edge.pump()
        assert len(edge.dead_letters) == 1
        assert "undeclared actuator 'door'" in edge.dead_letters[0]
        agent = edge.agents["e1.light"]
        assert agent.rules == rules
        agent.step(AclMessage("INFORM", "f1", ("e1.light",), {"stream": "O2Level"}, 1))
        assert agent.actuators == {"light": False}


class TestCloudNode:
    def build(self, loop, with_hospital_patterns=False, clock=None):
        schemas = [
            EventSchema("Medicine", {"id": "string", "type": "string", "place": "string"}),
        ]
        registry = SchemaRegistry(schemas)
        broker = Broker()
        patterns = []
        if with_hospital_patterns:
            from .listings import LISTING_ORDER, LISTING_TEXTS

            for name in LISTING_ORDER[2:]:  # the medicine chain
                text = LISTING_TEXTS[name].replace(
                    '@Tag(name="domainName", value="Fog")',
                    '@Tag(name="domainName", value="Fog")\n@Tag(name="target", value="%s")'
                    % ("fog" if name == "MedicineStockBreak" else "cloud"),
                )
                patterns.append(parse_pattern(text))
        cloud = CloudNode(
            "c1",
            registry,
            patterns,
            sources=[
                SourceSpec(topic=topics.cloud_source("c1", "laboratory"), transformer="medicine_raw"),
                SourceSpec(topic=topics.cloud_source("c1", "pharmacy"), transformer="medicine_raw"),
                SourceSpec(topic=topics.cloud_source("c1", "hospital"), transformer="medicine_raw"),
            ],
            transformers=[
                TransformerSpec(
                    id="medicine_raw",
                    output_stream="Medicine",
                    fields=(("medId", "id"), ("site", "place"), ("category", "type")),
                    defaults={"type": "generic"},
                )
            ],
            sinks=[
                SinkSpec(id="to-fog", kind="topic", targets=("fog",), topic=topics.cloud_fog_output("c1")),
                SinkSpec(id="notify", kind="notification", targets=("cloud",)),
            ],
            clock=loop.clock if clock is None else clock,
        )
        cloud.attach(attach_client(broker, "c1", loop))
        return registry, broker, cloud

    def test_raw_mapping_with_defaults(self, loop):
        registry, broker, cloud = self.build(loop)
        feeder = attach_client(broker, "lab", loop)
        loop.clock.set(1234)
        feeder.publish(
            topics.cloud_source("c1", "laboratory"),
            json.dumps({"medId": "m1", "site": "laboratory"}).encode(),
        )
        settle(loop)
        assert cloud.ingest_count == 1
        assert cloud.dead_letters == []

    def test_processing_time_stamps_each_source_event_with_its_arrival(self, loop):
        wall = [5_000]
        registry, broker, cloud = self.build(loop, clock=lambda: wall[0])
        feeder = attach_client(broker, "lab", loop)
        for at in (5_000, 3_000):  # the second reading is stale
            wall[0] = at
            feeder.publish(topics.cloud_source("c1", "laboratory"),
                           json.dumps({"medId": "m1", "site": "laboratory"}).encode())
            settle(loop)
        assert cloud.ingest_count == 2 and cloud.dead_letters == []
        assert cloud.engine.now_ms == 5_000

    def test_missing_source_path_dead_letters_with_transformer_id(self, loop):
        registry, broker, cloud = self.build(loop)
        feeder = attach_client(broker, "lab", loop)
        feeder.publish(
            topics.cloud_source("c1", "laboratory"),
            json.dumps({"noMedId": "m1"}).encode(),
        )
        settle(loop)
        assert cloud.ingest_count == 0
        assert len(cloud.dead_letters) == 1
        assert "medicine_raw" in cloud.dead_letters[0][0]

    def test_stock_break_reaches_fog_sink_and_notifications_recorded(self, loop):
        registry, broker, cloud = self.build(loop, with_hospital_patterns=True)
        _, fog_inbox = subscriber(broker, "f1", topics.cloud_fog_output("c1"), loop)
        feeder = attach_client(broker, "src", loop)

        def send(source, doc, at):
            loop.clock.set(at)
            feeder.publish(topics.cloud_source("c1", source), json.dumps(doc).encode())
            settle(loop)

        for i in range(1001):
            send("laboratory", {"medId": "m1", "site": "laboratory"}, 1000 + i)
        for i in range(5):
            send("pharmacy", {"medId": "m1", "site": "pharmacy"}, 600_000 + i)
        send("hospital", {"medId": "m1", "category": "respiratory", "site": "hospital"}, 700_000)
        cloud.advance(24 * HOUR)
        settle(loop)
        breaks = [
            decode_event(payload, registry)
            for _, payload in fog_inbox
            if decode_event(payload, registry).stream == "MedicineStockBreak"
        ]
        assert len(breaks) == 1
        assert breaks[0].fields["id"] == "m1"
        # intermediates went to the notification sink
        assert any(n["stream"] == "VeryHighDemandByLaboratory" for n in cloud.notifications)


class TestEdgeNode:
    def build(self, loop, specs=None):
        registry = registry_with(
            EventSchema("Ping", {"n": "integer"}),
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"}),
        )
        broker = Broker()
        fog = FogNode("f1", broker, registry, [parse_pattern(ECHO_PATTERN)], loop.clock)
        gateway = GatewayServer()
        if specs is None:
            specs = [
                parse_agent_spec(
                    {
                        "id": f"e1.a{i}",
                        "sensors": ["s"],
                        "rules": [
                            {
                                "id": "note",
                                "trigger": {"kind": "message", "stream": "Echo"},
                                "actions": [{"kind": "log", "template": "echo $value"}],
                            }
                        ],
                    },
                    path=f"/agents/{i}",
                )
                for i in range(6)
            ]
        edge = EdgeNode("e1", "f1", specs, registry, clock=lambda: 0)
        edge.attach_broker(attach_client(broker, "e1", loop))
        gw_client_end, gw_server_end = make_queue_pair("e1-gw-c", "e1-gw-s", loop)
        gateway.attach_channel(gw_server_end)
        gclient = GatewayClient("e1")
        gclient.connect(gw_client_end)
        edge.attach_gateway(gclient)
        settle(loop)
        return registry, broker, fog, gateway, edge

    def test_six_agents_register_once_each_single_broker_session(self, loop):
        registry, broker, fog, gateway, edge = self.build(loop)
        assert list(gateway.channels) == [f"e1.a{i}" for i in range(6)]
        assert len(set(gateway.channels.values())) == 1  # all on the edge's one channel
        assert broker.session_count() == 1  # one broker session for the whole edge

    def test_one_gateway_frame_lands_in_each_named_mailbox_once(self, loop):
        registry, broker, fog, gateway, edge = self.build(loop)
        named = ("e1.a1", "e1.a3", "e1.a4")
        gateway.deliver(
            AclMessage("INFORM", "svc", named, {"stream": "Echo", "fields": {"value": 1}}, 5)
        )
        settle(loop)
        assert gateway.counters["acl_out"] == 1
        assert edge.gateway_client.counters["acl_received"] == 1
        for agent_id, mailbox in edge.mailboxes.items():
            assert len(mailbox) == (1 if agent_id in named else 0)
        edge.pump()
        from atmosphere.agents import LogLine

        assert sorted(e.agent_id for e in edge.effect_log if isinstance(e, LogLine)) == list(named)

    def test_agent_message_on_rule_update_stream_reaches_its_receiver(self, loop):
        sender = {
            "id": "e1.tx",
            "sensors": ["s"],
            "rules": [{
                "id": "tell",
                "trigger": {"kind": "sensor", "sensor": "s"},
                "actions": [{"kind": "send", "receivers": ["e1.rx"],
                             "stream": "RuleUpdate", "fields": {"value": "$value"}}],
            }],
        }
        receiver = {
            "id": "e1.rx",
            "sensors": ["s"],
            "rules": [{
                "id": "hear",
                "trigger": {"kind": "message", "stream": "RuleUpdate"},
                "actions": [{"kind": "log", "template": "heard $value"}],
            }],
        }
        specs = [parse_agent_spec(doc, path=f"/agents/{i}") for i, doc in enumerate((sender, receiver))]
        registry, broker, fog, gateway, edge = self.build(loop, specs)
        edge.inject_sensor("e1.tx", "s", 7, at=5)
        edge.pump()
        settle(loop)  # the message reaches e1.rx through the gateway
        edge.pump()
        from atmosphere.agents import LogLine

        assert [(e.agent_id, e.text) for e in edge.effect_log if isinstance(e, LogLine)] == [
            ("e1.rx", "heard 7")
        ]

    def test_send_on_a_closed_gateway_channel_is_dead_lettered(self, loop):
        """A closed channel fails the send, as a closed broker link fails a
        publish; the edge dead-letters it and ``pump`` goes on."""
        sender = {
            "id": "e1.tx",
            "sensors": ["s"],
            "rules": [{
                "id": "tell",
                "trigger": {"kind": "sensor", "sensor": "s"},
                "actions": [{"kind": "send", "receivers": ["e1.rx"],
                             "stream": "S", "fields": {"value": "$value"}},
                            {"kind": "log", "template": "told $value"}],
            }],
        }
        registry, broker, fog, gateway, edge = self.build(loop, [parse_agent_spec(sender, path="/tx")])
        edge.gateway_client.close()
        edge.inject_sensor("e1.tx", "s", 7, at=5)
        edge.pump()
        assert edge.dead_letters == [
            "e1.tx: gateway send failed: e1: gateway channel not connected"
        ]
        assert edge.gateway_client.counters["acl_sent"] == 0
        from atmosphere.agents import LogLine

        assert [e.text for e in edge.effect_log if isinstance(e, LogLine)] == ["told 7"]

    def test_fog_emission_stimulates_matching_agents(self, loop):
        registry, broker, fog, gateway, edge = self.build(loop)
        publisher = attach_client(broker, "sim", loop)
        event = Event("Ping", {"n": 1}, 10, "e1")
        publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
        settle(loop)
        edge.pump()
        from atmosphere.agents import LogLine

        logs = [e for e in edge.effect_log if isinstance(e, LogLine)]
        assert len(logs) == 6  # every agent has the matching message rule

    def test_unconsumed_fog_output_reaches_on_event_only(self, loop):
        quiet = {"id": "e1.quiet", "sensors": ["s"], "rules": [{
            "id": "sense", "trigger": {"kind": "sensor", "sensor": "s"},
            "actions": [{"kind": "log", "template": "s $value"}]}]}
        registry, broker, fog, gateway, edge = self.build(loop, [parse_agent_spec(quiet, path="/q")])
        seen = []
        edge.on_event = lambda topic, event: seen.append((topic, event.stream, event.fields))
        publisher = attach_client(broker, "sim", loop)
        publisher.publish(topics.fog_input("f1"), encode_event(Event("Ping", {"n": 1}, 10, "e1"), registry))
        settle(loop)
        assert seen == [(topics.fog_output("f1", "edge"), "Echo", {"n": 1})]
        assert not edge.has_work
        assert all(not mailbox for mailbox in edge.mailboxes.values())

    def test_rule_update_adding_message_trigger_routes_next_event(self, loop):
        registry, broker, fog, gateway, edge = self.build(loop)
        spec = parse_agent_spec(
            {
                "id": "e2.late",
                "sensors": ["s"],
                "rules": [
                    {
                        "id": "sense",
                        "trigger": {"kind": "sensor", "sensor": "s"},
                        "actions": [{"kind": "log", "template": "s $value"}],
                    }
                ],
            },
            path="/late",
        )
        edge = EdgeNode("e2", "f1", [spec], registry, clock=lambda: 0)
        edge.attach_broker(attach_client(broker, "e2", loop))
        user = UserNode("u", "f1", registry)
        user.attach(attach_client(broker, "u", loop))
        publisher = attach_client(broker, "sim", loop)
        from atmosphere.agents import LogLine

        def ping(n):
            event = Event("Ping", {"n": n}, 10 + n, "e2")
            publisher.publish(topics.fog_input("f1"), encode_event(event, registry))
            settle(loop)

        ping(1)
        assert not edge.has_work  # no agent consumes Echo yet
        user.publish_rule_update(
            "e2.late",
            {
                "id": "echo",
                "trigger": {"kind": "message", "stream": "Echo"},
                "actions": [{"kind": "log", "template": "echo"}],
            },
        )
        settle(loop)
        assert edge.has_work
        edge.pump()
        ping(2)
        assert edge.has_work
        edge.pump()
        assert [e.text for e in edge.effect_log if isinstance(e, LogLine)] == ["echo"]

    def test_agent_fog_publish_goes_through_broker(self, loop):
        registry, broker, fog, gateway, edge = self.build(loop)
        spec = parse_agent_spec(
            {
                "id": "e1.pub",
                "sensors": ["o2"],
                "attributes": {"floor": 2},
                "rules": [
                    {
                        "id": "pub",
                        "trigger": {"kind": "sensor", "sensor": "o2"},
                        "actions": [
                            {
                                "kind": "publish_fog",
                                "topic": "f1/in",
                                "stream": "ExternalLight",
                                "fields": {"isOn": True, "floor": "$attr.floor"},
                            }
                        ],
                    }
                ],
            },
            path="/x",
        )
        from atmosphere.agents import Agent

        edge.agents["e1.pub"] = Agent(spec)
        edge.mailboxes["e1.pub"] = __import__("collections").deque()
        before = fog.ingest_count
        edge.inject_sensor("e1.pub", "o2", 85, at=50)
        edge.pump()
        settle(loop)
        assert fog.ingest_count == before + 1
