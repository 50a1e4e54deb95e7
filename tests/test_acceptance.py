"""Acceptance suite: the nine exit criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Budgets are wall-clock and part of the assertion.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from atmosphere.agents import Actuation
from atmosphere.cep import Engine, oracle_replay
from atmosphere.events import Event, EventSchema, SchemaRegistry
from atmosphere.harness import RunOverrides, bucketize, load_scenario, run_scenario
from atmosphere.harness.runner import Deployment, resolve_run
from atmosphere.mqtt import MqttClient, decode_packet, encode_packet
from atmosphere.mqtt.broker import Broker
from atmosphere.patterns import Duration, parse_pattern, print_pattern
from atmosphere.transport import LogicalClock, Loop, make_queue_pair

from . import links
from .cep_random import SPAN_MS, generate_log, random_registry
from .listings import LISTING_ORDER, LISTING_TEXTS
from .test_harness import settle
from .test_mqtt_codec import GOLDEN, _packets

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    within = elapsed <= budget_s
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if within else 'FAIL'} ({elapsed:.1f}s / {budget_s:.0f}s budget)")
    assert within, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_1_pattern_coverage():
    with criterion(1, "pattern-coverage", budget_s=1.0):
        registry = SchemaRegistry(
            [
                EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"}),
                EventSchema("Medicine", {"id": "string", "type": "string", "place": "string"}),
            ]
        )
        engine = Engine("f1", registry)
        thresholds = {}
        windows = {}
        for name in LISTING_ORDER:
            pattern = parse_pattern(LISTING_TEXTS[name])  # parse + validate
            engine.deploy(pattern)  # deploy
            assert parse_pattern(print_pattern(pattern)) == pattern  # round-trip
            for binding in pattern.bindings:
                for pred in binding.predicates:
                    if not hasattr(pred.rhs, "alias"):
                        thresholds[(name, pred.op)] = pred.rhs.value
            if pattern.window:
                windows[name] = pattern.window
        assert thresholds[("SurveillanceUnit", ">=")] == 4
        assert thresholds[("VeryHighDemandByLaboratory", ">")] == 1000
        assert thresholds[("StockShortageByPharmacy", "<=")] == 5
        assert thresholds[("RespiratoryUseByHospital", ">=")] == 1
        assert windows["ExternalLightByFloor"] == Duration(10, "minutes")
        assert windows["DemandByLaboratory"] == Duration(1, "hours")
        assert windows["StockByPharmacy"] == Duration(1, "hours")
        assert windows["UseByHospital"] == Duration(1, "hours")
        assert windows["MedicineStockBreak"] == Duration(24, "hours")


def test_criterion_2_oracle_equivalence():
    with criterion(2, "cep-oracle-equivalence", budget_s=120.0):
        patterns = [parse_pattern(LISTING_TEXTS[name]) for name in LISTING_ORDER]
        for seed in range(200):
            log = generate_log(seed, max_events=10_000)
            engine = Engine("f1", random_registry())
            for pattern in patterns:
                engine.deploy(pattern)
            engine_out = []
            for event in log:
                engine_out.extend(engine.ingest(event))
            engine_out.extend(engine.advance_clock(SPAN_MS))
            engine_out.sort(key=lambda e: e.order_key)
            oracle_out = oracle_replay(patterns, random_registry(), log, SPAN_MS, node_id="f1")
            engine_rows = [
                (e.order_key, e.event.stream, tuple(e.event.fields.items()), e.event.timestamp)
                for e in engine_out
            ]
            oracle_rows = [
                (e.order_key, e.event.stream, tuple(e.event.fields.items()), e.event.timestamp)
                for e in oracle_out
            ]
            assert engine_rows == oracle_rows, f"divergence on seed {seed}"


def test_criterion_3_hospital_end_to_end():
    with criterion(3, "hospital-end-to-end", budget_s=30.0):
        config = load_scenario(SCENARIOS / "hospital.json")

        # (a) threshold behavior, observed on a live deployment
        deployment = Deployment(config, resolve_run(config, None))
        clock = deployment.clock
        try:
            edge = deployment.edges["r301"]
            fog = deployment.fogs["f1"]
            clock.set(1000)
            edge.inject_sensor("r301.vent", "o2", 85, at=1000)
            settle(deployment)
            actuations = [
                e for e in edge.effect_log
                if isinstance(e, Actuation) and e.actuator == "external_light"
            ]
            assert [a.value for a in actuations] == [True]
            assert fog.ingest_count == 1  # exactly one ExternalLight publish
            other = deployment.edges["r204"]
            clock.set(2000)
            other.inject_sensor("r204.vent", "o2", 95, at=2000)
            settle(deployment)
            assert not [
                e for e in other.effect_log
                if isinstance(e, Actuation) and e.actuator == "external_light"
            ]
            assert fog.ingest_count == 1
        finally:
            deployment.close()

        # (b) + (c) scripted timeline, twice, byte-identical
        first = run_scenario(config)
        second = run_scenario(config)
        assert json.dumps(first.alerts) == json.dumps(second.alerts)
        assert json.dumps(first.emissions) == json.dumps(second.emissions)

        surveillance = [a for a in first.alerts if a["stream"] == "SurveillanceUnit"]
        assert len(surveillance) == 1
        assert surveillance[0]["fields"]["floor"] == 3  # floor 2 (3 rooms) stays silent

        fog_sink = [
            row for row in first.emissions
            if row["node"] == "c1" and row["stream"] == "MedicineStockBreak"
        ]
        assert len(fog_sink) == 1
        assert fog_sink[0]["fields"]["id"] == "m1"
        assert fog_sink[0]["target"] == "fog"
        assert not [r for r in fog_sink if r["fields"]["id"] == "m2"]
        # and it crossed into the fog tier
        assert any(a["stream"] == "StockBreakAlert" and a["fields"]["id"] == "m1" for a in first.alerts)
        assert first.round_trips["dead_lettered"] == 0


def test_criterion_4_broker_protocol():
    with criterion(4, "broker-protocol", budget_s=60.0):
        # golden byte vectors
        for packet, raw in GOLDEN:
            assert encode_packet(packet) == raw
            assert decode_packet(raw) == (packet, len(raw))
        # codec round-trip over randomized packets
        from hypothesis import HealthCheck, given, settings

        @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(packet=_packets)
        def round_trip(packet):
            raw = encode_packet(packet)
            assert decode_packet(raw) == (packet, len(raw))

        round_trip()

        # at-least-once under 30% loss, 1000 qos-1 publishes
        loop = Loop(LogicalClock())
        clock = loop.clock
        rng = random.Random(20210612)
        max_retries, retry_timeout = 40, 100
        broker = Broker(retry_timeout_ms=retry_timeout, max_retries=max_retries)
        lossy = lambda _data: rng.random() < 0.30  # noqa: E731
        publisher = MqttClient("pub", retry_timeout_ms=retry_timeout, max_retries=max_retries)
        subscriber = MqttClient("sub", retry_timeout_ms=retry_timeout, max_retries=max_retries)
        for client in (publisher, subscriber):
            for _ in range(100):
                # a lost CONNECT or CONNACK: connect again on a new link
                endpoint, far = make_queue_pair(f"{client.client_id}-c", f"{client.client_id}-b",
                                                loop, lossy, lossy)
                broker.attach(far)
                try:
                    client.connect(endpoint, timeout_s=0)
                    break
                except Exception:
                    endpoint.close()
                    clock.set(clock.now + retry_timeout)
        for _ in range(100):
            try:
                subscriber.subscribe([("t", 1)], timeout_s=0)
                break
            except Exception:
                clock.set(clock.now + retry_timeout)
        received: set[bytes] = set()
        subscriber.on_message = lambda topic, payload: received.add(payload)
        for i in range(1000):
            publisher.publish("t", str(i).encode(), qos=1)
        links.settle(loop)
        bound_ms = (max_retries + 1) * retry_timeout
        start = clock.now
        while clock.now - start <= bound_ms and (publisher.inflight or len(received) < 1000):
            clock.set(clock.now + retry_timeout)
            publisher.tick(clock.now)
            broker.tick(clock.now)
            links.settle(loop)
        assert len(received) == 1000
        assert clock.now - start <= bound_ms

        # qos-0 publishes are never retransmitted (and never acknowledged)
        sent_before = publisher.counters["publish_sent"]
        publisher.publish("t", b"fire-and-forget", qos=0)
        links.settle(loop)
        for _ in range(10):
            clock.set(clock.now + retry_timeout * 2)
            publisher.tick(clock.now)
            broker.tick(clock.now)
            links.settle(loop)
        assert publisher.counters["publish_sent"] == sent_before + 1
        assert broker.counters["puback_out"] <= 1000 + publisher.counters["publish_sent"]


def _bench(overrides: RunOverrides, processes: bool = False):
    config = load_scenario(SCENARIOS / "bench.json")
    return run_scenario(config, overrides, processes=processes)


def test_criterion_5_message_amplification():
    with criterion(5, "message-amplification", budget_s=120.0):
        for qos, expected_puback in ((1, 2), (0, 0)):
            report = _bench(RunOverrides(rate=30, duration_s=30, qos=qos, warmup_s=0))
            completed = report.round_trips["completed"]
            assert completed == report.round_trips["initiated"] == 900
            assert report.counters["publish"] == 2 * completed
            assert report.counters["puback"] == expected_puback * completed


def test_criterion_6_throughput_qos0():
    with criterion(6, "throughput-qos0", budget_s=90.0):
        report = _bench(RunOverrides(rate=300, duration_s=60, qos=0, warmup_s=10))
        assert report.saturated is False
        rt = report.round_trips
        assert rt["initiated"] == 18_000
        assert rt["completed"] == rt["initiated"], "lost round trips"
        summary = report.summary()
        assert summary["sustained_rate_per_s"] >= 300
        buckets = summary["buckets_pct"]
        under_50 = buckets["<=5"] + buckets["6-10"] + buckets["11-50"]
        assert under_50 >= 90.0, f"only {under_50:.2f}% of latencies <= 50 ms"


def test_criterion_7_qos1_latency():
    with criterion(7, "qos1-latency", budget_s=90.0):
        report = _bench(RunOverrides(rate=30, duration_s=60, qos=1, warmup_s=10))
        summary = report.summary()
        buckets = summary["buckets_pct"]
        under_50 = buckets["<=5"] + buckets["6-10"] + buckets["11-50"]
        assert under_50 >= 97.0, f"only {under_50:.2f}% of latencies <= 50 ms"
        assert report.round_trips["completed"] == report.round_trips["initiated"]


def test_criterion_8_ablations():
    with criterion(8, "ablations", budget_s=120.0):
        rate, duration = 50, 15
        full = _bench(RunOverrides(rate=rate, duration_s=duration, qos=0, warmup_s=0, mode="full"))
        cep_only = _bench(RunOverrides(rate=rate, duration_s=duration, qos=0, warmup_s=0, mode="cep-only"))
        agents_only = _bench(RunOverrides(rate=rate, duration_s=duration, qos=0, warmup_s=0, mode="agents-only"))
        assert cep_only.counters["acl"] == 0
        assert cep_only.round_trips["completed"] == full.round_trips["completed"] == rate * duration
        assert agents_only.counters["publish"] == 0
        assert agents_only.counters["puback"] == 0
        assert agents_only.counters["acl"] == 2 * agents_only.round_trips["completed"]
        assert agents_only.round_trips["completed"] == rate * duration


def test_criterion_9_user_bridge_isolation():
    with criterion(9, "user-bridge-isolation", budget_s=30.0):
        config = load_scenario(SCENARIOS / "hospital.json")
        deployment = Deployment(config, resolve_run(config, None))
        clock = deployment.clock
        try:
            fog = deployment.fogs["f1"]
            user = deployment.user
            before = fog.ingest_count
            for i in range(100):
                clock.set(i + 1)
                notice = Event("Notice", {"text": f"note {i}"}, i + 1, "u")
                from atmosphere.events import encode_event

                user.publish_raw(encode_event(notice, deployment.registry))
                settle(deployment)
            assert fog.ingest_count == before, "user traffic leaked into the engine"

            # rule update measurably flips a threshold
            edge = deployment.edges["r301"]
            clock.set(1000)
            edge.inject_sensor("r301.vent", "o2", 85, at=1000)
            settle(deployment)
            light = edge.agents["r301.light"]
            assert light.actuators["external_light"] is True
            light.actuators["external_light"] = False
            user.publish_rule_update(
                "r301.light",
                {
                    "id": "light-on",
                    "trigger": {"kind": "message", "stream": "O2Level"},
                    "guard": "value <= 70",
                    "actions": [
                        {"kind": "actuate", "actuator": "external_light", "value": True}
                    ],
                },
                at=2000,
            )
            settle(deployment)
            clock.set(3000)
            edge.inject_sensor("r301.vent", "o2", 85, at=3000)
            settle(deployment)
            assert light.actuators["external_light"] is False, "old threshold still active"
            clock.set(4000)
            edge.inject_sensor("r301.vent", "o2", 65, at=4000)
            settle(deployment)
            assert light.actuators["external_light"] is True, "new threshold not applied"
            # only the pre-update rule published to the fog; the replacement
            # carries just the actuation
            assert fog.ingest_count == before + 1
        finally:
            deployment.close()
