from __future__ import annotations

import inspect
import itertools
import json
import math
import random
import shutil
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from atmosphere.cli import main as cli_main
from atmosphere.errors import AtmosphereError, ConfigError
from atmosphere.harness import (
    RunOverrides,
    bucketize,
    load_scenario,
    run_scenario,
)
from atmosphere.harness import runner as runner_mod
from atmosphere.harness.generators import emission_times_ms
from atmosphere.mqtt import Broker, MqttClient
from atmosphere.nodes import EdgeNode
from atmosphere.transport import LogicalClock, Loop, WallClock, make_queue_pair

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@pytest.fixture(scope="module")
def hospital():
    return load_scenario(SCENARIOS / "hospital.json")


@pytest.fixture(scope="module")
def bench():
    return load_scenario(SCENARIOS / "bench.json")


def bench_copy(tmp_path, edges: int, rates=(), timeline=()):
    """bench.json with its edge and simulator copied to ``edges`` edges,
    simulator i at ``rates[i]`` where given, with ``timeline``."""
    doc = json.loads((SCENARIOS / "bench.json").read_text("utf-8"))
    fog = doc["topology"]["fogs"][0]
    fog["patterns"] = [str(SCENARIOS / path) for path in fog["patterns"]]
    edge = json.dumps(doc["topology"]["edges"][0])
    doc["topology"]["edges"] = [json.loads(edge.replace('"e1', f'"e{i}')) for i in range(1, edges + 1)]
    doc["simulators"] = [dict(doc["simulators"][0], edge=f"e{i}") for i in range(1, edges + 1)]
    for sim, rate in zip(doc["simulators"], rates):
        sim["rate"] = rate
    doc["timeline"] = list(timeline)
    path = tmp_path / f"bench_{edges}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_scenario(path)


def settle(deployment) -> int:
    """Pump the edges, then run loop turns, each followed by a pump, until no
    delivery is queued; the stimuli pumped. A deployment's links queue on its
    loop, so what a step sends arrives only on a turn."""
    loop, pumped = deployment.loop, [deployment.pump_edges()]
    loop.after_turn = lambda: pumped.append(deployment.pump_edges())
    try:
        loop.run_until(lambda: not loop.ready)
    finally:
        loop.after_turn = deployment.pump_edges
    return sum(pumped)


def rid_schedule(rates, duration_s) -> list:
    """(round-trip id, send time) of every send: simulator i numbers its
    round trips on from the sends of the simulators before it."""
    pairs, first = [], 0
    for rate in rates:
        times = emission_times_ms(rate, duration_s)
        pairs += [(first + i + 1, at_ms) for i, at_ms in enumerate(times)]
        first += len(times)
    return sorted(pairs)


class TestLoadScenario:
    def test_hospital_shape(self, hospital):
        assert [f.id for f in hospital.fogs] == ["f1", "f2"]
        assert [c.id for c in hospital.clouds] == ["c1"]
        assert hospital.user.id == "u"
        assert len(hospital.edges) == 8
        # six device types per room
        kinds = {spec.id.split(".", 1)[1] for spec in hospital.edges[0].agent_specs}
        assert kinds == {"vent", "light", "access", "window", "intlight", "panel"}
        # derived streams resolve across nodes (fog consumes a cloud output)
        registry = hospital.build_registry()
        assert "MedicineStockBreak" in registry
        assert "SurveillanceUnit" in registry

    def test_missing_pattern_file_names_the_file(self, tmp_path):
        doc = {
            "name": "broken",
            "schemas": {"S": {"x": "integer"}},
            "topology": {"fogs": [{"id": "f1", "patterns": ["nope.epl"]}]},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="nope.epl"):
            load_scenario(path)

    def test_duplicate_node_id_rejected(self, tmp_path):
        doc = {
            "name": "dup",
            "schemas": {},
            "topology": {
                "fogs": [{"id": "n1", "patterns": []}],
                "edges": [{"id": "n1", "fog": "n1", "agents": []}],
            },
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="duplicate node id"):
            load_scenario(path)

    def test_simulator_generators_must_cover_schema(self, tmp_path):
        doc = {
            "name": "gen",
            "schemas": {"S": {"a": "integer", "b": "integer"}},
            "topology": {
                "fogs": [{"id": "f1", "patterns": []}],
                "edges": [{"id": "e1", "fog": "f1", "agents": []}],
            },
            "simulators": [
                {"edge": "e1", "stream": "S", "rate": 1, "fields": {"a": {"kind": "sequence"}}}
            ],
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="cover"):
            load_scenario(path)

    @pytest.mark.parametrize("field_type, generator", [
        ("integer", {"kind": "constant", "value": "x"}),
        ("integer", {"kind": "choice", "values": [1, "two"]}),
        ("string", {"kind": "uniform_int", "low": 1, "high": 3}),
        ("integer", {"kind": "bernoulli", "p": 0.5}),
        ("boolean", {"kind": "sequence"}),
    ])
    def test_generator_that_cannot_feed_its_field_rejected(self, tmp_path, field_type, generator):
        doc = {
            "name": "gen",
            "schemas": {"S": {"a": field_type}},
            "topology": {
                "fogs": [{"id": "f1", "patterns": []}],
                "edges": [{"id": "e1", "fog": "f1", "agents": []}],
            },
            "simulators": [{"edge": "e1", "stream": "S", "rate": 1, "fields": {"a": generator}}],
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="^/simulators/0/fields/a: "):
            load_scenario(path)

    @staticmethod
    def checked_doc() -> dict:
        """A scenario that loads, with one of each input the loader checks."""
        return {
            "name": "checks",
            "schemas": {"S": {"rid": "integer"}},
            "topology": {
                "fogs": [{"id": "f1", "patterns": [], "extra_inputs": ["c1/out/fog"]}],
                "clouds": [{
                    "id": "c1",
                    "sources": [{"topic": "c1/in/lab", "transformer": "t"}],
                    "transformers": [{"id": "t", "output_stream": "S",
                                      "fields": [{"from": "r", "to": "rid"}]}],
                    "sinks": [{"id": "to-fog", "kind": "topic", "topic": "c1/out/fog", "targets": ["fog"]},
                              {"id": "notes", "kind": "notification", "targets": ["cloud"]}],
                }],
                "edges": [{"id": "e1", "fog": "f1", "agents": [{
                    "id": "e1.a",
                    "sensors": ["s"],
                    "rules": [{"id": "r", "trigger": {"kind": "sensor", "sensor": "s"},
                               "actions": [{"kind": "publish_fog", "topic": "f1/in",
                                            "stream": "S", "fields": {"rid": 1}}]}],
                }]}],
            },
            "simulators": [{"edge": "e1", "stream": "S", "rate": 1,
                            "fields": {"rid": {"kind": "sequence"}}}],
        }

    def test_checked_doc_loads(self, tmp_path):
        path = tmp_path / "checks.json"
        path.write_text(json.dumps(self.checked_doc()))
        load_scenario(path)

    @pytest.mark.parametrize("where, value, error_path", [
        ("/topology/fogs/0/id", "f+1", "/topology/fogs/0/id"),
        ("/topology/edges/0/id", "e/1", "/topology/edges/0/id"),
        ("/topology/edges/0/agents/0/rules/0/actions/0/topic", "f1/+/in",
         "/topology/edges/0/agents/0/rules/0/actions/0/topic"),
        ("/topology/clouds/0/sinks/0/topic", "c1/out/#", "/topology/clouds/0/sinks/0/topic"),
        ("/topology/clouds/0/sources/0/topic", "c1/in/+", "/topology/clouds/0/sources/0/topic"),
        ("/topology/fogs/0/extra_inputs/0", "a/#/b", "/topology/fogs/0/extra_inputs/0"),
        ("/topology/clouds/0/sinks/1/targets", ["cloud", "fog"], "/topology/clouds/0/sinks/1/targets"),
        ("/schemas/S/rid", "number", "/simulators/0/fields/rid"),
        ("/topology/fogs/0/patterns", ["no_target.epl"], "/topology/fogs/0/patterns"),
    ])
    def test_bad_input_rejected_at_its_path(self, tmp_path, where, value, error_path):
        (tmp_path / "no_target.epl").write_text(
            '@Name("P") @Tag(name="domainName", value="fog") '
            "insert into Out select a1.* from pattern [(every a1 = S)]"
        )
        doc = self.checked_doc()
        *parents, key = where.strip("/").split("/")
        node = doc
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(key) if isinstance(node, list) else key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{error_path}: "):
            load_scenario(path)

    def test_every_scenario_and_perfbench_workload_loads(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        for path in sorted(SCENARIOS.glob("*.json")):
            load_scenario(path)
        for name in workloads.NAMES:
            monkeypatch.setattr(workloads, "RUNS_DIR", tmp_path)
            load_scenario(workloads.prepare(name, 1)["scenario"])


class TestBucketize:
    def test_one_sample_per_bucket(self):
        assert bucketize([3, 7, 20, 60, 200]) == [20.0, 20.0, 20.0, 20.0, 20.0]

    def test_all_zero(self):
        assert bucketize([0, 0, 0]) == [100.0, 0.0, 0.0, 0.0, 0.0]

    def test_boundaries_after_half_up_rounding(self):
        assert bucketize([5.4]) == [100.0, 0.0, 0.0, 0.0, 0.0]
        assert bucketize([5.5]) == [0.0, 100.0, 0.0, 0.0, 0.0]
        assert bucketize([10.4])[1] == 100.0
        assert bucketize([100.4])[3] == 100.0
        assert bucketize([100.5])[4] == 100.0

    def test_empty_input_rejected(self):
        with pytest.raises(AtmosphereError):
            bucketize([])

    def test_random_samples_match_naive_recount(self):
        rng = random.Random(7)
        samples = [rng.uniform(0, 300) for _ in range(10_000)]
        got = bucketize(samples)
        rounded = [int(s + 0.5) for s in samples]
        expected = [
            sum(1 for r in rounded if r <= 5),
            sum(1 for r in rounded if 6 <= r <= 10),
            sum(1 for r in rounded if 11 <= r <= 50),
            sum(1 for r in rounded if 51 <= r <= 100),
            sum(1 for r in rounded if r > 100),
        ]
        assert got == [100.0 * c / len(samples) for c in expected]
        assert abs(sum(got) - 100.0) < 1e-9


class TestBenchRuns:
    def run_bench(self, bench, **kwargs):
        defaults = dict(rate=40, duration_s=2, warmup_s=0)
        defaults.update(kwargs)
        return run_scenario(bench, RunOverrides(**defaults))

    def test_qos0_packet_accounting(self, bench):
        report = self.run_bench(bench, qos=0)
        completed = report.round_trips["completed"]
        assert completed == report.round_trips["initiated"] == 80
        assert report.counters["publish"] == 2 * completed
        assert report.counters["puback"] == 0

    def test_qos1_packet_accounting(self, bench):
        report = self.run_bench(bench, qos=1)
        completed = report.round_trips["completed"]
        assert completed == 80
        assert report.counters["publish"] == 2 * completed
        assert report.counters["puback"] == 2 * completed

    def test_conservation(self, bench):
        report = self.run_bench(bench, qos=1)
        rt = report.round_trips
        assert rt["initiated"] == rt["completed"] + rt["in_flight"] + rt["dead_lettered"]

    def test_report_sanity(self, bench):
        report = self.run_bench(bench, qos=0)
        summary = report.summary()
        lat = summary["latency_ms"]
        assert lat["min"] <= lat["mean"] <= lat["max"]
        assert abs(sum(summary["buckets_pct"].values()) - 100.0) < 1e-9
        assert summary["sustained_rate_per_s"] == pytest.approx(40, rel=0.05)

    def test_cep_only_matches_full_round_trips_and_no_acl(self, bench):
        full = self.run_bench(bench, mode="full")
        cep = self.run_bench(bench, mode="cep-only")
        assert cep.round_trips["completed"] == full.round_trips["completed"]
        assert cep.counters["acl"] == 0
        assert full.counters["acl"] >= 1  # the per-second platform message

    def test_agents_only_counters(self, bench):
        report = self.run_bench(bench, mode="agents-only")
        completed = report.round_trips["completed"]
        assert completed == 80
        assert report.counters["publish"] == 0
        assert report.counters["puback"] == 0
        assert report.counters["acl"] == 2 * completed

    def test_event_time_bench_is_deterministic(self, bench):
        reports = [
            self.run_bench(bench, clock="event_time", seed=9) for _ in range(2)
        ]
        rows = [
            [(r.round_trip_id, r.sent_at, r.received_at) for r in rep.records]
            for rep in reports
        ]
        assert rows[0] == rows[1]
        assert reports[0].emissions == reports[1].emissions

    def test_cpu_samples_written(self, bench, tmp_path):
        report = self.run_bench(bench, duration_s=1)
        assert report.summary()["cpu_sample_count"] >= 1
        out = report.write(tmp_path / "out")
        header, *rows = (out / "cpu.csv").read_text().splitlines()
        assert header == "t_ms,node_id,cpu_pct"
        assert rows and all(row.split(",")[1] == "all" for row in rows)
        assert all(float(row.split(",")[2]) >= 0 for row in rows)

    def test_saturation_by_send_lag(self, bench, monkeypatch):
        """Every resume counts as late: the second input ends the run; send
        lag is the only saturation signal."""
        monkeypatch.setattr(runner_mod, "SATURATION_LAG_MS", -1)
        monkeypatch.setattr(runner_mod, "SATURATION_HOLD_MS", 0)
        report = self.run_bench(bench, qos=0, duration_s=1)
        assert report.saturated is True
        assert report.round_trips["initiated"] < 40


def mqtt_links(monkeypatch, drop=(), stamp=time.monotonic):
    """Log every PUBLISH on the run's MQTT links as it leaves, as (sending
    end, ``stamp()``, dup); e1's own PUBLISHes numbered in ``drop`` (from 1,
    re-sends counted) are lost."""
    sent = []
    make = runner_mod.make_queue_pair

    def lossy(name):
        def lost(data):
            if data[0] >> 4 != 3:  # not a PUBLISH
                return False
            sent.append((name, stamp(), bool(data[0] & 0x08)))
            return name == "e1-c" and sum(1 for end, _, _ in sent if end == name) in drop
        return lost

    def make_pair(name_a, name_b, loop):
        if not name_b.endswith("-b"):  # a gateway link
            return make(name_a, name_b, loop)
        return make(name_a, name_b, loop, lossy(name_a), lossy(name_b))

    monkeypatch.setattr(runner_mod, "make_queue_pair", make_pair)
    return sent


class TestResends:
    """QoS 1 re-sends are a task of the run, resumed when the earliest
    in-flight entry falls due, under either clock."""

    def test_event_time_resends_a_lost_publish(self, bench, monkeypatch):
        sent = mqtt_links(monkeypatch, drop={30})
        report = run_scenario(bench, RunOverrides(rate=10, duration_s=3, qos=1, warmup_s=0,
                                                  clock="event_time"))
        assert report.round_trips == {"initiated": 30, "completed": 30, "in_flight": 0,
                                      "dead_lettered": 0}
        assert report.counters["publish"] == 61 and report.counters["puback"] == 60
        last = report.records[-1]
        assert last.round_trip_id == 30 and last.latency_ms == 1000  # the retry timeout
        assert [dup for end, _, dup in sent if end == "e1-c"] == [False] * 30 + [True]

    def test_processing_time_resend_leaves_at_its_due_time(self, bench, monkeypatch):
        clocks = []

        class WallClock(runner_mod.WallClock):
            """The run's clock, which keeps the last time it read."""

            def __init__(self):
                super().__init__()
                self.last_ms = None
                clocks.append(self)

            def __call__(self):
                self.last_ms = super().__call__()
                return self.last_ms

        monkeypatch.setattr(runner_mod, "WallClock", WallClock)
        # a lost publish's entry is stamped with the client's last clock read;
        # sends 2 to 7 of 7, all re-sent after the last input, at due times
        # spread over a 50 ms period
        lost = {2, 3, 4, 5, 6, 7}
        sent = mqtt_links(monkeypatch, drop=lost,
                          stamp=lambda: (time.monotonic(), clocks[0].last_ms))
        report = run_scenario(bench, RunOverrides(rate=7, duration_s=1, qos=1, warmup_s=0,
                                                  clock="processing_time"))
        assert report.round_trips["completed"] == 7
        start = clocks[0].start
        ours = [(at, dup) for end, at, dup in sent if end == "e1-c"]
        opened = [ours[n - 1][0][1] for n in sorted(lost)]
        resends = [at[0] for at, dup in ours if dup]
        assert len(resends) == len(lost)
        # each due one retry timeout after its entry opened
        lateness = sorted(resend - (start + (ms + 1000) / 1000) for ms, resend in zip(opened, resends))
        assert lateness[0] >= 0
        assert lateness[len(lateness) // 2] < 0.002  # a host stall may delay one or two

    def test_unbounded_task_waits_on_with_nothing_in_flight(self):
        """The CLI broker's task has no horizon: idle, it waits on, and an
        entry opened later wakes it at that entry's due time."""
        loop = Loop(LogicalClock())
        broker = Broker(clock=loop.clock)
        pubacks = itertools.count(1)
        forwards = []  # (clock, dup) of each PUBLISH the broker sends the subscriber

        def lose_ack(data):  # the subscriber's first and third PUBACK
            return data[0] >> 4 == 4 and next(pubacks) in (1, 3)

        def forwarded(data):
            if data[0] >> 4 == 3:
                forwards.append((loop.clock.now, bool(data[0] & 0x08)))
            return False

        clients = []
        for name, drops in (("sub", (lose_ack, forwarded)), ("pub", ())):
            near, far = make_queue_pair(f"{name}-c", f"{name}-b", loop, *drops)
            broker.attach(far)
            clients.append(MqttClient(name, clock=loop.clock))
            clients[-1].connect(near)
        subscriber, publisher = clients
        subscriber.subscribe([("a/b", 1)])
        task = runner_mod.resends(loop, [broker], math.inf)
        loop.start(task)
        publisher.publish("a/b", b"first", qos=1)
        assert loop.run_until(lambda: len(forwards) == 2)
        assert forwards == [(0, False), (1000, True)]
        # the DUP's ack arrives; at 2000 the task finds nothing in flight
        assert loop.run_until(lambda: loop.clock.now == 2000)
        assert inspect.getgeneratorstate(task) == inspect.GEN_SUSPENDED
        loop.clock.set(5000)
        publisher.publish("a/b", b"second", qos=1)
        assert loop.run_until(lambda: len(forwards) == 4)
        assert forwards[2:] == [(5000, False), (6000, True)]
        loop.close()

    def test_loss_free_event_time_run_resends_nothing(self, bench, monkeypatch):
        sent = mqtt_links(monkeypatch)
        report = run_scenario(bench, RunOverrides(rate=40, duration_s=3, qos=1, warmup_s=0,
                                                  clock="event_time"))
        assert report.round_trips["completed"] == 120
        assert sent and not any(dup for _, _, dup in sent)


class TestOneLoop:
    @pytest.mark.parametrize("edges", [1, 8])
    def test_processing_time_run_starts_no_thread(self, tmp_path, monkeypatch, edges):
        import threading

        starts = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread.name))
        config = load_scenario(SCENARIOS / "bench.json") if edges == 1 else bench_copy(tmp_path, edges)
        report = run_scenario(config, RunOverrides(rate=50, duration_s=1, qos=1, warmup_s=0))
        assert report.round_trips["completed"] == 50 * edges
        assert starts == []

    def test_sends_are_stamped_at_their_due_time(self, bench):
        report = run_scenario(bench, RunOverrides(rate=200, duration_s=1, qos=0, warmup_s=0))
        assert [r.sent_at for r in report.records] == emission_times_ms(200, 1)
        assert all(r.latency_ms >= 0 for r in report.records)

    def test_event_time_receivers_are_never_re_entered(self, bench, monkeypatch):
        """Every in-process send waits on the loop, so no receive runs
        inside another receive of the same kind."""
        from atmosphere.agents import GatewayServer
        from atmosphere.mqtt import Broker

        depth, deepest, calls = {}, {}, {}

        def tracked(owner, name):
            method = getattr(owner, name)

            def wrapper(*args):
                depth[name] = depth.get(name, 0) + 1
                deepest[name] = max(deepest.get(name, 0), depth[name])
                calls[name] = calls.get(name, 0) + 1
                try:
                    return method(*args)
                finally:
                    depth[name] -= 1

            monkeypatch.setattr(owner, name, wrapper)

        tracked(Broker, "feed")
        tracked(GatewayServer, "_on_data")
        report = run_scenario(bench, RunOverrides(rate=50, duration_s=2, qos=1, mode="full",
                                                  clock="event_time"))
        assert report.round_trips["completed"] == 100
        assert report.counters["acl"] > 0
        assert calls["feed"] >= 2 * 100 and calls["_on_data"] > 0  # a PUBLISH and a PUBACK per trip
        assert deepest == {"feed": 1, "_on_data": 1}


class TestInputTasks:
    """Both clocks run the same input tasks: the timeline, the simulators
    and the agent timers."""

    @pytest.mark.parametrize("clock", ["event_time", "processing_time"])
    def test_timeline_applies_entries_within_the_duration(self, tmp_path, monkeypatch, clock):
        from atmosphere.nodes import EdgeNode

        calls = []
        inject = EdgeNode.inject_sensor

        def recorded(edge, agent_id, sensor, value, at):
            calls.append((edge.node_id, agent_id, sensor, value, at))
            inject(edge, agent_id, sensor, value, at=at)

        monkeypatch.setattr(EdgeNode, "inject_sensor", recorded)
        entry = {"kind": "sensor", "edge": "e1", "agent": "e1.humidity", "sensor": "h", "value": 1}
        config = bench_copy(tmp_path, 1, timeline=[dict(entry, at_ms=200), dict(entry, at_ms=1500)])
        report = run_scenario(config, RunOverrides(rate=20, duration_s=1, qos=1, warmup_s=0, clock=clock))
        assert calls == [("e1", "e1.humidity", "h", 1, 200)]
        assert report.round_trips["completed"] == 20

    def test_inputs_due_together_run_in_rank_order(self, tmp_path, monkeypatch):
        """Timeline, then simulators in config order, then agent timers in
        edge order: the ranks fixed when the tasks start, whatever the order
        in which they were last re-queued."""
        from atmosphere.nodes import EdgeNode

        calls = []
        inject, fire, emit = EdgeNode.inject_sensor, EdgeNode.fire_timer, runner_mod._emit_probe

        def injected(edge, agent_id, sensor, value, at):
            calls.append(("sensor", edge.node_id, at))
            inject(edge, agent_id, sensor, value, at=at)

        def fired(edge, agent_id, rule_id, at):
            calls.append(("timer", edge.node_id, at))
            fire(edge, agent_id, rule_id, at)

        def emitted(deployment, sink, edge_id, stream, fields, at_ms):
            calls.append(("sim", edge_id, at_ms))
            emit(deployment, sink, edge_id, stream, fields, at_ms)

        monkeypatch.setattr(EdgeNode, "inject_sensor", injected)
        monkeypatch.setattr(EdgeNode, "fire_timer", fired)
        monkeypatch.setattr(runner_mod, "_emit_probe", emitted)
        entry = {"at_ms": 1000, "kind": "sensor", "edge": "e2", "agent": "e2.humidity",
                 "sensor": "h", "value": 1}
        config = bench_copy(tmp_path, 2, rates=(1, 1), timeline=[entry])
        report = run_scenario(config, RunOverrides(duration_s=2, qos=0, mode="full", warmup_s=0,
                                                   clock="event_time"))
        assert [call[:2] for call in calls if call[2] == 1000] == [
            ("sensor", "e2"), ("sim", "e1"), ("sim", "e2"), ("timer", "e1"), ("timer", "e2"),
        ]
        assert report.round_trips["completed"] == 4

    @pytest.mark.parametrize("clock", ["event_time", "processing_time"])
    def test_round_trip_ids_follow_simulator_order(self, tmp_path, clock):
        config = bench_copy(tmp_path, 2, rates=(30, 20))
        report = run_scenario(config, RunOverrides(duration_s=1, qos=1, warmup_s=0, clock=clock))
        got = sorted((r.round_trip_id, r.sent_at) for r in report.records)
        assert got == rid_schedule((30, 20), 1)


class TestAgentTimers:
    @staticmethod
    def one_edge(tmp_path, agents, timeline=(), duration_s=1, clock="event_time"):
        doc = {
            "name": "timers",
            "schemas": {"S": {"x": "integer"}},
            "topology": {"fogs": [{"id": "f1"}],
                         "edges": [{"id": "e1", "fog": "f1", "agents": agents}],
                         "user": {"id": "u", "fog": "f1"}},
            "timeline": list(timeline),
            "run": {"duration_s": duration_s, "qos": 0, "mode": "full", "clock": clock,
                    "seed": 1, "warmup_s": 0},
        }
        path = tmp_path / "timers.json"
        path.write_text(json.dumps(doc))
        return load_scenario(path)

    @staticmethod
    def log_lines(monkeypatch) -> list:
        """The text of every log effect of the run's edges, in order."""
        lines = []
        close = runner_mod.Deployment.close

        def keep(deployment):
            lines.extend(effect.text for edge in deployment.edges.values()
                         for effect in edge.effect_log if hasattr(effect, "text"))
            close(deployment)

        monkeypatch.setattr(runner_mod.Deployment, "close", keep)
        return lines

    @pytest.mark.parametrize("clock", ["event_time", "processing_time"])
    def test_run_ends_when_a_timer_rule_is_replaced(self, tmp_path, monkeypatch, clock):
        """A rule update turning timer rule t1 into a sensor rule drops its
        schedule, and the run ends on time."""
        import time

        log = {"kind": "log", "template": "t1 $value"}
        agent = {"id": "a1", "sensors": ["s"], "rules": [
            {"id": "t1", "trigger": {"kind": "timer", "period_ms": 1000}, "actions": [log]}]}
        update = {"_stream": "RuleUpdate", "agent": "a1", "rule": {
            "id": "t1", "trigger": {"kind": "sensor", "sensor": "s"}, "actions": [log]}}
        config = self.one_edge(tmp_path, [agent], clock=clock, duration_s=2, timeline=[
            {"at_ms": 1500, "kind": "user_publish", "payload": update}])
        lines = self.log_lines(monkeypatch)
        started = time.monotonic()
        run_scenario(config)
        assert time.monotonic() - started < 4.0
        assert lines == ["t1 1"]

    @staticmethod
    def timer_rule(rule_id, period_ms):
        return {"id": rule_id, "trigger": {"kind": "timer", "period_ms": period_ms},
                "actions": [{"kind": "log", "template": f"{rule_id} $value"}]}

    @staticmethod
    def add_rule_at(at_ms, rule):
        return {"at_ms": at_ms, "kind": "user_publish",
                "payload": {"_stream": "RuleUpdate", "agent": "a1", "rule": rule}}

    @pytest.mark.parametrize("clock", ["event_time", "processing_time"])
    def test_a_timer_rule_added_by_a_rule_update_fires(self, tmp_path, monkeypatch, clock):
        """t2, added at 1500 ms, is first due a period later, at 2500 ms."""
        agent = {"id": "a1", "rules": [self.timer_rule("t1", 1000)]}
        config = self.one_edge(tmp_path, [agent], clock=clock, duration_s=5,
                               timeline=[self.add_rule_at(1500, self.timer_rule("t2", 1000))])
        lines = self.log_lines(monkeypatch)
        run_scenario(config)
        assert lines == ["t1 1", "t1 2", "t2 1", "t1 3", "t2 2", "t1 4", "t2 3", "t1 5"]

    @pytest.mark.parametrize("clock", ["event_time", "processing_time"])
    @pytest.mark.parametrize("t1_period_ms", [None, 4000], ids=["no-timer", "later-timer"])
    def test_a_rule_update_wakes_the_timer_task_sooner(self, tmp_path, monkeypatch, clock, t1_period_ms):
        """The edge's timer task waits for the run's end, or for t1 at 4000
        ms, when t2 is added; it fires t2 at 2500 ms all the same, by the
        run's clock as well as by the fire's stamp."""
        rules = [] if t1_period_ms is None else [self.timer_rule("t1", t1_period_ms)]
        agent = {"id": "a1", "sensors": ["s"], "rules": rules}
        config = self.one_edge(tmp_path, [agent], clock=clock, duration_s=3,
                               timeline=[self.add_rule_at(1500, self.timer_rule("t2", 1000))])
        fires = []
        fire = EdgeNode.fire_timer

        def recorded(edge, agent_id, rule_id, at):
            fires.append((rule_id, at, edge._clock()))
            fire(edge, agent_id, rule_id, at)

        monkeypatch.setattr(EdgeNode, "fire_timer", recorded)
        lines = self.log_lines(monkeypatch)
        run_scenario(config)
        assert lines == ["t2 1"]
        [(rule_id, at, fired_at)] = fires
        assert rule_id == "t2" and 2500 <= at <= 2502
        assert at <= fired_at < at + 100

    def test_timers_due_together_are_pumped_one_by_one(self, tmp_path, monkeypatch):
        """a's timer messages b; b's own timer, due in the same ms, fires after
        the edges were pumped, so b reads the message first."""
        agents = [
            {"id": "a", "rules": [
                {"id": "ta", "trigger": {"kind": "timer", "period_ms": 1000},
                 "actions": [{"kind": "send", "receivers": ["b"], "stream": "Ping",
                              "fields": {"value": "$value"}}]}]},
            {"id": "b", "rules": [
                {"id": "tb", "trigger": {"kind": "timer", "period_ms": 500},
                 "actions": [{"kind": "log", "template": "tb $value"}]},
                {"id": "ping", "trigger": {"kind": "message", "stream": "Ping"},
                 "actions": [{"kind": "log", "template": "ping $value"}]}]},
        ]
        lines = self.log_lines(monkeypatch)
        run_scenario(self.one_edge(tmp_path, agents, duration_s=2))
        assert lines == ["tb 1", "ping 1", "tb 2", "tb 3", "ping 2", "tb 4"]


class TestHospitalRun:
    def test_alert_log(self, hospital):
        report = run_scenario(hospital)
        assert [(a["stream"], a["fields"]) for a in report.alerts] == [
            ("SurveillanceUnit", {"timestamp": 600_000, "floor": 3}),
            ("StockBreakAlert", {"timestamp": 3_600_000, "id": "m1"}),
        ]
        assert report.round_trips["dead_lettered"] == 0

    def test_byte_identical_across_runs(self, hospital):
        first = run_scenario(hospital)
        second = run_scenario(hospital)
        assert json.dumps(first.alerts) == json.dumps(second.alerts)
        assert json.dumps(first.emissions) == json.dumps(second.emissions)

    def test_report_files_written(self, hospital, tmp_path):
        report = run_scenario(hospital)
        out = report.write(tmp_path / "out")
        for name in ("latency.csv", "cpu.csv", "summary.json", "alerts.jsonl", "emissions.jsonl"):
            assert (out / name).exists()
        alerts = [json.loads(line) for line in (out / "alerts.jsonl").read_text().splitlines()]
        assert alerts[0]["stream"] == "SurveillanceUnit"


class TestOneClock:
    """A deployment makes its clock and its links from the run and the placement."""

    @staticmethod
    def link_ends(deployment) -> list:
        ends = [client._endpoint for client in deployment.clients]
        ends += [edge.gateway_client._endpoint for edge in deployment.edges.values()
                 if edge.gateway_client is not None]
        assert ends
        return ends

    def test_event_time_deployment_holds_a_logical_clock_and_queued_links(self, hospital):
        deployment = runner_mod.Deployment(hospital, runner_mod.resolve_run(hospital, None))
        try:
            assert isinstance(deployment.clock, LogicalClock)
            assert deployment.loop.clock is deployment.clock
            assert deployment.link == "queue"
            assert all(end.loop is deployment.loop for end in self.link_ends(deployment))
        finally:
            deployment.close()

    def test_processing_time_deployment_holds_a_wall_clock_and_queued_links(self, bench):
        run = runner_mod.resolve_run(bench, RunOverrides(clock="processing_time"))
        deployment = runner_mod.Deployment(bench, run)
        try:
            assert isinstance(deployment.clock, WallClock)
            assert deployment.loop.clock is deployment.clock
            assert all(end.loop is deployment.loop for end in self.link_ends(deployment))
        finally:
            deployment.close()

    def test_rule_update_naming_a_non_string_agent_is_not_for_the_edge(self, hospital, tmp_path):
        """An event-time run takes it like an update for an unknown agent."""
        doc = json.loads((SCENARIOS / "hospital.json").read_text("utf-8"))
        doc["timeline"].append({"at_ms": 1000, "kind": "user_publish", "payload": {
            "_stream": "RuleUpdate", "agent": ["r301.vent"], "rule": {}}})
        shutil.copytree(SCENARIOS / "patterns", tmp_path / "patterns")
        path = tmp_path / "hospital.json"
        path.write_text(json.dumps(doc))
        report = run_scenario(load_scenario(path))
        plain = run_scenario(hospital)
        assert report.alerts == plain.alerts and report.emissions == plain.emissions
        assert report.round_trips == plain.round_trips


class TestTierSeparation:
    def test_edges_touch_only_their_fog_topics(self, hospital):
        from atmosphere.harness.runner import Deployment, resolve_run

        deployment = Deployment(hospital, resolve_run(hospital, None))
        try:
            sessions = {s.client_id: s for s in deployment.broker._sessions if s.connected}
            for edge_cfg in hospital.edges:
                filters = [f for f, _ in sessions[edge_cfg.id].subscriptions]
                assert filters, f"edge {edge_cfg.id} holds no subscription"
                for topic in filters:
                    assert topic.startswith(edge_cfg.fog + "/"), (
                        f"edge {edge_cfg.id} holds a non-fog subscription {topic}"
                    )
        finally:
            deployment.close()

    def test_routing_totality(self, hospital):
        report = run_scenario(hospital)
        # every engine emission crossed the router onto exactly one topic/sink
        assert len(report.emissions) > 0
        from atmosphere.harness.runner import Deployment, resolve_run

        deployment = Deployment(hospital, resolve_run(hospital, None))
        clock = deployment.clock
        try:
            nodes = list(deployment.fogs.values()) + list(deployment.clouds.values())
            for step_at, edge_id in ((1000, "r301"), (2000, "r302")):
                clock.set(step_at)
                deployment.edges[edge_id].inject_sensor(f"{edge_id}.vent", "o2", 85, at=step_at)
                settle(deployment)
            for node in nodes:  # past the fog's 10-minute boundary
                node.advance(700_000)
            for node in nodes:
                assert node.routed_count == len(node.emission_log)
        finally:
            deployment.close()


class TestEdgePumping:
    @staticmethod
    def rooms(tmp_path, count):
        """``count`` rooms, each a vent that messages its room's light."""
        edges = []
        for i in range(count):
            room = f"r{i}"
            edges.append({"id": room, "fog": "f1", "agents": [
                {"id": f"{room}.vent", "sensors": ["o2"], "rules": [
                    {"id": "low", "trigger": {"kind": "sensor", "sensor": "o2"},
                     "actions": [{"kind": "send", "receivers": [f"{room}.light"],
                                  "stream": "LowO2", "fields": {"value": "$value"}}]}]},
                {"id": f"{room}.light", "actuators": {"light": False}, "rules": [
                    {"id": "on", "trigger": {"kind": "message", "stream": "LowO2"},
                     "actions": [{"kind": "actuate", "actuator": "light", "value": True}]}]},
            ]})
        doc = {
            "name": f"rooms-{count}",
            "schemas": {"S": {"x": "integer"}},
            "topology": {"fogs": [{"id": "f1"}], "edges": edges},
            "run": {"duration_s": 1, "qos": 0, "mode": "full", "clock": "event_time",
                    "seed": 1, "warmup_s": 0},
        }
        path = tmp_path / f"rooms-{count}.json"
        path.write_text(json.dumps(doc))
        return load_scenario(path)

    def test_pump_calls_independent_of_edge_count(self, tmp_path, monkeypatch):
        from atmosphere.agents import Actuation
        from atmosphere.nodes import EdgeNode

        calls = [0]
        pump = EdgeNode.pump

        def counted(edge):
            calls[0] += 1
            return pump(edge)

        monkeypatch.setattr(EdgeNode, "pump", counted)
        per_size = {}
        for count in (4, 32):
            config = self.rooms(tmp_path, count)
            deployment = runner_mod.Deployment(config, runner_mod.resolve_run(config, None))
            try:
                calls[0] = 0
                deployment.edges["r1"].inject_sensor("r1.vent", "o2", 85, at=0)
                assert settle(deployment) == 2  # the sample, then the message
                per_size[count] = calls[0]
                effects = deployment.edges["r1"].effect_log
                assert Actuation("r1.light", "light", True) in effects
            finally:
                deployment.close()
        assert per_size[4] == per_size[32]


class TestProcessesMode:
    def test_short_run_over_tcp(self, bench):
        report = run_scenario(
            bench,
            RunOverrides(rate=30, duration_s=2, qos=1, warmup_s=0, clock="processing_time"),
            processes=True,
        )
        completed = report.round_trips["completed"]
        assert completed == 60
        assert report.counters["publish"] == 2 * completed
        assert report.counters["puback"] == 2 * completed
        nodes = {node_id for _, node_id, _ in report.cpu_samples}
        assert nodes == {"core"} | {edge.id for edge in bench.edges}

    def test_two_edges_count_every_echo(self, tmp_path):
        """Each edge gets every echo on the shared fog output topic, its own
        and the other edge's, so none may leave before the other has drained."""
        config = bench_copy(tmp_path, 2)
        overrides = RunOverrides(rate=50, duration_s=2, qos=1, mode="full", warmup_s=0,
                                 clock="processing_time")
        in_process = run_scenario(config, overrides)
        assert in_process.round_trips["completed"] == 200
        assert in_process.counters["publish"] == in_process.counters["puback"] == 600
        for _ in range(3):
            report = run_scenario(config, overrides, processes=True)
            assert report.round_trips["completed"] == 200
            assert report.counters["publish"] == in_process.counters["publish"]
            assert report.counters["puback"] == in_process.counters["puback"]
            # e1's simulator numbers 1..100, e2's 101..200, in every process
            assert sorted((r.round_trip_id, r.sent_at) for r in report.records) == rid_schedule((50, 50), 2)

    def test_a_lost_process_fails_the_run(self, tmp_path, monkeypatch):
        """An edge whose driver raises ends the run at once, without its
        report, and no partial merge passes for the whole run."""
        drive = runner_mod.drive

        def drive_but_e2(deployment, *args):
            if deployment.placement.edges == ("e2",):
                raise RuntimeError("e2 cannot drive")
            return drive(deployment, *args)

        monkeypatch.setattr(runner_mod, "drive", drive_but_e2)  # the forked processes inherit it
        started = time.monotonic()
        with pytest.raises(ConfigError, match=r"no report from edge-e2 \(exit code 1\)$"):
            run_scenario(bench_copy(tmp_path, 2),
                         RunOverrides(rate=50, duration_s=1, qos=1, warmup_s=0,
                                      clock="processing_time"),
                         processes=True)
        assert time.monotonic() - started < 15

    def test_event_time_with_processes_rejected(self, bench):
        with pytest.raises(ConfigError):
            run_scenario(bench, RunOverrides(clock="event_time"), processes=True)


class TestCli:
    def test_validate(self):
        result = CliRunner().invoke(
            cli_main, ["validate", "--scenario", str(SCENARIOS / "hospital.json")]
        )
        assert result.exit_code == 0, result.output
        assert "hospital: OK" in result.output

    def test_run_writes_reports(self, tmp_path):
        result = CliRunner().invoke(
            cli_main,
            [
                "run",
                "--scenario", str(SCENARIOS / "bench.json"),
                "--rate", "20",
                "--duration", "1",
                "--clock", "event",
                "--warmup", "0",
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["round_trips"]["completed"] == 20

    def test_oracle_replays_log(self, tmp_path):
        log = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"_stream": "ExternalLight", "_ts": 1000 + i, "_src": f"r{i}", "isOn": True, "floor": 3})
            for i in range(4)
        ]
        log.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(
            cli_main,
            [
                "oracle",
                "--scenario", str(SCENARIOS / "hospital.json"),
                "--log", str(log),
                "--node", "f1",
            ],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert any(r["stream"] == "SurveillanceUnit" for r in rows)

    @pytest.mark.parametrize("signum", ["SIGINT", "SIGTERM"])
    def test_broker_serves_until_sigterm(self, signum):
        import os
        import signal
        import subprocess
        import sys

        from atmosphere.transport import Loop, connect_tcp

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "atmosphere.cli", "broker", "--port", "0"],
                                stderr=subprocess.PIPE, text=True, env=env)
        loop = Loop()
        try:
            line = proc.stderr.readline()
            assert line.startswith("broker listening on "), line
            port = int(line.rsplit(":", 1)[1])
            subscriber = MqttClient("sub")
            subscriber.connect(connect_tcp("127.0.0.1", port, loop))
            inbox = []
            subscriber.on_message = lambda topic, payload: inbox.append((topic, payload))
            subscriber.subscribe([("f1/in", 1)])
            publisher = MqttClient("pub")
            publisher.connect(connect_tcp("127.0.0.1", port, loop))
            publisher.publish("f1/in", b"to-the-command", qos=1)
            assert loop.run_until(lambda: inbox and publisher.inflight_count() == 0, 5.0)
            assert inbox == [("f1/in", b"to-the-command")]
            proc.send_signal(getattr(signal, signum))
            assert proc.wait(timeout=5.0) == 0
        finally:
            loop.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_run_rejects_bad_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = CliRunner().invoke(cli_main, ["run", "--scenario", str(bad)])
        assert result.exit_code != 0
