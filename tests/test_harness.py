from __future__ import annotations

import json
import random
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

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def hospital():
    return load_scenario(SCENARIOS / "hospital.json")


@pytest.fixture(scope="module")
def bench():
    return load_scenario(SCENARIOS / "bench.json")


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

    def test_saturation_flag(self, bench, monkeypatch):
        monkeypatch.setattr(runner_mod, "SATURATION_HIGH_WATER", -1)
        monkeypatch.setattr(runner_mod, "SATURATION_HOLD_S", 0.0)
        report = self.run_bench(bench, qos=0, duration_s=1)
        assert report.saturated is True


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


class TestTierSeparation:
    def test_edges_touch_only_their_fog_topics(self, hospital):
        from atmosphere.harness.runner import Deployment, LogicalClock, resolve_run

        deployment = Deployment(hospital, resolve_run(hospital, None), LogicalClock(), link="sync")
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
        from atmosphere.harness.runner import Deployment, LogicalClock, resolve_run

        clock = LogicalClock()
        deployment = Deployment(hospital, resolve_run(hospital, None), clock, link="sync")
        try:
            nodes = list(deployment.fogs.values()) + list(deployment.clouds.values())
            for step_at, edge_id in ((1000, "r301"), (2000, "r302")):
                clock.set(step_at)
                deployment.edges[edge_id].inject_sensor(f"{edge_id}.vent", "o2", 85, at=step_at)
                deployment.pump_edges()
            deployment.advance_engines(700_000)
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
            clock = runner_mod.LogicalClock()
            deployment = runner_mod.Deployment(
                config, runner_mod.resolve_run(config, None), clock, link="sync"
            )
            try:
                calls[0] = 0
                deployment.edges["r1"].inject_sensor("r1.vent", "o2", 85, at=0)
                assert deployment.pump_edges() == 2  # the sample, then the message
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

    def test_run_rejects_bad_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = CliRunner().invoke(cli_main, ["run", "--scenario", str(bad)])
        assert result.exit_code != 0
