"""How often a run calls the codec entry points, counted where perfbench's
tracer wraps them: ``encode_packet``/``decode_packet`` as imported into
``mqtt.broker`` and ``mqtt.client``, and ``encode_event``/``decode_event``
as imported into the node modules and the runner. A layer's traced cost is
only comparable across changes while these counts hold, so no codec work
may move out of these functions or be split across more calls."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from atmosphere.harness import load_scenario
from atmosphere.harness import runner
from atmosphere.harness.runner import Deployment, RunOverrides, drive, resolve_run
from atmosphere.mqtt import broker as broker_module
from atmosphere.mqtt import client as client_module
from atmosphere.nodes import cloud, edge, fog, user

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def calls(monkeypatch):
    """Counts of codec calls made while ``calls["on"]`` is set."""
    counts = Counter()
    counting = {"on": False}

    def wrap(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            if counting["on"]:
                counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (broker_module, client_module):
        wrap(module, "encode_packet")
        wrap(module, "decode_packet")
    for module in (runner, edge, fog, cloud, user):
        for name in ("encode_event", "decode_event"):
            if hasattr(module, name):
                wrap(module, name)
    # the links' DISCONNECTs at the end are not part of any round trip
    close = Deployment.close

    def closing(self):
        counting["on"] = False
        close(self)

    monkeypatch.setattr(Deployment, "close", closing)
    return counts, counting


def _run_counted(config, calls, rate: float, qos: int):
    """Build the deployment, then count the codec calls of its run."""
    counts, counting = calls
    run = resolve_run(config, RunOverrides(mode="full", qos=qos, clock="event_time", duration_s=2))
    deployment = Deployment(config, run)
    counting["on"] = True
    return drive(deployment, rate), counts


def test_qos1_round_trip_calls(calls):
    report, counts = _run_counted(load_scenario(SCENARIOS / "bench.json"), calls, 150, qos=1)
    trips = report.round_trips["completed"]
    assert trips == report.round_trips["initiated"] == 300
    # edge -> broker PUBLISH and PUBACK, broker -> edge PUBLISH and PUBACK
    assert dict(counts) == {
        "encode_event": 2 * trips,  # probe, fog
        "decode_event": 2 * trips,  # fog, edge
        "encode_packet": 4 * trips,
        "decode_packet": 4 * trips,
    }


def test_qos0_fan_out_encoded_once(calls, tmp_path):
    doc = json.loads((SCENARIOS / "bench.json").read_text("utf-8"))
    doc["topology"]["fogs"][0]["patterns"] = [
        str(SCENARIOS / path) for path in doc["topology"]["fogs"][0]["patterns"]
    ]
    # a second edge behind the same fog, with no simulator: it only listens
    second = json.loads(json.dumps(doc["topology"]["edges"][0]).replace('"e1', '"e2'))
    doc["topology"]["edges"].append(second)
    path = tmp_path / "bench_two_edges.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, counts = _run_counted(load_scenario(path), calls, 150, qos=0)
    inputs = report.round_trips["initiated"]
    assert inputs == report.round_trips["completed"] == 300
    # each fog output reaches both edges from one encoding
    assert counts["encode_packet"] == 2 * inputs  # the edge's PUBLISH, the fog output
    assert counts["decode_packet"] == 3 * inputs  # at the broker, at each edge
    assert counts["decode_event"] == 3 * inputs  # at the fog, at each edge
