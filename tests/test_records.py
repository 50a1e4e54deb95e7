"""The value classes' repr, equality, hash and pickling, which output digests,
AST comparisons and split runs read; and an import free of ``dataclasses``."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from atmosphere.agents import Actuation
from atmosphere.agents.exprs import Lit
from atmosphere.agents.model import MessageTrigger, SensorTrigger
from atmosphere.events import Event
from atmosphere.harness.metrics import MetricsRecord, RunReport
from atmosphere.mqtt.packets import Publish
from atmosphere.patterns.model import CurrentTimestamp, FieldPath, Literal, StarOf

ROOT = Path(__file__).resolve().parent.parent


def test_repr_names_class_and_fields():
    assert repr(MetricsRecord(7, 1000, 1004, 1, "full")) == (
        "MetricsRecord(round_trip_id=7, sent_at=1000, received_at=1004, qos=1, mode='full')"
    )
    assert repr(Actuation("e1.lamp", "light", True)) == (
        "Actuation(agent_id='e1.lamp', actuator='light', value=True)"
    )
    assert repr(Publish("a/b", b"{}", qos=1, packet_id=9)) == (
        "Publish(topic='a/b', payload=b'{}', qos=1, packet_id=9, dup=False)"
    )


def test_classes_with_equal_fields_compare_unequal():
    assert CurrentTimestamp("x") != StarOf("x")
    assert Literal(1) != Lit(1)
    assert SensorTrigger("s") != MessageTrigger("s")


def test_equal_nodes_hash_equal():
    assert FieldPath("a", "floor") == FieldPath("a", "floor")
    assert hash(FieldPath("a", "floor")) == hash(FieldPath("a", "floor"))
    assert len({StarOf("a"), StarOf("a"), StarOf("b")}) == 2


def test_event_fields_compare_as_a_mapping():
    first = Event("Light", {"isOn": True, "floor": 3}, 1000, "e1")
    assert first == Event("Light", {"floor": 3, "isOn": True}, 1000, "e1")
    assert first != Event("Light", {"floor": 3, "isOn": True}, 1001, "e1")


def test_run_report_survives_pickling():
    records = [MetricsRecord(i, 10 * i, 10 * i + 3, 1, "full") for i in range(3)]
    report = RunReport("bench", "full", 1, "event_time", 0, 1.0, 0.0, records=records,
                       counters={"publish": 6})
    restored = pickle.loads(pickle.dumps(report))
    assert restored.records == records
    assert restored.summary() == report.summary()


def test_import_loads_no_dataclasses():
    code = ("import sys, atmosphere, atmosphere.harness; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
