"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/test_checks.py

Each checker must agree with a tiny input worked by hand and must reject the
same output with one thing wrong.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

DAY = workloads.DAY_MS


# -- echo ----------------------------------------------------------------------


def test_echo_accepts_every_round_trip_once():
    receipts = Counter({1: 1, 2: 1, 3: 1})
    assert checks.check_echo(3, receipts, {"publish": 6, "puback": 6}, qos=1) == []
    assert checks.check_echo(3, receipts, {"publish": 6, "puback": 0}, qos=0) == []


def test_echo_rejects_one_dropped_echo():
    receipts = Counter({1: 1, 3: 1})
    problems = checks.check_echo(3, receipts, {"publish": 4, "puback": 4}, qos=1)
    assert any("never came back" in p for p in problems)


def test_echo_rejects_a_duplicate_and_a_saturated_run():
    receipts = Counter({1: 1, 2: 2})
    problems = checks.check_echo(2, receipts, {"publish": 4, "puback": 4}, qos=1, saturated=True)
    assert any("more than once" in p for p in problems)
    assert any("saturation" in p for p in problems)


def test_echo_rejects_wrong_packet_counts():
    receipts = Counter({1: 1})
    assert checks.check_echo(1, receipts, {"publish": 2, "puback": 0}, qos=1)
    assert checks.check_echo(1, receipts, {"publish": 3, "puback": 0}, qos=0)


# -- correlation ---------------------------------------------------------------

# id 7 opens twice and closes twice in day 0: one match (the second
# completion is a duplicate for id 7 in the same window); id 8 closes with
# nothing open; id 7 closes again on day 1, where the partials are gone.
READINGS = [
    (0, 7, True),
    (10, 7, True),
    (20, 7, False),
    (30, 8, False),
    (40, 7, False),
    (DAY + 5, 7, False),
    (DAY + 6, 9, True),
    (DAY + 7, 9, False),
]


def test_replay_worked_by_hand():
    # two open for id 7 at most, then one consumed, then the other
    assert checks.replay_correlation(READINGS, DAY) == (Counter({(0, 7): 1, (1, 9): 1}), 2)


def test_correlation_accepts_the_program_output():
    assert checks.check_correlation(READINGS, [(20, 7), (DAY + 7, 9)], DAY) == []


def test_correlation_rejects_one_extra_match():
    problems = checks.check_correlation(READINGS, [(20, 7), (40, 7), (DAY + 7, 9)], DAY)
    assert problems and "1 extra" in problems[0]


def test_correlation_rejects_one_missing_match():
    problems = checks.check_correlation(READINGS, [(20, 7)], DAY)
    assert problems and "1 missing" in problems[0]


# -- hospital ward -------------------------------------------------------------

BATCH = checks.WARD_BATCH_MS


def _room(room, floor):
    return {"id": room, "fog": "f1", "agents": [{"id": f"{room}.light", "attributes": {"floor": floor}}]}


def _sample(room, at_ms, value):
    return {"at_ms": at_ms, "kind": "sensor", "edge": room, "agent": f"{room}.vent", "sensor": "o2",
            "value": value}


def _source(at_ms, site, med, repeat=1, category=None):
    raw = {"medId": med, "site": site}
    if category:
        raw["category"] = category
    entry = {"at_ms": at_ms, "kind": "source", "topic": f"c1/in/{site}", "raw": raw}
    if repeat > 1:
        entry.update(repeat=repeat, interval_ms=2)
    return entry


# Floor 3 has four low samples in the first batch (an alert at its end) and
# three in the second (no alert); floor 2 has one. m1 has demand, shortage and
# respiratory use in the first hour; m2 lacks the demand.
WARD = {
    "topology": {"edges": [_room("r301", 3), _room("r302", 3), _room("r201", 2)]},
    "timeline": [
        _sample("r301", 1_000, 88.0), _sample("r301", 2_000, 90.0), _sample("r302", 3_000, 85.5),
        _sample("r302", 4_000, 89.9), _sample("r301", 5_000, 95.0), _sample("r201", 6_000, 80.0),
        _sample("r301", BATCH + 1, 85.0), _sample("r302", BATCH + 2, 85.0),
        _sample("r302", BATCH + 3, 85.0),
        _source(10_000, "laboratory", "m1", repeat=1001),
        _source(20_000, "pharmacy", "m1", repeat=5),
        _source(20_000, "pharmacy", "m2", repeat=5),
        _source(30_000, "hospital", "m1", category="respiratory"),
        _source(30_000, "hospital", "m2", category="respiratory"),
    ],
}
ALERTS = [
    {"stream": "SurveillanceUnit", "fields": {"floor": 3, "timestamp": BATCH}},
    {"stream": "StockBreakAlert", "fields": {"id": "m1"}},
]
LOW = {("r301", 1_000), ("r301", 2_000), ("r302", 3_000), ("r302", 4_000), ("r201", 6_000),
       ("r301", BATCH + 1), ("r302", BATCH + 2), ("r302", BATCH + 3)}
INTERNAL = {room: Counter({BATCH: 1}) for room in ("r301", "r302", "r201")}


def test_ward_expectations_worked_by_hand():
    alerts, low, breaks = checks.ward_expectations(WARD)
    assert alerts == Counter({(3, BATCH): 1})
    assert low == LOW
    assert breaks == {"m1"}


def test_ward_accepts_the_program_output():
    assert checks.check_ward(WARD, ALERTS, LOW, INTERNAL) == ([], 0)


def test_ward_rejects_one_missing_alert():
    problems, _ = checks.check_ward(WARD, ALERTS[1:], LOW, INTERNAL)
    assert any("surveillance alerts" in p and "1 missing" in p for p in problems)


def test_ward_rejects_a_light_left_off_and_a_room_that_missed_the_alert():
    internal = dict(INTERNAL, r201=Counter())
    problems, missed = checks.check_ward(WARD, ALERTS, LOW - {("r302", 4_000)}, internal)
    assert missed == 1
    assert any("never lit" in p for p in problems)
    assert any("internal lights" in p for p in problems)


def test_ward_rejects_a_second_stock_break():
    alerts = ALERTS + [{"stream": "StockBreakAlert", "fields": {"id": "m2"}}]
    problems, _ = checks.check_ward(WARD, alerts, LOW, INTERNAL)
    assert any("stock-break" in p for p in problems)


def test_generated_ward_has_one_stock_break_and_fixed_size():
    for seed in (1, 2):
        doc = workloads.ward_scenario(seed)
        alerts, low, breaks = checks.ward_expectations(doc)
        assert len(breaks) == 1
        assert len(low) == sum(workloads.LOW_SAMPLES)
        assert alerts
    assert workloads.ward_scenario(3) == workloads.ward_scenario(3)
