"""The benchmark's four workloads: their inputs, made from a seed, and the
settings of one round.

A round is one ``run_scenario`` call. Every workload repeats identical rounds
until the run's seconds are used up, and the worker reports the median over
rounds, which keeps a slow spell of the host from moving a whole run. Every
input the program sees is fixed by the seed: the scenario files written
here, and the simulator seed passed as ``RunOverrides.seed``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / ".runs"

NAMES = ("echo-qos1", "cep-correlate", "hospital-ward", "echo-paced")

# echo-qos1: closed loop over scenarios/bench.json, 2000 events per logical
# second for 2 logical seconds = 4000 round trips per round.
ECHO_RATE = 2000
ECHO_ROUND_S = 2
# echo-paced: open loop well below saturation (about 0.5 ms of CPU per
# event), 2 s rounds after a 1 s warm-up.
PACED_RATE = 500
PACED_ROUND_S = 2
PACED_WARMUP_S = 1

# cep-correlate: one 24 h batch per round; ids drawn from CEP_IDS values,
# CEP_OPEN_P of the events open a partial match.
DAY_MS = 24 * 3600 * 1000
CEP_IDS = 3000
CEP_OPEN_P = 0.6
CEP_EVENTS_PER_DAY = 2000
CEP_STATUS_PERIOD_MS = 600_000

# hospital-ward: FLOORS x ROOMS_PER_FLOOR rooms, six agents each, one vent
# sample per room every VENT_GAP_MS for WARD_HOURS simulated hours. Floor f
# gets LOW_SAMPLES[f - 1] readings at or below the threshold, placed by the
# seed, so on average 2, 4, 5 and 7 per floor and ten-minute batch: around
# the alert count of four, with the same total in every seed.
FLOORS = 4
ROOMS_PER_FLOOR = 8
WARD_HOURS = 1
VENT_GAP_MS = 30_000
LOW_SAMPLES = (12, 24, 30, 42)
O2_THRESHOLD = 90
LAB_BURST = 1001  # laboratory demand above the VeryHighDemand count of 1000


def prepare(name: str, seed: int) -> dict:
    """Write the workload's input files for ``seed`` and return its spec.

    The spec is plain JSON: the worker process reads it back.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    out_dir = RUNS_DIR / f"{name}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = str(ROOT / "scenarios" / "bench.json")
    if name == "echo-qos1":
        spec = {
            "scenario": bench,
            "round": _overrides(seed, ECHO_RATE, ECHO_ROUND_S, 1, "event_time"),
        }
    elif name == "echo-paced":
        spec = {
            "scenario": bench,
            "warmup": _overrides(seed, PACED_RATE, PACED_WARMUP_S, 1, "processing_time"),
            "round": _overrides(seed, PACED_RATE, PACED_ROUND_S, 1, "processing_time"),
        }
    elif name == "cep-correlate":
        scenario = out_dir / "scenario.json"
        _write(scenario, correlate_scenario())
        rate = CEP_EVENTS_PER_DAY / (DAY_MS / 1000)
        spec = {
            "scenario": str(scenario),
            "warmup": _overrides(seed, rate, DAY_MS / 1000 / 8, 0, "event_time"),
            "round": _overrides(seed, rate, DAY_MS / 1000, 0, "event_time"),
        }
    else:
        scenario = out_dir / "scenario.json"
        doc = ward_scenario(seed)
        _write(scenario, doc)
        spec = {
            "scenario": str(scenario),
            "round": {"seed": seed},
        }
    spec["workload"] = name
    spec["seed"] = seed
    spec["watch_actuators"] = ["external_light", "internal_light"] if name == "hospital-ward" else []
    return spec


def _overrides(seed: int, rate: float, duration_s: float, qos: int, clock: str) -> dict:
    return {
        "rate": rate,
        "duration_s": duration_s,
        "qos": qos,
        "mode": "full",
        "clock": clock,
        "seed": seed,
        "warmup_s": 0,
    }


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def correlate_scenario() -> dict:
    """One edge streaming ``Reading`` events to a fog that echoes each one and
    correlates an opening and a closing reading of the same id per day.

    The ids and the open flags come from the simulator, seeded by the run
    seed. The edge's status agent reports to the gateway every ten simulated
    minutes, so the agent layer stays in the profile without dominating it.
    """
    return {
        "name": "bench-correlate",
        "schemas": {"Reading": {"rid": "integer", "id": "integer", "open": "boolean"}},
        "topology": {
            "fogs": [{"id": "f1", "patterns": [str(BENCH_DIR / "patterns" / "correlate.epl")]}],
            "edges": [
                {
                    "id": "e1",
                    "fog": "f1",
                    "agents": [
                        {
                            "id": "e1.status",
                            "rules": [
                                {
                                    "id": "status",
                                    "trigger": {"kind": "timer", "period_ms": CEP_STATUS_PERIOD_MS},
                                    "actions": [
                                        {
                                            "kind": "send",
                                            "receivers": ["svc"],
                                            "stream": "Status",
                                            "fields": {"value": "$value"},
                                        }
                                    ],
                                }
                            ],
                        }
                    ],
                }
            ],
        },
        "simulators": [
            {
                "edge": "e1",
                "stream": "Reading",
                "rate": 1,
                "seed": 11,
                "fields": {
                    "rid": {"kind": "sequence"},
                    "id": {"kind": "uniform_int", "low": 1, "high": CEP_IDS},
                    "open": {"kind": "bernoulli", "p": CEP_OPEN_P},
                },
            }
        ],
        "run": {"duration_s": 1, "qos": 0, "mode": "full", "clock": "event_time", "seed": 0, "warmup_s": 0},
    }


def _room_agents(room: str, floor: int) -> list:
    """The six devices of one room, as in scenarios/hospital.json."""
    below = "value <= 90"
    return [
        {"id": f"{room}.vent", "sensors": ["o2"], "rules": [{
            "id": "share-o2", "trigger": {"kind": "sensor", "sensor": "o2"},
            "actions": [{"kind": "send", "receivers": [f"{room}.light", f"{room}.access", f"{room}.window"],
                         "stream": "O2Level", "fields": {"value": "$value"}}]}]},
        {"id": f"{room}.light", "attributes": {"floor": floor}, "actuators": {"external_light": False},
         "rules": [{"id": "light-on", "trigger": {"kind": "message", "stream": "O2Level"}, "guard": below,
                    "actions": [{"kind": "actuate", "actuator": "external_light", "value": True},
                                {"kind": "publish_fog", "topic": "f1/in", "stream": "ExternalLight",
                                 "fields": {"isOn": True, "floor": "$attr.floor"}}]}]},
        {"id": f"{room}.access", "actuators": {"door_lock": True},
         "rules": [{"id": "unlock", "trigger": {"kind": "message", "stream": "O2Level"}, "guard": below,
                    "actions": [{"kind": "actuate", "actuator": "door_lock", "value": False}]}]},
        {"id": f"{room}.window", "actuators": {"window": "closed"},
         "rules": [{"id": "ventilate", "trigger": {"kind": "message", "stream": "O2Level"}, "guard": below,
                    "actions": [{"kind": "actuate", "actuator": "window", "value": "open"}]}]},
        {"id": f"{room}.intlight", "actuators": {"internal_light": False},
         "rules": [{"id": "int-on", "trigger": {"kind": "message", "stream": "InternalLightAlert"},
                    "actions": [{"kind": "actuate", "actuator": "internal_light", "value": True}]}]},
        {"id": f"{room}.panel", "actuators": {"panel_note": ""},
         "rules": [{"id": "stock-note", "trigger": {"kind": "message", "stream": "StockBreakNotice"},
                    "actions": [{"kind": "actuate", "actuator": "panel_note", "value": "medicine stock break"},
                                {"kind": "log", "template": "stock break notice shown on panel"}]}]},
    ]


def ward_scenario(seed: int) -> dict:
    """A scale-up of scenarios/hospital.json made from ``seed``.

    The seed places each room's samples within their 30 s slots, picks which
    of them read low, and draws the readings. The cloud feed gives one medicine id demand, shortage and respiratory use
    (the stock break) and two decoy ids one link short of it.
    """
    rng = random.Random(seed)
    duration_ms = WARD_HOURS * 3600 * 1000
    base = json.loads((ROOT / "scenarios" / "hospital.json").read_text("utf-8"))
    patterns = ROOT / "scenarios" / "patterns"
    fogs = [
        {"id": "f1", "patterns": [str(patterns / "hospital_fog.epl")], "extra_inputs": ["c1/out/fog"]},
        {"id": "f2", "patterns": [], "extra_inputs": ["f1/out/fog"]},
    ]
    clouds = base["topology"]["clouds"]
    clouds[0]["patterns"] = [str(patterns / "hospital_cloud.epl")]
    edges = []
    timeline = []
    per_room = duration_ms // VENT_GAP_MS
    for floor in range(1, FLOORS + 1):
        rooms = [f"r{floor}{index:02d}" for index in range(1, ROOMS_PER_FLOOR + 1)]
        slots = [(room, k) for room in rooms for k in range(per_room)]
        low = set(rng.sample(slots, LOW_SAMPLES[floor - 1]))
        for room in rooms:
            edges.append({"id": room, "fog": "f1", "agents": _room_agents(room, floor)})
        for room, k in slots:
            if (room, k) in low:
                value = round(rng.uniform(O2_THRESHOLD - 4, O2_THRESHOLD), 1)
            else:
                value = round(rng.uniform(O2_THRESHOLD + 0.1, O2_THRESHOLD + 9), 1)
            timeline.append({"at_ms": k * VENT_GAP_MS + rng.randrange(VENT_GAP_MS), "kind": "sensor",
                             "edge": room, "agent": f"{room}.vent", "sensor": "o2", "value": value})
    ids = rng.sample([f"m{i}" for i in range(1, 100)], 3)
    stock_break, no_shortage, no_demand = ids
    start = rng.randrange(60_000, 600_000)

    def feed(at_ms, site, med, repeat=1, interval_ms=0, category=None):
        raw = {"medId": med, "site": site}
        if category is not None:
            raw["category"] = category
        entry = {"at_ms": at_ms, "kind": "source", "topic": f"c1/in/{site}", "raw": raw}
        if repeat > 1:
            entry.update(repeat=repeat, interval_ms=interval_ms)
        timeline.append(entry)

    # all within the first hour, so the three hourly counts meet in one
    # 24 h correlation window in the order the conjunction needs
    feed(start, "laboratory", stock_break, LAB_BURST, 2)
    feed(start + 10_000, "laboratory", no_shortage, LAB_BURST, 2)
    feed(start + 20_000, "laboratory", no_demand, 20, 2)
    feed(start + 60_000, "pharmacy", stock_break, 5, 1000)
    feed(start + 70_000, "pharmacy", no_shortage, 8, 1000)
    feed(start + 80_000, "pharmacy", no_demand, 5, 1000)
    for med in ids:
        feed(start + 120_000, "hospital", med, category="respiratory")
    timeline.sort(key=lambda entry: entry["at_ms"])
    return {
        "name": "bench-ward",
        "schemas": base["schemas"],
        "topology": {"fogs": fogs, "clouds": clouds, "edges": edges, "user": {"id": "u", "fog": "f1"}},
        "simulators": [],
        "timeline": timeline,
        "run": {"duration_s": duration_ms / 1000, "qos": 0, "mode": "full", "clock": "event_time",
                "seed": seed, "warmup_s": 0},
    }
