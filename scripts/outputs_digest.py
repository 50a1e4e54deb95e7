#!/usr/bin/env python3
"""Print one SHA-256 digest per output of an event-time scenario run.

    python3 scripts/outputs_digest.py scenarios/hospital.json
    python3 scripts/outputs_digest.py scenarios/bench.json --mode agents-only --qos 1
    python3 scripts/outputs_digest.py --guard

The run is one ``run_scenario`` on the event-time clock, with the scenario's
own rate and duration. The lines cover the emissions, alerts, notifications,
the edges' effect logs, each counter and the round trips (counts and
records). Two versions of the program give equal outputs for a scenario
exactly when they print the same lines, so ``diff`` the output of one
checkout against another's to check that a change keeps outputs unchanged.

``--guard`` digests the standard set in one call, each line labelled with its
run: ``scenarios/hospital.json`` at its own QoS and at QoS 1; the perfbench
hospital ward (``perfbench.workloads.ward_scenario``) at seeds 1 and 2, each
at QoS 0 and 1; and ``scenarios/bench.json`` in full mode at QoS 1 and 0,
and agents-only and cep-only at QoS 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from atmosphere.harness import RunOverrides, load_scenario, run_scenario  # noqa: E402
from atmosphere.harness import runner  # noqa: E402


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digests(scenario: str, seed: int | None, mode: str | None, qos: int | None) -> list[tuple[str, str]]:
    """(name, digest) for each output of one event-time run of ``scenario``."""
    effects: dict[str, list] = {}
    close = runner.Deployment.close

    def close_keeping_effects(deployment):
        for edge_id, edge in deployment.edges.items():
            effects[edge_id] = [repr(effect) for effect in edge.effect_log]
        close(deployment)

    overrides = RunOverrides(seed=seed, mode=mode, qos=qos, clock="event_time")
    runner.Deployment.close = close_keeping_effects
    try:
        report = run_scenario(load_scenario(scenario), overrides)
    finally:
        runner.Deployment.close = close
    lines = [
        ("emissions", _digest(report.emissions)),
        ("alerts", _digest(report.alerts)),
        ("notifications", _digest(report.notifications)),
        ("effects", _digest(effects)),
    ]
    lines += [(f"counters.{name}", _digest(value)) for name, value in sorted(report.counters.items())]
    lines.append(("round_trips", _digest([report.round_trips, [repr(r) for r in report.records]])))
    return lines


def guard_digests() -> list[tuple[str, str]]:
    """(label, digest) for each output of each run of the standard guard set."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    scenarios = ROOT / "scenarios"
    runs = [("hospital", scenarios / "hospital.json", None, None),
            ("hospital qos1", scenarios / "hospital.json", None, 1)]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2):
            ward = Path(tmp) / f"ward{seed}.json"
            ward.write_text(json.dumps(workloads.ward_scenario(seed)), encoding="utf-8")
            runs += [(f"ward{seed} qos{qos}", ward, None, qos) for qos in (0, 1)]
        runs += [(f"bench {mode} qos{qos}", scenarios / "bench.json", mode, qos)
                 for mode, qos in (("full", 1), ("full", 0), ("agents-only", 1), ("cep-only", 1))]
        for label, scenario, mode, qos in runs:
            lines += [(f"{label} {name}", digest)
                      for name, digest in run_digests(str(scenario), None, mode, qos)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", nargs="?", help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    parser.add_argument("--mode", choices=["full", "cep-only", "agents-only"], default=None)
    parser.add_argument("--qos", type=int, choices=[0, 1], default=None)
    parser.add_argument("--guard", action="store_true", help="digest the standard guard set instead")
    args = parser.parse_args(argv)
    if args.guard == (args.scenario is not None):
        parser.error("give either a scenario or --guard")
    lines = guard_digests() if args.guard else run_digests(args.scenario, args.seed, args.mode, args.qos)
    for name, digest in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
