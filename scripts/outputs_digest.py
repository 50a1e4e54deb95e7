#!/usr/bin/env python3
"""Print one SHA-256 digest per output of an event-time scenario run.

    python3 scripts/outputs_digest.py scenarios/hospital.json
    python3 scripts/outputs_digest.py scenarios/bench.json --mode agents-only --qos 1

The run is one ``run_scenario`` on the event-time clock, with the scenario's
own rate and duration. The lines cover the emissions, alerts, notifications,
the edges' effect logs, each counter and the round trips (counts and
records). Two versions of the program give equal outputs for a scenario
exactly when they print the same lines, so ``diff`` the output of one
checkout against another's to check that a change keeps outputs unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    parser.add_argument("--mode", choices=["full", "cep-only", "agents-only"], default=None)
    parser.add_argument("--qos", type=int, choices=[0, 1], default=None)
    args = parser.parse_args(argv)
    for name, digest in run_digests(args.scenario, args.seed, args.mode, args.qos):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
