"""Smoke test of ``scripts/outputs_digest.py``, the output-equality check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from atmosphere.harness import runner

ROOT = Path(__file__).resolve().parent.parent


def test_hospital_digests_are_stable(capsys):
    spec = importlib.util.spec_from_file_location("outputs_digest", ROOT / "scripts" / "outputs_digest.py")
    outputs_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs_digest)
    close = runner.Deployment.close
    runs = []
    for _ in range(2):
        assert outputs_digest.main([str(ROOT / "scenarios" / "hospital.json")]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    digests, names = zip(*(line.split("  ") for line in runs[0]))
    assert names == ("emissions", "alerts", "notifications", "effects",
                     "counters.acl", "counters.puback", "counters.publish", "round_trips")
    assert all(len(digest) == 64 for digest in digests)
    assert runs[0] == runs[1]
    assert runner.Deployment.close is close  # the script restores what it patches
