"""Smoke test of ``scripts/outputs_digest.py``, the output-equality check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from atmosphere.harness import runner

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("outputs_digest", ROOT / "scripts" / "outputs_digest.py")
    outputs_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs_digest)
    return outputs_digest


def test_hospital_digests_are_stable(capsys):
    outputs_digest = load_script()
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


def test_guard_prints_the_pinned_digests(capsys):
    """The standard runs' outputs equal those pinned in
    ``tests/data/outputs_digest_guard.txt``; a change that alters an output
    on purpose regenerates that file with ``outputs_digest.py --guard``."""
    assert load_script().main(["--guard"]) == 0
    pinned = (ROOT / "tests" / "data" / "outputs_digest_guard.txt").read_text("utf-8")
    assert capsys.readouterr().out.splitlines() == pinned.splitlines()
