"""perfbench's traced run wraps each layer's entry points, looked up by
name; a rename that would break it fails here first."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_finds_every_entry_point():
    # in a child process: install replaces methods on the package's classes
    path = os.pathsep.join(str(ROOT / name) for name in ("src", "perfbench"))
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
