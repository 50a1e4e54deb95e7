#!/usr/bin/env python3
"""Benchmark of the atmosphere testbed: four workloads through the program's
own ``load_scenario`` / ``run_scenario``, each run in a fresh worker process.

    python3 perfbench/run.py                      # every workload, then a traced run of each
    python3 perfbench/run.py --workload echo-qos1 --seed 1 --seconds 20 --trace 0

With ``--workload`` it runs that one workload and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a traced
run with ``--trace 1``. It exits non-zero if any output check fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
# set-up is timed in the measuring worker and in this many more fresh ones
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150

# metric names and units, as BENCHMARK.json at the root of the repo declares them
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class BenchError(Exception):
    """The benchmark could not run: no program to measure, or a worker died."""


def worker(spec_path: Path, seconds: float, trace: int, setup_only: bool = False) -> dict:
    """Run one worker process to its end and return its result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--spec", str(spec_path),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the measuring worker, then the set-up probes."""
    spec = workloads.prepare(name, seed)
    spec_path = workloads.RUNS_DIR / f"{name}-{seed}" / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    main = worker(spec_path, seconds, trace)
    probes = [worker(spec_path, seconds, 0, setup_only=True) for _ in range(SETUP_PROBES)]
    startups = probes + ([] if trace else [{"setup_s": main["setup_s"], **main["startup"]}])
    main["setup_s"] = statistics.median(s["setup_s"] for s in startups)
    main["startup"] = {key: statistics.median(s[key] for s in startups) for key in main["startup"]}
    metrics = {
        "events_per_s": main["events_per_s"],
        "cpu_ms_per_event": main["cpu_ms_per_event"],
        "latency_p50_ms": main["latency_p50_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": main["setup_s"],
    }
    if trace:
        layers = dict(main["layers"])
        layers["atmosphere.import_ms"] = main["startup"]["import_ms"]
        layers["harness.load_scenario_ms"] = main["startup"]["load_scenario_ms"]
        layers["harness.deployment_build_ms"] = main["startup"]["deployment_build_ms"]
        main["layers"] = layers
    main["metrics"] = metrics
    main["workload"] = name
    main["seed"] = seed
    main["correct"] = not main["problems"]
    return main


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(result: dict) -> None:
    lat = result["latency_ms"]
    print(f"{result['workload']} seed {result['seed']}: attempted {result['attempted']}, "
          f"failed {result['failed']}, rounds {result['rounds']}, "
          f"correct {'yes' if result['correct'] else 'NO'}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<22} {_fmt(result['metrics'][name]):>12} {unit}")
    tails = [f"latency over {lat['count']} samples"]
    for key in ("p99", "p99.9"):
        if key in lat:
            tails.append(f"{key} {_fmt(lat[key])} ms")
    print("  " + ", ".join(tails))
    for key in ("send_lag_ms", "in_system_ms"):
        if key in result:
            part = result[key]
            print(f"  {key[:-3]}: p50 {_fmt(part['p50'])} ms, p99 {_fmt(part.get('p99'))} ms "
                  f"over {part['count']} samples")
    if "open_partials" in result:
        print(f"  open partial matches reached: {result['open_partials']}")


def print_layers(result: dict, untraced: dict | None) -> None:
    print(f"{result['workload']} seed {result['seed']} (traced): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {'yes' if result['correct'] else 'NO'}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    layers = result["layers"]
    for name, unit in PER_LAYER.items():
        print(f"  {name:<32} {_fmt(layers[name]):>12} {unit}")
    print(f"  {'nodes.cloud.us':<32} {_fmt(layers['nodes.cloud.us']):>12} us/input")
    traced = result["metrics"]
    line = (f"  traced events_per_s {_fmt(traced['events_per_s'])} 1/s, "
            f"cpu_ms_per_event {_fmt(traced['cpu_ms_per_event'])} ms")
    if untraced is not None:
        # an open loop's throughput is its offered rate, so the CPU figure
        # shows the overhead there
        plain = untraced["metrics"]
        line += (f"; tracing overhead {1 - traced['events_per_s'] / plain['events_per_s']:.1%} "
                 f"of throughput, {traced['cpu_ms_per_event'] / plain['cpu_ms_per_event'] - 1:+.1%} CPU per event")
    print(line)
    print(f"  spans: {result['trace_file']}")


def result_line(result: dict, trace: int) -> str:
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in END_TO_END.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time of one run, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "atmosphere" / "__init__.py").is_file() or \
            not (ROOT / "scenarios" / "bench.json").is_file():
        print(f"no atmosphere source tree next to {BENCH_DIR.name}/; nothing to measure",
              file=sys.stderr)
        return 2
    # byte-compile up front so that no run's set-up time includes compiling
    compileall.compile_dir(ROOT / "src", quiet=2)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            if args.trace:
                print_layers(result, None)
            else:
                print_end_to_end(result)
            print(result_line(result, args.trace))
            return 0 if result["correct"] else 1
        plain = {}
        for name in workloads.NAMES:
            plain[name] = run_workload(name, args.seed, args.seconds, 0)
            print_end_to_end(plain[name])
        traced = {}
        for name in workloads.NAMES:
            traced[name] = run_workload(name, args.seed, args.seconds, 1)
            print_layers(traced[name], plain[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in list(plain.values()) + list(traced.values()))
    print("all output checks passed" if correct else "OUTPUT CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
