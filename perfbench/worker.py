"""One worker process of the benchmark: set up, one untimed warm-up round,
then measured rounds, with every round's outputs checked.

Run by ``run.py``, one worker at a time, each in a fresh interpreter so that
set-up time includes the package import and peak RSS is this run's alone.
Everything is measured from outside the program: a ``MetricsSink`` subclass
and a ``Deployment`` subclass are put in place of the runner's own, and
stamp the moments the program reaches. Prints one JSON object as its last
line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

INPUT_KINDS = ("sensor", "source")  # timeline entries that count as inputs


class SetupDone(Exception):
    """Raised from inside ``run_scenario`` once the deployment is ready."""


class Probe:
    """Stamps of one round, taken through the substituted classes."""

    def __init__(self, watch_actuators, setup_only: bool):
        self.watch = set(watch_actuators)
        self.setup_only = setup_only
        self.begin()

    def begin(self) -> None:
        self.build_start = self.build_end = None
        self.ready = self.ready_cpu = None
        self.deployment = None
        self.sink = None
        self.injected: dict = {}  # (edge, sample at_ms) -> wall time
        self.actuations: list = []  # (actuator, edge, stimulus at_ms, wall time)

    def on_deployment(self, deployment) -> None:
        self.deployment = deployment
        if not self.watch:
            return
        for edge in deployment.edges.values():
            self._watch_injections(edge)
            for agent in edge.agents.values():
                actuators = self.watch & set(agent.actuators)
                if actuators:
                    self._watch_agent(edge.node_id, agent, actuators)

    def _watch_injections(self, edge) -> None:
        inject = edge.inject_sensor
        stamps = self.injected

        def stamped(agent_id, sensor, value, at):
            stamps[(edge.node_id, at)] = time.monotonic()
            inject(agent_id, sensor, value, at=at)

        edge.inject_sensor = stamped

    def _watch_agent(self, edge_id: str, agent, actuators: set) -> None:
        step = agent.step
        log = self.actuations

        def watched(stimulus):
            effects = step(stimulus)
            now = time.monotonic()
            at = getattr(stimulus, "sent_at", getattr(stimulus, "at", None))
            for effect in effects:
                actuator = getattr(effect, "actuator", None)
                if actuator in actuators:
                    log.append((actuator, edge_id, at, now))
            return effects

        agent.step = watched

    def on_ready(self, sink) -> None:
        self.ready = time.monotonic()
        self.ready_cpu = time.process_time()
        self.sink = sink
        if self.setup_only:
            self.deployment.close()
            raise SetupDone


def substitute(probe: Probe, runner, MetricsSink) -> None:
    """Put the stamping sink and deployment in place of the runner's own."""
    base = runner.Deployment

    class ProbedDeployment(base):
        def __init__(self, *args, **kwargs):
            probe.build_start = time.monotonic()
            super().__init__(*args, **kwargs)
            probe.build_end = time.monotonic()
            probe.on_deployment(self)

    class StampingSink(MetricsSink):
        def __init__(self, qos, mode):
            super().__init__(qos, mode)
            self.sent_wall: dict = {}
            self.recv_wall: dict = {}
            self.receipts: Counter = Counter()
            self._stamp_lock = threading.Lock()
            probe.on_ready(self)

        def sent(self, round_trip_id, at_ms):
            self.sent_wall[round_trip_id] = time.monotonic()
            super().sent(round_trip_id, at_ms)

        def received(self, round_trip_id, at_ms):
            now = time.monotonic()
            with self._stamp_lock:
                self.receipts[round_trip_id] += 1
                self.recv_wall.setdefault(round_trip_id, now)
            super().received(round_trip_id, at_ms)

    runner.Deployment = ProbedDeployment
    runner.MetricsSink = StampingSink


class Context:
    """What every round of one worker shares."""

    def __init__(self, spec: dict, run_scenario, config, probe: Probe):
        self.workload = spec["workload"]
        self.scenario_doc = json.loads(Path(spec["scenario"]).read_text("utf-8"))
        self.run_scenario = run_scenario
        self.config = config
        self.probe = probe
        self.timeline_inputs = sum(1 for entry in config.timeline if entry.kind in INPUT_KINDS)


def run_round(ctx: Context, overrides) -> dict:
    """One ``run_scenario`` call: its run-phase time, inputs, latencies and checks."""
    probe = ctx.probe
    probe.begin()
    # free the last round's deployment (its nodes form reference cycles) so
    # that no round pays for collecting another round's garbage
    gc.collect()
    report = ctx.run_scenario(ctx.config, overrides)
    end = time.monotonic()
    end_cpu = time.process_time()
    sink = probe.sink
    deployment = probe.deployment
    initiated = sink.initiated
    result = {
        "inputs": initiated + ctx.timeline_inputs,
        "wall_s": end - probe.ready,
        "cpu_s": end_cpu - probe.ready_cpu,
        "build_s": probe.build_end - probe.build_start,
        "publish_out": deployment.broker.counters["publish_out"],
        "acl_frames": sum(g.counters["acl_in"] + g.counters["acl_out"] for g in deployment.gateways.values()),
        "latency_ms": array("d"),
        "in_system_ms": array("d"),
        "send_lag_ms": array("d"),
        "problems": [],
        "failed": 0,
    }
    if initiated:
        paced = overrides.clock == "processing_time"
        for rid, received in sink.recv_wall.items():
            sent = sink.sent_wall[rid]
            result["in_system_ms"].append((received - sent) * 1000)
            if paced:
                # due: the clock origin, taken as the driver starts building,
                # plus the ideal schedule offset of the rid-th send
                due = probe.build_start + (rid - 1) / overrides.rate
                result["latency_ms"].append((received - due) * 1000)
                result["send_lag_ms"].append((sent - due) * 1000)
        if not paced:
            result["latency_ms"] = result["in_system_ms"]
        result["problems"] += checks.check_echo(initiated, sink.receipts, report.counters,
                                                overrides.qos, report.saturated)
        result["failed"] += initiated - len(sink.recv_wall)
    if ctx.workload == "cep-correlate":
        readings = [(row["at"], row["fields"]["id"], row["fields"]["open"])
                    for row in report.emissions if row["pattern"] == "EchoReading"]
        emitted = [(row["at"], row["fields"]["id"])
                   for row in report.emissions if row["pattern"] == "CorrelateReadings"]
        result["problems"] += checks.check_correlation(readings, emitted, workloads.DAY_MS)
        result["open_partials"] = checks.replay_correlation(readings, workloads.DAY_MS)[1]
    if probe.watch:
        light_on = {}
        internal = defaultdict(Counter)
        for actuator, edge, at, wall in probe.actuations:
            if actuator == "external_light":
                light_on.setdefault((edge, at), wall)
            else:
                internal[edge][at] += 1
        problems, missed = checks.check_ward(ctx.scenario_doc, report.alerts, set(light_on), internal)
        result["problems"] += problems
        result["failed"] += missed
        result["in_system_ms"] = array("d", ((wall - probe.injected[key]) * 1000
                                             for key, wall in light_on.items() if key in probe.injected))
        result["latency_ms"] = result["in_system_ms"]
    dead = report.round_trips.get("dead_lettered", 0)
    if dead:
        result["problems"].append(f"{dead} dead letters")
        result["failed"] += dead
    return result


SAMPLE_KEYS = ("latency_ms", "in_system_ms", "send_lag_ms")


class Tail:
    """Samples pooled over every round in fixed memory: a count per
    logarithmic bucket 0.1% wide, so quantiles keep three significant digits.

    Keeping the samples themselves would make the worker's peak RSS grow
    with the number of rounds, that is with the program's speed.
    """

    WIDTH = math.log1p(0.001)

    def __init__(self):
        self.counts: Counter = Counter()
        self.n = 0

    def add(self, values) -> None:
        for value in values:
            self.counts[math.floor(math.log(max(value, 1e-6)) / self.WIDTH)] += 1
        self.n += len(values)

    def quantile(self, q: float) -> float:
        rank = min(self.n - 1, int(self.n * q))
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen > rank:
                return math.exp((bucket + 0.5) * self.WIDTH)
        raise ValueError("no samples")

    def summary(self) -> dict:
        """Median, p99 from 40 samples, p99.9 with ten samples beyond it, and the count."""
        out = {"count": self.n, "p50": self.quantile(0.5) if self.n else None}
        if self.n >= 40:
            out["p99"] = self.quantile(0.99)
        if self.n * 0.001 >= 10:
            out["p99.9"] = self.quantile(0.999)
        return out


def layer_metrics(tracer, rounds: list, in_system: Tail) -> dict:
    """Per-layer figures from the traced rounds, per input unless a ratio."""
    self_ns, calls, counts = tracer.totals()
    n = sum(r["inputs"] for r in rounds)

    def per_input(value):
        return value / n

    def us(layer):
        return self_ns[layer] / 1000 / n

    def ratio(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    out = {
        "mqtt.codec.calls": per_input(calls["mqtt.codec"]),
        "mqtt.codec.us": us("mqtt.codec"),
        "mqtt.codec.decode_useful_ratio": ratio("mqtt.codec.decode_useful", "mqtt.codec.decode_calls"),
        "mqtt.codec.decode_bytes": per_input(counts["mqtt.codec.decode_bytes"]),
        "mqtt.broker.us": us("mqtt.broker"),
        "mqtt.broker.match_calls": per_input(counts["mqtt.broker.match_calls"]),
        "mqtt.broker.match_hit_ratio": ratio("mqtt.broker.match_hits", "mqtt.broker.match_calls"),
        "mqtt.broker.publish_out": per_input(sum(r["publish_out"] for r in rounds)),
        "mqtt.client.us": us("mqtt.client"),
        "events.codec.calls": per_input(calls["events.codec"]),
        "events.codec.us": us("events.codec"),
        "cep.engine.ingest_us": us("cep.engine.ingest"),
        "cep.engine.advance_us": us("cep.engine.advance"),
        "cep.engine.emissions": per_input(counts["cep.engine.emissions"]),
        "agents.step_calls": per_input(calls["agents.step"]),
        "agents.step_us": us("agents.step"),
        "agents.step_useful_ratio": ratio("agents.step_useful", "agents.step_calls"),
        "agents.gateway.frames": per_input(sum(r["acl_frames"] for r in rounds)),
        "agents.gateway.us": us("agents.gateway"),
        "nodes.edge.us": us("nodes.edge"),
        "nodes.edge.pump_calls": per_input(counts["nodes.edge.pump_calls"]),
        "nodes.edge.pump_useful_ratio": ratio("nodes.edge.pump_useful", "nodes.edge.pump_calls"),
        "nodes.fog.us": us("nodes.fog"),
        "nodes.cloud.us": us("nodes.cloud"),
        "harness.pump_edges_us": us("harness.pump_edges"),
        "harness.in_system_p50_ms": in_system.quantile(0.5),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload spec written by run.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the deployment is ready and report set-up times")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text("utf-8"))

    # set-up: from here to the deployment being ready for its first input
    t0 = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import atmosphere
    from atmosphere.harness import MetricsSink, RunOverrides, load_scenario, run_scenario, runner

    t_import = time.monotonic()
    if not Path(atmosphere.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"atmosphere imported from {atmosphere.__file__}, not from this checkout")
    config = load_scenario(spec["scenario"])
    t_load = time.monotonic()

    probe = Probe(spec["watch_actuators"], args.setup_only)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    substitute(probe, runner, MetricsSink)
    round_overrides = RunOverrides(**spec["round"])
    startup = {"import_ms": (t_import - t0) * 1000, "load_scenario_ms": (t_load - t_import) * 1000}

    if args.setup_only:
        try:
            run_scenario(config, round_overrides)
        except SetupDone:
            pass
        startup["deployment_build_ms"] = (probe.build_end - probe.build_start) * 1000
        print(json.dumps({"setup_s": probe.ready - t0, **startup}))
        return 0

    warm = RunOverrides(**spec.get("warmup", spec["round"]))
    ctx = Context(spec, run_scenario, config, probe)
    warmup = run_round(ctx, warm)
    setup_s = probe.ready - t0
    startup["deployment_build_ms"] = warmup["build_s"] * 1000
    if tracer is not None:
        tracer.reset()
    rounds = []
    tails = {key: Tail() for key in SAMPLE_KEYS}
    measure_start = time.monotonic()
    while not rounds or time.monotonic() - measure_start < args.seconds:
        result = run_round(ctx, round_overrides)
        result["latency_p50_ms"] = statistics.median(result["latency_ms"])
        for key in SAMPLE_KEYS:
            tails[key].add(result.pop(key))
        rounds.append(result)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    inputs = sum(r["inputs"] for r in rounds)
    problems = list(dict.fromkeys(p for r in [warmup] + rounds for p in r["problems"]))
    out = {
        "rounds": len(rounds),
        "attempted": inputs,
        "failed": sum(r["failed"] for r in rounds),
        "problems": problems,
        "events_per_s": statistics.median(r["inputs"] / r["wall_s"] for r in rounds),
        "cpu_ms_per_event": statistics.median(r["cpu_s"] * 1000 / r["inputs"] for r in rounds),
        "latency_p50_ms": statistics.median(r["latency_p50_ms"] for r in rounds),
        "latency_ms": tails["latency_ms"].summary(),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "startup": startup,
    }
    if tails["send_lag_ms"].n:
        out["send_lag_ms"] = tails["send_lag_ms"].summary()
        out["in_system_ms"] = tails["in_system_ms"].summary()
    if "open_partials" in rounds[0]:
        out["open_partials"] = max(r["open_partials"] for r in rounds)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, rounds, tails["in_system_ms"])
        trace_path = Path(args.spec).with_name("trace.jsonl")
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
