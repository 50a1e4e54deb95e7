"""Spans around each layer's entry points, for the traced run only.

``install`` replaces entry points where their callers look them up: module
functions in the importing module (``decode_packet`` as imported into
``mqtt.broker`` and ``mqtt.client``), methods on their class. It must run
before the deployment is built, because nodes bind some of these methods as
callbacks when they are constructed.

Each thread keeps a stack of open spans. When a span ends, its duration
minus the time its child spans cover is added to its layer's self time, so
nested layers (a broker feed that reaches a fog ingest through synchronous
links) are never counted twice. Raw spans (id, parent, layer, start, end,
thread) are kept in memory up to ``SPAN_CAP`` and written out when the run
ends; the self times and counts cover every call.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

SPAN_CAP = 50_000


class _ThreadLog:
    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.dropped = 0

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def span(self, layer: str, fn, outcome=None):
        """``fn`` with each call recorded as a span of ``layer``.

        ``outcome(counts, result, args)`` may add counts from the call.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                log.self_ns[layer] += duration - frame[1]
                log.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent, layer, start, end, log.thread))
                else:
                    tracer.dropped += 1
            if outcome is not None:
                outcome(log.counts, result, args)
            return result

        return traced

    def count(self, fn, outcome):
        """``fn`` with counts only, for calls too small and many to time."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            outcome(tracer._log().counts, result, args)
            return result

        return counted

    def reset(self) -> None:
        with self._lock:
            for log in self._logs:
                log.self_ns.clear()
                log.calls.clear()
                log.counts.clear()
            self.spans = []
            self.dropped = 0

    def totals(self) -> tuple[dict, dict, dict]:
        """Self ns and calls per layer, and counts, over every thread."""
        self_ns: dict = defaultdict(int)
        calls: dict = defaultdict(int)
        counts: dict = defaultdict(int)
        with self._lock:
            for log in self._logs:
                for source, target in ((log.self_ns, self_ns), (log.calls, calls), (log.counts, counts)):
                    for key, value in list(source.items()):
                        target[key] += value
        return self_ns, calls, counts

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "parent", "layer", "start_ns", "end_ns", "thread"],
                                     "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _decoded(counts, result, args) -> None:
    counts["mqtt.codec.decode_calls"] += 1
    counts["mqtt.codec.decode_bytes"] += len(args[0]) - (args[1] if len(args) > 1 else 0)
    if result is not None:
        counts["mqtt.codec.decode_useful"] += 1


def _matched(counts, result, args) -> None:
    counts["mqtt.broker.match_calls"] += 1
    if result:
        counts["mqtt.broker.match_hits"] += 1


def _emitted(counts, result, args) -> None:
    counts["cep.engine.emissions"] += len(result)


def _stepped(counts, result, args) -> None:
    counts["agents.step_calls"] += 1
    if result:
        counts["agents.step_useful"] += 1


def _pumped(counts, result, args) -> None:
    counts["nodes.edge.pump_calls"] += 1
    if result:
        counts["nodes.edge.pump_useful"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points in spans of ``tracer``."""
    from atmosphere.agents import Agent, GatewayClient, GatewayServer
    from atmosphere.cep import Engine
    from atmosphere.harness import runner
    from atmosphere.mqtt import Broker, MqttClient
    from atmosphere.mqtt import broker as broker_module
    from atmosphere.mqtt import client as client_module
    from atmosphere.nodes import CloudNode, EdgeNode, FogNode
    from atmosphere.nodes import cloud as cloud_module
    from atmosphere.nodes import edge as edge_module
    from atmosphere.nodes import fog as fog_module
    from atmosphere.nodes import user as user_module

    def wrap(owner, name, layer, outcome=None):
        setattr(owner, name, tracer.span(layer, getattr(owner, name), outcome))

    for module in (broker_module, client_module):
        wrap(module, "encode_packet", "mqtt.codec")
        wrap(module, "decode_packet", "mqtt.codec", _decoded)
    broker_module.match_topic = tracer.count(broker_module.match_topic, _matched)
    for name in ("feed", "publish_internal", "tick"):
        wrap(Broker, name, "mqtt.broker")
    for name in ("publish", "_feed", "tick"):
        wrap(MqttClient, name, "mqtt.client")
    for module in (runner, edge_module, fog_module, cloud_module, user_module):
        for name in ("encode_event", "decode_event"):
            if hasattr(module, name):
                wrap(module, name, "events.codec")
    wrap(Engine, "ingest", "cep.engine.ingest", _emitted)
    wrap(Engine, "advance_clock", "cep.engine.advance", _emitted)
    wrap(Agent, "step", "agents.step", _stepped)
    for owner, name in ((GatewayServer, "handle_message"), (GatewayServer, "deliver"),
                        (GatewayClient, "send"), (GatewayClient, "_feed")):
        wrap(owner, name, "agents.gateway")
    wrap(EdgeNode, "pump", "nodes.edge", _pumped)
    for name in ("_on_broker_message", "_on_gateway_message", "inject_sensor", "fire_timer", "tick_timers"):
        wrap(EdgeNode, name, "nodes.edge")
    for name in ("on_payload", "advance"):
        wrap(FogNode, name, "nodes.fog")
    for name in ("on_message", "advance"):
        wrap(CloudNode, name, "nodes.cloud")
    wrap(runner.Deployment, "pump_edges", "harness.pump_edges")
