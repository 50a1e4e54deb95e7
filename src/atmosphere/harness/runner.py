"""Scenario runner: builds the topology, drives simulators and the scripted
timeline, measures round trips, and produces a :class:`RunReport`.

Two drivers share the deployment code:

* ``event_time``: single-threaded, synchronous links, a logical clock set by
  the timeline. Byte-identical output for a given seed; used for all
  correctness runs.
* ``processing_time``: queued links, pump threads, wall clock; used for the
  latency/throughput benches. Latency is measured on the edge node from
  publish to the return of the matching complex event.

The bench convention: every simulator event carries a ``rid`` field, the fog
echoes it back on the edge output topic, and the edge records the round trip.
In ``agents-only`` mode the probe rides the gateway as an ACL message to an
echo service instead (no MQTT traffic at all); in ``cep-only`` mode the
gateway never starts (no ACL traffic at all).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field

from ..agents import AclMessage, GatewayClient, GatewayServer, parse_agent_spec
from ..errors import AtmosphereError, ConfigError
from ..events import Event, encode_event
from ..mqtt import Broker, MqttClient, drain_inflight
from ..nodes import CloudNode, EdgeNode, FogNode, UserNode, topics
from ..transport import make_queue_pair, make_sync_pair
from .config import RunDefaults, ScenarioConfig
from .generators import EventFactory, emission_times_ms
from .metrics import MetricsSink, RunReport

logger = logging.getLogger(__name__)

SATURATION_HIGH_WATER = 1000
SATURATION_HOLD_S = 5.0
ECHO_SERVICE = "echo"
SINK_SERVICE = "svc"


@dataclass
class RunOverrides:
    rate: float | None = None
    qos: int | None = None
    duration_s: float | None = None
    mode: str | None = None
    clock: str | None = None
    seed: int | None = None
    warmup_s: float | None = None


def resolve_run(config: ScenarioConfig, overrides: RunOverrides | None) -> RunDefaults:
    run = config.run
    if overrides is None:
        return run
    return RunDefaults(
        duration_s=overrides.duration_s if overrides.duration_s is not None else run.duration_s,
        qos=overrides.qos if overrides.qos is not None else run.qos,
        mode=overrides.mode if overrides.mode is not None else run.mode,
        clock=overrides.clock if overrides.clock is not None else run.clock,
        seed=overrides.seed if overrides.seed is not None else run.seed,
        warmup_s=overrides.warmup_s if overrides.warmup_s is not None else run.warmup_s,
    )


class LogicalClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def set(self, at_ms: int) -> None:
        if at_ms > self.now:
            self.now = at_ms


def _probe_spec(edge_id: str):
    return parse_agent_spec({"id": f"{edge_id}.probe"}, path="/probe")


class Deployment:
    """All nodes of one scenario wired to one broker and per-fog gateways."""

    def __init__(self, config: ScenarioConfig, run: RunDefaults, clock, sync: bool):
        self.config = config
        self.run = run
        self.clock = clock
        self.sync = sync
        self.registry = config.build_registry()
        self.queue_endpoints = []
        self.connection_registry: list[tuple[str, str, tuple]] = []
        engine_mode = run.clock
        wall = clock if run.clock == "processing_time" else None

        self.broker = Broker(clock=clock)
        self.gateways: dict[str, GatewayServer] = {}
        self.fogs: dict[str, FogNode] = {}
        self.clouds: dict[str, CloudNode] = {}
        self.edges: dict[str, EdgeNode] = {}
        self.user: UserNode | None = None
        self.clients: list[MqttClient] = []

        with_cep = run.mode != "agents-only"
        with_gateway = run.mode != "cep-only"

        # startup order: broker first, then fog (gateway + engine), cloud,
        # edges, finally user clients
        for fog_cfg in config.fogs:
            if with_gateway:
                gateway = GatewayServer()
                gateway.register_service(SINK_SERVICE, lambda message: [])
                if run.mode == "agents-only":
                    gateway.register_service(ECHO_SERVICE, self._echo_service)
                self.gateways[fog_cfg.id] = gateway
            if with_cep:
                self.fogs[fog_cfg.id] = FogNode(
                    fog_cfg.id,
                    self.broker,
                    self.registry,
                    list(fog_cfg.patterns),
                    mode=engine_mode,
                    extra_inputs=fog_cfg.extra_inputs,
                    qos=run.qos,
                    wall_clock=wall,
                )
        for cloud_cfg in config.clouds:
            if not with_cep:
                continue
            cloud = CloudNode(
                cloud_cfg.id,
                self.registry,
                list(cloud_cfg.patterns),
                sources=list(cloud_cfg.sources),
                transformers=list(cloud_cfg.transformers),
                sinks=list(cloud_cfg.sinks),
                mode=engine_mode,
                qos=run.qos,
                clock=clock,
                wall_clock=wall,
            )
            cloud.attach(self._mqtt_client(cloud_cfg.id, "cloud",
                                           tuple(s.topic for s in cloud_cfg.sources)))
            self.clouds[cloud_cfg.id] = cloud
        for edge_cfg in config.edges:
            specs = list(edge_cfg.agent_specs)
            if run.mode == "agents-only":
                specs.append(_probe_spec(edge_cfg.id))
            edge = EdgeNode(
                edge_cfg.id,
                edge_cfg.fog,
                specs,
                self.registry,
                clock=clock,
                qos=run.qos,
            )
            if run.mode != "agents-only":
                edge.attach_broker(
                    self._mqtt_client(
                        edge_cfg.id,
                        "edge",
                        (
                            topics.fog_output(edge_cfg.fog, "edge"),
                            topics.user_topic(edge_cfg.fog),
                        ),
                    )
                )
            if with_gateway:
                edge.attach_gateway(self._gateway_client(edge_cfg.id, edge_cfg.fog))
            self.edges[edge_cfg.id] = edge
        if config.user is not None:
            self.user = UserNode(config.user.id, config.user.fog, self.registry, qos=run.qos)
            self.user.attach(
                self._mqtt_client(config.user.id, "user", (topics.user_topic(config.user.fog),))
            )
        # feeder client for scripted cloud-source entries
        self.feeder = self._mqtt_client("$feeder", "harness", ())

    # -- wiring ---------------------------------------------------------------

    def _pair(self, name_a, name_b):
        if self.sync:
            return make_sync_pair(name_a, name_b)
        a, b = make_queue_pair(name_a, name_b)
        self.queue_endpoints.extend([a, b])
        return a, b

    def _mqtt_client(self, client_id: str, role: str, subscriptions: tuple) -> MqttClient:
        client_end, broker_end = self._pair(f"{client_id}-c", f"{client_id}-b")
        self.broker.attach(broker_end)
        client = MqttClient(client_id, clock=self.clock)
        client.connect(client_end)
        self.clients.append(client)
        self.connection_registry.append((client_id, role, subscriptions))
        return client

    def _gateway_client(self, edge_id: str, fog_id: str) -> GatewayClient:
        client_end, server_end = self._pair(f"{edge_id}-gw-c", f"{edge_id}-gw-s")
        self.gateways[fog_id].attach_channel(server_end)
        client = GatewayClient(edge_id)
        client.connect(client_end)
        return client

    def _echo_service(self, message: AclMessage) -> list[AclMessage]:
        return [
            AclMessage(
                performative="INFORM",
                sender=ECHO_SERVICE,
                receivers=(message.sender,),
                content=message.content,
                sent_at=message.sent_at,
            )
        ]

    # -- teardown / flushing -------------------------------------------------------

    def advance_engines(self, to_ms: int) -> None:
        """Advance every engine to ``to_ms`` in lockstep.

        Boundaries fire in global time order across nodes so that an emission
        crossing nodes (cloud -> fog, say) never lands behind the receiving
        engine's clock. Edge mailboxes are pumped at each instant so agent
        reactions happen at the boundary time they belong to.
        """
        nodes = list(self.fogs.values()) + list(self.clouds.values())
        while True:
            due = None
            for node in nodes:
                boundary = node.engine.next_boundary()
                if boundary is not None and boundary <= to_ms:
                    due = boundary if due is None else min(due, boundary)
            if due is None:
                break
            for node in nodes:
                node.advance(due)
            if self.sync:
                self.pump_edges()
        for node in nodes:
            node.advance(to_ms)
        if self.sync:
            self.pump_edges()

    def pump_edges(self) -> int:
        """Pump flagged edges, in order, until a pass moves nothing.

        An edge without ``has_work`` has empty mailboxes, so skipping it
        leaves the processing order unchanged.
        """
        total = 0
        while True:
            moved = sum(edge.pump() for edge in self.edges.values() if edge.has_work)
            if moved == 0:
                return total
            total += moved

    def close(self) -> None:
        for client in self.clients:
            client.disconnect()
        for endpoint in self.queue_endpoints:
            endpoint.close()

    # -- accounting -----------------------------------------------------------------

    def counters(self) -> dict:
        publish = sum(
            e.broker_client.counters["publish_sent"] + e.broker_client.counters["publish_received"]
            for e in self.edges.values()
            if e.broker_client is not None
        )
        puback = sum(
            e.broker_client.counters["puback_sent"] + e.broker_client.counters["puback_received"]
            for e in self.edges.values()
            if e.broker_client is not None
        )
        acl = sum(
            g.counters["acl_in"] + g.counters["acl_out"] for g in self.gateways.values()
        )
        return {"publish": publish, "puback": puback, "acl": acl}

    def dead_letter_count(self) -> int:
        total = sum(len(f.dead_letters) for f in self.fogs.values())
        total += sum(len(c.dead_letters) for c in self.clouds.values())
        total += sum(len(e.dead_letters) for e in self.edges.values())
        return total

    def emission_rows(self) -> list[dict]:
        rows = []
        for node in list(self.fogs.values()) + list(self.clouds.values()):
            for emission in node.emission_log:
                rows.append(
                    {
                        "node": node.node_id,
                        "pattern": emission.produced_by,
                        "stream": emission.event.stream,
                        "at": emission.event.timestamp,
                        "target": emission.target_tag,
                        "fields": emission.event.fields,
                        "key": list(emission.order_key),
                    }
                )
        rows.sort(key=lambda row: (row["at"], row["node"], row["key"]))
        return rows


def run_scenario(
    config: ScenarioConfig,
    overrides: RunOverrides | None = None,
    processes: bool = False,
) -> RunReport:
    """Run one scenario to completion and return its report."""
    run = resolve_run(config, overrides)
    rate_override = overrides.rate if overrides else None
    if processes:
        if run.clock != "processing_time":
            raise ConfigError(
                "child-process deployment supports processing_time runs only"
            )
        from .procs import run_in_processes

        return run_in_processes(config, run, rate_override)
    if run.clock == "event_time":
        return _run_event_time(config, run, rate_override)
    return _run_processing(config, run, rate_override)


# -- event-time driver ------------------------------------------------------------


@dataclass(frozen=True)
class _Step:
    at_ms: int
    seq: int
    kind: str
    data: dict = field(default_factory=dict)


def _synthesize_steps(config: ScenarioConfig, run: RunDefaults, rate_override) -> list[_Step]:
    steps: list[_Step] = []
    seq = 0

    def push(at_ms: int, kind: str, data: dict):
        nonlocal seq
        steps.append(_Step(at_ms, seq, kind, data))
        seq += 1

    for entry in config.timeline:
        push(entry.at_ms, entry.kind, entry.data)
    duration_ms = int(run.duration_s * 1000)
    rid = 0
    for index, sim in enumerate(config.simulators):
        rate = rate_override if rate_override is not None else sim.rate
        factory = EventFactory(sim.generators, seed=run.seed * 1000 + sim.seed + index)
        for at_ms in emission_times_ms(rate, run.duration_s):
            fields = factory.next_fields()
            if "rid" in fields:
                rid += 1
                fields["rid"] = rid
            push(at_ms, "sim", {"edge": sim.edge, "stream": sim.stream, "fields": fields})
    if run.mode == "full":
        # timer rules fire on schedule for full-architecture runs only
        for edge_cfg in config.edges:
            for spec in edge_cfg.agent_specs:
                for rule in spec.rules:
                    period = getattr(rule.trigger, "period_ms", None)
                    if period is None:
                        continue
                    count = 0
                    at = period
                    while at <= duration_ms:
                        count += 1
                        push(at, "timer", {"edge": edge_cfg.id, "agent": spec.id,
                                           "rule": rule.id, "count": count})
                        at += period
    steps.sort(key=lambda step: (step.at_ms, step.seq))
    return steps


def _run_event_time(config: ScenarioConfig, run: RunDefaults, rate_override) -> RunReport:
    clock = LogicalClock()
    deployment = Deployment(config, run, clock, sync=True)
    sink = MetricsSink(run.qos, run.mode)
    _wire_probe_hooks(deployment, sink, clock)
    steps = _synthesize_steps(config, run, rate_override)
    try:
        for step in steps:
            if step.at_ms > clock.now:
                # move global logical time forward first, firing any engine
                # boundaries the step would otherwise leap over
                deployment.advance_engines(step.at_ms)
                clock.set(step.at_ms)
            _apply_step(deployment, sink, step, clock)
            deployment.pump_edges()
        duration_ms = int(run.duration_s * 1000)
        clock.set(max(clock.now, duration_ms))
        deployment.advance_engines(clock.now)
        return _collect(deployment, sink, run)
    finally:
        deployment.close()


def _apply_step(deployment: Deployment, sink: MetricsSink, step: _Step, clock) -> None:
    data = step.data
    if step.kind == "sensor":
        edge = deployment.edges[data["edge"]]
        edge.inject_sensor(data["agent"], data["sensor"], data["value"], at=step.at_ms)
    elif step.kind == "timer":
        edge = deployment.edges[data["edge"]]
        edge.fire_timer(data["agent"], data["rule"], at=step.at_ms)
    elif step.kind == "sim":
        _emit_probe(deployment, sink, data["edge"], data["stream"], dict(data["fields"]), step.at_ms)
    elif step.kind == "source":
        payload = json.dumps(data["raw"], separators=(",", ":")).encode()
        deployment.feeder.publish(data["topic"], payload, qos=deployment.run.qos)
    elif step.kind == "user_publish":
        payload = json.dumps(data["payload"], separators=(",", ":")).encode()
        assert deployment.user is not None
        deployment.user.publish_raw(payload)


def _emit_probe(deployment: Deployment, sink: MetricsSink, edge_id: str, stream: str,
                fields: dict, at_ms: int) -> None:
    edge = deployment.edges[edge_id]
    rid = fields.get("rid")
    if deployment.run.mode == "agents-only":
        if rid is not None:
            sink.sent(rid, at_ms)
        edge.gateway_client.send(
            AclMessage(
                performative="INFORM",
                sender=f"{edge_id}.probe",
                receivers=(ECHO_SERVICE,),
                content={"stream": stream, "fields": fields},
                sent_at=at_ms,
            )
        )
        return
    event = Event(stream, fields, at_ms, edge_id)
    payload = encode_event(event, deployment.registry)
    if rid is not None:
        sink.sent(rid, at_ms)
    edge.broker_client.publish(
        topics.fog_input(edge.fog_id), payload, qos=deployment.run.qos
    )


def _wire_probe_hooks(deployment: Deployment, sink: MetricsSink, clock) -> None:
    for edge in deployment.edges.values():

        def on_event(topic, event, _sink=sink, _clock=clock):
            rid = event.fields.get("rid")
            if isinstance(rid, int):
                _sink.received(rid, _clock())

        def on_acl(message, _sink=sink, _clock=clock):
            if message.sender != ECHO_SERVICE:
                return
            fields = message.content.get("fields")
            rid = fields.get("rid") if isinstance(fields, dict) else None
            if isinstance(rid, int):
                _sink.received(rid, _clock())

        edge.on_event = on_event
        edge.on_acl = on_acl


def _collect(deployment: Deployment, sink: MetricsSink, run: RunDefaults,
             cpu_samples=None, saturated: bool = False) -> RunReport:
    dead = deployment.dead_letter_count()
    report = RunReport(
        scenario=deployment.config.name,
        mode=run.mode,
        qos=run.qos,
        clock=run.clock,
        seed=run.seed,
        duration_s=run.duration_s,
        warmup_s=run.warmup_s,
        records=sorted(sink.records, key=lambda r: (r.sent_at, r.round_trip_id)),
        counters=deployment.counters(),
        round_trips={
            "initiated": sink.initiated,
            "completed": sink.completed,
            "in_flight": sink.in_flight,
            "dead_lettered": dead,
        },
        cpu_samples=cpu_samples or [],
        saturated=saturated,
        emissions=deployment.emission_rows(),
        notifications=[n for c in deployment.clouds.values() for n in c.notifications],
    )
    if deployment.user is not None:
        report.alerts = [
            {
                "at": event.timestamp,
                "stream": event.stream,
                "source": event.source,
                "fields": event.fields,
            }
            for event in deployment.user.alerts
        ]
    return report


# -- processing-time driver ----------------------------------------------------------


def _run_processing(config: ScenarioConfig, run: RunDefaults, rate_override) -> RunReport:
    start = time.monotonic()

    def clock() -> int:
        return int((time.monotonic() - start) * 1000)

    deployment = Deployment(config, run, clock, sync=False)
    sink = MetricsSink(run.qos, run.mode)
    _wire_probe_hooks(deployment, sink, clock)
    stop = threading.Event()
    saturated = threading.Event()
    threads: list[threading.Thread] = []
    cpu_samples: list[tuple[int, str, float]] = []

    def ticker():
        while not stop.wait(0.05):
            now = clock()
            deployment.broker.tick(now)
            for client in deployment.clients:
                client.tick(now)

    def advancer():
        while not stop.wait(0.1):
            deployment.advance_engines(clock())

    def edge_loop():
        while not stop.wait(0.002):
            now = clock()
            if run.mode == "full":
                for edge in deployment.edges.values():
                    edge.tick_timers(now)
            deployment.pump_edges()

    def cpu_sampler():
        # process CPU time (all threads) over wall time, in percent of one core
        last_wall, last_cpu = time.monotonic(), time.process_time()
        while not stop.wait(0.5):
            wall, cpu = time.monotonic(), time.process_time()
            cpu_samples.append((clock(), "all", 100.0 * (cpu - last_cpu) / (wall - last_wall)))
            last_wall, last_cpu = wall, cpu

    def saturation_watch():
        over_since = None
        while not stop.wait(0.1):
            depth = max((e.queue_depth() for e in deployment.queue_endpoints), default=0)
            if depth > SATURATION_HIGH_WATER:
                if over_since is None:
                    over_since = time.monotonic()
                elif time.monotonic() - over_since > SATURATION_HOLD_S:
                    saturated.set()
                    return
            else:
                over_since = None

    def simulator(sim, index):
        rate = rate_override if rate_override is not None else sim.rate
        factory = EventFactory(sim.generators, seed=run.seed * 1000 + sim.seed + index)
        schedule = emission_times_ms(rate, run.duration_s)
        for offset_ms in schedule:
            if stop.is_set() or saturated.is_set():
                return
            # from the exact run start: ``clock()`` truncates to whole ms,
            # which would leave every send up to 1 ms late
            delay = start + offset_ms / 1000.0 - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            fields = factory.next_fields()
            if "rid" in fields:
                with rid_lock:
                    rid_counter[0] += 1
                    fields["rid"] = rid_counter[0]
            try:
                _emit_probe(deployment, sink, sim.edge, sim.stream, fields, clock())
            except AtmosphereError as exc:
                logger.error("simulator emit failed: %s", exc)
                return

    rid_counter = [0]
    rid_lock = threading.Lock()
    if run.mode == "full":
        for edge in deployment.edges.values():
            edge.start_timers(clock())

    for target in (ticker, advancer, edge_loop, cpu_sampler, saturation_watch):
        thread = threading.Thread(target=target, name=target.__name__, daemon=True)
        threads.append(thread)
        thread.start()
    sim_threads = []
    for index, sim in enumerate(config.simulators):
        thread = threading.Thread(target=simulator, args=(sim, index), daemon=True)
        sim_threads.append(thread)
        thread.start()

    deadline = time.monotonic() + run.duration_s + 1.0
    try:
        for thread in sim_threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 5.0)
        # drain: let in-flight round trips and qos-1 acks finish
        drain_deadline = time.monotonic() + 10.0
        while time.monotonic() < drain_deadline:
            if saturated.is_set():
                break
            if sink.in_flight == 0 and all(c.inflight_count() == 0 for c in deployment.clients):
                break
            time.sleep(0.02)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=2.0)
        drain_inflight(deployment.clients, timeout_s=2.0)
        report = _collect(
            deployment, sink, run, cpu_samples=cpu_samples, saturated=saturated.is_set()
        )
        deployment.close()
    return report
