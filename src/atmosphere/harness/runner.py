"""Scenario runner: builds the topology, drives simulators and the scripted
timeline, measures round trips, and produces a :class:`RunReport`.

One builder, :class:`Deployment`, wires the nodes over links of one kind:
``sync`` (synchronous, in-process), ``queue`` (in-process, a pump thread per
direction) or ``tcp`` (local sockets, for a run split over OS processes, see
:mod:`.procs`). Its :class:`Placement` says which nodes this process hosts:
the core tier (broker, gateways, fogs, clouds, user node and feeder) and
which edges; by default, everything. Two drivers run a deployment:

* ``event_time``: single-threaded, synchronous links, a logical clock set by
  the timeline. Byte-identical output for a given seed; used for all
  correctness runs.
* ``processing_time`` (:func:`drive`): pump threads and the wall clock; used
  for the latency/throughput benches, in one process or in each process of a
  split deployment. Latency is measured on the edge node from publish to the
  return of the matching complex event.

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
from ..mqtt import Broker, MqttClient
from ..nodes import CloudNode, EdgeNode, FogNode, UserNode, topics
from ..transport import TcpServer, connect_tcp, make_queue_pair, make_sync_pair
from .config import RunDefaults, ScenarioConfig
from .generators import EventFactory, emission_times_ms
from .metrics import MetricsSink, RunReport

logger = logging.getLogger(__name__)

SATURATION_HIGH_WATER = 1000
SATURATION_HOLD_S = 5.0
ECHO_SERVICE = "echo"
SINK_SERVICE = "svc"
TCP_HOST = "127.0.0.1"
# round-trip ids a process numbers from: edge i's process starts at i * RID_SPACE
RID_SPACE = 10_000_000


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


class WallClock:
    """Whole milliseconds since ``start``, the processing-time origin."""

    def __init__(self):
        self.start = time.monotonic()

    def __call__(self) -> int:
        return int((time.monotonic() - self.start) * 1000)


@dataclass(frozen=True)
class Placement:
    """Which nodes of a deployment this process hosts.

    ``core`` is the broker, the gateways, the fog and cloud nodes, the user
    node and the feeder; ``edges`` names the hosted edges, ``None`` for all.
    A placement without the core reaches it over tcp at ``core_ports``, the
    core's :attr:`Deployment.ports`.
    """

    core: bool = True
    edges: tuple[str, ...] | None = None
    core_ports: dict | None = None

    def hosts(self, edge_id: str) -> bool:
        return self.edges is None or edge_id in self.edges

    @property
    def label(self) -> str:
        """``all``, ``core``, or the hosted edge ids."""
        return "all" if self.edges is None else "+".join(self.edges) or "core"


def _probe_spec(edge_id: str):
    return parse_agent_spec({"id": f"{edge_id}.probe"}, path="/probe")


class Deployment:
    """The nodes of one scenario that ``placement`` puts in this process,
    wired to one broker and per-fog gateways by links of kind ``link``
    (``sync``, ``queue`` or ``tcp``)."""

    def __init__(self, config: ScenarioConfig, run: RunDefaults, clock, link: str,
                 placement: Placement = Placement()):
        self.config = config
        self.run = run
        self.clock = clock
        self.link = link
        self.placement = placement
        self.registry = config.build_registry()
        self.queue_endpoints = []
        self.servers: list[TcpServer] = []
        # under tcp, where the core serves: {"broker": port, "gateways": {fog: port}}
        self.ports = placement.core_ports
        engine_mode = run.clock
        wall = clock if run.clock == "processing_time" else None

        self.broker: Broker | None = None
        self.gateways: dict[str, GatewayServer] = {}
        self.fogs: dict[str, FogNode] = {}
        self.clouds: dict[str, CloudNode] = {}
        self.edges: dict[str, EdgeNode] = {}
        self.user: UserNode | None = None
        self.feeder: MqttClient | None = None
        self.clients: list[MqttClient] = []

        with_cep = run.mode != "agents-only"
        with_gateway = run.mode != "cep-only"

        # startup order: broker first, then fog (gateway + engine), cloud,
        # edges, finally user clients
        if placement.core:
            self.broker = Broker(clock=clock)
            if link == "tcp":
                self.ports = {"broker": self._serve(self.broker.attach), "gateways": {}}
            for fog_cfg in config.fogs:
                if with_gateway:
                    gateway = GatewayServer()
                    gateway.register_service(SINK_SERVICE, lambda message: [])
                    if run.mode == "agents-only":
                        gateway.register_service(ECHO_SERVICE, self._echo_service)
                    self.gateways[fog_cfg.id] = gateway
                    if link == "tcp":
                        self.ports["gateways"][fog_cfg.id] = self._serve(gateway.attach_channel)
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
                cloud.attach(self._mqtt_client(cloud_cfg.id))
                self.clouds[cloud_cfg.id] = cloud
        for edge_cfg in config.edges:
            if not placement.hosts(edge_cfg.id):
                continue
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
                edge.attach_broker(self._mqtt_client(edge_cfg.id))
            if with_gateway:
                edge.attach_gateway(self._gateway_client(edge_cfg.id, edge_cfg.fog))
            self.edges[edge_cfg.id] = edge
        if placement.core:
            if config.user is not None:
                self.user = UserNode(config.user.id, config.user.fog, self.registry, qos=run.qos)
                self.user.attach(self._mqtt_client(config.user.id))
            # feeder client for scripted cloud-source entries
            self.feeder = self._mqtt_client("$feeder")

    # -- wiring ---------------------------------------------------------------

    def _serve(self, on_connection) -> int:
        server = TcpServer(TCP_HOST, 0, on_connection)
        self.servers.append(server)
        return server.port

    def _pair(self, name_a: str, name_b: str, attach):
        """An in-process link; ``attach`` takes the far end, the near end is returned."""
        if self.link == "sync":
            a, b = make_sync_pair(name_a, name_b)
        else:
            a, b = make_queue_pair(name_a, name_b)
            self.queue_endpoints.extend([a, b])
        attach(b)
        return a

    def _mqtt_client(self, client_id: str) -> MqttClient:
        if self.link == "tcp":
            endpoint = connect_tcp(TCP_HOST, self.ports["broker"], name=client_id)
        else:
            endpoint = self._pair(f"{client_id}-c", f"{client_id}-b", self.broker.attach)
        client = MqttClient(client_id, clock=self.clock)
        client.connect(endpoint)
        self.clients.append(client)
        return client

    def _gateway_client(self, edge_id: str, fog_id: str) -> GatewayClient:
        if self.link == "tcp":
            endpoint = connect_tcp(TCP_HOST, self.ports["gateways"][fog_id], name=f"{edge_id}-gw")
        else:
            endpoint = self._pair(f"{edge_id}-gw-c", f"{edge_id}-gw-s",
                                  self.gateways[fog_id].attach_channel)
        client = GatewayClient(edge_id)
        client.connect(endpoint)
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
            if self.link == "sync":
                self.pump_edges()
        for node in nodes:
            node.advance(to_ms)
        if self.link == "sync":
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
        # closing a link's near end closes its far end too
        for client in self.clients:
            client.disconnect()
        for edge in self.edges.values():
            if edge.gateway_client is not None:
                edge.gateway_client.close()
        for server in self.servers:
            server.close()

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
    clock = WallClock()  # the origin precedes the build: sends are due from it
    return drive(Deployment(config, run, clock, "queue"), rate_override)


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
    deployment = Deployment(config, run, clock, "sync")
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


def drive(deployment: Deployment, rate_override, until=None) -> RunReport:
    """Run ``deployment`` in processing time and report on the nodes it hosts.

    Runs the hosted edges' simulators to their end, waits for the event
    ``until`` if one is given, then for in-flight round trips and QoS 1 acks.
    """
    config, run, clock = deployment.config, deployment.run, deployment.clock
    sink = MetricsSink(run.qos, run.mode)
    _wire_probe_hooks(deployment, sink, clock)
    stop = threading.Event()
    saturated = threading.Event()
    threads: list[threading.Thread] = []
    cpu_samples: list[tuple[int, str, float]] = []

    def ticker():
        while not stop.wait(0.05):
            now = clock()
            if deployment.broker is not None:
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
        label = deployment.placement.label
        last_wall, last_cpu = time.monotonic(), time.process_time()
        while not stop.wait(0.5):
            wall, cpu = time.monotonic(), time.process_time()
            cpu_samples.append((clock(), label, 100.0 * (cpu - last_cpu) / (wall - last_wall)))
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
            delay = clock.start + offset_ms / 1000.0 - time.monotonic()
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

    # rids are unique across the processes of a split run
    edge_ids = [edge_cfg.id for edge_cfg in config.edges]
    first = min((edge_ids.index(edge_id) for edge_id in deployment.edges), default=0)
    rid_counter = [first * RID_SPACE]
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
        if sim.edge not in deployment.edges:
            continue
        thread = threading.Thread(target=simulator, args=(sim, index), daemon=True)
        sim_threads.append(thread)
        thread.start()

    deadline = time.monotonic() + run.duration_s + 1.0
    try:
        for thread in sim_threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 5.0)
        if until is not None:
            until.wait()
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
        report = _collect(
            deployment, sink, run, cpu_samples=cpu_samples, saturated=saturated.is_set()
        )
        deployment.close()
    return report
