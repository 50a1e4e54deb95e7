"""Scenario runner: builds the topology, drives the scripted timeline,
simulators and agent timers, measures round trips, and produces a
:class:`RunReport`.

One builder, :class:`Deployment`, wires the nodes over links of one kind:
``sync`` (synchronous, in-process), ``queue`` (in-process, queued on one
loop) or ``tcp`` (local sockets on that loop, for a run split over OS
processes, see :mod:`.procs`). Its :class:`Placement` says which nodes this
process hosts: the core tier (broker, gateways, fogs, clouds, user node and
feeder) and which edges; by default, everything.

One driver, :func:`drive`, runs a deployment's tasks on its loop: the
engines' window boundaries, then the timeline, each simulator and each
edge's agent timers, generators that yield when they are next due. Ties run
in start order; the edges are pumped after every turn. No input due after
the duration applies, and one that raises an :class:`AtmosphereError` is
logged and ends there.

* ``event_time``: sync links, the loop on a virtual clock (a
  :class:`LogicalClock`). Byte-identical output for a given seed; used for
  all correctness runs.
* ``processing_time``: queued (or tcp) links on the wall clock, plus a 50 ms
  tick and a CPU sample; the benches, in one process or in each of a split
  run. Latency is measured on the edge from a send's due time to the return
  of the matching complex event.

The bench convention: every simulator event carries a ``rid`` field, the fog
echoes it back on the edge output topic, and the edge records the round trip.
In ``agents-only`` mode the probe rides the gateway as an ACL message to an
echo service instead (no MQTT traffic at all); in ``cep-only`` mode the
gateway never starts (no ACL traffic at all).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

from ..agents import AclMessage, GatewayClient, GatewayServer, parse_agent_spec
from ..errors import AtmosphereError, ConfigError
from ..events import Event, encode_event
from ..mqtt import Broker, MqttClient
from ..nodes import CloudNode, EdgeNode, FogNode, UserNode, topics
from ..transport import Loop, TcpServer, connect_tcp, every, make_queue_pair
from .config import RunDefaults, ScenarioConfig
from .generators import EventFactory, emission_times_ms
from .metrics import MetricsSink, RunReport

logger = logging.getLogger(__name__)

SATURATION_HIGH_WATER = 1000
SATURATION_LAG_S = 0.1  # a send this late falls in the paper's top latency bucket
SATURATION_HOLD_S = 5.0
DRAIN_S = 10.0
ECHO_SERVICE = "echo"
SINK_SERVICE = "svc"
TCP_HOST = "127.0.0.1"


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
    (``sync``, ``queue`` or ``tcp``); all but sync links run on ``loop``,
    whose clock is ``clock`` in event time and the wall clock otherwise."""

    def __init__(self, config: ScenarioConfig, run: RunDefaults, clock, link: str,
                 placement: Placement = Placement()):
        self.config = config
        self.run = run
        self.clock = clock
        self.link = link
        self.placement = placement
        self.registry = config.build_registry()
        event_time = run.clock == "event_time"
        self.loop = Loop(clock if event_time else None)
        # under tcp, where the core serves: {"broker": port, "gateways": {fog: port}}
        self.ports = placement.core_ports
        wall = None if event_time else clock  # the engines stamp arrivals with it

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
        return TcpServer(TCP_HOST, 0, on_connection, self.loop).port

    def _pair(self, name_a: str, name_b: str, attach):
        """An in-process link, queued on the loop unless sync; ``attach``
        takes the far end, the near end is returned."""
        a, b = make_queue_pair(name_a, name_b, None if self.link == "sync" else self.loop)
        attach(b)
        return a

    def _mqtt_client(self, client_id: str) -> MqttClient:
        if self.link == "tcp":
            endpoint = connect_tcp(TCP_HOST, self.ports["broker"], self.loop, name=client_id)
        else:
            endpoint = self._pair(f"{client_id}-c", f"{client_id}-b", self.broker.attach)
        client = MqttClient(client_id, clock=self.clock)
        client.connect(endpoint)
        self.clients.append(client)
        return client

    def _gateway_client(self, edge_id: str, fog_id: str) -> GatewayClient:
        if self.link == "tcp":
            endpoint = connect_tcp(TCP_HOST, self.ports["gateways"][fog_id], self.loop,
                                   name=f"{edge_id}-gw")
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
        self.loop.close()  # and with it every socket, the servers too

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
    # a wall clock's origin precedes the build: sends are due from it
    clock, link = (LogicalClock(), "sync") if run.clock == "event_time" else (WallClock(), "queue")
    return drive(Deployment(config, run, clock, link), rate_override)


# -- the run's tasks ----------------------------------------------------------------


def _tasks(deployment: Deployment, sink: MetricsSink, rate_override, due) -> list:
    """The run's tasks in rank order: the engine boundaries first, so that a
    boundary runs before the inputs due in its ms, the timeline, one per
    hosted simulator and, in full mode, one per hosted edge for its agent
    timers. Each yields ``due(at_ms)`` when next due, ``at_ms`` an offset
    from the run's start. Simulator i numbers its round trips on from the
    rid-bearing sends of the simulators before it, so every placement gives
    the same ids."""
    config, run = deployment.config, deployment.run
    duration_ms = int(run.duration_s * 1000)
    tasks = [_engine_boundaries(deployment, due, duration_ms), _timeline(deployment, due, duration_ms)]
    rid = 0
    for index, sim in enumerate(config.simulators):
        rate = rate_override if rate_override is not None else sim.rate
        if sim.edge in deployment.edges:
            seed = run.seed * 1000 + sim.seed + index
            tasks.append(_simulate(deployment, sink, sim, seed, rate, rid, due))
        if "rid" in sim.generators:
            rid += int(rate * run.duration_s)  # the length of its emission_times_ms
    if run.mode == "full":  # timer rules fire in full-architecture runs only
        tasks += [_agent_timers(deployment, edge, due, duration_ms) for edge in deployment.edges.values()]
    return tasks


def _engine_boundaries(deployment: Deployment, due, duration_ms: int):
    """The engines' window boundaries up to the run's duration, earliest
    first. Every engine advances to each in turn, so that boundaries fire in
    time order across nodes and an emission crossing nodes (cloud -> fog,
    say) never lands behind the receiving engine's clock; the edges are
    pumped after the turn, at the boundary time their reactions belong to."""
    nodes = list(deployment.fogs.values()) + list(deployment.clouds.values())
    while True:
        boundaries = [node.engine.next_boundary() for node in nodes]
        at_ms = min((b for b in boundaries if b is not None), default=None)
        if at_ms is None or at_ms > duration_ms:
            return
        yield due(at_ms)
        for node in nodes:
            node.advance(at_ms)


def _timeline(deployment: Deployment, due, duration_ms: int):
    """The scripted timeline's entries, up to the run's duration."""
    for entry in deployment.config.timeline:  # sorted by at_ms
        if entry.at_ms > duration_ms:
            return
        yield due(entry.at_ms)
        data = entry.data
        if entry.kind == "sensor":
            edge = deployment.edges[data["edge"]]
            edge.inject_sensor(data["agent"], data["sensor"], data["value"], at=entry.at_ms)
        elif entry.kind == "source":
            payload = json.dumps(data["raw"], separators=(",", ":")).encode()
            deployment.feeder.publish(data["topic"], payload, qos=deployment.run.qos)
        elif entry.kind == "user_publish":
            payload = json.dumps(data["payload"], separators=(",", ":")).encode()
            assert deployment.user is not None
            deployment.user.publish_raw(payload)


def _simulate(deployment: Deployment, sink: MetricsSink, sim, seed: int, rate: float,
              rid: int, due):
    """One simulator's sends at ``rate``, its round trips numbered from ``rid`` + 1."""
    factory = EventFactory(sim.generators, seed=seed)
    for at_ms in emission_times_ms(rate, deployment.run.duration_s):
        yield due(at_ms)
        fields = factory.next_fields()
        if "rid" in fields:
            rid += 1
            fields["rid"] = rid
        _emit_probe(deployment, sink, sim.edge, sim.stream, fields, at_ms)


def _agent_timers(deployment: Deployment, edge: EdgeNode, due, duration_ms: int):
    """``edge``'s timer rules, one fire per resume, counted from the run's
    start up to its duration. With no timer due by then the task waits for
    the duration, and a rule update that starts a timer sooner resumes it
    then (``EdgeNode.on_timer``)."""
    loop, rank = deployment.loop, deployment.loop.running
    edge.on_timer = lambda at_ms: loop.wake(rank, due(at_ms))
    at_ms = edge.start_timers(0)
    while True:
        yield due(duration_ms if at_ms is None else min(at_ms, duration_ms))
        now_ms = min(deployment.clock(), duration_ms)
        at_ms = edge.tick_timers(now_ms)
        if now_ms == duration_ms and (at_ms is None or at_ms > duration_ms):
            return


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


def _collect(deployment: Deployment, sink: MetricsSink, run: RunDefaults,
             cpu_samples: list, saturated: bool) -> RunReport:
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
        cpu_samples=cpu_samples,
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


# -- the driver ------------------------------------------------------------------------


def drive(deployment: Deployment, rate_override, peers=None) -> RunReport:
    """Run ``deployment`` on its loop and report on the nodes it hosts: the
    engine boundaries and the input tasks, each input due at, and stamped
    with, its offset from the clock origin; then the wait for in-flight
    round trips and acks. On a virtual clock the run ends once nothing is
    left to run, and the wall-time chores stay out.

    ``peers`` ties this process to the others of a split run:
    ``peers.ready()`` returns once this one may start sending, and after
    ``peers.drained()`` the loop runs on until ``peers.stop`` is set.
    """
    run, clock, loop = deployment.run, deployment.clock, deployment.loop
    virtual = loop.clock is not None
    sink = MetricsSink(run.qos, run.mode)
    cpu_samples: list[tuple[int, str, float]] = []
    saturated = stopped = False
    calm_at = time.monotonic()  # when the ready deque last held no more than the high water
    late_at = None  # the first of the latest resumes in a row over SATURATION_LAG_S late
    sending = 0  # tasks not yet ended

    def due(at_ms: int):
        # on the wall clock, from the exact run start: ``clock()`` truncates to whole ms
        return at_ms if virtual else clock.start + at_ms / 1000.0

    def awaited(task):
        """``task``, counted in ``sending`` until it ends; saturation or a
        failed input ends it early. On the wall clock, the run is saturated
        once every resume for ``SATURATION_HOLD_S`` came over
        ``SATURATION_LAG_S`` after its due time."""
        nonlocal sending, saturated, late_at
        sending += 1
        try:
            for at in task:
                yield at
                if not virtual:
                    now = time.monotonic()
                    if now - at <= SATURATION_LAG_S:
                        late_at = None
                    elif late_at is None:
                        late_at = now
                    elif now - late_at > SATURATION_HOLD_S:
                        saturated = True
                if saturated:
                    break
        except AtmosphereError as exc:
            logger.error("input failed: %s", exc)
        finally:
            sending -= 1

    def tick():
        """QoS 1 re-sends, the saturation watch and the split run's stop."""
        nonlocal calm_at, saturated, stopped
        now = clock()
        if deployment.broker is not None:
            deployment.broker.tick(now)
        for client in deployment.clients:
            client.tick(now)
        if len(loop.ready) <= SATURATION_HIGH_WATER:
            calm_at = time.monotonic()
        elif time.monotonic() - calm_at > SATURATION_HOLD_S:
            saturated = True
        stopped = peers is not None and peers.stop.is_set()

    def sample_cpu():
        # process CPU time over wall time, in percent of one core
        wall, cpu = time.monotonic(), time.process_time()
        while True:
            yield wall + 0.5
            last_wall, last_cpu, wall, cpu = wall, cpu, time.monotonic(), time.process_time()
            cpu_samples.append((clock(), deployment.placement.label,
                                100.0 * (cpu - last_cpu) / (wall - last_wall)))

    def on_event(topic, event):  # a round trip's echo reached its edge
        rid = event.fields.get("rid")
        if isinstance(rid, int):
            sink.received(rid, clock())

    def on_acl(message):
        if message.sender != ECHO_SERVICE:
            return
        fields = message.content.get("fields")
        rid = fields.get("rid") if isinstance(fields, dict) else None
        if isinstance(rid, int):
            sink.received(rid, clock())

    def drained() -> bool:
        return saturated or (
            sink.in_flight == 0 and all(c.inflight_count() == 0 for c in deployment.clients)
        )

    try:
        if peers is not None:
            peers.ready()
        for edge in deployment.edges.values():
            edge.on_event, edge.on_acl = on_event, on_acl
        loop.after_turn = deployment.pump_edges  # it skips edges nothing has flagged
        for task in _tasks(deployment, sink, rate_override, due):
            loop.start(awaited(task))
        if not virtual:
            loop.start(every(0.05, tick))
            loop.start(sample_cpu())
        loop.run_until(lambda: not sending or saturated, run.duration_s + 6.0)
        loop.run_until(drained, DRAIN_S)
        if peers is not None:
            peers.drained()
            loop.run_until(lambda: stopped)
            loop.run_until(drained, DRAIN_S)
    finally:
        report = _collect(deployment, sink, run, cpu_samples, saturated)
        deployment.close()
    return report
