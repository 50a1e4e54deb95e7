"""Scenario runner: builds the topology, drives the scripted timeline,
simulators and agent timers, measures round trips, and produces a
:class:`RunReport`.

One builder, :class:`Deployment`, makes the process's one clock, from the
run, and wires the nodes over links of one kind, from the placement:
``queue`` (in-process, queued on the process's one loop) under either clock,
or ``tcp`` (local sockets on that loop) when its :class:`Placement` hosts
only part of the deployment, in a run split over OS processes (see
:mod:`.procs`). The placement says which nodes this process hosts: the core
tier (broker, gateways, fogs, clouds, user node and feeder) and which edges;
by default, everything.

One driver, :func:`drive`, runs a deployment's tasks on its loop: the
engines' window boundaries, then the timeline, each simulator and each
edge's agent timers, generators that yield the ms of the clock they are
next due at, and the QoS 1 re-sends. Ties run in start order; the edges are
pumped after every turn. No input due after the duration applies, and one
that raises an :class:`AtmosphereError` is logged and ends there. The loop,
the tasks and the nodes all read the one clock, counted in ms from the
run's start:

* ``event_time``: a :class:`LogicalClock`, which the loop moves to the next
  timer once every queued message has arrived. Byte-identical output for a
  given seed; used for all correctness runs.
* ``processing_time``: a :class:`WallClock`, whose timers the loop waits
  for, plus a CPU sample; the benches, in one process or in each of a split
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

from ..agents import AclMessage, GatewayClient, GatewayServer, parse_agent_spec
from ..errors import AtmosphereError, ConfigError
from ..events import Event, encode_event
from ..mqtt import Broker, MqttClient
from ..nodes import CloudNode, EdgeNode, FogNode, UserNode, topics
from ..record import Record
from ..transport import LogicalClock, Loop, TcpServer, WallClock, connect_tcp, make_queue_pair
from .config import RunDefaults, ScenarioConfig
from .generators import EventFactory, emission_times_ms
from .metrics import MetricsSink, RunReport

logger = logging.getLogger(__name__)

SATURATION_LAG_MS = 100  # a send this late falls in the paper's top latency bucket
SATURATION_HOLD_MS = 5000
DRAIN_S = 10.0
ECHO_SERVICE = "echo"
SINK_SERVICE = "svc"
TCP_HOST = "127.0.0.1"


class RunOverrides:
    """Run settings that replace the scenario's where they are not None."""

    __slots__ = ("rate", "qos", "duration_s", "mode", "clock", "seed", "warmup_s")

    def __init__(self, rate: float | None = None, qos: int | None = None,
                 duration_s: float | None = None, mode: str | None = None,
                 clock: str | None = None, seed: int | None = None, warmup_s: float | None = None):
        self.rate = rate
        self.qos = qos
        self.duration_s = duration_s
        self.mode = mode
        self.clock = clock
        self.seed = seed
        self.warmup_s = warmup_s


def resolve_run(config: ScenarioConfig, overrides: RunOverrides | None) -> RunDefaults:
    """The scenario's run settings with the overrides that are set (all but ``rate``)."""
    run = config.run
    if overrides is None:
        return run

    def pick(name):
        value = getattr(overrides, name)
        return getattr(run, name) if value is None else value

    return RunDefaults(*map(pick, RunDefaults.__slots__))


class Placement(Record):
    """Which nodes of a deployment this process hosts.

    ``core`` is the broker, the gateways, the fog and cloud nodes, the user
    node and the feeder; ``edges`` names the hosted edges, ``None`` for all.
    A placement without the core reaches it over tcp at ``core_ports``, the
    core's :attr:`Deployment.ports`.
    """

    __slots__ = ("core", "edges", "core_ports")

    def __init__(self, core: bool = True, edges: tuple[str, ...] | None = None,
                 core_ports: dict | None = None):
        self.core = core
        self.edges = edges
        self.core_ports = core_ports

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
    wired to one broker and per-fog gateways, all on one ``clock`` that
    ``loop`` counts on: a :class:`LogicalClock` in event time, a
    :class:`WallClock` in processing time. Links are ``queue`` links on
    ``loop``, or ``tcp`` links on it for a placement of part of the
    deployment; the loop pumps the flagged edges after each turn."""

    def __init__(self, config: ScenarioConfig, run: RunDefaults,
                 placement: Placement = Placement()):
        # first, so that sends are due from before the build
        self.clock = clock = LogicalClock() if run.clock == "event_time" else WallClock()
        self.config = config
        self.run = run
        self.link = link = "tcp" if placement != Placement() else "queue"
        self.placement = placement
        self.registry = config.build_registry()
        self.loop = Loop(clock)
        self.loop.after_turn = self.pump_edges
        self._flagged: list[EdgeNode] = []  # edges flagged since the last pump, see pump_edges
        # under tcp, where the core serves: {"broker": port, "gateways": {fog: port}}
        self.ports = placement.core_ports

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
            self.broker = Broker()
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
                        clock,
                        extra_inputs=fog_cfg.extra_inputs,
                        qos=run.qos,
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
                    clock=clock,
                    qos=run.qos,
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
            edge.on_work = self._flagged.append
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

    def _mqtt_client(self, client_id: str) -> MqttClient:
        if self.link == "tcp":
            endpoint = connect_tcp(TCP_HOST, self.ports["broker"], self.loop, name=client_id)
        else:
            endpoint, far = make_queue_pair(f"{client_id}-c", f"{client_id}-b", self.loop)
            self.broker.attach(far)
        client = MqttClient(client_id)
        client.connect(endpoint)
        self.clients.append(client)
        return client

    def _gateway_client(self, edge_id: str, fog_id: str) -> GatewayClient:
        if self.link == "tcp":
            endpoint = connect_tcp(TCP_HOST, self.ports["gateways"][fog_id], self.loop,
                                   name=f"{edge_id}-gw")
        else:
            endpoint, far = make_queue_pair(f"{edge_id}-gw-c", f"{edge_id}-gw-s", self.loop)
            self.gateways[fog_id].attach_channel(far)
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
        """Pump the edges flagged since the last pump (``on_work``), in config
        order; the stimuli processed. An unflagged edge has empty mailboxes,
        and a pump empties its edge's in one pass, so none is left flagged."""
        flagged = self._flagged
        edges = flagged[:] if len(flagged) < 2 else [e for e in self.edges.values() if e.has_work]
        flagged.clear()
        return sum(edge.pump() for edge in edges if edge.has_work)

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
    return drive(Deployment(config, run), rate_override)


# -- the run's tasks ----------------------------------------------------------------


def _tasks(deployment: Deployment, sink: MetricsSink, rate_override) -> list:
    """The run's tasks in rank order: the engine boundaries first, so that a
    boundary runs before the inputs due in its ms, the timeline, one per
    hosted simulator and, in full mode, one per hosted edge for its agent
    timers. Each yields the ms of the deployment's clock it is next due at,
    an offset from the run's start. Simulator i numbers its round trips on
    from the rid-bearing sends of the simulators before it, so every
    placement gives the same ids."""
    config, run = deployment.config, deployment.run
    duration_ms = int(run.duration_s * 1000)
    tasks = [_engine_boundaries(deployment, duration_ms), _timeline(deployment, duration_ms)]
    rid = 0
    for index, sim in enumerate(config.simulators):
        rate = rate_override if rate_override is not None else sim.rate
        if sim.edge in deployment.edges:
            seed = run.seed * 1000 + sim.seed + index
            tasks.append(_simulate(deployment, sink, sim, seed, rate, rid))
        if "rid" in sim.generators:
            rid += int(rate * run.duration_s)  # the length of its emission_times_ms
    if run.mode == "full":  # timer rules fire in full-architecture runs only
        tasks += [_agent_timers(deployment, edge, duration_ms) for edge in deployment.edges.values()]
    return tasks


def _engine_boundaries(deployment: Deployment, duration_ms: int):
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
        yield at_ms
        for node in nodes:
            node.advance(at_ms)


def _timeline(deployment: Deployment, duration_ms: int):
    """The scripted timeline's entries, up to the run's duration."""
    for entry in deployment.config.timeline:  # sorted by at_ms
        if entry.at_ms > duration_ms:
            return
        yield entry.at_ms
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
              rid: int):
    """One simulator's sends at ``rate``, its round trips numbered from ``rid`` + 1."""
    factory = EventFactory(sim.generators, seed=seed)
    for at_ms in emission_times_ms(rate, deployment.run.duration_s):
        yield at_ms
        fields = factory.next_fields()
        if "rid" in fields:
            rid += 1
            fields["rid"] = rid
        _emit_probe(deployment, sink, sim.edge, sim.stream, fields, at_ms)


def _agent_timers(deployment: Deployment, edge: EdgeNode, duration_ms: int):
    """``edge``'s timer rules, one fire per resume, counted from the run's
    start up to its duration. With no timer due by then the task waits for
    the duration, and a rule update that starts a timer sooner resumes it
    then (``EdgeNode.on_timer``)."""
    loop, rank = deployment.loop, deployment.loop.running
    edge.on_timer = lambda at_ms: loop.wake(rank, at_ms)
    at_ms = edge.start_timers(0)
    while True:
        yield duration_ms if at_ms is None else min(at_ms, duration_ms)
        now_ms = min(deployment.clock(), duration_ms)
        at_ms = edge.tick_timers(now_ms)
        if now_ms == duration_ms and (at_ms is None or at_ms > duration_ms):
            return


def resends(loop: Loop, owners: list, until_ms: float):
    """QoS 1 re-sends of ``owners`` (brokers, clients) at their due times on
    ``loop``'s clock; an entry due sooner wakes the task (``on_resend``).
    With nothing in flight it waits for ``until_ms``, and past it it ends:
    with ``until_ms`` infinite, it waits on."""
    rank = loop.running
    at_ms = until_ms

    def on_resend(due_ms: int) -> None:
        nonlocal at_ms
        if due_ms < at_ms:
            at_ms = due_ms
            loop.wake(rank, due_ms)

    for owner in owners:
        owner.on_resend = on_resend
    while True:
        yield at_ms
        now_ms = loop.clock()
        at_ms = until_ms if now_ms < until_ms else float("inf")  # on_resend may lower it
        dues = [owner.tick(now_ms) for owner in owners]
        at_ms = min([at for at in dues if at is not None] + [at_ms])
        if at_ms == float("inf") and until_ms < at_ms:
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
    with, its offset from the clock origin, and the QoS 1 re-sends; then the
    wait for in-flight round trips and acks. Both end early once every
    hosted edge's probe link (its broker client, or its gateway channel in
    agents-only mode) has closed. On a virtual clock the run ends once
    nothing is left to run, and the CPU sample stays out.

    ``peers`` ties this process to the others of a split run:
    ``peers.ready()`` returns once this one may start sending, and
    ``peers.drained(loop)`` runs the loop on until the parent stops it.
    """
    run, clock, loop = deployment.run, deployment.clock, deployment.loop
    virtual = run.clock == "event_time"
    sink = MetricsSink(run.qos, run.mode)
    cpu_samples: list[tuple[int, str, float]] = []
    saturated = False
    late_at = None  # the first of the latest resumes in a row over SATURATION_LAG_MS late
    sending = 0  # tasks not yet ended
    probes = [edge.gateway_client if run.mode == "agents-only" else edge.broker_client
              for edge in deployment.edges.values()]

    def awaited(task):
        """``task``, counted in ``sending`` until it ends; saturation or a
        failed input ends it early. On the wall clock, the run is saturated
        once every resume for ``SATURATION_HOLD_MS`` came over
        ``SATURATION_LAG_MS`` after its due time."""
        nonlocal sending, saturated, late_at
        sending += 1
        try:
            for at in task:
                yield at
                if not virtual:
                    now = clock.now
                    if now - at <= SATURATION_LAG_MS:
                        late_at = None
                    elif late_at is None:
                        late_at = now
                    elif now - late_at > SATURATION_HOLD_MS:
                        saturated = True
                if saturated:
                    break
        except AtmosphereError as exc:
            logger.error("input failed: %s", exc)
        finally:
            sending -= 1

    def sample_cpu():
        # process CPU time over wall time, in percent of one core
        wall, cpu = clock.now, time.process_time()
        while True:
            yield wall + 500
            last_wall, last_cpu, wall, cpu = wall, cpu, clock.now, time.process_time()
            cpu_samples.append((clock(), deployment.placement.label,
                                100.0 * (cpu - last_cpu) / ((wall - last_wall) / 1000)))

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

    def cut_off() -> bool:  # every hosted edge's probe link has closed
        return bool(probes) and not any(probe.connected for probe in probes)

    def drained() -> bool:  # or nothing in flight can complete
        return saturated or cut_off() or (
            not loop.ready and sink.in_flight == 0
            and all(c.inflight_count() == 0 for c in deployment.clients))

    try:
        if peers is not None:
            peers.ready()
        for edge in deployment.edges.values():
            edge.on_event, edge.on_acl = on_event, on_acl
        for task in _tasks(deployment, sink, rate_override):
            loop.start(awaited(task))
        owners = [owner for owner in (deployment.broker, *deployment.clients) if owner is not None]
        loop.start(resends(loop, owners, int(run.duration_s * 1000)))
        if not virtual:
            loop.start(sample_cpu())
        loop.run_until(lambda: not sending or saturated or cut_off(), run.duration_s + 6.0)
        loop.run_until(drained, DRAIN_S)
        if peers is not None:
            peers.drained(loop)
            loop.run_until(drained, DRAIN_S)
    finally:
        report = _collect(deployment, sink, run, cpu_samples, saturated)
        deployment.close()
    return report
