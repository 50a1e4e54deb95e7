"""Child-process deployment: the core tier (broker, gateways, fog and cloud
nodes, user client) in one OS process and each edge node in its own, talking
over local TCP. Used by ``run --processes`` for wall-clock bench runs; the
code above the transport is identical to the in-process driver.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import threading
import time

from ..agents import AclMessage, GatewayClient, GatewayServer, parse_agent_spec
from ..errors import ConfigError
from ..events import Event, encode_event
from ..mqtt import Broker, MqttClient
from ..nodes import CloudNode, EdgeNode, FogNode, UserNode, topics
from ..transport import TcpServer, connect_tcp as _connect_tcp_once
from .config import RunDefaults, ScenarioConfig
from .generators import EventFactory, emission_times_ms
from .metrics import MetricsRecord, MetricsSink, RunReport
from .runner import ECHO_SERVICE, SINK_SERVICE

logger = logging.getLogger(__name__)


def connect_tcp(host: str, port: int, name: str = "", attempts: int = 5):
    """Bounded-retry connect; a clean startup error once retries run out."""
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            return _connect_tcp_once(host, port, name=name)
        except Exception as exc:
            last = exc
            time.sleep(0.2 * (attempt + 1))
    raise ConfigError(f"cannot reach {host}:{port} after {attempts} attempts: {last}")


def _clock_from(start: float):
    return lambda: int((time.monotonic() - start) * 1000)


def _core_main(config: ScenarioConfig, run: RunDefaults, ports_q, stop, results_q):
    start = time.monotonic()
    clock = _clock_from(start)
    registry = config.build_registry()
    with_cep = run.mode != "agents-only"
    with_gateway = run.mode != "cep-only"
    broker = Broker(clock=clock)
    broker_server = TcpServer("127.0.0.1", 0, lambda endpoint: broker.attach(endpoint))

    gateways: dict[str, GatewayServer] = {}
    gateway_ports: dict[str, int] = {}
    fogs: list[FogNode] = []
    servers = [broker_server]
    for fog_cfg in config.fogs:
        if with_gateway:
            gateway = GatewayServer()
            gateway.register_service(SINK_SERVICE, lambda message: [])
            if run.mode == "agents-only":
                gateway.register_service(
                    ECHO_SERVICE,
                    lambda message: [
                        AclMessage(
                            "INFORM", ECHO_SERVICE, (message.sender,),
                            message.content, message.sent_at,
                        )
                    ],
                )
            server = TcpServer("127.0.0.1", 0, gateway.attach_channel)
            gateways[fog_cfg.id] = gateway
            gateway_ports[fog_cfg.id] = server.port
            servers.append(server)
        if with_cep:
            fogs.append(
                FogNode(
                    fog_cfg.id, broker, registry, list(fog_cfg.patterns),
                    mode="processing_time", extra_inputs=fog_cfg.extra_inputs,
                    qos=run.qos, wall_clock=clock,
                )
            )
    clouds: list[CloudNode] = []
    clients: list[MqttClient] = []

    def local_client(client_id: str) -> MqttClient:
        client = MqttClient(client_id, clock=clock)
        client.connect(connect_tcp("127.0.0.1", broker_server.port, name=client_id))
        clients.append(client)
        return client

    if with_cep:
        for cloud_cfg in config.clouds:
            cloud = CloudNode(
                cloud_cfg.id, registry, list(cloud_cfg.patterns),
                sources=list(cloud_cfg.sources), transformers=list(cloud_cfg.transformers),
                sinks=list(cloud_cfg.sinks), mode="processing_time",
                qos=run.qos, clock=clock, wall_clock=clock,
            )
            cloud.attach(local_client(cloud_cfg.id))
            clouds.append(cloud)
    user = None
    if config.user is not None:
        user = UserNode(config.user.id, config.user.fog, registry, qos=run.qos)
        user.attach(local_client(config.user.id))

    ports_q.put({"broker": broker_server.port, "gateways": gateway_ports})

    def ticker():
        while not stop.wait(0.05):
            now = clock()
            broker.tick(now)
            for client in clients:
                client.tick(now)
            for node in fogs + clouds:
                node.advance(now)

    tick_thread = threading.Thread(target=ticker, daemon=True)
    tick_thread.start()
    stop.wait()
    tick_thread.join(timeout=2.0)
    results_q.put(
        {
            "kind": "core",
            "acl": sum(g.counters["acl_in"] + g.counters["acl_out"] for g in gateways.values()),
            "dead": sum(len(f.dead_letters) for f in fogs) + sum(len(c.dead_letters) for c in clouds),
            "alerts": [
                {"at": e.timestamp, "stream": e.stream, "source": e.source, "fields": e.fields}
                for e in (user.alerts if user else [])
            ],
            "notifications": [n for c in clouds for n in c.notifications],
        }
    )
    for client in clients:
        client.disconnect()
    for server in servers:
        server.close()


def _edge_main(config: ScenarioConfig, run: RunDefaults, edge_id: str, ports, rate_override, stop, results_q):
    start = time.monotonic()
    clock = _clock_from(start)
    registry = config.build_registry()
    edge_cfg = config.edge(edge_id)
    specs = list(edge_cfg.agent_specs)
    if run.mode == "agents-only":
        specs.append(parse_agent_spec({"id": f"{edge_id}.probe"}, path="/probe"))
    edge = EdgeNode(edge_id, edge_cfg.fog, specs, registry, clock=clock, qos=run.qos)
    client = None
    if run.mode != "agents-only":
        client = MqttClient(edge_id, clock=clock)
        client.connect(connect_tcp("127.0.0.1", ports["broker"], name=edge_id))
        edge.attach_broker(client)
    if run.mode != "cep-only":
        gclient = GatewayClient(edge_id)
        gclient.connect(connect_tcp("127.0.0.1", ports["gateways"][edge_cfg.fog], name=f"{edge_id}-gw"))
        edge.attach_gateway(gclient)
    sink = MetricsSink(run.qos, run.mode)

    def on_event(topic, event):
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

    edge.on_event = on_event
    edge.on_acl = on_acl
    if run.mode == "full":
        edge.start_timers(clock())

    def pump_loop():
        while not stop.wait(0.002):
            if run.mode == "full":
                edge.tick_timers(clock())
            edge.pump()

    def tick_loop():
        while not stop.wait(0.05):
            if client is not None:
                client.tick(clock())

    for target in (pump_loop, tick_loop):
        threading.Thread(target=target, daemon=True).start()

    edge_index = [e.id for e in config.edges].index(edge_id)
    rid_counter = [edge_index * 10_000_000]  # disjoint per-edge id space

    def simulate(sim, index):
        rate = rate_override if rate_override is not None else sim.rate
        factory = EventFactory(sim.generators, seed=run.seed * 1000 + sim.seed + index)
        for offset_ms in emission_times_ms(rate, run.duration_s):
            if stop.is_set():
                return
            # from the exact start: ``clock()`` truncates to whole ms
            delay = start + offset_ms / 1000.0 - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            fields = factory.next_fields()
            at = clock()
            if "rid" in fields:
                rid_counter[0] += 1
                fields["rid"] = rid_counter[0]
                sink.sent(fields["rid"], at)
            if run.mode == "agents-only":
                edge.gateway_client.send(
                    AclMessage(
                        "INFORM", f"{edge_id}.probe", (ECHO_SERVICE,),
                        {"stream": sim.stream, "fields": fields}, at,
                    )
                )
            else:
                event = Event(sim.stream, fields, at, edge_id)
                client.publish(topics.fog_input(edge_cfg.fog), encode_event(event, registry), qos=run.qos)

    sim_threads = []
    for index, sim in enumerate(config.simulators):
        if sim.edge != edge_id:
            continue
        thread = threading.Thread(target=simulate, args=(sim, index), daemon=True)
        sim_threads.append(thread)
        thread.start()
    for thread in sim_threads:
        thread.join()
    drain_deadline = time.monotonic() + 10.0
    while time.monotonic() < drain_deadline and not stop.is_set():
        if sink.in_flight == 0 and (client is None or client.inflight_count() == 0):
            break
        time.sleep(0.02)
    stop.wait()
    counters = {
        "publish": 0 if client is None else client.counters["publish_sent"] + client.counters["publish_received"],
        "puback": 0 if client is None else client.counters["puback_sent"] + client.counters["puback_received"],
    }
    results_q.put(
        {
            "kind": "edge",
            "edge": edge_id,
            "records": [(r.round_trip_id, r.sent_at, r.received_at) for r in sink.records],
            "initiated": sink.initiated,
            "in_flight": sink.in_flight,
            "counters": counters,
            "dead": len(edge.dead_letters),
        }
    )
    if client is not None:
        client.disconnect()


def run_in_processes(config: ScenarioConfig, run: RunDefaults, rate_override) -> RunReport:
    if config.timeline:
        raise ConfigError("scripted timelines need the in-process event_time driver")
    ctx = mp.get_context("fork")
    stop = ctx.Event()
    ports_q = ctx.Queue()
    results_q = ctx.Queue()
    core = ctx.Process(
        target=_core_main, args=(config, run, ports_q, stop, results_q), name="core"
    )
    core.start()
    try:
        ports = ports_q.get(timeout=15)
    except Exception:
        core.terminate()
        raise ConfigError("core process failed to start") from None
    edge_procs = []
    for edge_cfg in config.edges:
        proc = ctx.Process(
            target=_edge_main,
            args=(config, run, edge_cfg.id, ports, rate_override, stop, results_q),
            name=f"edge-{edge_cfg.id}",
        )
        edge_procs.append(proc)
        proc.start()

    time.sleep(run.duration_s + 2.0)
    stop.set()
    results = []
    expected = 1 + len(edge_procs)
    deadline = time.monotonic() + 30.0
    while len(results) < expected and time.monotonic() < deadline:
        try:
            results.append(results_q.get(timeout=1.0))
        except Exception:
            continue
    for proc in [core] + edge_procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()

    report = RunReport(
        scenario=config.name,
        mode=run.mode,
        qos=run.qos,
        clock=run.clock,
        seed=run.seed,
        duration_s=run.duration_s,
        warmup_s=run.warmup_s,
    )
    counters = {"publish": 0, "puback": 0, "acl": 0}
    initiated = completed = in_flight = dead = 0
    for result in results:
        if result["kind"] == "core":
            counters["acl"] += result["acl"]
            dead += result["dead"]
            report.alerts.extend(result["alerts"])
            report.notifications.extend(result["notifications"])
        else:
            counters["publish"] += result["counters"]["publish"]
            counters["puback"] += result["counters"]["puback"]
            initiated += result["initiated"]
            in_flight += result["in_flight"]
            dead += result["dead"]
            for rid, sent_at, received_at in result["records"]:
                report.records.append(MetricsRecord(rid, sent_at, received_at, run.qos, run.mode))
            completed += len(result["records"])
    report.records.sort(key=lambda r: (r.sent_at, r.round_trip_id))
    report.counters = counters
    report.round_trips = {
        "initiated": initiated,
        "completed": completed,
        "in_flight": in_flight,
        "dead_lettered": dead,
    }
    return report
