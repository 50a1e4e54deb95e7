"""Scenario configuration: one JSON document describing schemas, topology,
agents, pattern files, simulators, a scripted timeline, and run defaults.

``load_scenario`` fully validates the document: cross-references resolve,
node ids are single topic levels, configured topics and filters are valid
MQTT, pattern files parse and type-check, derived stream schemas are inferred
globally (so a fog may consume a cloud-derived stream), and agent rules are
checked against their specs. The nodes built from the config do not check it
again. Errors carry JSON-pointer-style paths.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..agents import parse_agent_spec
from ..agents.model import parse_topic
from ..cep import check_predicate_types, register_output_schema
from ..errors import AtmosphereError, ConfigError, SchemaError
from ..events import EventSchema, FIELD_TYPES, SchemaRegistry
from ..mqtt.packets import validate_topic_filter, validate_topic_name
from ..nodes import SinkSpec, SourceSpec, TransformerSpec
from ..patterns import PatternDef, parse_patterns
from ..record import Record

MODES = ("full", "cep-only", "agents-only")
CLOCKS = ("event_time", "processing_time")
GENERATOR_KINDS = ("constant", "uniform_int", "choice", "bernoulli", "sequence")


class FogConfig(Record):
    __slots__ = ("id", "patterns", "extra_inputs")

    def __init__(self, id: str, patterns: tuple = (), extra_inputs: tuple = ()):
        self.id = id
        self.patterns = patterns
        self.extra_inputs = extra_inputs


class CloudConfig(Record):
    __slots__ = ("id", "patterns", "sources", "transformers", "sinks")

    def __init__(self, id: str, patterns: tuple = (), sources: tuple = (), transformers: tuple = (),
                 sinks: tuple = ()):
        self.id = id
        self.patterns = patterns
        self.sources = sources
        self.transformers = transformers
        self.sinks = sinks


class EdgeConfig(Record):
    __slots__ = ("id", "fog", "agent_specs")

    def __init__(self, id: str, fog: str, agent_specs: tuple = ()):
        self.id = id
        self.fog = fog
        self.agent_specs = agent_specs


class UserConfig(Record):
    __slots__ = ("id", "fog")

    def __init__(self, id: str, fog: str):
        self.id = id
        self.fog = fog


class SimulatorSpec(Record):
    __slots__ = ("edge", "stream", "rate", "generators", "seed")

    def __init__(self, edge: str, stream: str, rate: float, generators: dict | None = None,
                 seed: int = 0):
        self.edge = edge
        self.stream = stream
        self.rate = rate
        self.generators = {} if generators is None else generators
        self.seed = seed


class TimelineEntry(Record):
    __slots__ = ("at_ms", "kind", "data")

    def __init__(self, at_ms: int, kind: str, data: dict | None = None):
        self.at_ms = at_ms
        self.kind = kind
        self.data = {} if data is None else data


class RunDefaults(Record):
    __slots__ = ("duration_s", "qos", "mode", "clock", "seed", "warmup_s")

    def __init__(self, duration_s: float = 10.0, qos: int = 0, mode: str = "full",
                 clock: str = "event_time", seed: int = 0, warmup_s: float = 10.0):
        self.duration_s = duration_s
        self.qos = qos
        self.mode = mode
        self.clock = clock
        self.seed = seed
        self.warmup_s = warmup_s


class ScenarioConfig(Record):
    __slots__ = ("name", "schemas", "fogs", "clouds", "edges", "user", "simulators", "timeline", "run")

    def __init__(self, name: str, schemas: tuple, fogs: tuple, clouds: tuple, edges: tuple,
                 user: UserConfig | None, simulators: tuple, timeline: tuple, run: RunDefaults):
        self.name = name
        self.schemas = schemas
        self.fogs = fogs
        self.clouds = clouds
        self.edges = edges
        self.user = user
        self.simulators = simulators
        self.timeline = timeline
        self.run = run

    def build_registry(self) -> SchemaRegistry:
        """Fresh registry: declared input schemas plus inferred derived ones."""
        registry = SchemaRegistry([EventSchema(s.stream, dict(s.fields)) for s in self.schemas])
        for pattern in self.patterns_in_dependency_order():
            register_output_schema(pattern, registry)
            check_predicate_types(pattern, registry)
        return registry

    def patterns_in_dependency_order(self) -> list[PatternDef]:
        """Global topological order across all nodes' patterns."""
        pending: list[PatternDef] = []
        for node in list(self.fogs) + list(self.clouds):
            pending.extend(node.patterns)
        available = {s.stream for s in self.schemas}
        ordered: list[PatternDef] = []
        while pending:
            placed = [p for p in pending if all(s in available for s in p.input_streams())]
            if not placed:
                names = ", ".join(p.name for p in pending)
                raise ConfigError(
                    f"patterns cannot be ordered (unknown stream or cycle): {names}",
                    "/topology",
                )
            for pattern in placed:
                ordered.append(pattern)
                available.add(pattern.insert_into)
                pending.remove(pattern)
        return ordered


def _req(doc: dict, key: str, path: str, kind=None):
    if key not in doc:
        raise ConfigError(f"missing {key!r}", path)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{key!r} has the wrong type", f"{path}/{key}")
    return value


def _number(doc: dict, key: str, default, path: str, kind=(int, float)):
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):  # JSON true is a bool, not a number
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}", f"{path}/{key}")
    return value


def _parse_schemas(doc: dict, path: str) -> list[EventSchema]:
    schemas = []
    for stream, fields in doc.items():
        if not isinstance(fields, dict):
            raise ConfigError("schema must map field names to types", f"{path}/{stream}")
        for fname, ftype in fields.items():
            if ftype not in FIELD_TYPES:
                raise ConfigError(
                    f"unknown field type {ftype!r}", f"{path}/{stream}/{fname}"
                )
        try:
            schemas.append(EventSchema(stream, dict(fields)))
        except AtmosphereError as exc:
            raise ConfigError(str(exc), f"{path}/{stream}") from None
    return schemas


def _load_pattern_files(files, base_dir: Path, path: str) -> list[PatternDef]:
    patterns: list[PatternDef] = []
    for i, name in enumerate(files):
        file_path = base_dir / name
        if not file_path.is_file():
            raise ConfigError(f"pattern file not found: {name}", f"{path}/{i}")
        try:
            patterns.extend(parse_patterns(file_path.read_text("utf-8")))
        except AtmosphereError as exc:
            raise ConfigError(f"{name}: {exc}", f"{path}/{i}") from None
    return patterns


def _parse_generator(doc: dict, path: str) -> dict:
    kind = doc.get("kind")
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}", path)
    if kind == "constant" and "value" not in doc:
        raise ConfigError("constant generator needs a value", path)
    if kind == "uniform_int":
        low, high = doc.get("low"), doc.get("high")
        if not isinstance(low, int) or not isinstance(high, int) or low > high:
            raise ConfigError("uniform_int needs integer low <= high", path)
    if kind == "choice":
        values = doc.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("choice generator needs a non-empty values list", path)
    if kind == "bernoulli":
        p = doc.get("p")
        if not isinstance(p, (int, float)) or not 0 <= p <= 1:
            raise ConfigError("bernoulli generator needs p in [0, 1]", path)
    return dict(doc)


def _sample_values(generator: dict) -> list:
    """Values of every type ``generator`` can produce, its bounds included."""
    kind = generator["kind"]
    if kind == "constant":
        return [generator["value"]]
    if kind == "choice":
        return generator["values"]
    if kind == "uniform_int":
        return [generator["low"], generator["high"]]
    return [True] if kind == "bernoulli" else [1]  # a sequence counts from 1


def load_scenario(path: str | Path) -> ScenarioConfig:
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        doc = json.loads(file_path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    base_dir = file_path.parent

    name = _req(doc, "name", "", str)
    schemas = _parse_schemas(_req(doc, "schemas", "", dict), "/schemas")
    topology = _req(doc, "topology", "", dict)

    node_ids: set[str] = set()

    def claim(node_id: str, path: str) -> str:
        if not node_id or set(node_id) & set("/+#\0"):
            raise ConfigError(f"node id {node_id!r} must be one topic level, "
                              "without '/', '+' or '#'", f"{path}/id")
        if node_id in node_ids:
            raise ConfigError(f"duplicate node id {node_id!r}", path)
        node_ids.add(node_id)
        return node_id

    fogs = []
    for i, fog_doc in enumerate(topology.get("fogs", [])):
        fog_path = f"/topology/fogs/{i}"
        fog_id = claim(_req(fog_doc, "id", fog_path, str), fog_path)
        patterns = _load_pattern_files(
            fog_doc.get("patterns", []), base_dir, f"{fog_path}/patterns"
        )
        for pattern in patterns:
            if pattern.target is None:
                raise ConfigError(
                    f"fog pattern {pattern.name!r} needs a target tag",
                    f"{fog_path}/patterns",
                )
        fogs.append(
            FogConfig(
                id=fog_id,
                patterns=tuple(patterns),
                extra_inputs=tuple(
                    parse_topic(validate_topic_filter, topic, f"{fog_path}/extra_inputs/{j}")
                    for j, topic in enumerate(fog_doc.get("extra_inputs", []))
                ),
            )
        )

    clouds = []
    for i, cloud_doc in enumerate(topology.get("clouds", [])):
        cloud_path = f"/topology/clouds/{i}"
        cloud_id = claim(_req(cloud_doc, "id", cloud_path, str), cloud_path)
        patterns = _load_pattern_files(
            cloud_doc.get("patterns", []), base_dir, f"{cloud_path}/patterns"
        )
        transformers = []
        for j, tdoc in enumerate(cloud_doc.get("transformers", [])):
            tpath = f"{cloud_path}/transformers/{j}"
            kind = tdoc.get("kind", "map")
            if kind not in ("map", "passthrough"):
                raise ConfigError(f"unknown transformer kind {kind!r}", tpath)
            fields = tuple(
                (_req(f, "from", f"{tpath}/fields/{k}", str), _req(f, "to", f"{tpath}/fields/{k}", str))
                for k, f in enumerate(tdoc.get("fields", []))
            )
            transformers.append(
                TransformerSpec(
                    id=_req(tdoc, "id", tpath, str),
                    output_stream=_req(tdoc, "output_stream", tpath, str) if kind == "map" else tdoc.get("output_stream", ""),
                    kind=kind,
                    fields=fields,
                    defaults=dict(tdoc.get("defaults", {})),
                )
            )
        transformer_ids = {t.id for t in transformers}
        sources = []
        for j, sdoc in enumerate(cloud_doc.get("sources", [])):
            spath = f"{cloud_path}/sources/{j}"
            transformer = _req(sdoc, "transformer", spath, str)
            if transformer not in transformer_ids:
                raise ConfigError(f"unknown transformer {transformer!r}", spath)
            topic = parse_topic(validate_topic_name, _req(sdoc, "topic", spath), f"{spath}/topic")
            sources.append(SourceSpec(topic=topic, transformer=transformer))
        sinks = []
        covered: set[str] = set()
        for j, kdoc in enumerate(cloud_doc.get("sinks", [])):
            kpath = f"{cloud_path}/sinks/{j}"
            kind = _req(kdoc, "kind", kpath, str)
            if kind not in ("topic", "notification"):
                raise ConfigError(f"unknown sink kind {kind!r}", kpath)
            if kind == "topic":
                parse_topic(validate_topic_name, _req(kdoc, "topic", kpath), f"{kpath}/topic")
            for target in kdoc.get("targets", []):
                if target in covered:
                    raise ConfigError(f"two sinks serve target {target!r}", f"{kpath}/targets")
                covered.add(target)
            sinks.append(
                SinkSpec(
                    id=_req(kdoc, "id", kpath, str),
                    kind=kind,
                    targets=tuple(kdoc.get("targets", [])),
                    topic=kdoc.get("topic"),
                )
            )
        for pattern in patterns:
            if pattern.target is None or pattern.target not in covered:
                raise ConfigError(
                    f"cloud pattern {pattern.name!r} target has no sink",
                    f"{cloud_path}/patterns",
                )
        # a map transformer's output stream must be a declared schema
        declared = {s.stream for s in schemas}
        for transformer in transformers:
            if transformer.kind == "map" and transformer.output_stream not in declared:
                raise ConfigError(
                    f"transformer {transformer.id!r} outputs undeclared stream "
                    f"{transformer.output_stream!r}",
                    cloud_path,
                )
        clouds.append(
            CloudConfig(
                id=cloud_id,
                patterns=tuple(patterns),
                sources=tuple(sources),
                transformers=tuple(transformers),
                sinks=tuple(sinks),
            )
        )

    fog_ids = {f.id for f in fogs}
    edges = []
    for i, edge_doc in enumerate(topology.get("edges", [])):
        edge_path = f"/topology/edges/{i}"
        edge_id = claim(_req(edge_doc, "id", edge_path, str), edge_path)
        fog = _req(edge_doc, "fog", edge_path, str)
        if fog not in fog_ids:
            raise ConfigError(f"edge {edge_id!r} references unknown fog {fog!r}", edge_path)
        agent_specs = tuple(
            parse_agent_spec(a, f"{edge_path}/agents/{j}")
            for j, a in enumerate(edge_doc.get("agents", []))
        )
        seen_agents = set()
        for spec in agent_specs:
            if spec.id in seen_agents:
                raise ConfigError(f"duplicate agent id {spec.id!r}", edge_path)
            seen_agents.add(spec.id)
        edges.append(EdgeConfig(id=edge_id, fog=fog, agent_specs=agent_specs))

    user = None
    if "user" in topology:
        user_doc = topology["user"]
        user_path = "/topology/user"
        user_id = claim(_req(user_doc, "id", user_path, str), user_path)
        fog = _req(user_doc, "fog", user_path, str)
        if fog not in fog_ids:
            raise ConfigError(f"user references unknown fog {fog!r}", user_path)
        user = UserConfig(id=user_id, fog=fog)

    edge_agents = {e.id: {spec.id for spec in e.agent_specs} for e in edges}
    declared_streams = {s.stream for s in schemas}
    simulators = []
    for i, sim_doc in enumerate(doc.get("simulators", [])):
        sim_path = f"/simulators/{i}"
        edge = _req(sim_doc, "edge", sim_path, str)
        if edge not in edge_agents:
            raise ConfigError(f"unknown edge {edge!r}", sim_path)
        stream = _req(sim_doc, "stream", sim_path, str)
        if stream not in declared_streams:
            raise ConfigError(f"unknown stream {stream!r}", sim_path)
        rate = sim_doc.get("rate")
        if not isinstance(rate, (int, float)) or rate <= 0:
            raise ConfigError("rate must be > 0", sim_path)
        generators = {
            fname: _parse_generator(g, f"{sim_path}/fields/{fname}")
            for fname, g in sim_doc.get("fields", {}).items()
        }
        schema = next(s for s in schemas if s.stream == stream)
        if schema.fields.get("rid", "integer") != "integer":
            # the probe numbers round trips with integers and matches them exactly
            raise ConfigError("round-trip id 'rid' must be declared integer",
                              f"{sim_path}/fields/rid")
        if set(generators) != set(schema.fields):
            raise ConfigError(
                f"generators must cover the {stream!r} schema exactly", sim_path
            )
        for fname, generator in generators.items():
            try:
                for value in _sample_values(generator):
                    schema.coerce_value(fname, value)
            except SchemaError as exc:
                raise ConfigError(f"generator cannot feed the field: {exc}",
                                  f"{sim_path}/fields/{fname}") from None
        simulators.append(
            SimulatorSpec(
                edge=edge,
                stream=stream,
                rate=float(rate),
                generators=generators,
                seed=_number(sim_doc, "seed", 0, sim_path, int),
            )
        )

    cloud_topics = {s.topic for c in clouds for s in c.sources}
    timeline = []
    for i, entry_doc in enumerate(doc.get("timeline", [])):
        entry_path = f"/timeline/{i}"
        at_ms = entry_doc.get("at_ms")
        if type(at_ms) is not int or at_ms < 0:  # JSON true is a bool, not an int
            raise ConfigError("at_ms must be a non-negative integer", entry_path)
        kind = _req(entry_doc, "kind", entry_path, str)
        data = {k: v for k, v in entry_doc.items() if k not in ("at_ms", "kind", "repeat", "interval_ms")}
        repeat = entry_doc.get("repeat", 1)
        interval = entry_doc.get("interval_ms", 0)
        if type(repeat) is not int or repeat < 1:
            raise ConfigError("repeat must be a positive integer", entry_path)
        if type(interval) is not int or interval < 0:
            raise ConfigError("interval_ms must be a non-negative integer", entry_path)
        if kind == "sensor":
            edge = _req(data, "edge", entry_path, str)
            if edge not in edge_agents:
                raise ConfigError(f"unknown edge {edge!r}", entry_path)
            agent = _req(data, "agent", entry_path, str)
            if agent not in edge_agents[edge]:
                raise ConfigError(f"unknown agent {agent!r} on edge {edge!r}", entry_path)
            _req(data, "sensor", entry_path, str)
            if "value" not in data:
                raise ConfigError("sensor entry needs a value", entry_path)
        elif kind == "source":
            topic = _req(data, "topic", entry_path, str)
            if topic not in cloud_topics:
                raise ConfigError(f"no cloud source listens on {topic!r}", entry_path)
            _req(data, "raw", entry_path, dict)
        elif kind == "user_publish":
            if user is None:
                raise ConfigError("user_publish entry without a user node", entry_path)
            _req(data, "payload", entry_path, dict)
        else:
            raise ConfigError(f"unknown timeline entry kind {kind!r}", entry_path)
        for j in range(repeat):
            timeline.append(TimelineEntry(at_ms=at_ms + j * interval, kind=kind, data=data))
    timeline.sort(key=lambda entry: entry.at_ms)

    run_doc = doc.get("run", {})
    mode = run_doc.get("mode", "full")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}", "/run/mode")
    clock = run_doc.get("clock", "event_time")
    if clock not in CLOCKS:
        raise ConfigError(f"clock must be one of {CLOCKS}", "/run/clock")
    qos = run_doc.get("qos", 0)
    if qos not in (0, 1):
        raise ConfigError("qos must be 0 or 1", "/run/qos")
    run = RunDefaults(
        duration_s=float(_number(run_doc, "duration_s", 10.0, "/run")),
        qos=qos,
        mode=mode,
        clock=clock,
        seed=_number(run_doc, "seed", 0, "/run", int),
        warmup_s=float(_number(run_doc, "warmup_s", 10.0, "/run")),
    )

    config = ScenarioConfig(
        name=name,
        schemas=tuple(schemas),
        fogs=tuple(fogs),
        clouds=tuple(clouds),
        edges=tuple(edges),
        user=user,
        simulators=tuple(simulators),
        timeline=tuple(timeline),
        run=run,
    )
    config.build_registry()  # surfaces inference/typing errors at load time
    return config
