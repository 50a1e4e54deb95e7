"""Command line interface.

``atmosphere run`` executes a scenario and writes ``latency.csv``,
``cpu.csv`` and ``summary.json`` (plus alert/emission logs for event-time
runs) to the output directory. ``atmosphere validate`` only loads and checks
a scenario. ``atmosphere oracle`` replays an event log through each node's
patterns with the reference replay, for debugging.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .cep import oracle_replay
from .errors import AtmosphereError
from .events import decode_event
from .harness import RunOverrides, load_scenario, run_scenario

logger = logging.getLogger(__name__)

_CLOCKS = {"event": "event_time", "processing": "processing_time"}


@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Three-tier IoT event processing testbed."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(), help="Scenario JSON file.")
@click.option("--rate", type=float, default=None, help="Override all simulator rates (events/s).")
@click.option("--qos", type=click.IntRange(0, 1), default=None, help="MQTT QoS level.")
@click.option("--duration", "duration_s", type=float, default=None, help="Run duration in seconds.")
@click.option("--mode", type=click.Choice(["full", "cep-only", "agents-only"]), default=None)
@click.option("--clock", type=click.Choice(["event", "processing"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--warmup", "warmup_s", type=float, default=None, help="Seconds excluded from summary stats.")
@click.option("--out", "out_dir", type=click.Path(), default="out", show_default=True)
@click.option("--processes", is_flag=True, help="Run nodes as separate OS processes over TCP.")
def run(scenario_path, rate, qos, duration_s, mode, clock, seed, warmup_s, out_dir, processes):
    """Run a scenario and write CSV/JSON reports."""
    try:
        config = load_scenario(scenario_path)
        overrides = RunOverrides(
            rate=rate,
            qos=qos,
            duration_s=duration_s,
            mode=mode,
            clock=_CLOCKS[clock] if clock else None,
            seed=seed,
            warmup_s=warmup_s,
        )
        report = run_scenario(config, overrides, processes=processes)
    except AtmosphereError as exc:
        raise click.ClickException(str(exc)) from None
    out = report.write(out_dir)
    summary = report.summary()
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    click.echo(f"report written to {out}", err=True)
    if report.saturated:
        click.echo("run aborted: broker saturated", err=True)
        sys.exit(2)


@main.command()
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=int, default=1883, show_default=True)
def broker(host, port):
    """Serve a standalone broker over TCP (for third-party MQTT clients) until SIGINT or SIGTERM."""
    import signal

    from .harness.runner import resends
    from .mqtt import Broker
    from .transport import Loop, TcpServer

    loop = Loop()
    core = Broker(clock=loop.clock)
    try:
        server = TcpServer(host, port, core.attach, loop)
    except AtmosphereError as exc:
        raise click.ClickException(str(exc)) from None
    for signum in (signal.SIGINT, signal.SIGTERM):
        # SystemExit leaves the loop's select too: PEP 475 retries it only if this returns
        signal.signal(signum, lambda signum, frame: sys.exit(0))
    click.echo(f"broker listening on {host}:{server.port}", err=True)
    loop.start(resends(loop, [core], float("inf")))
    try:
        loop.run_until(lambda: False)
    finally:
        loop.close()


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
def validate(scenario_path):
    """Load and fully validate a scenario file."""
    try:
        config = load_scenario(scenario_path)
    except AtmosphereError as exc:
        raise click.ClickException(str(exc)) from None
    patterns = sum(len(f.patterns) for f in config.fogs) + sum(
        len(c.patterns) for c in config.clouds
    )
    agents = sum(len(e.agent_specs) for e in config.edges)
    click.echo(
        f"{config.name}: OK ({len(config.fogs)} fog, {len(config.clouds)} cloud, "
        f"{len(config.edges)} edge, {patterns} patterns, {agents} agents, "
        f"{len(config.timeline)} timeline entries)"
    )


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--log", "log_path", required=True, type=click.Path(), help="JSONL of canonical event payloads.")
@click.option("--horizon-ms", type=int, default=None, help="Replay horizon (default: last event + largest window).")
@click.option("--node", "only_node", default=None, help="Replay only this fog/cloud node.")
def oracle(scenario_path, log_path, horizon_ms, only_node):
    """Replay an event log through the reference engine semantics."""
    try:
        config = load_scenario(scenario_path)
        registry = config.build_registry()
        log = []
        with open(log_path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    log.append(decode_event(line.encode("utf-8"), registry))
                except AtmosphereError as exc:
                    raise AtmosphereError(f"{log_path}:{line_no}: {exc}") from None
        log.sort(key=lambda event: event.timestamp)
        nodes = [(f.id, list(f.patterns)) for f in config.fogs] + [
            (c.id, list(c.patterns)) for c in config.clouds
        ]
        if only_node is not None:
            nodes = [(node_id, patterns) for node_id, patterns in nodes if node_id == only_node]
            if not nodes:
                raise AtmosphereError(f"no fog/cloud node named {only_node!r}")
        max_window = max(
            (p.window.to_ms() for _, patterns in nodes for p in patterns if p.window),
            default=0,
        )
        if horizon_ms is None:
            horizon_ms = (log[-1].timestamp if log else 0) + max_window
        for node_id, patterns in nodes:
            if not patterns:
                continue
            emissions = oracle_replay(
                patterns, config.build_registry(), log, horizon_ms, node_id=node_id
            )
            for emission in emissions:
                click.echo(
                    json.dumps(
                        {
                            "node": node_id,
                            "pattern": emission.produced_by,
                            "stream": emission.event.stream,
                            "at": emission.event.timestamp,
                            "target": emission.target_tag,
                            "fields": emission.event.fields,
                        },
                        separators=(",", ":"),
                    )
                )
    except AtmosphereError as exc:
        raise click.ClickException(str(exc)) from None


if __name__ == "__main__":
    main()
