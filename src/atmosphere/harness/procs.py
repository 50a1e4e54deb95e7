"""Child-process deployment: the core tier (broker, gateways, fog and cloud
nodes, user client) in one OS process and each edge node in its own, talking
over local TCP. Used by ``run --processes`` for wall-clock bench runs.

Each process builds its part with :class:`.runner.Deployment` over ``tcp``
links, placed by a :class:`.runner.Placement`, and runs it with
:func:`.runner.drive`: the code above the transport is identical to the
in-process driver. This module spawns the processes, hands the core's ports
to the edges, stops the core once every edge has reported, and merges the
partial reports.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import time

from ..errors import ConfigError
from . import runner
from .config import RunDefaults, ScenarioConfig
from .metrics import RunReport

STARTUP_TIMEOUT_S = 15.0
# past the run's duration: the edges' drain (up to 10 s) and teardown
REPORT_GRACE_S = 30.0


def _host(config: ScenarioConfig, run: RunDefaults, rate_override, placement, ports_q,
          stop, reports_q) -> None:
    """One process: build this placement's part, run it, send its report.

    The core hands its ports over as soon as it serves them and runs until
    ``stop``; an edge reports once it has drained.
    """
    clock = runner.WallClock()
    deployment = runner.Deployment(config, run, clock, "tcp", placement)
    if placement.core:
        ports_q.put(deployment.ports)
    until = stop if placement.core else None
    reports_q.put(runner.drive(deployment, rate_override, until))


def run_in_processes(config: ScenarioConfig, run: RunDefaults, rate_override) -> RunReport:
    if config.timeline:
        raise ConfigError("scripted timelines need the in-process event_time driver")
    ctx = mp.get_context("fork")
    stop = ctx.Event()
    ports_q = ctx.Queue()
    reports_q = ctx.Queue()

    def spawn(name: str, placement: runner.Placement):
        proc = ctx.Process(
            target=_host,
            args=(config, run, rate_override, placement, ports_q, stop, reports_q),
            name=name,
        )
        proc.start()
        return proc

    core = spawn("core", runner.Placement(edges=()))
    try:
        ports = ports_q.get(timeout=STARTUP_TIMEOUT_S)
    except queue.Empty:
        core.terminate()
        raise ConfigError("core process failed to start") from None
    edge_procs = [
        spawn(f"edge-{edge_cfg.id}",
              runner.Placement(core=False, edges=(edge_cfg.id,), core_ports=ports))
        for edge_cfg in config.edges
    ]

    deadline = time.monotonic() + run.duration_s + REPORT_GRACE_S
    try:
        reports = _gather(reports_q, edge_procs, deadline)
    finally:
        stop.set()
    reports += _gather(reports_q, [core], time.monotonic() + REPORT_GRACE_S)
    for proc in [core] + edge_procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
    return _merge(reports)


def _gather(reports_q, procs: list, deadline: float) -> list[RunReport]:
    """One report per process of ``procs``, or fewer once the deadline
    passes or every one of them has exited."""
    reports = []
    while len(reports) < len(procs) and time.monotonic() < deadline:
        try:
            reports.append(reports_q.get(timeout=1.0))
        except queue.Empty:
            if not any(proc.is_alive() for proc in procs):
                break
    return reports


def _merge(reports: list[RunReport]) -> RunReport:
    """The first report with every other one's results added in."""
    if not reports:
        raise ConfigError("no process of the run reported")
    merged, *rest = reports
    for report in rest:
        merged.records.extend(report.records)
        for totals, part in ((merged.counters, report.counters),
                             (merged.round_trips, report.round_trips)):
            for key, value in part.items():
                totals[key] += value
        merged.alerts.extend(report.alerts)
        merged.notifications.extend(report.notifications)
        merged.emissions.extend(report.emissions)
        merged.cpu_samples.extend(report.cpu_samples)
        merged.saturated = merged.saturated or report.saturated
    merged.records.sort(key=lambda r: (r.sent_at, r.round_trip_id))
    return merged
