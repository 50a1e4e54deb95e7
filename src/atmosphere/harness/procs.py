"""Child-process deployment: the core tier (broker, gateways, fog and cloud
nodes, user client) in one OS process and each edge node in its own, talking
over local TCP. Used by ``run --processes`` for wall-clock bench runs.

Each process builds its part with :class:`.runner.Deployment` over ``tcp``
links, placed by a :class:`.runner.Placement`, and runs it on one loop with
:func:`.runner.drive`: the code above the transport is identical to the
in-process driver. This module spawns the processes, hands the core's ports
to the edges, sends each process its stop once every edge has drained, and
merges the partial reports; a run that loses a process fails.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing as mp
import queue
import socket
import threading
import time

from ..errors import ConfigError
from . import runner
from .config import RunDefaults, ScenarioConfig
from .metrics import RunReport

logger = logging.getLogger(__name__)

STARTUP_TIMEOUT_S = 15.0
# past the run's duration: the edges' drain (up to 10 s) and teardown
REPORT_GRACE_S = 30.0


class _Peers:
    """Ties one process of a split run to the others (see :func:`.runner.drive`).

    Every edge waits at ``start`` until all edges have subscribed, so that
    none misses the first echoes of another on the shared fog output topic.
    Every edge reports on ``drained_q`` once its own round trips have
    drained, then stays connected until a byte reaches ``stop``, its socket:
    the other edges' echoes keep reaching it until they have drained too.
    The core only waits for ``stop``, in the selector of its routing loop.
    """

    def __init__(self, stop, start=None, drained_q=None, label: str = "core"):
        self.stop = stop
        self.start = start
        self.drained_q = drained_q
        self.label = label

    def ready(self) -> None:
        if self.start is None:
            return
        try:
            self.start.wait(STARTUP_TIMEOUT_S)
        except threading.BrokenBarrierError:
            logger.warning("%s: not every edge started; sending anyway", self.label)

    def drained(self) -> None:
        if self.drained_q is not None:
            self.drained_q.put((self.label, None))


def _host(config: ScenarioConfig, run: RunDefaults, rate_override, placement, ports_q,
          peers: _Peers, reports_q) -> None:
    """One process: build this placement's part, run it, send its report.

    The core hands its ports over as soon as it serves them.
    """
    deployment = runner.Deployment(config, run, placement)
    if placement.core:
        ports_q.put(deployment.ports)
    reports_q.put((peers.label, runner.drive(deployment, rate_override, peers)))


def run_in_processes(config: ScenarioConfig, run: RunDefaults, rate_override) -> RunReport:
    """Run the split deployment and merge its reports. A process that ends
    before its stop fails the run at once: the others are stopped, and a
    :class:`ConfigError` names each process that ended early or else did
    not report, with its exit code."""
    if config.timeline:
        raise ConfigError("scripted timelines need an in-process run")
    ctx = mp.get_context("fork")
    start = ctx.Barrier(max(1, len(config.edges)))  # a barrier needs a party
    ports_q = ctx.Queue()
    drained_q = ctx.Queue()
    reports_q = ctx.Queue()
    stops = []  # the parent's end of each process's stop pair

    def spawn(name: str, placement: runner.Placement, *shared):
        ours, theirs = socket.socketpair()
        stops.append(ours)
        peers = _Peers(theirs, *shared, label=name)
        proc = ctx.Process(
            target=_host,
            args=(config, run, rate_override, placement, ports_q, peers, reports_q),
            name=name,
        )
        proc.start()
        theirs.close()
        return proc

    core = spawn("core", runner.Placement(edges=()))
    try:
        ports = ports_q.get(timeout=STARTUP_TIMEOUT_S)
    except queue.Empty:
        core.terminate()
        stops[0].close()
        raise ConfigError("core process failed to start") from None
    procs = [core] + [
        spawn(f"edge-{edge_cfg.id}",
              runner.Placement(core=False, edges=(edge_cfg.id,), core_ports=ports),
              start, drained_q)
        for edge_cfg in config.edges
    ]

    deadline = time.monotonic() + run.duration_s + REPORT_GRACE_S
    try:
        _gather(drained_q, procs[1:], deadline)
        failed = [proc for proc in procs if proc.exitcode is not None]  # none ends before its stop
    finally:
        start.abort()  # an edge still waiting to start would wait for one that failed
        for end in stops:
            with end, contextlib.suppress(OSError):  # its process may have gone
                end.send(b"x")
    reports = {} if failed else _gather(reports_q, procs, time.monotonic() + REPORT_GRACE_S)
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    missing = failed or [proc for proc in procs if proc.name not in reports]
    if missing:
        raise ConfigError("no report from " + ", ".join(
            f"{proc.name} (exit code {proc.exitcode})" for proc in missing))
    return _merge(list(reports.values()))


def _gather(q, procs: list, deadline: float) -> dict:
    """``{process name: item}`` from ``q``, one item per process of
    ``procs``, or fewer once the deadline passes or one of them has exited
    without sending its item."""
    items = {}
    while len(items) < len(procs) and time.monotonic() < deadline:
        exited = [proc for proc in procs if proc.exitcode is not None]  # what these sent is in q now
        try:
            name, item = q.get(timeout=1.0)
            items[name] = item
        except queue.Empty:
            if any(proc.name not in items for proc in exited):
                break
    return items


def _merge(reports: list[RunReport]) -> RunReport:
    """The first report with every other one's results added in."""
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
