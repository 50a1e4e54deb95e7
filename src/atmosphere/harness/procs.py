"""Child-process deployment: the core tier (broker, gateways, fog and cloud
nodes, user client) in one OS process and each edge node in its own, talking
over local TCP. Used by ``run --processes`` for wall-clock bench runs.

Each process builds its part with :class:`.runner.Deployment` over ``tcp``
links, placed by a :class:`.runner.Placement`, and runs it on one loop with
:func:`.runner.drive`: the code above the transport is identical to the
in-process driver. This module spawns the processes, each with one pipe to
the parent that carries all its messages, waits on those pipes and on the
processes' exits, and merges the reports; a run that loses a process fails.
"""

from __future__ import annotations

import multiprocessing as mp
import selectors
import time
from multiprocessing.connection import wait

from ..errors import ConfigError
from . import runner
from .config import RunDefaults, ScenarioConfig
from .metrics import RunReport

STARTUP_TIMEOUT_S = 15.0
# past the run's duration: the edges' drain (up to 10 s) and teardown
REPORT_GRACE_S = 30.0


class _Peers:
    """Ties one process of a split run to the others (see :func:`.runner.drive`)
    by messages on ``conn``, its pipe to the parent; never by EOF, as the
    processes forked later hold the parent's end too.

    Every edge says ``"ready"`` and waits for ``"start"``, sent once all
    edges have subscribed, so that none misses the first echoes of another
    on the shared fog output topic. Every edge says ``"drained"`` once its
    own round trips have drained, then stays connected until ``"stop"``: the
    other edges' echoes keep reaching it until they have drained too. The
    core only waits for ``"stop"``.
    """

    def __init__(self, conn, edge: bool):
        self.conn = conn
        self.edge = edge
        self.stopping = False

    def ready(self) -> None:
        if self.edge:
            self.conn.send("ready")
            if self.conn.recv() != "start":
                raise ConfigError("the run stopped before it started")

    def drained(self, loop) -> None:
        """Run ``loop``, the pipe one more in its selector, until ``"stop"`` arrives."""
        if self.edge:
            self.conn.send("drained")
        loop.selector.register(self.conn, selectors.EVENT_READ, self)
        try:
            loop.run_until(lambda: self.stopping)
        finally:
            loop.selector.unregister(self.conn)
        self.conn.recv()

    def on_readable(self) -> None:
        self.stopping = True


class _Lost(Exception):
    """Raised with the processes that ended, or sent nothing, before their next message."""


def _host(config: ScenarioConfig, run: RunDefaults, rate_override, placement, conn) -> None:
    """One process: build this placement's part, run it, send its report.

    The core sends its ports as soon as it serves them.
    """
    deployment = runner.Deployment(config, run, placement)
    if placement.core:
        conn.send(deployment.ports)
    conn.send(runner.drive(deployment, rate_override, _Peers(conn, edge=not placement.core)))


def run_in_processes(config: ScenarioConfig, run: RunDefaults, rate_override) -> RunReport:
    """Run the split deployment and merge its reports. A process that ends
    before its report, or that is not ready in ``STARTUP_TIMEOUT_S``, fails
    the run at once: the others are stopped, and a :class:`ConfigError`
    names each process at fault, with its exit code."""
    if config.timeline:
        raise ConfigError("scripted timelines need an in-process run")
    ctx = mp.get_context("fork")
    pipes = {}  # each process's pipe, the parent's end

    def spawn(name: str, placement: runner.Placement):
        ours, theirs = ctx.Pipe()
        proc = ctx.Process(target=_host, args=(config, run, rate_override, placement, theirs), name=name)
        proc.start()
        theirs.close()
        pipes[proc] = ours
        return proc

    core = spawn("core", runner.Placement(edges=()))
    lost = []
    try:
        ports = _receive(pipes, [core], STARTUP_TIMEOUT_S)[core]
        edges = [spawn(f"edge-{edge.id}", runner.Placement(core=False, edges=(edge.id,), core_ports=ports))
                 for edge in config.edges]
        _receive(pipes, edges, STARTUP_TIMEOUT_S)  # "ready"
        _tell(pipes, edges, "start")
        _receive(pipes, edges, run.duration_s + REPORT_GRACE_S)  # "drained"
        _tell(pipes, pipes, "stop")
        reports = _receive(pipes, list(pipes), REPORT_GRACE_S, last=True)
    except _Lost as exc:
        lost = exc.args[0]
        _tell(pipes, pipes, "stop")  # an edge waiting to start raises instead
    finally:
        for proc, pipe in pipes.items():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            pipe.close()
    if lost:
        raise ConfigError("no report from " + ", ".join(
            f"{proc.name} (exit code {proc.exitcode})" for proc in lost))
    return _merge([reports[proc] for proc in pipes])


def _tell(pipes: dict, procs, message: str) -> None:
    for proc in procs:
        try:
            pipes[proc].send(message)
        except OSError:  # its process has gone
            pass


def _receive(pipes: dict, awaited: list, timeout_s: float, last: bool = False) -> dict:
    """``{process: message}``, the next message from each process of
    ``awaited``, waiting on their pipes and on every process's exit. Raises
    :class:`_Lost` once the timeout passes, or once a process ends before its
    next message (with ``last``, the last it sends)."""
    deadline = time.monotonic() + timeout_s
    messages = {}
    while len(messages) < len(awaited):
        waiting = [proc for proc in awaited if proc not in messages]
        live = [proc for proc in pipes if not (last and proc in messages)]
        ready = wait([pipes[proc] for proc in waiting] + [proc.sentinel for proc in live],
                     max(deadline - time.monotonic(), 0.0))
        if not ready:
            raise _Lost(waiting)
        for proc in waiting:  # what a process sent before it ended is ready with its sentinel
            if pipes[proc] in ready:
                try:
                    messages[proc] = pipes[proc].recv()
                except (EOFError, OSError):  # it ended without sending; a reset pipe raises OSError
                    pass
        ended = [proc for proc in live if (pipes[proc] in ready and proc not in messages)
                 or (proc.sentinel in ready and not (last and proc in messages))]
        if ended:
            for proc in ended:
                proc.join()  # a sentinel fires a moment before its process can be reaped
            raise _Lost(ended)
    return messages


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
