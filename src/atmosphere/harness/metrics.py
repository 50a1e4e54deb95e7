"""Round-trip metrics, latency buckets, and the run report."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from ..errors import AtmosphereError
from ..record import Record

BUCKET_LABELS = ("<=5", "6-10", "11-50", "51-100", ">100")


class MetricsRecord(Record):
    __slots__ = ("round_trip_id", "sent_at", "received_at", "qos", "mode")

    def __init__(self, round_trip_id: int, sent_at: int, received_at: int, qos: int, mode: str):
        self.round_trip_id = round_trip_id
        self.sent_at = sent_at
        self.received_at = received_at
        self.qos = qos
        self.mode = mode

    @property
    def latency_ms(self) -> int:
        return self.received_at - self.sent_at


def bucketize(latencies_ms) -> list[float]:
    """Percentages over the five response-time buckets.

    Boundaries are integer milliseconds after half-up rounding: ``<=5``,
    ``6-10``, ``11-50``, ``51-100``, ``>100``.
    """
    values = list(latencies_ms)
    if not values:
        raise AtmosphereError("bucketize needs at least one latency sample")
    counts = [0, 0, 0, 0, 0]
    for value in values:
        rounded = math.floor(value + 0.5)
        if rounded <= 5:
            counts[0] += 1
        elif rounded <= 10:
            counts[1] += 1
        elif rounded <= 50:
            counts[2] += 1
        elif rounded <= 100:
            counts[3] += 1
        else:
            counts[4] += 1
    total = len(values)
    return [100.0 * c / total for c in counts]


class MetricsSink:
    """Append-only collector for in-flight round trips."""

    def __init__(self, qos: int, mode: str):
        self.qos = qos
        self.mode = mode
        self._pending: dict[int, int] = {}
        self.records: list[MetricsRecord] = []
        self.initiated = 0

    def sent(self, round_trip_id: int, at_ms: int) -> None:
        self.initiated += 1
        self._pending[round_trip_id] = at_ms

    def received(self, round_trip_id: int, at_ms: int) -> None:
        sent_at = self._pending.pop(round_trip_id, None)
        if sent_at is None:
            return  # duplicate delivery of an already-completed round trip
        self.records.append(
            MetricsRecord(round_trip_id, sent_at, at_ms, self.qos, self.mode)
        )

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def in_flight(self) -> int:
        return len(self._pending)


class RunReport:
    __slots__ = ("scenario", "mode", "qos", "clock", "seed", "duration_s", "warmup_s", "records",
                 "counters", "round_trips", "cpu_samples", "alerts", "emissions", "notifications",
                 "saturated")

    def __init__(self, scenario: str, mode: str, qos: int, clock: str, seed: int, duration_s: float,
                 warmup_s: float, records: list | None = None, counters: dict | None = None,
                 round_trips: dict | None = None, cpu_samples: list | None = None,
                 alerts: list | None = None, emissions: list | None = None,
                 notifications: list | None = None, saturated: bool = False):
        self.scenario = scenario
        self.mode = mode
        self.qos = qos
        self.clock = clock
        self.seed = seed
        self.duration_s = duration_s
        self.warmup_s = warmup_s
        self.records = [] if records is None else records
        self.counters = {} if counters is None else counters  # publish, puback, acl
        # initiated/completed/in_flight/dead_lettered
        self.round_trips = {} if round_trips is None else round_trips
        self.cpu_samples = [] if cpu_samples is None else cpu_samples  # (t_ms, node_id, cpu_pct)
        self.alerts = [] if alerts is None else alerts
        self.emissions = [] if emissions is None else emissions
        self.notifications = [] if notifications is None else notifications
        self.saturated = saturated

    def measured_records(self) -> list:
        cutoff = self.warmup_s * 1000.0
        kept = [r for r in self.records if r.sent_at >= cutoff]
        return kept if kept else list(self.records)

    def summary(self) -> dict:
        latencies = [r.latency_ms for r in self.measured_records()]
        summary: dict = {
            "scenario": self.scenario,
            "mode": self.mode,
            "qos": self.qos,
            "clock": self.clock,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "round_trips": dict(self.round_trips),
            "counters": dict(self.counters),
            "saturated": self.saturated,
            "cpu_sample_count": len(self.cpu_samples),
        }
        if latencies:
            summary["latency_ms"] = {
                "mean": sum(latencies) / len(latencies),
                "min": min(latencies),
                "max": max(latencies),
                "count": len(latencies),
            }
            summary["buckets_pct"] = dict(zip(BUCKET_LABELS, bucketize(latencies)))
        completed = self.round_trips.get("completed", 0)
        if self.duration_s > 0:
            summary["sustained_rate_per_s"] = completed / self.duration_s
        return summary

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "latency.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["round_trip_id", "sent_at", "received_at", "latency_ms"])
            for record in self.records:
                writer.writerow(
                    [record.round_trip_id, record.sent_at, record.received_at, record.latency_ms]
                )
        with open(out / "cpu.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t_ms", "node_id", "cpu_pct"])
            for t_ms, node_id, cpu_pct in self.cpu_samples:
                writer.writerow([t_ms, node_id, cpu_pct])
        with open(out / "summary.json", "w") as handle:
            json.dump(self.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        if self.alerts:
            with open(out / "alerts.jsonl", "w") as handle:
                for alert in self.alerts:
                    handle.write(json.dumps(alert, separators=(",", ":")) + "\n")
        if self.emissions:
            with open(out / "emissions.jsonl", "w") as handle:
                for emission in self.emissions:
                    handle.write(json.dumps(emission, separators=(",", ":")) + "\n")
        if self.notifications:
            with open(out / "notifications.jsonl", "w") as handle:
                for notification in self.notifications:
                    handle.write(json.dumps(notification, separators=(",", ":")) + "\n")
        return out
