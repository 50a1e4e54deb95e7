"""Output checks, each against an independent computation or a property of
the method, never against saved output.

Every check returns a list of problems; an empty list means the output is
correct. The functions take plain data so that they can be tried on inputs
small enough to work by hand (see ``test_checks.py``).
"""

from __future__ import annotations

from collections import Counter

# hospital_fog.epl: ExternalLightByFloor alerts at count >= 4 per 10 minutes
WARD_ALERT_COUNT = 4
WARD_BATCH_MS = 600_000
O2_THRESHOLD = 90
# hospital_cloud.epl: the three hourly counts behind MedicineStockBreak
DEMAND_ABOVE = 1000
SHORTAGE_AT_MOST = 5
MEDICINE_BATCH_MS = 3_600_000


def check_echo(initiated: int, receipts: Counter, counters: dict, qos: int,
               saturated: bool = False) -> list[str]:
    """Every round trip started comes back exactly once.

    ``receipts`` counts every receipt of each round-trip id, duplicates
    included. Per completed round trip the edge client sees 2 PUBLISH, plus
    2 PUBACK at QoS 1 and none at QoS 0.
    """
    problems = []
    expected = set(range(1, initiated + 1))
    missing = expected - set(receipts)
    if missing:
        problems.append(f"{len(missing)} of {initiated} round trips never came back "
                        f"(first id {min(missing)})")
    unknown = set(receipts) - expected
    if unknown:
        problems.append(f"{len(unknown)} echoes carry ids never sent (first {min(unknown)})")
    repeated = sorted(rid for rid, count in receipts.items() if count > 1)
    if repeated:
        problems.append(f"{len(repeated)} round trips came back more than once (first id {repeated[0]})")
    completed = len(set(receipts) & expected)
    if counters.get("publish") != 2 * completed:
        problems.append(f"edge PUBLISH count {counters.get('publish')} != 2 x {completed} round trips")
    want_puback = 2 * completed if qos == 1 else 0
    if counters.get("puback") != want_puback:
        problems.append(f"edge PUBACK count {counters.get('puback')} != {want_puback} at QoS {qos}")
    if saturated:
        problems.append("the run hit the saturation flag")
    return problems


def replay_correlation(readings, window_ms: int) -> tuple[Counter, int]:
    """Matches of ``every (a1 = Reading(open) and a2 = Reading(not open, same id))``
    in tumbling windows, replayed with one counter of open partials per id.

    ``readings`` are ``(at_ms, id, is_open)`` in ingest order. A closing
    reading consumes one open partial of its id if there is one; a completed
    id is emitted once per window. Returns a count per ``(window, id)`` and
    the largest number of partials open at once.
    """
    matches: Counter = Counter()
    window = None
    open_count: Counter = Counter()
    emitted: set = set()
    held = peak = 0
    for at_ms, ident, is_open in readings:
        if at_ms // window_ms != window:
            window = at_ms // window_ms
            open_count.clear()
            emitted.clear()
            held = 0
        if is_open:
            open_count[ident] += 1
            held += 1
            peak = max(peak, held)
        elif open_count[ident] > 0:
            open_count[ident] -= 1
            held -= 1
            if ident not in emitted:
                emitted.add(ident)
                matches[(window, ident)] += 1
    return matches, peak


def check_correlation(readings, emitted, window_ms: int) -> list[str]:
    """The program's matches equal the replay's, in ids and in count.

    ``emitted`` holds ``(at_ms, id)`` for each match the program emitted.
    """
    expected, _ = replay_correlation(readings, window_ms)
    actual = Counter((at_ms // window_ms, ident) for at_ms, ident in emitted)
    if actual == expected:
        return []
    extra = actual - expected
    missing = expected - actual
    return [f"correlation matches differ from the replay: {sum(extra.values())} extra "
            f"{sorted(extra)[:3]}, {sum(missing.values())} missing {sorted(missing)[:3]}"]


def expand_timeline(entries) -> list[dict]:
    """Timeline entries with ``repeat``/``interval_ms`` written out one by one."""
    out = []
    for entry in entries:
        for j in range(entry.get("repeat", 1)):
            item = {k: v for k, v in entry.items() if k not in ("repeat", "interval_ms")}
            item["at_ms"] = entry["at_ms"] + j * entry.get("interval_ms", 0)
            out.append(item)
    return out


def ward_expectations(scenario: dict) -> tuple[Counter, set, set]:
    """What the ward must do, computed from its inputs alone.

    Returns the surveillance alerts as a count per ``(floor, batch end)``,
    the ``(room, at_ms)`` vent samples at or below the threshold, and the
    medicine ids with demand above 1000, a shortage of at most 5 and a
    respiratory use in the same hour.
    """
    floor_of = {}
    for edge in scenario["topology"]["edges"]:
        for agent in edge["agents"]:
            if "floor" in agent.get("attributes", {}):
                floor_of[edge["id"]] = agent["attributes"]["floor"]
    low: set = set()
    per_batch: Counter = Counter()
    demand: Counter = Counter()
    stock: Counter = Counter()
    use: Counter = Counter()
    for entry in expand_timeline(scenario["timeline"]):
        if entry["kind"] == "sensor" and entry["value"] <= O2_THRESHOLD:
            low.add((entry["edge"], entry["at_ms"]))
            per_batch[(floor_of[entry["edge"]], entry["at_ms"] // WARD_BATCH_MS)] += 1
        elif entry["kind"] == "source":
            raw = entry["raw"]
            key = (raw["medId"], entry["at_ms"] // MEDICINE_BATCH_MS)
            if raw["site"] == "laboratory":
                demand[key] += 1
            elif raw["site"] == "pharmacy":
                stock[key] += 1
            elif raw["site"] == "hospital" and raw.get("category") == "respiratory":
                use[key] += 1
    alerts = Counter({(floor, (batch + 1) * WARD_BATCH_MS): 1
                      for (floor, batch), count in per_batch.items() if count >= WARD_ALERT_COUNT})
    breaks = {med for med, batch in demand
              if demand[(med, batch)] > DEMAND_ABOVE
              and 0 < stock[(med, batch)] <= SHORTAGE_AT_MOST
              and use[(med, batch)] > 0}
    return alerts, low, breaks


def check_ward(scenario: dict, alerts: list[dict], light_on: set,
               internal_on: dict) -> tuple[list[str], int]:
    """One surveillance alert per (floor, 10-minute batch) with at least four
    low vent samples; every room's external light on for exactly its low
    samples; every room's internal light on once per alert; one stock-break
    alert, for the correlated medicine id.

    ``light_on`` holds ``(room, sample at_ms)`` per external-light actuation
    and ``internal_on`` maps each room to a count of internal-light
    actuations per alert time. Returns the problems and the number of low
    samples whose light never came on.
    """
    want_alerts, low, breaks = ward_expectations(scenario)
    problems = []
    got_alerts = Counter((a["fields"]["floor"], a["fields"]["timestamp"])
                         for a in alerts if a["stream"] == "SurveillanceUnit")
    if got_alerts != want_alerts:
        problems.append(f"surveillance alerts: {sum((got_alerts - want_alerts).values())} extra, "
                        f"{sum((want_alerts - got_alerts).values())} missing of {len(want_alerts)}")
    missed = low - light_on
    if missed:
        problems.append(f"{len(missed)} of {len(low)} low vent samples never lit the room light")
    if light_on - low:
        problems.append(f"{len(light_on - low)} room lights came on without a low sample")
    alert_times = Counter(t for _, t in want_alerts.elements())
    rooms = [edge["id"] for edge in scenario["topology"]["edges"]]
    wrong = [room for room in rooms if internal_on.get(room, Counter()) != alert_times]
    if wrong:
        problems.append(f"{len(wrong)} rooms' internal lights do not follow the alerts (first {wrong[0]})")
    got_breaks = [a["fields"]["id"] for a in alerts if a["stream"] == "StockBreakAlert"]
    if len(breaks) != 1 or got_breaks != sorted(breaks):
        problems.append(f"stock-break alerts {got_breaks}, expected exactly one for {sorted(breaks)}")
    return problems, len(missed)
