"""Conjunction matching through the equality index, against the reference scan.

The logs here spread events over hundreds of ids, so well over a thousand
partial matches are open at once (``cep_random`` uses eight ids). Patterns
cover the indexed shapes (same-id pair, three-slot chains, a fork, no cross
predicate) and the shapes that must take the scan (``!=`` and ``<`` cross
predicates). Null ids must raise the same ``FieldTypeError`` at the same
event as the scan does.
"""

from __future__ import annotations

import random

import pytest

from atmosphere.cep import Engine, oracle_replay
from atmosphere.cep import engine as engine_module
from atmosphere.errors import FieldTypeError
from atmosphere.events import Event, EventSchema, SchemaRegistry
from atmosphere.patterns import parse_pattern

HOUR = 3_600_000
DAY = 24 * HOUR

# The same-id pair of the benchmark's cep-correlate workload.
PAIR = """
@Name("CorrelateReadings")
@Tag(name="domainName", value="fog")
insert into CorrelatedReading
select current_timestamp() as timestamp,
  a2.id as id
from pattern [(every (a1 = Reading(a1.open = true) and a2 = Reading(a2.open = false and a2.id = a1.id)))].win:time_batch(24 hours)
"""

# The shape of MedicineStockBreak: a2 waits on a1's id, a3 on a2's.
CHAIN = """
@Name("Chain")
@Tag(name="domainName", value="fog")
insert into ChainBreak
select current_timestamp() as timestamp,
  a3.id as id,
  a1.qty as demand
from pattern [(every (a1 = Demand and a2 = Stock(a2.id = a1.id and a2.qty <= 5) and a3 = Use(a3.id = a2.id)))].win:time_batch(6 hours)
"""

NOT_EQUAL = """
@Name("OtherId")
@Tag(name="domainName", value="fog")
insert into OtherIdReading
select a1.id as first, a2.id as second
from pattern [(every (a1 = Reading(a1.open = true) and a2 = Reading(a2.open = false and a2.id != a1.id)))].win:time_batch(1 hours)
"""

LESS_THAN = """
@Name("Rising")
@Tag(name="domainName", value="fog")
insert into RisingLevel
select a1.level as low, a2.level as high
from pattern [(every (a1 = Reading(a1.open = true) and a2 = Reading(a2.open = false and a2.id = a1.id and a2.level < a1.level)))].win:time_batch(1 hours)
"""

# a3 waits on a value other than the id, so {a1} partials of different ids
# reach one a3 bucket in any order of age.
LOT_CHAIN = """
@Name("LotChain")
@Tag(name="domainName", value="fog")
insert into LotBreak
select a1.id as demanded, a3.id as used
from pattern [(every (a1 = Demand and a2 = Stock(a2.id = a1.id) and a3 = Use(a3.qty = a2.qty)))].win:time_batch(6 hours)
"""

# A Use event may fill a2 of one partial (by id) or a3 of another (by qty).
FORK = """
@Name("Fork")
@Tag(name="domainName", value="fog")
insert into ForkMatch
select a1.id as demanded, a2.qty as first, a3.id as second
from pattern [(every (a1 = Demand and a2 = Use(a2.id = a1.id) and a3 = Use(a3.qty = a1.qty)))].win:time_batch(6 hours)
"""

ANY_PAIR = """
@Name("AnyPair")
@Tag(name="domainName", value="fog")
insert into DemandThenUse
select a1.id as demanded, a2.id as used
from pattern [(every (a1 = Demand(a1.qty > 3) and a2 = Use))].win:time_batch(6 hours)
"""


def registry() -> SchemaRegistry:
    return SchemaRegistry(
        [
            EventSchema("Reading", {"id": "integer", "open": "boolean", "level": "number"}),
            EventSchema("Demand", {"id": "string", "qty": "integer"}),
            EventSchema("Stock", {"id": "string", "qty": "integer"}),
            EventSchema("Use", {"id": "string", "qty": "integer"}),
        ]
    )


def scale_log(seed: int, n_events: int, n_ids: int, span_ms: int = DAY) -> list[Event]:
    """Readings and medicine movements over ``n_ids`` ids; most readings open."""
    rng = random.Random(seed)
    stamps = sorted(rng.randrange(0, span_ms) for _ in range(n_events))
    log = []
    for idx, ts in enumerate(stamps):
        if idx and rng.random() < 0.02:
            ts = log[-1].timestamp  # same-instant phases
        kind = rng.random()
        if kind < 0.6:
            fields = {
                "id": rng.randrange(n_ids),
                "open": rng.random() < 0.85,
                "level": round(rng.uniform(0, 100), 1),
            }
            stream = "Reading"
        else:
            stream = rng.choice(("Demand", "Demand", "Stock", "Use"))
            fields = {"id": f"m{rng.randrange(n_ids)}", "qty": rng.randint(0, 9)}
        log.append(Event(stream, fields, ts, f"s{idx % 5}"))
    return log


def deploy(texts, scan_only: bool = False) -> Engine:
    engine = Engine("f1", registry())
    for text in texts:
        engine.deploy(parse_pattern(text))
    if scan_only:
        for d in engine._deployed:
            d.keyed = False
    return engine


def rows(emissions):
    return [
        (e.order_key, e.event.stream, tuple(e.event.fields.items()), e.produced_by)
        for e in emissions
    ]


def engine_rows(texts, log, horizon):
    engine = deploy(texts)
    out = []
    peak = 0
    for event in log:
        out.extend(engine.ingest(event))
        peak = max(peak, sum(s["partials"] for s in engine.state_sizes().values()))
    out.extend(engine.advance_clock(horizon))
    return rows(sorted(out, key=lambda e: e.order_key)), peak


@pytest.mark.parametrize(
    "texts, seed, n_events, n_ids",
    [
        ([PAIR], 1, 4000, 500),
        ([PAIR], 2, 4000, 300),
        ([CHAIN], 3, 6000, 200),
        ([LOT_CHAIN], 8, 4000, 200),
        ([FORK], 9, 4000, 200),
        ([ANY_PAIR, PAIR], 4, 3000, 400),
        ([NOT_EQUAL, LESS_THAN], 5, 2000, 300),
    ],
    ids=["pair-500", "pair-300", "chain", "lot-chain", "fork", "no-cross", "scan-fallback"],
)
def test_engine_equals_oracle_with_many_ids(texts, seed, n_events, n_ids):
    log = scale_log(seed, n_events, n_ids)
    got, peak = engine_rows(texts, log, DAY)
    patterns = [parse_pattern(text) for text in texts]
    assert got == rows(oracle_replay(patterns, registry(), log, DAY, node_id="f1"))
    assert got  # every case completes matches
    if texts == [PAIR]:
        assert peak >= 1500  # partials of hundreds of ids open at once


def test_chain_takes_the_oldest_partial_when_middle_slots_fill_out_of_order():
    engine = deploy([LOT_CHAIN])
    engine.ingest(Event("Demand", {"id": "m1", "qty": 0}, 0, "s"))
    engine.ingest(Event("Demand", {"id": "m2", "qty": 0}, 1, "s"))
    # the younger m2 partial reaches the a3 bucket for qty 4 first
    engine.ingest(Event("Stock", {"id": "m2", "qty": 4}, 10, "s"))
    engine.ingest(Event("Stock", {"id": "m1", "qty": 4}, 11, "s"))
    out = engine.ingest(Event("Use", {"id": "u1", "qty": 4}, 20, "s"))
    assert [e.event.fields for e in out] == [{"demanded": "m1", "used": "u1"}]
    assert engine.state_sizes()["LotChain"]["partials"] == 1


def outcomes(engine, log):
    """Per event: the emission rows, or the error raised (the fog dead-letters it)."""
    result = []
    for event in log:
        try:
            result.append(rows(engine.ingest(event)))
        except FieldTypeError as exc:
            result.append(("error", str(exc)))
    return result


def with_null_ids(log, seed, side, every=40):
    """Null the id of about one event in ``every``: of any stream with side
    "any", else of opening or of closing Readings only."""
    rng = random.Random(seed)
    out = []
    for event in log:
        if rng.randrange(every):
            pass
        elif side == "any" or (
            event.stream == "Reading" and event.fields["open"] is (side == "opening")
        ):
            event = Event(event.stream, dict(event.fields, id=None), event.timestamp, event.source)
        out.append(event)
    return out


@pytest.mark.parametrize(
    "side, texts",
    [("opening", [PAIR]), ("closing", [PAIR]), ("closing", [PAIR, LESS_THAN]), ("any", [CHAIN])],
    ids=["pair-opening", "pair-closing", "with-scan-pattern", "chain"],
)
def test_null_ids_raise_exactly_where_the_scan_raises(side, texts):
    log = scale_log(6, 1500, 60, span_ms=2 * HOUR)
    nulled = with_null_ids(log, seed=7, side=side)
    got = outcomes(deploy(texts), nulled)
    expected = outcomes(deploy(texts, scan_only=True), nulled)
    assert got == expected
    errors = [i for i, outcome in enumerate(got) if outcome and outcome[0] == "error"]
    assert errors and "NoneType" in got[errors[0]][1]
    # independently: the reference replay agrees up to the first error and
    # raises the same error on the event that caused it
    first = errors[0]
    patterns = [parse_pattern(text) for text in texts]
    prefix = nulled[:first]
    horizon = nulled[first].timestamp
    engine = deploy(texts)
    emitted = [e for event in prefix for e in engine.ingest(event)]
    assert rows(sorted(emitted, key=lambda e: e.order_key)) == rows(
        oracle_replay(patterns, registry(), prefix, horizon, node_id="f1")
    )
    with pytest.raises(FieldTypeError, match="NoneType"):
        oracle_replay(patterns, registry(), nulled[: first + 1], horizon, node_id="f1")


def test_null_keyed_partial_forces_the_scan_until_rollover():
    engine = deploy([PAIR])
    engine.ingest(Event("Reading", {"id": None, "open": True, "level": 1.0}, 0, "s"))
    engine.ingest(Event("Reading", {"id": 5, "open": True, "level": 1.0}, 1, "s"))
    # the scan compares 5 with the null-keyed partial first, as it always has
    with pytest.raises(FieldTypeError, match="NoneType"):
        engine.ingest(Event("Reading", {"id": 5, "open": False, "level": 1.0}, 2, "s"))
    engine.advance_clock(DAY)  # rollover drops the null-keyed partial
    engine.ingest(Event("Reading", {"id": 5, "open": True, "level": 1.0}, DAY + 1, "s"))
    out = engine.ingest(Event("Reading", {"id": 5, "open": False, "level": 1.0}, DAY + 2, "s"))
    assert [e.event.fields["id"] for e in out] == [5]


def test_literal_error_on_a_slot_the_scan_never_tries_is_not_raised():
    text = """
@Name("HighThenAny")
@Tag(name="domainName", value="fog")
insert into HighThenAny
select a2.id as id
from pattern [(every (a1 = Reading(a1.level > 50) and a2 = Reading(a2.id = a1.id)))].win:time_batch(1 hours)
"""
    log = [
        Event("Reading", {"id": 5, "open": True, "level": 60.0}, 0, "s"),
        # closes id 5's partial through a2; the scan never reaches a1's literal
        Event("Reading", {"id": 5, "open": True, "level": None}, 1, "s"),
        # nothing open for id 6, so the scan tries to open one through a1
        Event("Reading", {"id": 6, "open": True, "level": None}, 2, "s"),
    ]
    got = outcomes(deploy([text]), log)
    assert got == outcomes(deploy([text], scan_only=True), log)
    assert [len(outcome) for outcome in got[:2]] == [0, 1]
    assert got[2][0] == "error"


def test_nan_key_never_matches_even_itself():
    text = """
@Name("SameLevel")
@Tag(name="domainName", value="fog")
insert into SameLevel
select a2.id as id
from pattern [(every (a1 = Reading(a1.open = true) and a2 = Reading(a2.open = false and a2.level = a1.level)))]
"""
    nan = float("nan")
    log = [
        Event("Reading", {"id": 1, "open": True, "level": nan}, 0, "s"),
        Event("Reading", {"id": 2, "open": False, "level": nan}, 1, "s"),
    ]
    assert outcomes(deploy([text]), log) == [[], []]


def count_closing_calls(monkeypatch, n_other: int) -> int:
    engine = deploy([PAIR])
    for i in range(n_other):
        engine.ingest(Event("Reading", {"id": i, "open": True, "level": 0.0}, i, "s"))
    target = n_other + 7
    engine.ingest(Event("Reading", {"id": target, "open": True, "level": 0.0}, n_other, "s"))
    assert engine.state_sizes()["CorrelateReadings"]["partials"] == n_other + 1

    calls = [0]
    real_compare = engine_module.compare_values
    real_eligible = engine_module._Deployed._slot_eligible

    def counting_compare(*args):
        calls[0] += 1
        return real_compare(*args)

    def counting_eligible(self, *args):
        calls[0] += 1
        return real_eligible(self, *args)

    monkeypatch.setattr(engine_module, "compare_values", counting_compare)
    monkeypatch.setattr(engine_module._Deployed, "_slot_eligible", counting_eligible)
    closing = Event("Reading", {"id": target, "open": False, "level": 0.0}, n_other + 1, "s")
    out = engine.ingest(closing)
    monkeypatch.undo()
    assert [e.event.fields["id"] for e in out] == [target]
    return calls[0]


def test_closing_event_cost_does_not_grow_with_open_partials(monkeypatch):
    small = count_closing_calls(monkeypatch, 1_000)
    large = count_closing_calls(monkeypatch, 10_000)
    assert large == small
    assert large <= 4  # one literal check per Reading slot


def test_state_sizes_drop_to_zero_at_window_boundary():
    batch = """
@Name("DemandById")
@Tag(name="domainName", value="fog")
insert into DemandById
select a1.id as id, count(a1.qty) as count
from pattern [(every a1 = Demand)].win:time_batch(6 hours)
group by a1.id
"""
    engine = deploy([batch, CHAIN])
    for i in range(3):
        engine.ingest(Event("Demand", {"id": f"m{i}", "qty": i}, i, "s"))
    engine.ingest(Event("Stock", {"id": "m0", "qty": 1}, 10, "s"))
    engine.ingest(Event("Use", {"id": "m0", "qty": 1}, 11, "s"))
    sizes = engine.state_sizes()
    assert sizes["DemandById"] == {"partials": 0, "indexed_keys": 0, "groups": 3, "emitted_keys": 0}
    assert sizes["Chain"] == {"partials": 2, "indexed_keys": 2, "groups": 0, "emitted_keys": 1}
    engine.advance_clock(6 * HOUR)
    assert all(
        size == 0 for pattern in engine.state_sizes().values() for size in pattern.values()
    )
