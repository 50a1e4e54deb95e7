from __future__ import annotations

import pytest

from atmosphere.cep import Engine, oracle_replay
from atmosphere.errors import (
    DeploymentError,
    TimeRegressionError,
    UnknownStreamError,
)
from atmosphere.events import Event, EventSchema, SchemaRegistry
from atmosphere.patterns import parse_pattern

from .listings import LISTING_ORDER, LISTING_TEXTS

MINUTE = 60_000
HOUR = 3_600_000


def base_registry() -> SchemaRegistry:
    return SchemaRegistry(
        [
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"}),
            EventSchema("Medicine", {"id": "string", "type": "string", "place": "string"}),
        ]
    )


def make_engine(listing_names, registry=None) -> Engine:
    engine = Engine("f1", registry or base_registry())
    for name in listing_names:
        engine.deploy(parse_pattern(LISTING_TEXTS[name]))
    return engine


def ext_light(ts, floor=2, is_on=True, src="e4"):
    return Event("ExternalLight", {"isOn": is_on, "floor": floor}, ts, src)


def medicine(ts, mid="m1", mtype="respiratory", place="laboratory"):
    return Event("Medicine", {"id": mid, "type": mtype, "place": place}, ts, "src")


class TestFilterPatterns:
    def test_threshold_pass_and_fail(self):
        registry = SchemaRegistry(
            [EventSchema("ExternalLightByFloor", {"timestamp": "integer", "floor": "integer", "count": "integer"})]
        )
        engine = Engine("f1", registry)
        engine.deploy(parse_pattern(LISTING_TEXTS["SurveillanceUnit"]))
        hit = Event("ExternalLightByFloor", {"timestamp": 777, "floor": 3, "count": 4}, 1000, "f1")
        out = engine.ingest(hit)
        assert len(out) == 1
        emission = out[0]
        assert emission.event.stream == "SurveillanceUnit"
        assert emission.event.fields == {"timestamp": 777, "floor": 3}
        assert emission.event.timestamp == 1000
        assert emission.produced_by == "SurveillanceUnit"
        miss = Event("ExternalLightByFloor", {"timestamp": 778, "floor": 3, "count": 3}, 2000, "f1")
        assert engine.ingest(miss) == []

    def test_filter_emission_count_bounded_by_input(self):
        engine = make_engine(["ExternalLightByFloor", "SurveillanceUnit"])
        total_in, total_out = 0, 0
        for i in range(50):
            out = engine.ingest(ext_light(i * 1000, floor=1, is_on=(i % 2 == 0)))
            total_in += 1
            total_out += len([e for e in out if e.produced_by == "SurveillanceUnit"])
        assert total_out <= total_in


class TestBatchPatterns:
    def test_ten_minute_batch_counts_filtered_events(self):
        engine = make_engine(["ExternalLightByFloor"])
        for ts in (1000, 5000, 8000):
            assert engine.ingest(ext_light(ts, floor=2, is_on=True)) == []
        assert engine.ingest(ext_light(9000, floor=2, is_on=False)) == []
        out = engine.advance_clock(10 * MINUTE)
        assert len(out) == 1
        event = out[0].event
        assert event.stream == "ExternalLightByFloor"
        assert event.fields == {"timestamp": 10 * MINUTE, "floor": 2, "count": 3}
        assert event.timestamp == 10 * MINUTE

    def test_batch_boundary_is_half_open(self):
        engine = make_engine(["ExternalLightByFloor"])
        engine.ingest(ext_light(0, floor=1))
        # Lands exactly on the boundary: belongs to the next batch.
        out = engine.ingest(ext_light(10 * MINUTE, floor=1))
        assert [e.event.fields["count"] for e in out] == [1]
        out = engine.advance_clock(20 * MINUTE)
        assert [e.event.fields["count"] for e in out] == [1]

    def test_groups_emit_in_first_appearance_order(self):
        engine = make_engine(["ExternalLightByFloor"])
        for ts, floor in [(1000, 5), (2000, 1), (3000, 5), (4000, 3)]:
            engine.ingest(ext_light(ts, floor=floor))
        out = engine.advance_clock(10 * MINUTE)
        assert [e.event.fields["floor"] for e in out] == [5, 1, 3]
        assert [e.event.fields["count"] for e in out] == [2, 1, 1]

    def test_empty_batches_emit_nothing(self):
        engine = make_engine(["ExternalLightByFloor"])
        assert engine.advance_clock(60 * MINUTE) == []
        engine.ingest(ext_light(61 * MINUTE, floor=1))
        out = engine.advance_clock(90 * MINUTE)
        assert len(out) == 1  # only the batch that actually saw events

    def test_non_key_fields_take_last_event_values(self):
        registry = SchemaRegistry(
            [EventSchema("Medicine", {"id": "string", "type": "string", "place": "string"})]
        )
        engine = Engine("c1", registry)
        engine.deploy(parse_pattern(LISTING_TEXTS["DemandByLaboratory"]))
        engine.ingest(medicine(1000, mid="m1", mtype="a"))
        engine.ingest(medicine(2000, mid="m1", mtype="a"))
        out = engine.advance_clock(HOUR)
        assert out[0].event.fields["count"] == 2
        assert out[0].event.fields["type"] == "a"


class TestChaining:
    def test_batch_feeds_filter_in_same_call(self):
        engine = make_engine(["ExternalLightByFloor", "SurveillanceUnit"])
        for i in range(4):
            engine.ingest(ext_light(1000 + i, floor=3, src=f"e{i}"))
        out = engine.advance_clock(10 * MINUTE)
        streams = [e.event.stream for e in out]
        assert streams == ["ExternalLightByFloor", "SurveillanceUnit"]
        alert = out[1].event
        assert alert.fields == {"timestamp": 10 * MINUTE, "floor": 3}

    def test_three_rooms_do_not_alert(self):
        engine = make_engine(["ExternalLightByFloor", "SurveillanceUnit"])
        for i in range(3):
            engine.ingest(ext_light(1000 + i, floor=3))
        out = engine.advance_clock(10 * MINUTE)
        assert [e.event.stream for e in out] == ["ExternalLightByFloor"]

    def test_chained_threshold_holds_on_all_outputs(self):
        engine = make_engine(["DemandByLaboratory", "VeryHighDemandByLaboratory"])
        out = []
        for i in range(1200):
            out.extend(engine.ingest(medicine(i * 1000, mid="m1")))
        for i in range(100):
            out.extend(engine.ingest(medicine(HOUR + 1_200_000 + i * 1000, mid="m2")))
        out.extend(engine.advance_clock(3 * HOUR))
        very_high = [e for e in out if e.event.stream == "VeryHighDemandByLaboratory"]
        assert very_high, "expected at least one chained emission"
        assert all(e.event.fields["count"] > 1000 for e in very_high)


class TestMedicineCorrelation:
    def deploy_all(self):
        return make_engine(LISTING_ORDER)

    def ingest_hour_one(self, engine, mid="m1"):
        for i in range(1001):
            engine.ingest(medicine(1000 + i, mid=mid, place="laboratory"))
        for i in range(5):
            engine.ingest(medicine(600_000 + i * 1000, mid=mid, place="pharmacy"))
        engine.ingest(medicine(1_200_000, mid=mid, mtype="respiratory", place="hospital"))

    def test_correlated_id_produces_exactly_one_stock_break(self):
        engine = self.deploy_all()
        self.ingest_hour_one(engine, mid="m1")
        # decoy id present only in the pharmacy stream
        for i in range(5):
            engine.ingest(medicine(1_500_000 + i * 1000, mid="m2", place="pharmacy"))
        out = engine.advance_clock(24 * HOUR)
        by_stream: dict[str, list] = {}
        for emission in out:
            by_stream.setdefault(emission.event.stream, []).append(emission)
        assert [e.event.fields["id"] for e in by_stream["VeryHighDemandByLaboratory"]] == ["m1"]
        assert sorted(e.event.fields["id"] for e in by_stream["StockShortageByPharmacy"]) == ["m1", "m2"]
        assert [e.event.fields["id"] for e in by_stream["RespiratoryUseByHospital"]] == ["m1"]
        breaks = by_stream["MedicineStockBreak"]
        assert len(breaks) == 1
        assert breaks[0].event.fields["id"] == "m1"
        assert breaks[0].event.timestamp == HOUR  # correlation completes at the hourly boundary

    def test_matches_oracle_replay(self):
        engine = self.deploy_all()
        log = []
        for i in range(1001):
            log.append(medicine(1000 + i, place="laboratory"))
        for i in range(5):
            log.append(medicine(600_000 + i * 1000, place="pharmacy"))
        log.append(medicine(1_200_000, mtype="respiratory", place="hospital"))
        for i in range(5):
            log.append(medicine(1_500_000 + i * 1000, mid="m2", place="pharmacy"))
        horizon = 24 * HOUR
        engine_out = []
        for event in log:
            engine_out.extend(engine.ingest(event))
        engine_out.extend(engine.advance_clock(horizon))
        patterns = [parse_pattern(LISTING_TEXTS[name]) for name in LISTING_ORDER]
        oracle_out = oracle_replay(patterns, base_registry(), log, horizon, node_id="f1")
        assert [
            (e.order_key, e.event.stream, tuple(e.event.fields.items()), e.event.timestamp)
            for e in sorted(engine_out, key=lambda e: e.order_key)
        ] == [
            (e.order_key, e.event.stream, tuple(e.event.fields.items()), e.event.timestamp)
            for e in oracle_out
        ]


class TestDeployment:
    def test_deploy_chain_builds_stream_graph(self):
        engine = make_engine(["DemandByLaboratory", "VeryHighDemandByLaboratory"])
        assert [p.name for p in engine.deployed_patterns()] == [
            "DemandByLaboratory",
            "VeryHighDemandByLaboratory",
        ]

    def test_self_cycle_rejected(self):
        registry = SchemaRegistry([EventSchema("Loop", {"x": "integer"})])
        engine = Engine("f1", registry)
        text = (
            '@Name("P") @Tag(name="domainName", value="x") insert into Loop '
            "select a1.* from pattern [(every a1 = Loop)]"
        )
        with pytest.raises(DeploymentError, match="cycle"):
            engine.deploy(parse_pattern(text))

    def test_two_pattern_cycle_rejected(self):
        registry = SchemaRegistry([EventSchema("A", {"x": "integer"})])
        engine = Engine("f1", registry)
        engine.deploy(
            parse_pattern(
                '@Name("P1") @Tag(name="domainName", value="x") insert into B '
                "select a1.* from pattern [(every a1 = A)]"
            )
        )
        with pytest.raises(DeploymentError, match="cycle"):
            engine.deploy(
                parse_pattern(
                    '@Name("P2") @Tag(name="domainName", value="x") insert into A '
                    "select a1.* from pattern [(every a1 = B)]"
                )
            )

    def test_duplicate_name_rejected(self):
        engine = make_engine(["ExternalLightByFloor"])
        with pytest.raises(DeploymentError, match="already deployed"):
            engine.deploy(parse_pattern(LISTING_TEXTS["ExternalLightByFloor"]))

    def test_unknown_input_stream_rejected(self):
        engine = Engine("f1", SchemaRegistry())
        with pytest.raises(UnknownStreamError):
            engine.deploy(parse_pattern(LISTING_TEXTS["ExternalLightByFloor"]))

    def test_predicate_type_mismatch_rejected(self):
        registry = SchemaRegistry([EventSchema("S", {"x": "string"})])
        engine = Engine("f1", registry)
        text = (
            '@Name("P") @Tag(name="domainName", value="x") insert into Out '
            "select a1.* from pattern [(every a1 = S(a1.x > 5))]"
        )
        with pytest.raises(DeploymentError):
            engine.deploy(parse_pattern(text))


class TestClock:
    def test_time_regression_rejected(self):
        engine = make_engine(["ExternalLightByFloor"])
        engine.ingest(ext_light(5000))
        with pytest.raises(TimeRegressionError):
            engine.ingest(ext_light(4999))
        with pytest.raises(TimeRegressionError):
            engine.advance_clock(4000)

    def test_clock_monotone_over_mixed_calls(self):
        engine = make_engine(["ExternalLightByFloor"])
        seen = [engine.now_ms]
        engine.ingest(ext_light(100))
        seen.append(engine.now_ms)
        engine.advance_clock(20 * MINUTE)
        seen.append(engine.now_ms)
        engine.ingest(ext_light(21 * MINUTE))
        seen.append(engine.now_ms)
        assert seen == sorted(seen)

    def test_unknown_stream_rejected(self):
        engine = make_engine(["ExternalLightByFloor"])
        with pytest.raises(UnknownStreamError):
            engine.ingest(Event("Nope", {}, 0, "x"))

    def test_ingest_count_tracks_events(self):
        engine = make_engine(["ExternalLightByFloor"])
        engine.ingest(ext_light(1))
        engine.ingest(ext_light(2))
        assert engine.ingest_count == 2


class TestProcessingTimeMode:
    def test_arrivals_stamped_with_wall_clock_and_batches_fire_on_advance(self):
        wall = [5_000]
        engine = Engine(
            "f1", base_registry(), wall_clock=lambda: wall[0]
        )
        engine.deploy(parse_pattern(LISTING_TEXTS["ExternalLightByFloor"]))
        # the event's own timestamp is ignored for windowing in this mode
        engine.ingest(ext_light(999_999_999, floor=1))
        assert engine.now_ms == 5_000
        wall[0] = 90_000
        engine.ingest(ext_light(0, floor=1))
        wall[0] = 11 * MINUTE
        out = engine.advance_clock(wall[0])
        assert [e.event.fields["count"] for e in out] == [2]
        assert out[0].event.timestamp == 10 * MINUTE

    def test_wall_clock_never_regresses_engine_time(self):
        wall = [10_000]
        engine = Engine(
            "f1", base_registry(), wall_clock=lambda: wall[0]
        )
        engine.deploy(parse_pattern(LISTING_TEXTS["ExternalLightByFloor"]))
        engine.ingest(ext_light(0))
        wall[0] = 4_000  # a stale reading must not move the clock backwards
        engine.ingest(ext_light(0))
        assert engine.now_ms == 10_000


class TestDeterminism:
    def _run(self):
        engine = make_engine(LISTING_ORDER)
        out = []
        for i in range(300):
            place = ["laboratory", "pharmacy", "hospital"][i % 3]
            out.extend(
                engine.ingest(
                    medicine(i * 37_000, mid=f"m{i % 4}", place=place)
                )
            )
            if i % 5 == 0:
                out.extend(engine.ingest(ext_light(i * 37_000, floor=i % 3)))
        out.extend(engine.advance_clock(48 * HOUR))
        return [(e.order_key, e.event.stream, tuple(e.event.fields.items())) for e in out]

    def test_same_log_same_emissions(self):
        assert self._run() == self._run()
