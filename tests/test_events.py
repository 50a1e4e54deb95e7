from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmosphere.errors import (
    FieldTypeError,
    PayloadError,
    SchemaError,
    UnknownStreamError,
)
from atmosphere.events import (
    Event,
    EventSchema,
    SchemaRegistry,
    compare_values,
    decode_event,
    encode_event,
)


@pytest.fixture()
def registry():
    return SchemaRegistry(
        [
            EventSchema("ExternalLight", {"isOn": "boolean", "floor": "integer"}),
            EventSchema("Medicine", {"id": "string", "type": "string", "place": "string"}),
            EventSchema("Reading", {"value": "number"}),
            EventSchema("Empty", {}),
        ]
    )


def test_encode_golden_bytes(registry):
    e = Event("ExternalLight", {"isOn": True, "floor": 3}, 1000, "e4")
    assert (
        encode_event(e, registry)
        == b'{"_stream":"ExternalLight","_ts":1000,"_src":"e4","isOn":true,"floor":3}'
    )


def test_encode_orders_fields_per_schema(registry):
    scrambled = Event("ExternalLight", {"floor": 3, "isOn": True}, 1000, "e4")
    canonical = Event("ExternalLight", {"isOn": True, "floor": 3}, 1000, "e4")
    assert scrambled == canonical
    assert encode_event(scrambled, registry) == encode_event(canonical, registry)


def test_encode_empty_fields(registry):
    e = Event("Empty", {}, 5, "n1")
    assert encode_event(e, registry) == b'{"_stream":"Empty","_ts":5,"_src":"n1"}'


def test_encode_number_field_canonicalizes_ints(registry):
    a = Event("Reading", {"value": 3}, 0, "n")
    b = Event("Reading", {"value": 3.0}, 0, "n")
    assert encode_event(a, registry) == encode_event(b, registry)


def test_encode_rejects_missing_and_extra_fields(registry):
    with pytest.raises(SchemaError) as err:
        encode_event(Event("ExternalLight", {"isOn": True}, 0, "e"), registry)
    assert err.value.field == "floor"
    with pytest.raises(SchemaError) as err:
        encode_event(
            Event("ExternalLight", {"isOn": True, "floor": 1, "zap": 1}, 0, "e"),
            registry,
        )
    assert err.value.field == "zap"


def test_encode_rejects_huge_integers(registry):
    ok = Event("ExternalLight", {"isOn": True, "floor": 2**53}, 0, "e")
    encode_event(ok, registry)
    bad = Event("ExternalLight", {"isOn": True, "floor": 2**53 + 1}, 0, "e")
    with pytest.raises(SchemaError):
        encode_event(bad, registry)


def test_decode_round_trip(registry):
    e = Event("ExternalLight", {"isOn": True, "floor": 3}, 1000, "e4")
    assert decode_event(encode_event(e, registry), registry) == e


def test_decode_accepts_any_key_order(registry):
    payload = b'{"floor":3,"_src":"e4","isOn":true,"_ts":1000,"_stream":"ExternalLight"}'
    assert decode_event(payload, registry) == Event(
        "ExternalLight", {"isOn": True, "floor": 3}, 1000, "e4"
    )


def test_decode_unknown_stream(registry):
    payload = b'{"_stream":"Unknown","_ts":1,"_src":"x"}'
    with pytest.raises(UnknownStreamError):
        decode_event(payload, registry)


def test_decode_type_mismatch(registry):
    payload = b'{"_stream":"ExternalLight","_ts":1,"_src":"x","isOn":true,"floor":"3"}'
    with pytest.raises(SchemaError) as err:
        decode_event(payload, registry)
    assert err.value.field == "floor"


def test_decode_bool_is_not_an_integer(registry):
    payload = b'{"_stream":"ExternalLight","_ts":1,"_src":"x","isOn":true,"floor":true}'
    with pytest.raises(SchemaError):
        decode_event(payload, registry)


def test_decode_malformed_payloads(registry):
    with pytest.raises(PayloadError):
        decode_event(b"{not json", registry)
    with pytest.raises(PayloadError):
        decode_event(b"[1,2]", registry)
    with pytest.raises(PayloadError):
        decode_event(b'{"_stream":"Empty","_ts":1}', registry)
    for ts in (b"-1", b"true", b"1.5", b'"1"'):
        with pytest.raises(PayloadError):
            decode_event(b'{"_stream":"Empty","_ts":' + ts + b',"_src":"x"}', registry)


_SCHEMA_FIELDS = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
    st.sampled_from(["number", "integer", "string", "boolean"]),
    max_size=5,
)


def _value_for(ftype: str):
    if ftype == "number":
        return st.floats(allow_nan=False, allow_infinity=False, width=32) | st.integers(
            min_value=-(2**53), max_value=2**53
        )
    if ftype == "integer":
        return st.integers(min_value=-(2**53), max_value=2**53)
    if ftype == "string":
        return st.text(max_size=12)
    return st.booleans()


@settings(max_examples=200, deadline=None)
@given(fields=_SCHEMA_FIELDS, ts=st.integers(min_value=0, max_value=2**48), data=st.data())
def test_codec_round_trip_property(fields, ts, data):
    registry = SchemaRegistry([EventSchema("S", fields)])
    values = {name: data.draw(_value_for(ftype)) for name, ftype in fields.items()}
    event = Event("S", values, ts, "n1")
    payload = encode_event(event, registry)
    decoded = decode_event(payload, registry)
    assert decoded == event
    # decode -> encode is the identity on canonical payloads
    assert encode_event(decoded, registry) == payload


def test_compare_values_numeric_coercion():
    assert compare_values("=", 1, 1.0)
    assert compare_values("<=", 90, 90.0)
    assert compare_values(">", 90.5, 90)
    assert not compare_values("!=", 2, 2.0)


def test_compare_values_same_type_equality():
    assert compare_values("=", "lab", "lab")
    assert compare_values("!=", True, False)


def test_compare_values_type_errors_never_false():
    with pytest.raises(FieldTypeError):
        compare_values("=", 1, "1")
    with pytest.raises(FieldTypeError):
        compare_values("<", "a", "b")
    with pytest.raises(FieldTypeError):
        compare_values("=", True, 1)
    with pytest.raises(FieldTypeError):
        compare_values("=", None, 1)
