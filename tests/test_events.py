from __future__ import annotations

import json

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


# -- the codec plan against json.dumps ------------------------------------------

_EDGE_INTS = st.sampled_from([0, 2**53, -(2**53), 2**53 + 1, -(2**53) - 1])
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f é漢🙂'),
    max_size=8,
)


def _wire_value(ftype: str):
    """A value of ``ftype`` or null; the ints include the ±2^53 edges, and a
    ``number`` field also gets ints, NaN and ±inf."""
    if ftype == "number":
        values = st.floats() | st.integers() | _EDGE_INTS
    elif ftype == "integer":
        values = st.integers() | _EDGE_INTS
    elif ftype == "string":
        values = _TEXT
    else:
        values = st.booleans()
    return st.none() | values


def _reference(event: Event, fields: dict) -> bytes:
    """The canonical bytes by json.dumps: ints in ``number`` fields as floats,
    SchemaError on the first field, in declaration order, beyond ±2^53."""
    doc = {"_stream": event.stream, "_ts": event.timestamp, "_src": event.source}
    for name, ftype in fields.items():
        value = event.fields[name]
        if isinstance(value, int) and not isinstance(value, bool):
            if abs(value) > 2**53:
                raise SchemaError(f"{ftype} field {name!r} exceeds 2^53: {value}", field=name)
            if ftype == "number":
                value = float(value)
        doc[name] = value
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _same(a, b) -> bool:
    """Equal field values, NaN equal to NaN."""
    return a == b or (a != a and b != b)


@settings(max_examples=300, deadline=None)
@given(fields=_SCHEMA_FIELDS, ts=st.integers(min_value=0, max_value=2**63),
       src=_TEXT, data=st.data())
def test_encode_matches_json_dumps(fields, ts, src, data):
    registry = SchemaRegistry([EventSchema("S", fields)])
    values = {name: data.draw(_wire_value(ftype)) for name, ftype in fields.items()}
    event = Event("S", values, ts, src)
    try:
        expected = _reference(event, fields)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            encode_event(event, registry)
        assert (str(err.value), err.value.field) == (str(exc), exc.field)
        return
    payload = encode_event(event, registry)
    assert payload == expected
    decoded = decode_event(payload, registry)
    assert (decoded.stream, decoded.timestamp, decoded.source) == ("S", ts, src)
    assert list(decoded.fields) == list(fields)
    assert all(_same(decoded.fields[name], values[name]) for name in fields)


@settings(max_examples=300, deadline=None)
@given(fields=_SCHEMA_FIELDS, ts=st.integers(min_value=0, max_value=2**63),
       src=_TEXT, data=st.data())
def test_decode_inverts_encode(fields, ts, src, data):
    registry = SchemaRegistry([EventSchema("S", fields)])
    values = {}
    for name, ftype in fields.items():
        value = data.draw(_wire_value(ftype))
        if isinstance(value, int) and not isinstance(value, bool) and abs(value) > 2**53:
            value = 2**53
        values[name] = value
    event = Event("S", values, ts, src)
    decoded = decode_event(encode_event(event, registry), registry)
    if not any(value != value for value in values.values()):  # NaN is never equal
        assert decoded == event
    assert all(_same(decoded.fields[name], values[name]) for name in fields)


@pytest.mark.parametrize("fields,message,field", [
    ({"isOn": True}, "missing field 'floor'", "floor"),
    ({"isOn": True, "floor": 1, "zap": 1}, "undeclared field 'zap'", "zap"),
    ({"zap": 1, "isOn": True}, "missing field 'floor'", "floor"),
    ({"isOn": True, "floor": "3"}, "field 'floor' expects integer, got str", "floor"),
    ({"isOn": 1, "floor": 3}, "field 'isOn' expects boolean, got int", "isOn"),
    ({"isOn": True, "floor": True}, "field 'floor' expects integer, got bool", "floor"),
    ({"isOn": True, "floor": 2**53 + 1}, "integer field 'floor' exceeds 2^53: 9007199254740993", "floor"),
    ({"isOn": True, "floor": -(2**53) - 1}, "integer field 'floor' exceeds 2^53: -9007199254740993", "floor"),
])
def test_schema_errors_pinned(registry, fields, message, field):
    for check in (
        lambda: encode_event(Event("ExternalLight", fields, 0, "e"), registry),
        lambda: registry.get("ExternalLight").validate(fields),
    ):
        with pytest.raises(SchemaError) as err:
            check()
        assert (str(err.value), err.value.field) == (message, field)


@pytest.mark.parametrize("value,message", [
    (2**53 + 1, "number field 'value' exceeds 2^53: 9007199254740993"),
    ("1", "field 'value' expects number, got str"),
    (False, "field 'value' expects number, got bool"),
])
def test_number_schema_errors_pinned(registry, value, message):
    with pytest.raises(SchemaError) as err:
        encode_event(Event("Reading", {"value": value}, 0, "e"), registry)
    assert (str(err.value), err.value.field) == (message, "value")
    payload = b'{"_stream":"Reading","_ts":0,"_src":"e","value":' + json.dumps(value).encode() + b"}"
    with pytest.raises(SchemaError) as err:
        decode_event(payload, registry)
    assert (str(err.value), err.value.field) == (message, "value")


def test_decode_errors_pinned(registry):
    for payload, message in (
        (b'{"_ts":1,"_src":"x"}', "event payload missing reserved key '_stream'"),
        (b'{"_stream":"Empty","_src":"x"}', "event payload missing reserved key '_ts'"),
        (b'{"_stream":"Empty","_ts":1}', "event payload missing reserved key '_src'"),
        (b'{"_stream":1,"_ts":-1}', "event payload missing reserved key '_src'"),
        (b'{"_stream":1,"_ts":-1,"_src":2}', "_stream must be a string"),
        (b'{"_stream":"Empty","_ts":-1,"_src":2}', "_ts must be a non-negative integer"),
        (b'{"_stream":"Empty","_ts":1,"_src":2}', "_src must be a string"),
        (b'[]', "event payload must be a JSON object"),
    ):
        with pytest.raises(PayloadError) as err:
            decode_event(payload, registry)
        assert str(err.value) == message
    with pytest.raises(UnknownStreamError):
        decode_event(b'{"_stream":"Nope","_ts":1,"_src":"x","a":1}', registry)
