"""Canonical event model: typed field values, stream schemas, and the JSON wire codec.

Every tier exchanges the same unit of data: an :class:`Event`, a timestamped
record of named fields belonging to a named stream. Events cross the wire as
UTF-8 JSON objects with three reserved keys (``_stream``, ``_ts``, ``_src``)
followed by the event fields in schema declaration order, which makes the
encoding byte-deterministic for equal events.

Each :class:`EventSchema` builds its codec plan once, when it is made: the
field order, each field's JSON key and the exact type that passes its check
without coercion. :meth:`EventSchema.validate` runs the plan, and
:func:`encode_event` writes the canonical bytes from it, the same bytes
``json.dumps(..., separators=(",", ":"), ensure_ascii=False)`` writes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring

from .errors import FieldTypeError, PayloadError, SchemaError, UnknownStreamError

# A field value is a 64-bit float, a 64-bit signed integer, a UTF-8 string,
# a boolean, or null.
FieldValue = float | int | str | bool | None

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

FIELD_TYPES = ("number", "integer", "string", "boolean")

# Integers survive the JSON boundary exactly only inside the float53 range.
MAX_SAFE_INT = 2**53

# The exact class a declared type passes without coercion; anything else goes
# through ``EventSchema.coerce_value``.
_EXACT = {"number": float, "integer": int, "string": str, "boolean": bool}

# For values outside the plan's types: writes what ``json.dumps`` writes.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_INF = float("inf")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _json(value) -> str:
    if value.__class__ is str:
        return encode_basestring(value)
    if value.__class__ is int:
        return int.__repr__(value)
    return _ENCODER.encode(value)


# How a checked, non-null value of each declared type is written.
_RENDER = {
    "number": _json_float,
    "integer": int.__repr__,
    "string": encode_basestring,
    "boolean": {True: "true", False: "false"}.__getitem__,
}


@dataclass(frozen=True, eq=True)
class Event:
    """One observation flowing through the system.

    ``fields`` is insertion-ordered; equality compares it as a mapping, so two
    events with the same fields in different order are equal.
    """

    stream: str
    fields: dict
    timestamp: int
    source: str


@dataclass(frozen=True)
class EventSchema:
    """Declared field types for one stream.

    An event validates iff every declared field is present with a coercible
    value (integers coerce to ``number``); extra fields are rejected. Null is
    accepted for any declared field.
    """

    stream: str
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        if not IDENT_RE.match(self.stream):
            raise SchemaError(f"invalid stream name: {self.stream!r}")
        for name, ftype in self.fields.items():
            if not IDENT_RE.match(name):
                raise SchemaError(f"invalid field name: {name!r}", field=name)
            if ftype not in FIELD_TYPES:
                raise SchemaError(
                    f"unknown field type {ftype!r} for field {name!r}", field=name
                )
        # The codec plan, built once: per field in declaration order, its
        # name, its JSON key, its exact type and how its value is written.
        object.__setattr__(self, "_plan", tuple(
            (name, f',"{name}":', _EXACT[ftype], _RENDER[ftype])
            for name, ftype in self.fields.items()
        ))
        object.__setattr__(self, "_head", f'{{"_stream":"{self.stream}","_ts":')

    def coerce_value(self, name: str, value: FieldValue) -> FieldValue:
        """Return ``value`` coerced to the declared type, or raise SchemaError."""
        declared = self.fields[name]
        if value is None:
            return None
        if declared == "boolean":
            if isinstance(value, bool):
                return value
        elif isinstance(value, bool):
            pass  # bool is an int subclass; never allow it for non-boolean fields
        elif declared == "string":
            if isinstance(value, str):
                return value
        elif declared == "integer":
            if isinstance(value, int):
                if abs(value) > MAX_SAFE_INT:
                    raise SchemaError(
                        f"integer field {name!r} exceeds 2^53: {value}", field=name
                    )
                return value
        elif declared == "number":
            if isinstance(value, int):
                if abs(value) > MAX_SAFE_INT:
                    raise SchemaError(
                        f"number field {name!r} exceeds 2^53: {value}", field=name
                    )
                return float(value)
            if isinstance(value, float):
                return value
        raise SchemaError(
            f"field {name!r} expects {declared}, got {type(value).__name__}",
            field=name,
        )

    def validate(self, fields: dict) -> dict:
        """Return the fields re-ordered per declaration with values coerced."""
        out = {}
        for name, _, exact, _ in self._plan:
            try:
                value = fields[name]
            except KeyError:
                raise SchemaError(f"missing field {name!r}", field=name) from None
            if value.__class__ is not exact or (
                exact is int and not -MAX_SAFE_INT <= value <= MAX_SAFE_INT
            ):  # null, an int for a number, a subclass or an error
                value = self.coerce_value(name, value)
            out[name] = value
        if len(fields) != len(out):
            for name in fields:
                if name not in self.fields:
                    raise SchemaError(f"undeclared field {name!r}", field=name)
        return out


class SchemaRegistry:
    """Stream name -> schema lookup shared by codecs and engines."""

    def __init__(self, schemas: list[EventSchema] | None = None):
        self._schemas: dict[str, EventSchema] = {}
        for s in schemas or []:
            self.register(s)

    def register(self, schema: EventSchema) -> None:
        if schema.stream in self._schemas:
            raise SchemaError(f"duplicate schema for stream {schema.stream!r}")
        self._schemas[schema.stream] = schema

    def get(self, stream: str) -> EventSchema:
        try:
            return self._schemas[stream]
        except KeyError:
            raise UnknownStreamError(stream) from None

    def __contains__(self, stream: str) -> bool:
        return stream in self._schemas

    def streams(self) -> list[str]:
        return list(self._schemas)


def encode_event(event: Event, registry: SchemaRegistry) -> bytes:
    """Serialize a schema-valid event to its canonical JSON payload.

    Reserved keys come first, then fields in schema declaration order; numbers
    declared ``number`` are always written as floats so equal events encode to
    equal bytes.
    """
    schema = registry.get(event.stream)
    values = schema.validate(event.fields).values()
    parts = [schema._head, _json(event.timestamp), ',"_src":', _json(event.source)]
    for (_, key, _, render), value in zip(schema._plan, values):
        parts += key, "null" if value is None else render(value)
    parts.append("}")
    return "".join(parts).encode("utf-8")


def decode_event(payload: bytes, registry: SchemaRegistry) -> Event:
    """Inverse of :func:`encode_event`; accepts fields in any key order."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PayloadError(f"malformed event payload: {exc}") from None
    if not isinstance(doc, dict):
        raise PayloadError("event payload must be a JSON object")
    try:  # the fields are what is left
        stream = doc.pop("_stream")
        ts = doc.pop("_ts")
        src = doc.pop("_src")
    except KeyError as exc:
        raise PayloadError(f"event payload missing reserved key {exc.args[0]!r}") from None
    if not isinstance(stream, str):
        raise PayloadError("_stream must be a string")
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise PayloadError("_ts must be a non-negative integer")
    if not isinstance(src, str):
        raise PayloadError("_src must be a string")
    return Event(stream, registry.get(stream).validate(doc), ts, src)


def compare_values(op: str, lhs: FieldValue, rhs: FieldValue) -> bool:
    """Compare two field values under the coercion rules.

    Integers coerce to numbers; any other cross-type comparison raises
    :class:`FieldTypeError` rather than silently evaluating false. Ordering
    operators apply to numbers only.
    """
    lhs_num = isinstance(lhs, (int, float)) and not isinstance(lhs, bool)
    rhs_num = isinstance(rhs, (int, float)) and not isinstance(rhs, bool)
    if lhs_num and rhs_num:
        pass
    elif isinstance(lhs, bool) and isinstance(rhs, bool):
        if op not in ("=", "!="):
            raise FieldTypeError(f"operator {op!r} not defined for booleans")
    elif isinstance(lhs, str) and isinstance(rhs, str):
        if op not in ("=", "!="):
            raise FieldTypeError(f"operator {op!r} not defined for strings")
    else:
        raise FieldTypeError(
            f"cannot compare {type(lhs).__name__} with {type(rhs).__name__}"
        )
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise FieldTypeError(f"unknown comparison operator {op!r}")
