"""AST for the event pattern definition language, plus the canonical printer.

The language is a frozen subset of an EPL-style dialect: ``every`` bindings
(single or an ``and``-conjunction), filter predicates with six comparison
operators, ``win:time_batch`` tumbling windows, ``group by``, a single
``count()`` aggregate, ``current_timestamp()``, aliasing, ``a.*`` projection
and ``insert into``. Anything else is rejected at parse time by name.
"""

from __future__ import annotations

from ..errors import PatternSemanticError
from ..events import IDENT_RE, FieldValue
from ..record import Record

TIME_UNITS_MS = {"seconds": 1000, "minutes": 60_000, "hours": 3_600_000}

ROUTE_AUDIENCES = ("edge", "fog", "cloud", "user")


class Duration(Record):
    __slots__ = ("magnitude", "unit")

    def __init__(self, magnitude: int, unit: str):
        self.magnitude = magnitude
        self.unit = unit  # seconds | minutes | hours

    def to_ms(self) -> int:
        return self.magnitude * TIME_UNITS_MS[self.unit]


class FieldPath(Record):
    __slots__ = ("alias", "field")

    def __init__(self, alias: str, field: str):
        self.alias = alias
        self.field = field

    def __str__(self) -> str:
        return f"{self.alias}.{self.field}"


class Literal(Record):
    __slots__ = ("value",)

    def __init__(self, value: FieldValue):
        self.value = value


class Predicate(Record):
    __slots__ = ("lhs", "op", "rhs")

    def __init__(self, lhs: FieldPath, op: str, rhs: Literal | FieldPath):
        self.lhs = lhs
        self.op = op  # = != < <= > >=
        self.rhs = rhs


class Binding(Record):
    __slots__ = ("alias", "stream", "predicates")

    def __init__(self, alias: str, stream: str, predicates: tuple = ()):
        self.alias = alias
        self.stream = stream
        self.predicates = predicates


class FieldRef(Record):
    __slots__ = ("path", "as_name")

    def __init__(self, path: FieldPath, as_name: str):
        self.path = path
        self.as_name = as_name


class CurrentTimestamp(Record):
    __slots__ = ("as_name",)

    def __init__(self, as_name: str):
        self.as_name = as_name


class CountAgg(Record):
    __slots__ = ("path", "as_name")

    def __init__(self, path: FieldPath, as_name: str):
        self.path = path
        self.as_name = as_name


class StarOf(Record):
    __slots__ = ("alias",)

    def __init__(self, alias: str):
        self.alias = alias


SelectItem = FieldRef | CurrentTimestamp | CountAgg | StarOf


class PatternDef(Record):
    __slots__ = ("name", "tags", "insert_into", "select", "bindings", "window", "group_by")

    def __init__(self, name: str, tags: dict, insert_into: str, select: tuple, bindings: tuple,
                 window: Duration | None = None, group_by: tuple = ()):
        self.name = name
        self.tags = tags
        self.insert_into = insert_into
        self.select = select
        self.bindings = bindings
        self.window = window
        self.group_by = group_by

    @property
    def target(self) -> str | None:
        return self.tags.get("target")

    def input_streams(self) -> list[str]:
        seen = []
        for binding in self.bindings:
            if binding.stream not in seen:
                seen.append(binding.stream)
        return seen

    @property
    def is_conjunction(self) -> bool:
        return len(self.bindings) > 1


def validate_pattern(p: PatternDef) -> PatternDef:
    """Enforce the semantic rules; returns ``p`` for chaining."""
    if not IDENT_RE.match(p.name or ""):
        raise PatternSemanticError(f"invalid pattern name {p.name!r}")
    if not IDENT_RE.match(p.insert_into or ""):
        raise PatternSemanticError(f"invalid insert-into stream {p.insert_into!r}")
    if "domainName" not in p.tags:
        raise PatternSemanticError(f"pattern {p.name!r} must carry a domainName tag")
    target = p.tags.get("target")
    if target is not None and target not in ROUTE_AUDIENCES:
        raise PatternSemanticError(
            f"pattern {p.name!r}: target must be one of {ROUTE_AUDIENCES}, got {target!r}"
        )
    if not p.bindings:
        raise PatternSemanticError(f"pattern {p.name!r} needs at least one binding")
    aliases: list[str] = []
    for binding in p.bindings:
        if not IDENT_RE.match(binding.alias) or not IDENT_RE.match(binding.stream):
            raise PatternSemanticError(
                f"pattern {p.name!r}: bad binding {binding.alias!r} = {binding.stream!r}"
            )
        if binding.alias in aliases:
            raise PatternSemanticError(
                f"pattern {p.name!r}: duplicate alias {binding.alias!r}"
            )
        for pred in binding.predicates:
            if pred.lhs.alias != binding.alias:
                raise PatternSemanticError(
                    f"pattern {p.name!r}: predicate on {pred.lhs} must use the "
                    f"enclosing alias {binding.alias!r}"
                )
            if isinstance(pred.rhs, FieldPath) and pred.rhs.alias not in aliases:
                raise PatternSemanticError(
                    f"pattern {p.name!r}: correlation {pred.lhs} {pred.op} {pred.rhs} "
                    f"references {pred.rhs.alias!r}, which is not declared earlier"
                )
        aliases.append(binding.alias)

    if not p.select:
        raise PatternSemanticError(f"pattern {p.name!r} needs a select list")
    out_names: list[str] = []
    count_aggs = 0
    for item in p.select:
        if isinstance(item, StarOf):
            if item.alias not in aliases:
                raise PatternSemanticError(
                    f"pattern {p.name!r}: select {item.alias}.* references an unknown alias"
                )
            continue
        if isinstance(item, (FieldRef, CountAgg)) and item.path.alias not in aliases:
            raise PatternSemanticError(
                f"pattern {p.name!r}: select references unknown alias {item.path.alias!r}"
            )
        if isinstance(item, CountAgg):
            count_aggs += 1
        if not IDENT_RE.match(item.as_name):
            raise PatternSemanticError(
                f"pattern {p.name!r}: invalid output name {item.as_name!r}"
            )
        if item.as_name in out_names:
            raise PatternSemanticError(
                f"pattern {p.name!r}: duplicate output name {item.as_name!r}"
            )
        out_names.append(item.as_name)
    if count_aggs > 1:
        raise PatternSemanticError(f"pattern {p.name!r}: at most one count() aggregate")
    if count_aggs and p.window is None:
        raise PatternSemanticError(
            f"pattern {p.name!r}: count() requires a time_batch window"
        )
    if p.group_by and p.window is None:
        raise PatternSemanticError(
            f"pattern {p.name!r}: group by requires a time_batch window"
        )
    for path in p.group_by:
        if path.alias not in aliases:
            raise PatternSemanticError(
                f"pattern {p.name!r}: group by references unknown alias {path.alias!r}"
            )
    if p.is_conjunction and (p.group_by or count_aggs):
        raise PatternSemanticError(
            f"pattern {p.name!r}: group by / count() are not defined for conjunctions"
        )
    if p.window is not None and (
        p.window.magnitude <= 0 or p.window.unit not in TIME_UNITS_MS
    ):
        raise PatternSemanticError(f"pattern {p.name!r}: invalid window {p.window}")
    return p


def _print_literal(value: FieldValue) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(value)


def _print_predicate(pred: Predicate) -> str:
    rhs = str(pred.rhs) if isinstance(pred.rhs, FieldPath) else _print_literal(pred.rhs.value)
    return f"{pred.lhs} {pred.op} {rhs}"


def _print_binding(binding: Binding) -> str:
    text = f"{binding.alias} = {binding.stream}"
    if binding.predicates:
        text += "(" + " and ".join(_print_predicate(p) for p in binding.predicates) + ")"
    return text


def _print_select_item(item: SelectItem) -> str:
    if isinstance(item, CurrentTimestamp):
        return f"current_timestamp() as {item.as_name}"
    if isinstance(item, FieldRef):
        return f"{item.path} as {item.as_name}"
    if isinstance(item, CountAgg):
        return f"count({item.path}) as {item.as_name}"
    return f"{item.alias}.*"


def print_pattern(p: PatternDef) -> str:
    """Canonical text form; ``parse_pattern(print_pattern(p)) == p``."""
    lines = [f'@Name("{p.name}")']
    for tag, value in p.tags.items():
        lines.append(f'@Tag(name="{tag}", value="{value}")')
    lines.append(f"insert into {p.insert_into}")
    lines.append("select " + ", ".join(_print_select_item(i) for i in p.select))
    if p.is_conjunction:
        pexpr = "every (" + " and ".join(_print_binding(b) for b in p.bindings) + ")"
    else:
        pexpr = "every " + _print_binding(p.bindings[0])
    from_line = f"from pattern [({pexpr})]"
    if p.window is not None:
        from_line += f".win:time_batch({p.window.magnitude} {p.window.unit})"
    lines.append(from_line)
    if p.group_by:
        lines.append("group by " + ", ".join(str(path) for path in p.group_by))
    return "\n".join(lines)
