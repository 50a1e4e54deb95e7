"""Guard expression language for agent rules.

Minimal by design: comparisons, boolean ``and``/``or``/``not``, and ``+ - * /``
on numbers. Terms may reference the trigger ``value``, ``state.<var>`` and
``attr.<name>``. Parsed once at configuration time; evaluation errors (type
mixups, division by zero, unresolved references) raise :class:`GuardError`
so the caller can skip the rule rather than crash the agent.
"""

from __future__ import annotations

from ..errors import FieldTypeError, GuardError
from ..events import compare_values
from ..patterns.parser import Token, tokenize
from ..record import Record

_CMP_OPS = {"=", "==", "!=", "<", "<=", ">", ">="}


class Lit(Record):
    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


class Ref(Record):
    __slots__ = ("scope", "name")

    def __init__(self, scope: str, name: str | None):
        self.scope = scope  # value | state | attr
        self.name = name


class UnaryOp(Record):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: object):
        self.op = op  # not | neg
        self.operand = operand


class BinOp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object):
        self.op = op
        self.left = left
        self.right = right


class _ExprParser:
    def __init__(self, text: str):
        try:
            self.tokens = tokenize(text)
        except Exception as exc:
            raise GuardError(f"cannot tokenize guard {text!r}: {exc}") from None
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        if self.current.kind == "punct" and self.current.value == value:
            self.advance()
            return True
        return False

    def fail(self, message: str):
        raise GuardError(f"{message}, got {self.current.text!r}")

    def parse(self):
        expr = self.parse_or()
        if self.current.kind != "eof":
            self.fail("trailing content in guard")
        return expr

    def parse_or(self):
        left = self.parse_and()
        while self.current.is_kw("or"):
            self.advance()
            left = BinOp("or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.current.is_kw("and"):
            self.advance()
            left = BinOp("and", left, self.parse_not())
        return left

    def parse_not(self):
        if self.current.is_kw("not"):
            self.advance()
            return UnaryOp("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_sum()
        tok = self.current
        if tok.kind == "punct" and tok.value in _CMP_OPS:
            self.advance()
            op = "=" if tok.value == "==" else str(tok.value)
            return BinOp(op, left, self.parse_sum())
        return left

    def parse_sum(self):
        left = self.parse_prod()
        while self.current.kind == "punct" and self.current.value in ("+", "-"):
            op = str(self.advance().value)
            left = BinOp(op, left, self.parse_prod())
        return left

    def parse_prod(self):
        left = self.parse_unary()
        while self.current.kind == "punct" and self.current.value in ("*", "/"):
            op = str(self.advance().value)
            left = BinOp(op, left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.accept("-"):
            return UnaryOp("neg", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Lit(tok.value)
        if tok.kind == "string":
            self.advance()
            return Lit(tok.value)
        if tok.is_kw("true"):
            self.advance()
            return Lit(True)
        if tok.is_kw("false"):
            self.advance()
            return Lit(False)
        if tok.is_kw("null"):
            self.advance()
            return Lit(None)
        if self.accept("("):
            expr = self.parse_or()
            if not self.accept(")"):
                self.fail("expected ')'")
            return expr
        if tok.kind == "ident":
            head = str(self.advance().value)
            if head == "value":
                return Ref("value", None)
            if head in ("state", "attr"):
                if not self.accept("."):
                    self.fail(f"expected '.' after {head!r}")
                name_tok = self.current
                if name_tok.kind != "ident":
                    self.fail(f"expected a name after {head!r}")
                self.advance()
                return Ref(head, str(name_tok.value))
            raise GuardError(
                f"unknown reference {head!r}; use value, state.<var> or attr.<name>"
            )
        self.fail("expected a guard term")


def parse_guard(text: str):
    """Parse a guard expression; raises GuardError on malformed input."""
    return _ExprParser(text).parse()


def guard_references(expr) -> set[tuple[str, str | None]]:
    """All (scope, name) references, for declaration checks at load time."""
    refs: set[tuple[str, str | None]] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            refs.add((node.scope, node.name))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
    return refs


def _as_number(value, what: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GuardError(f"{what} requires a number, got {type(value).__name__}")
    return value


def _as_bool(value, what: str):
    if not isinstance(value, bool):
        raise GuardError(f"{what} requires a boolean, got {type(value).__name__}")
    return value


def eval_expr(expr, value, state: dict, attrs: dict):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Ref):
        if expr.scope == "value":
            return value
        pool = state if expr.scope == "state" else attrs
        if expr.name not in pool:
            raise GuardError(f"undefined reference {expr.scope}.{expr.name}")
        return pool[expr.name]
    if isinstance(expr, UnaryOp):
        operand = eval_expr(expr.operand, value, state, attrs)
        if expr.op == "not":
            return not _as_bool(operand, "'not'")
        return -_as_number(operand, "negation")
    if isinstance(expr, BinOp):
        if expr.op in ("and", "or"):
            left = _as_bool(eval_expr(expr.left, value, state, attrs), f"'{expr.op}'")
            if expr.op == "and" and not left:
                return False
            if expr.op == "or" and left:
                return True
            return _as_bool(eval_expr(expr.right, value, state, attrs), f"'{expr.op}'")
        left = eval_expr(expr.left, value, state, attrs)
        right = eval_expr(expr.right, value, state, attrs)
        if expr.op in _CMP_OPS:
            try:
                return compare_values(expr.op, left, right)
            except FieldTypeError as exc:
                raise GuardError(str(exc)) from None
        _as_number(left, f"'{expr.op}'")
        _as_number(right, f"'{expr.op}'")
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                raise GuardError("division by zero")
            return left / right
    raise GuardError(f"cannot evaluate {expr!r}")


def eval_guard(expr, value, state: dict, attrs: dict) -> bool:
    result = eval_expr(expr, value, state, attrs)
    if not isinstance(result, bool):
        raise GuardError(f"guard must yield a boolean, got {type(result).__name__}")
    return result
