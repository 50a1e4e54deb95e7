"""Tokenizer and recursive-descent parser for the pattern language.

Keywords are case-insensitive, identifiers case-sensitive. Constructs the
grammar knows about but the subset excludes (``or``, ``not``, ``->``, other
window views, other aggregate functions, trailing clauses) raise
:class:`UnsupportedFeatureError` naming the construct; everything else
malformed raises :class:`PatternSyntaxError` with the source position.
"""

from __future__ import annotations

from ..errors import PatternSyntaxError, UnsupportedFeatureError
from ..record import Record
from .model import (
    Binding,
    CountAgg,
    CurrentTimestamp,
    Duration,
    FieldPath,
    FieldRef,
    Literal,
    PatternDef,
    Predicate,
    StarOf,
    validate_pattern,
)

_PUNCT2 = ("<=", ">=", "!=", "==", "->")
_PUNCT1 = "@()[],.:*=<>-+/"  # '+' and '/' only occur in guard expressions

_UNIT_ALIASES = {
    "second": "seconds",
    "seconds": "seconds",
    "minute": "minutes",
    "minutes": "minutes",
    "hour": "hours",
    "hours": "hours",
}

_UNSUPPORTED_TRAILING = ("where", "having", "output", "order", "limit")


class Token(Record):
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: object, line: int, col: int):
        self.kind = kind  # ident | number | string | punct | eof
        self.value = value
        self.line = line
        self.col = col

    def is_kw(self, word: str) -> bool:
        return self.kind == "ident" and str(self.value).lower() == word

    @property
    def text(self) -> str:
        return "<end of input>" if self.kind == "eof" else str(self.value)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "'\"":
            quote = ch
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if text[i] == "\n":
                    raise PatternSyntaxError("unterminated string", start_line, start_col)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise PatternSyntaxError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            raw = text[i:j]
            value = float(raw) if is_float else int(raw)
            tokens.append(Token("number", value, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise PatternSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> PatternSyntaxError:
        tok = self.current
        return PatternSyntaxError(f"{message}, got {tok.text!r}", tok.line, tok.col)

    def accept_punct(self, value: str) -> bool:
        if self.current.kind == "punct" and self.current.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise self.error(f"expected {value!r}")

    def accept_kw(self, word: str) -> bool:
        if self.current.is_kw(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise self.error(f"expected keyword {word!r}")

    def expect_ident(self, what: str) -> str:
        if self.current.kind != "ident":
            raise self.error(f"expected {what}")
        return str(self.advance().value)

    def expect_string(self, what: str) -> str:
        if self.current.kind != "string":
            raise self.error(f"expected {what}")
        return str(self.advance().value)

    # -- grammar -------------------------------------------------------------

    def at_pattern_start(self) -> bool:
        return (self.current.kind == "punct" and self.current.value == "@") or (
            self.current.is_kw("insert")
        )

    def parse_pattern(self) -> PatternDef:
        name: str | None = None
        tags: dict = {}
        while self.accept_punct("@"):
            annot = self.expect_ident("annotation name")
            if annot == "Name":
                self.expect_punct("(")
                name = self.expect_string("pattern name string")
                self.expect_punct(")")
            elif annot == "Tag":
                self.expect_punct("(")
                key_kw = self.expect_ident("'name'")
                if key_kw != "name":
                    raise self.error("expected 'name' in @Tag")
                self.expect_punct("=")
                tag_name = self.expect_string("tag name string")
                self.expect_punct(",")
                val_kw = self.expect_ident("'value'")
                if val_kw != "value":
                    raise self.error("expected 'value' in @Tag")
                self.expect_punct("=")
                tag_value = self.expect_string("tag value string")
                self.expect_punct(")")
                tags[tag_name] = tag_value
            else:
                raise UnsupportedFeatureError(f"annotation @{annot}")
        self.expect_kw("insert")
        self.expect_kw("into")
        insert_into = self.expect_ident("stream name after 'insert into'")
        self.expect_kw("select")
        select = [self.parse_select_item()]
        while self.accept_punct(","):
            select.append(self.parse_select_item())
        self.expect_kw("from")
        self.expect_kw("pattern")
        self.expect_punct("[")
        bindings = self.parse_pexpr()
        self.expect_punct("]")
        window = self.parse_window()
        group_by: list[FieldPath] = []
        if self.accept_kw("group"):
            self.expect_kw("by")
            group_by.append(self.parse_field_path())
            while self.accept_punct(","):
                group_by.append(self.parse_field_path())
        for clause in _UNSUPPORTED_TRAILING:
            if self.current.is_kw(clause):
                raise UnsupportedFeatureError(f"'{clause}' clause")
        if name is None:
            raise self.error("pattern requires a @Name annotation")
        pattern = PatternDef(
            name=name,
            tags=tags,
            insert_into=insert_into,
            select=tuple(select),
            bindings=tuple(bindings),
            window=window,
            group_by=tuple(group_by),
        )
        return validate_pattern(pattern)

    def parse_select_item(self):
        if self.current.kind != "ident":
            raise self.error("expected a select item")
        head = str(self.current.value)
        nxt = self.tokens[self.pos + 1]
        if nxt.kind == "punct" and nxt.value == "(":
            self.advance()
            self.expect_punct("(")
            if head.lower() == "current_timestamp":
                self.expect_punct(")")
                self.expect_kw("as")
                return CurrentTimestamp(as_name=self.expect_ident("output name"))
            if head.lower() == "count":
                path = self.parse_field_path()
                self.expect_punct(")")
                self.expect_kw("as")
                return CountAgg(path=path, as_name=self.expect_ident("output name"))
            raise UnsupportedFeatureError(f"function {head}()")
        path_alias = self.expect_ident("alias")
        self.expect_punct(".")
        if self.accept_punct("*"):
            return StarOf(alias=path_alias)
        field = self.expect_ident("field name")
        self.expect_kw("as")
        return FieldRef(
            path=FieldPath(path_alias, field), as_name=self.expect_ident("output name")
        )

    def parse_pexpr(self) -> list[Binding]:
        if self.accept_punct("("):
            bindings = self.parse_pexpr()
            self.expect_punct(")")
            return bindings
        if self.current.is_kw("not"):
            raise UnsupportedFeatureError("'not' pattern operator")
        self.expect_kw("every")
        if self.accept_punct("("):
            bindings = [self.parse_binding()]
            while True:
                if self.current.is_kw("or"):
                    raise UnsupportedFeatureError("'or' pattern operator")
                if self.current.kind == "punct" and self.current.value == "->":
                    raise UnsupportedFeatureError("followed-by (->) pattern operator")
                if not self.accept_kw("and"):
                    break
                bindings.append(self.parse_binding())
            self.expect_punct(")")
            return bindings
        binding = self.parse_binding()
        if self.current.is_kw("or"):
            raise UnsupportedFeatureError("'or' pattern operator")
        if self.current.is_kw("and"):
            raise self.error("conjunctions must be parenthesized: every (a and b)")
        if self.current.kind == "punct" and self.current.value == "->":
            raise UnsupportedFeatureError("followed-by (->) pattern operator")
        return [binding]

    def parse_binding(self) -> Binding:
        alias = self.expect_ident("binding alias")
        self.expect_punct("=")
        stream = self.expect_ident("stream name")
        predicates: list[Predicate] = []
        if self.accept_punct("("):
            predicates.append(self.parse_predicate())
            while True:
                if self.current.is_kw("or"):
                    raise UnsupportedFeatureError("'or' in filter predicates")
                if self.current.is_kw("not"):
                    raise UnsupportedFeatureError("'not' in filter predicates")
                if not self.accept_kw("and"):
                    break
                predicates.append(self.parse_predicate())
            self.expect_punct(")")
        return Binding(alias=alias, stream=stream, predicates=tuple(predicates))

    def parse_predicate(self) -> Predicate:
        lhs = self.parse_field_path()
        op_tok = self.current
        if op_tok.kind != "punct" or op_tok.value not in ("=", "!=", "<", "<=", ">", ">="):
            if op_tok.kind == "punct" and op_tok.value == "==":
                raise UnsupportedFeatureError("'==' operator (use '=')")
            raise self.error("expected a comparison operator")
        self.advance()
        rhs = self.parse_operand()
        return Predicate(lhs=lhs, op=str(op_tok.value), rhs=rhs)

    def parse_operand(self) -> Literal | FieldPath:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "punct" and tok.value == "-":
            self.advance()
            num = self.current
            if num.kind != "number":
                raise self.error("expected a number after '-'")
            self.advance()
            return Literal(-num.value)
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value)
        if tok.is_kw("true"):
            self.advance()
            return Literal(True)
        if tok.is_kw("false"):
            self.advance()
            return Literal(False)
        if tok.is_kw("null"):
            self.advance()
            return Literal(None)
        if tok.kind == "ident":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "punct" and nxt.value == ".":
                return self.parse_field_path()
            raise self.error("expected a literal or alias.field reference")
        raise self.error("expected a predicate operand")

    def parse_field_path(self) -> FieldPath:
        alias = self.expect_ident("alias")
        self.expect_punct(".")
        field = self.expect_ident("field name")
        return FieldPath(alias, field)

    def parse_window(self) -> Duration | None:
        if not self.accept_punct("."):
            return None
        view_ns = self.expect_ident("window view")
        if not self.accept_punct(":"):
            raise UnsupportedFeatureError(f"view {view_ns}")
        view = self.expect_ident("window view name")
        if view_ns != "win" or view != "time_batch":
            raise UnsupportedFeatureError(f"window {view_ns}:{view}")
        self.expect_punct("(")
        mag_tok = self.current
        if mag_tok.kind != "number" or not isinstance(mag_tok.value, int):
            raise self.error("expected an integer window size")
        self.advance()
        unit_raw = self.expect_ident("time unit").lower()
        if unit_raw not in _UNIT_ALIASES:
            if unit_raw in ("msec", "millisecond", "milliseconds", "day", "days"):
                raise UnsupportedFeatureError(f"time unit {unit_raw!r}")
            raise self.error("expected seconds|minutes|hours")
        self.expect_punct(")")
        return Duration(magnitude=int(mag_tok.value), unit=_UNIT_ALIASES[unit_raw])


def parse_pattern(text: str) -> PatternDef:
    """Parse exactly one pattern; trailing content is an error."""
    parser = _Parser(text)
    pattern = parser.parse_pattern()
    if parser.current.kind != "eof":
        raise parser.error("trailing content after pattern")
    return pattern


def parse_patterns(text: str) -> list[PatternDef]:
    """Parse a pattern file: one or more patterns back to back."""
    parser = _Parser(text)
    patterns = [parser.parse_pattern()]
    while parser.current.kind != "eof":
        if not parser.at_pattern_start():
            raise parser.error("expected the start of another pattern")
        patterns.append(parser.parse_pattern())
    return patterns
