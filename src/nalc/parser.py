"""Textual knowledge-base and query language.

The format is line oriented: one statement per line, ``#`` starts a
comment.  Statements::

    assert <concept>(<ind>) >= DEG <= DEG      # or "<= DEG >= DEG"
    assert <role>(<ind>,<ind>) >= DEG <= DEG
    spec   <atomic> < <concept>
    define <atomic> = <concept>

Concepts are S-expressions::

    top | bot | IDENT
    (and C C) | (or C C) | (not C) | (all ROLE C) | (some ROLE C)

Degree literals are decimal strings or ``p/q`` fractions and are kept
as exact rationals: the calculus compares bounds for equality, which
binary floats would corrupt.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

from .constraints import (
    Bound,
    ConceptAssertion,
    Constraint,
    Rel,
    RoleAssertion,
)
from .kb import KnowledgeBase, AxiomKind, TerminologicalAxiom, validate
from .syntax import (
    And,
    Atomic,
    BOT,
    ConceptExpr,
    Exists,
    Forall,
    Individual,
    Not,
    Or,
    TOP,
)

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_*]*")
NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:/\d+)?")
# A KB's lines end at \r\n, \r or \n only; str.splitlines would also
# break at form feeds, \x85, \u2028 and the like.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")

_KEYWORDS = {"and", "or", "not", "all", "some", "top", "bot",
             "assert", "spec", "define"}


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("spans are 1-based")


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str
    kind: str  # lex | syntax | degree-range | duplicate-definition

    def __str__(self):
        return f"{self.span.line}:{self.span.column}: {self.kind}: {self.message}"


class ConceptSyntaxError(ValueError):
    """Raised by the single-expression entry points."""

    def __init__(self, error: ParseError):
        super().__init__(str(error))
        self.error = error


class KbSyntaxError(ValueError):
    """Raised by ``parse_kb``; carries every error found."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


# One named alternative per token kind, after skipping blanks.  ``end``
# stops at a comment or at the end of the text; ``bad`` is the first
# character no token starts with.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<op>[<>]=|[<>=])"
    rf"|(?P<number>{NUMBER_RE.pattern})|(?P<ident>{IDENT_RE.pattern})"
    r"|(?P<end>#|\Z)|(?P<bad>.))",
    re.DOTALL,
)


_Tok = tuple[str, str, int]  # kind, text, column


# A wide KB repeats a handful of degree literals, so each distinct text
# is converted, range-checked and made into a bound once.
@functools.lru_cache(maxsize=1024)
def _degree_literal(text: str) -> tuple[Fraction, bool]:
    """The value of a degree literal and whether it lies in [0, 1]."""
    value = Fraction(text)
    return value, 0 <= value <= 1


@functools.lru_cache(maxsize=1024)
def _bound(op: str, text: str) -> Bound:
    """The bound ``op text``, for a literal that ``degree`` has accepted."""
    return Bound(Rel(op), _degree_literal(text)[0])


def _tokenize(text: str, line_no: int) -> list[_Tok]:
    """(kind, text, column) tokens of one line, ending in an ``eof`` token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        if kind == "bad":
            span = SourceSpan(line_no, m.start(kind) + 1, 1)
            raise ConceptSyntaxError(ParseError(span, f"unexpected character {m[kind]!r}", "lex"))
        tokens.append((kind, m[kind], m.start(kind) + 1))
    tokens.append(("eof", "", max(1, len(text.rstrip()) + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Tok], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, kind: str = "syntax", tok=None):
        _, text, column = tok or self.peek()
        span = SourceSpan(self.line_no, column, len(text) or 1)
        raise ConceptSyntaxError(ParseError(span, message, kind))

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.peek()
        if tok[0] != kind:
            self.fail(f"expected {what}, found {tok[1] or 'end of line'!r}")
        return self.next()

    def ident(self, what: str) -> _Tok:
        tok = self.peek()
        if tok[0] != "ident" or tok[1] in _KEYWORDS:
            self.fail(f"expected {what}, found {tok[1] or 'end of line'!r}")
        return self.next()

    def concept(self) -> ConceptExpr:
        kind, text, _ = self.peek()
        if kind == "ident":
            if text == "top":
                self.next()
                return TOP
            if text == "bot":
                self.next()
                return BOT
            if text in _KEYWORDS:
                self.fail(f"keyword {text!r} is not a concept")
            self.next()
            return Atomic(text)
        if kind != "lparen":
            self.fail(f"expected a concept, found {text or 'end of line'!r}")
        self.next()
        kind, head, _ = self.peek()
        if kind != "ident" or head not in ("and", "or", "not", "all", "some"):
            self.fail("expected one of and/or/not/all/some after '('")
        self.next()
        if head in ("and", "or"):
            left = self.concept()
            right = self.concept()
            result: ConceptExpr = (And if head == "and" else Or)(left, right)
        elif head == "not":
            result = Not(self.concept())
        else:
            role = self.ident("a role name")[1]
            filler = self.concept()
            result = (Forall if head == "all" else Exists)(role, filler)
        self.expect("rparen", "')'")
        return result

    def degree(self) -> str:
        """The text of a degree literal in [0, 1]."""
        kind, text, _ = self.peek()
        if kind != "number":
            self.fail("expected a degree literal")
        try:
            in_range = _degree_literal(text)[1]
        except (ValueError, ZeroDivisionError):
            self.fail(f"bad degree literal {text!r}")
        if not in_range:
            self.fail(f"degree {text} outside [0, 1]", "degree-range")
        self.next()
        return text

    def bounds(self) -> tuple[Bound, Bound]:
        """Parse ``>= n <= m`` or ``<= n >= m`` into (tbound, fbound)."""
        kind, first, _ = self.peek()
        if kind != "op" or first not in (">=", "<="):
            self.fail("expected '>=' or '<='")
        self.next()
        n = self.degree()
        wanted = "<=" if first == ">=" else ">="
        if self.peek()[:2] != ("op", wanted):
            self.fail(f"expected {wanted!r} after the first bound")
        self.next()
        m = self.degree()
        return _bound(first, n), _bound(wanted, m)

    def bare_assertion(self):
        """``<concept>(<ind>)`` or ``<role>(<ind>,<ind>)``, no bounds."""
        first = self.peek()
        expr = self.concept()
        self.expect("lparen", "'('")
        subject = Individual(self.ident("an individual name")[1])
        if self.peek()[0] == "comma":
            if not isinstance(expr, Atomic):
                self.fail("role assertions need a plain role name", tok=first)
            self.next()
            target = Individual(self.ident("an individual name")[1])
            self.expect("rparen", "')'")
            return RoleAssertion(expr.name, subject, target)
        self.expect("rparen", "')'")
        return ConceptAssertion(expr, subject)

    def statement(self):
        """A constraint, or an axiom with the (line, column, length) of its name."""
        kind, text, _ = self.peek()
        if kind == "ident" and text == "assert":
            self.next()
            assertion = self.bare_assertion()
            tb, fb = self.bounds()
            return Constraint(assertion, tb, fb)
        if kind == "ident" and text in ("spec", "define"):
            self.next()
            _, lhs, column = self.ident("an atomic concept name")
            op = "<" if text == "spec" else "="
            if self.peek()[:2] != ("op", op):
                self.fail(f"expected {op!r} after {lhs!r}")
            self.next()
            rhs = self.concept()
            kind = AxiomKind.SPECIALIZATION if text == "spec" else AxiomKind.DEFINITION
            return TerminologicalAxiom(lhs, kind, rhs), (self.line_no, column, len(lhs))
        self.fail("expected 'assert', 'spec' or 'define'")


def _parse(text: str, line_no: int, rule, end: str):
    """Tokenize ``text``, run one ``_Parser`` rule on it and expect the end."""
    parser = _Parser(_tokenize(text, line_no), line_no)
    result = rule(parser)
    parser.expect("eof", end)
    return result


def parse_concept(text: str) -> ConceptExpr:
    """Parse a single concept expression; raises ConceptSyntaxError."""
    return _parse(text, 1, _Parser.concept, "end of input")


def parse_query(text: str) -> Constraint:
    """Parse a single ``assert ...`` line into a nonstrict constraint."""
    statement = _parse(text, 1, _Parser.statement, "end of line")
    if not isinstance(statement, Constraint):
        raise ConceptSyntaxError(
            ParseError(SourceSpan(1, 1, 1), "expected an 'assert' statement", "syntax")
        )
    return statement


def parse_assertion(text: str):
    """Parse a bare assertion ``C(a)`` / ``R(a,b)`` without bounds."""
    return _parse(text, 1, _Parser.bare_assertion, "end of input")


def try_parse_kb(text: str) -> tuple[KnowledgeBase | None, list[ParseError]]:
    """Parse a KB, collecting every error instead of stopping at the first."""
    assertions: list[Constraint] = []
    axioms: list[TerminologicalAxiom] = []
    # (line, column, length) of each axiom's name; a span is built only
    # for an error.
    axiom_spans: dict[int, tuple[int, int, int]] = {}
    errors: list[ParseError] = []
    for line_no, line in enumerate(_LINE_BREAK.split(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            statement = _parse(line, line_no, _Parser.statement, "end of line")
        except ConceptSyntaxError as exc:
            errors.append(exc.error)
            continue
        if isinstance(statement, Constraint):
            assertions.append(statement)
        else:
            axiom, span = statement
            axiom_spans[len(axioms)] = span
            axioms.append(axiom)
    seen: dict[str, int] = {}
    for idx, axiom in enumerate(axioms):
        if axiom.lhs in seen:
            errors.append(
                ParseError(
                    SourceSpan(*axiom_spans[idx]),
                    f"{axiom.lhs!r} already defined on an earlier axiom",
                    "duplicate-definition",
                )
            )
        else:
            seen[axiom.lhs] = idx
    if errors:
        return None, errors
    kb = KnowledgeBase(tuple(assertions), tuple(axioms))
    # Duplicates were reported above, so validate finds none of them.
    for violation in validate(kb):
        span = SourceSpan(*axiom_spans.get(violation.axiom_index, (1, 1, 1)))
        errors.append(ParseError(span, violation.message, "syntax"))
    if errors:
        return None, errors
    return kb, []


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and validate a KB; raises KbSyntaxError with all errors."""
    kb, errors = try_parse_kb(text)
    if errors:
        raise KbSyntaxError(errors)
    return kb


def format_concept(c: ConceptExpr) -> str:
    """Render a concept so that ``parse_concept`` round-trips it."""
    if isinstance(c, Atomic):
        return c.name
    if c == TOP:
        return "top"
    if c == BOT:
        return "bot"
    if isinstance(c, And):
        return f"(and {format_concept(c.left)} {format_concept(c.right)})"
    if isinstance(c, Or):
        return f"(or {format_concept(c.left)} {format_concept(c.right)})"
    if isinstance(c, Not):
        return f"(not {format_concept(c.inner)})"
    if isinstance(c, Forall):
        return f"(all {c.role} {format_concept(c.filler)})"
    if isinstance(c, Exists):
        return f"(some {c.role} {format_concept(c.filler)})"
    raise TypeError(f"not a concept expression: {c!r}")


def format_statement(constraint: Constraint) -> str:
    """Render a nonstrict constraint as an ``assert`` line."""
    return f"assert {constraint}"
