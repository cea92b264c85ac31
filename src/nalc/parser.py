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
from .kb import KnowledgeBase, AxiomKind, TerminologicalAxiom, redefinitions, validate
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


# One alternative per token after blanks, so that ``findall`` gives each
# token's text: a two-character operator, a number, an identifier, or any
# other non-blank character (a bracket, a comma, a one-character operator
# or a bad character).  A comment is cut off before the scan.
_TOKEN_RE = re.compile(rf"[ \t\r]*([<>]=|{NUMBER_RE.pattern}|{IDENT_RE.pattern}|[^ \t\r])")

# A token's kind is read from its first character; ``str.isdecimal`` is
# what ``\d`` matches, so a number starts with a decimal digit.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset("(),<>=")
_HEADS = frozenset(("and", "or", "not", "all", "some"))


def _is_bad(token: str) -> bool:
    first = token[0]
    return not (first in _IDENT_START or first in _PUNCT or first.isdecimal())


def _token_columns(line: str) -> list[tuple[str, int]]:
    """(text, 1-based column) of each token of a line, for error spans."""
    return [(m[1], m.start(1) + 1) for m in _TOKEN_RE.finditer(line.partition("#")[0])]


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


class _Parser:
    """Recursive descent over the tokens of one line at a time.

    ``tokens`` holds the texts of the line's tokens and then ``""`` for
    the end of line; ``pos`` indexes it.  Columns are worked out only for
    an error.  A parser serves one call, and interns concept and
    individual names in its own dicts, so a wide KB builds and hashes
    each distinct leaf once.
    """

    def __init__(self):
        self.atoms: dict[str, Atomic] = {}
        self.individuals: dict[str, Individual] = {}

    def located(self, pos: int) -> tuple[str, int]:
        """The text and column of token ``pos``; the end of line sits past
        the line's last non-blank character, comment included."""
        columns = _token_columns(self.line)
        if pos < len(columns):
            return columns[pos]
        return "", max(1, len(self.line.rstrip()) + 1)

    def fail(self, message: str, kind: str = "syntax", pos: int | None = None):
        """Raise an error at token ``pos``, the current one by default.  A
        bad character anywhere on the line is reported instead, as a lex
        error: no rule accepts one, so every line that holds one fails."""
        for text, column in _token_columns(self.line):
            if _is_bad(text):
                span = SourceSpan(self.line_no, column, 1)
                raise ConceptSyntaxError(ParseError(span, f"unexpected character {text!r}", "lex"))
        text, column = self.located(self.pos if pos is None else pos)
        span = SourceSpan(self.line_no, column, len(text) or 1)
        raise ConceptSyntaxError(ParseError(span, message, kind))

    def expect(self, text: str, what: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            self.fail(f"expected {what}, found {tok or 'end of line'!r}")
        self.pos += 1

    def name(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _IDENT_START or tok in _KEYWORDS:
            self.fail(f"expected {what}, found {tok or 'end of line'!r}")
        self.pos += 1
        return tok

    def individual(self) -> Individual:
        name = self.name("an individual name")
        individual = self.individuals.get(name)
        if individual is None:
            individual = self.individuals[name] = Individual(name)
        return individual

    def concept(self) -> ConceptExpr:
        tok = self.tokens[self.pos]
        if tok[:1] in _IDENT_START:
            if tok in _KEYWORDS:
                if tok == "top":
                    self.pos += 1
                    return TOP
                if tok == "bot":
                    self.pos += 1
                    return BOT
                self.fail(f"keyword {tok!r} is not a concept")
            self.pos += 1
            atom = self.atoms.get(tok)
            if atom is None:
                atom = self.atoms[tok] = Atomic(tok)
            return atom
        if tok != "(":
            self.fail(f"expected a concept, found {tok or 'end of line'!r}")
        head = self.tokens[self.pos + 1]
        if head not in _HEADS:
            self.fail("expected one of and/or/not/all/some after '('", pos=self.pos + 1)
        self.pos += 2
        if head == "and" or head == "or":
            left = self.concept()
            right = self.concept()
            result: ConceptExpr = (And if head == "and" else Or)(left, right)
        elif head == "not":
            result = Not(self.concept())
        else:
            role = self.name("a role name")
            filler = self.concept()
            result = (Forall if head == "all" else Exists)(role, filler)
        self.expect(")", "')'")
        return result

    def degree(self) -> str:
        """The text of a degree literal in [0, 1]."""
        text = self.tokens[self.pos]
        if not text[:1].isdecimal():
            self.fail("expected a degree literal")
        try:
            in_range = _degree_literal(text)[1]
        except (ValueError, ZeroDivisionError):
            self.fail(f"bad degree literal {text!r}")
        if not in_range:
            self.fail(f"degree {text} outside [0, 1]", "degree-range")
        self.pos += 1
        return text

    def bounds(self) -> tuple[Bound, Bound]:
        """Parse ``>= n <= m`` or ``<= n >= m`` into (tbound, fbound)."""
        first = self.tokens[self.pos]
        if first != ">=" and first != "<=":
            self.fail("expected '>=' or '<='")
        self.pos += 1
        n = self.degree()
        wanted = "<=" if first == ">=" else ">="
        if self.tokens[self.pos] != wanted:
            self.fail(f"expected {wanted!r} after the first bound")
        self.pos += 1
        m = self.degree()
        return _bound(first, n), _bound(wanted, m)

    def bare_assertion(self):
        """``<concept>(<ind>)`` or ``<role>(<ind>,<ind>)``, no bounds."""
        first = self.pos
        expr = self.concept()
        self.expect("(", "'('")
        subject = self.individual()
        if self.tokens[self.pos] == ",":
            if not isinstance(expr, Atomic):
                self.fail("role assertions need a plain role name", pos=first)
            self.pos += 1
            target = self.individual()
            self.expect(")", "')'")
            return RoleAssertion(expr.name, subject, target)
        self.expect(")", "')'")
        return ConceptAssertion(expr, subject)

    def statement(self):
        """A constraint, or an axiom with the (line, column, length) of its name."""
        tok = self.tokens[self.pos]
        if tok == "assert":
            self.pos += 1
            assertion = self.bare_assertion()
            tb, fb = self.bounds()
            return Constraint(assertion, tb, fb)
        if tok == "spec" or tok == "define":
            self.pos += 1
            lhs = self.name("an atomic concept name")
            column = self.located(self.pos - 1)[1]
            op = "<" if tok == "spec" else "="
            if self.tokens[self.pos] != op:
                self.fail(f"expected {op!r} after {lhs!r}")
            self.pos += 1
            rhs = self.concept()
            kind = AxiomKind.SPECIALIZATION if tok == "spec" else AxiomKind.DEFINITION
            return TerminologicalAxiom(lhs, kind, rhs), (self.line_no, column, len(lhs))
        self.fail("expected 'assert', 'spec' or 'define'")

    def line_of(self, line: str, line_no: int, rule, end: str):
        """Run one rule on a whole line and expect the end after it."""
        self.line = line
        self.line_no = line_no
        self.tokens = _TOKEN_RE.findall(line.partition("#")[0])
        self.tokens.append("")
        self.pos = 0
        result = rule(self)
        if self.tokens[self.pos]:
            self.fail(f"expected {end}, found {self.tokens[self.pos]!r}")
        return result


def _parse(text: str, rule, end: str):
    """Run one ``_Parser`` rule on a single-line text and expect the end."""
    return _Parser().line_of(text, 1, rule, end)


def parse_concept(text: str) -> ConceptExpr:
    """Parse a single concept expression; raises ConceptSyntaxError."""
    return _parse(text, _Parser.concept, "end of input")


def parse_query(text: str) -> Constraint:
    """Parse a single ``assert ...`` line into a nonstrict constraint."""
    statement = _parse(text, _Parser.statement, "end of line")
    if not isinstance(statement, Constraint):
        raise ConceptSyntaxError(
            ParseError(SourceSpan(1, 1, 1), "expected an 'assert' statement", "syntax")
        )
    return statement


def parse_assertion(text: str):
    """Parse a bare assertion ``C(a)`` / ``R(a,b)`` without bounds."""
    return _parse(text, _Parser.bare_assertion, "end of input")


def try_parse_kb(text: str) -> tuple[KnowledgeBase | None, list[ParseError]]:
    """Parse a KB, collecting every error instead of stopping at the first."""
    assertions: list[Constraint] = []
    axioms: list[TerminologicalAxiom] = []
    # (line, column, length) of each axiom's name; a span is built only
    # for an error.
    axiom_spans: dict[int, tuple[int, int, int]] = {}
    errors: list[ParseError] = []
    parser = _Parser()
    for line_no, line in enumerate(_LINE_BREAK.split(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            statement = parser.line_of(line, line_no, _Parser.statement, "end of line")
        except ConceptSyntaxError as exc:
            errors.append(exc.error)
            continue
        if isinstance(statement, Constraint):
            assertions.append(statement)
        else:
            axiom, span = statement
            axiom_spans[len(axioms)] = span
            axioms.append(axiom)
    for idx, name in redefinitions(axioms):
        errors.append(
            ParseError(
                SourceSpan(*axiom_spans[idx]),
                f"{name!r} already defined on an earlier axiom",
                "duplicate-definition",
            )
        )
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
