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


@dataclass(frozen=True)
class _Token:
    kind: str  # lparen rparen comma ident number op eof
    text: str
    span: SourceSpan


def _tokenize(text: str, line_no: int) -> tuple[list[_Token], ParseError | None]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        span1 = SourceSpan(line_no, i + 1, 1)
        if ch == "(":
            tokens.append(_Token("lparen", ch, span1))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, span1))
            i += 1
        elif ch == ",":
            tokens.append(_Token("comma", ch, span1))
            i += 1
        elif text.startswith(">=", i) or text.startswith("<=", i):
            tokens.append(_Token("op", text[i:i + 2], SourceSpan(line_no, i + 1, 2)))
            i += 2
        elif ch in "<>=":
            tokens.append(_Token("op", ch, span1))
            i += 1
        elif ch.isdigit():
            m = NUMBER_RE.match(text, i)
            tokens.append(
                _Token("number", m.group(), SourceSpan(line_no, i + 1, len(m.group())))
            )
            i = m.end()
        else:
            m = IDENT_RE.match(text, i)
            if not m:
                return tokens, ParseError(span1, f"unexpected character {ch!r}", "lex")
            tokens.append(
                _Token("ident", m.group(), SourceSpan(line_no, i + 1, len(m.group())))
            )
            i = m.end()
    tokens.append(_Token("eof", "", SourceSpan(line_no, max(1, len(text.rstrip()) + 1), 1)))
    return tokens, None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, kind: str = "syntax") -> ParseError:
        raise ConceptSyntaxError(ParseError(self.peek().span, message, kind))

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text or 'end of line'!r}")
        return self.next()

    def ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail(f"expected {what}, found {tok.text or 'end of line'!r}")
        return self.next()

    def concept(self) -> ConceptExpr:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "top":
                self.next()
                return TOP
            if tok.text == "bot":
                self.next()
                return BOT
            if tok.text in _KEYWORDS:
                self.fail(f"keyword {tok.text!r} is not a concept")
            self.next()
            return Atomic(tok.text)
        if tok.kind != "lparen":
            self.fail(f"expected a concept, found {tok.text or 'end of line'!r}")
        self.next()
        head = self.peek()
        if head.kind != "ident" or head.text not in ("and", "or", "not", "all", "some"):
            self.fail("expected one of and/or/not/all/some after '('")
        self.next()
        if head.text in ("and", "or"):
            left = self.concept()
            right = self.concept()
            result: ConceptExpr = (And if head.text == "and" else Or)(left, right)
        elif head.text == "not":
            result = Not(self.concept())
        else:
            role = self.ident("a role name")
            filler = self.concept()
            result = (Forall if head.text == "all" else Exists)(role.text, filler)
        self.expect("rparen", "')'")
        return result

    def degree(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected a degree literal")
        value = Fraction(tok.text)
        if not 0 <= value <= 1:
            raise ConceptSyntaxError(
                ParseError(tok.span, f"degree {tok.text} outside [0, 1]", "degree-range")
            )
        self.next()
        return value

    def bounds(self) -> tuple[Bound, Bound]:
        """Parse ``>= n <= m`` or ``<= n >= m`` into (tbound, fbound)."""
        tok = self.peek()
        if tok.kind != "op" or tok.text not in (">=", "<="):
            self.fail("expected '>=' or '<='")
        first = self.next().text
        n = self.degree()
        second_tok = self.peek()
        wanted = "<=" if first == ">=" else ">="
        if second_tok.kind != "op" or second_tok.text != wanted:
            self.fail(f"expected {wanted!r} after the first bound")
        self.next()
        m = self.degree()
        if first == ">=":
            return Bound(Rel.GE, n), Bound(Rel.LE, m)
        return Bound(Rel.LE, n), Bound(Rel.GE, m)

    def bare_assertion(self):
        """``<concept>(<ind>)`` or ``<role>(<ind>,<ind>)``, no bounds."""
        first = self.peek()
        expr = self.concept()
        self.expect("lparen", "'('")
        subject = self.ident("an individual name")
        if self.peek().kind == "comma":
            if not isinstance(expr, Atomic):
                raise ConceptSyntaxError(
                    ParseError(first.span, "role assertions need a plain role name", "syntax")
                )
            self.next()
            target = self.ident("an individual name")
            self.expect("rparen", "')'")
            return RoleAssertion(expr.name, Individual(subject.text), Individual(target.text))
        self.expect("rparen", "')'")
        return ConceptAssertion(expr, Individual(subject.text))

    def statement(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "assert":
            self.next()
            assertion = self.bare_assertion()
            tb, fb = self.bounds()
            self.expect("eof", "end of line")
            return Constraint(assertion, tb, fb)
        if tok.kind == "ident" and tok.text in ("spec", "define"):
            self.next()
            lhs = self.ident("an atomic concept name")
            op = "<" if tok.text == "spec" else "="
            op_tok = self.peek()
            if op_tok.kind != "op" or op_tok.text != op:
                self.fail(f"expected {op!r} after {lhs.text!r}")
            self.next()
            rhs = self.concept()
            self.expect("eof", "end of line")
            kind = AxiomKind.SPECIALIZATION if tok.text == "spec" else AxiomKind.DEFINITION
            return TerminologicalAxiom(lhs.text, kind, rhs), lhs.span
        self.fail("expected 'assert', 'spec' or 'define'")


def _parse_line(text: str, line_no: int):
    tokens, err = _tokenize(text, line_no)
    if err is not None:
        raise ConceptSyntaxError(err)
    return _Parser(tokens).statement()


def parse_concept(text: str) -> ConceptExpr:
    """Parse a single concept expression; raises ConceptSyntaxError."""
    tokens, err = _tokenize(text, 1)
    if err is not None:
        raise ConceptSyntaxError(err)
    parser = _Parser(tokens)
    result = parser.concept()
    parser.expect("eof", "end of input")
    return result


def parse_query(text: str) -> Constraint:
    """Parse a single ``assert ...`` line into a nonstrict constraint."""
    statement = _parse_line(text, 1)
    if not isinstance(statement, Constraint):
        raise ConceptSyntaxError(
            ParseError(SourceSpan(1, 1, 1), "expected an 'assert' statement", "syntax")
        )
    return statement


def parse_assertion(text: str):
    """Parse a bare assertion ``C(a)`` / ``R(a,b)`` without bounds."""
    tokens, err = _tokenize(text, 1)
    if err is not None:
        raise ConceptSyntaxError(err)
    parser = _Parser(tokens)
    result = parser.bare_assertion()
    parser.expect("eof", "end of input")
    return result


def try_parse_kb(text: str) -> tuple[KnowledgeBase | None, list[ParseError]]:
    """Parse a KB, collecting every error instead of stopping at the first."""
    assertions: list[Constraint] = []
    axioms: list[TerminologicalAxiom] = []
    axiom_spans: dict[int, SourceSpan] = {}
    errors: list[ParseError] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            statement = _parse_line(line, line_no)
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
                    axiom_spans[idx],
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
        span = axiom_spans.get(violation.axiom_index, SourceSpan(1, 1, 1))
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
