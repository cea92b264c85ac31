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

A line is scanned by one regex and read by one recursive descent,
``_Parser``.  A wide ABox repeats a few names and bound pairs, so the
``assert`` rule reads its line by indexing the tokens and takes what it
has seen before in place: a concept or individual name from the parse's
dicts, and a bound pair (``>= 1/4 <= 0``), by the text of its four
tokens, from a memo.  A name or pair enters only once the checking rules
(``concept``, ``individual``, ``bounds``) have accepted it, and every
error comes from those rules.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

from .constraints import Bound, ConceptAssertion, Constraint, Rel, RoleAssertion
from .kb import KnowledgeBase, AxiomKind, TerminologicalAxiom, redefinitions, validate
from .syntax import And, Atomic, BOT, ConceptExpr, Individual, Not, Or, TOP, _WORD
from .syntax import format_concept  # concept rendering lives in syntax; parser re-exports it

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_*]*")
NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:/\d+)?")
# A KB's lines end at \r\n, \r or \n only; str.splitlines would also
# break at form feeds, \x85, \u2028 and the like.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# The connective a ``(``-headed concept names, by its word (``syntax._WORD``).
_CONNECTIVE = {word: kind for kind, word in _WORD.items()}
_KEYWORDS = {*_CONNECTIVE, "top", "bot", "assert", "spec", "define"}


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


# The only blanks: a line of them, or of them and a comment, is skipped,
# and any other character (a no-break space, a form feed) is a lex error.
BLANKS = " \t\r"
# One alternative per token after blanks, so that ``findall`` gives each
# token's text: a two-character operator, a number, an identifier, or any
# other non-blank character (a bracket, a comma, a one-character operator
# or a bad character).  A comment is cut off before the scan.
_TOKEN_RE = re.compile(rf"[{BLANKS}]*([<>]=|{NUMBER_RE.pattern}|{IDENT_RE.pattern}|[^{BLANKS}])")

# A token's kind is read from its first character; ``str.isdecimal`` is
# what ``\d`` matches, so a number starts with a decimal digit.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset("(),<>=")
# Four ends of line: the ``assert`` rule reads a bound pair as the next four tokens.
_END = ("", "", "", "")


def _tokens(line: str) -> list[str]:
    """The texts of a line's tokens."""
    return _TOKEN_RE.findall(line.partition("#")[0])


def _token_columns(line: str) -> list[tuple[str, int]]:
    """(text, 1-based column) of each token of a line, for error spans."""
    return [(m[1], m.start(1) + 1) for m in _TOKEN_RE.finditer(line.partition("#")[0])]


# One value per degree literal and one bound per relation and literal, so
# the statements of a wide KB share their bounds and their bounds' values.
@functools.lru_cache(maxsize=1024)
def _degree_literal(text: str) -> tuple[Fraction, bool]:
    """The value of a degree literal and whether it lies in [0, 1]."""
    value = Fraction(text)
    return value, 0 <= value <= 1


@functools.lru_cache(maxsize=1024)
def _bound(op: str, text: str) -> Bound:
    """The bound ``op text``, for a literal that ``degree`` has accepted."""
    return Bound(Rel(op), _degree_literal(text)[0])


# (tbound, fbound) by the four token texts of each pair ``_Parser.bounds``
# accepted, emptied when full; an entry depends on its key alone.  The key
# also files each parse's first statement of a pair (``_Parser.pairs``).
_PAIRS: dict[tuple[str, str, str, str], tuple[Bound, Bound]] = {}


class _Parser:
    """Recursive descent over the tokens of one line at a time.

    ``tokens`` holds the line's token texts and then ``_END``; ``pos``
    indexes it.  Columns are worked out only for an error.  A parser
    serves one call; ``atoms`` maps ``top``, ``bot`` and each concept name
    read so far to its value, ``individuals`` each individual name, and
    ``pairs`` the four token texts of each bound pair to its first statement.
    """

    def __init__(self):
        self.atoms: dict[str, ConceptExpr] = {"top": TOP, "bot": BOT}
        self.individuals: dict[str, Individual] = {}
        self.pairs: dict[tuple[str, str, str, str], Constraint] = {}

    def located(self, pos: int) -> tuple[str, int]:
        """The text and column of token ``pos``; the end of line sits past
        the line's last non-blank character, comment included."""
        columns = _token_columns(self.line)
        if pos < len(columns):
            return columns[pos]
        return "", max(1, len(self.line.rstrip(BLANKS)) + 1)

    def fail(self, message: str, kind: str = "syntax", pos: int | None = None):
        """Raise an error at token ``pos``, the current one by default.  A
        bad character anywhere on the line is reported instead, as a lex
        error: no rule accepts one, so every line that holds one fails."""
        for text, column in _token_columns(self.line):
            if not (text[0] in _IDENT_START or text[0] in _PUNCT or text[0].isdecimal()):
                span = SourceSpan(self.line_no, column, 1)
                raise ConceptSyntaxError(ParseError(span, f"unexpected character {text!r}", "lex"))
        text, column = self.located(self.pos if pos is None else pos)
        span = SourceSpan(self.line_no, column, len(text) or 1)
        raise ConceptSyntaxError(ParseError(span, message, kind))

    def expected(self, what: str, pos: int | None = None):
        """Fail at token ``pos``, the current one by default, for not being ``what``."""
        tok = self.tokens[self.pos if pos is None else pos]
        self.fail(f"expected {what}, found {tok or 'end of line'!r}", pos=pos)

    def name(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _IDENT_START or tok in _KEYWORDS:
            self.expected(what)
        self.pos += 1
        return tok

    def individual(self, pos: int) -> Individual:
        """The individual named at token ``pos``, a name not seen before."""
        self.pos = pos
        name = self.name("an individual name")
        individual = self.individuals[name] = Individual(name)
        return individual

    def concept(self) -> ConceptExpr:
        tok = self.tokens[self.pos]
        leaf = self.atoms.get(tok)
        if leaf is None and tok[:1] in _IDENT_START:
            if tok in _KEYWORDS:
                self.fail(f"keyword {tok!r} is not a concept")
            leaf = self.atoms[tok] = Atomic(tok)
        if leaf is not None:
            self.pos += 1
            return leaf
        if tok != "(":
            self.expected("a concept")
        head = self.tokens[self.pos + 1]
        if head not in _CONNECTIVE:
            self.fail(f"expected one of {'/'.join(_CONNECTIVE)} after '('", pos=self.pos + 1)
        kind = _CONNECTIVE[head]
        self.pos += 2
        # Arguments are evaluated left to right, so in token order.
        if kind is And or kind is Or:
            result: ConceptExpr = kind(self.concept(), self.concept())
        elif kind is Not:
            result = Not(self.concept())
        else:
            result = kind(self.name("a role name"), self.concept())
        if self.tokens[self.pos] != ")":
            self.expected("')'")
        self.pos += 1
        return result

    def degree(self, op: str) -> Bound:
        """The bound ``op n`` of the degree literal ``n`` here, in [0, 1]."""
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
        return _bound(op, text)

    def bounds(self) -> tuple[Bound, Bound]:
        """Parse ``>= n <= m`` or ``<= n >= m`` into (tbound, fbound)."""
        first = self.tokens[self.pos]
        if first != ">=" and first != "<=":
            self.fail("expected '>=' or '<='")
        self.pos += 1
        tbound = self.degree(first)
        wanted = "<=" if first == ">=" else ">="
        if self.tokens[self.pos] != wanted:
            self.fail(f"expected {wanted!r} after the first bound")
        self.pos += 1
        return tbound, self.degree(wanted)

    def bare_assertion(self):
        """``<concept>(<ind>)`` or ``<role>(<ind>,<ind>)``, no bounds.  A
        name seen before is taken from its dict in place; ``concept`` runs
        for anything else, and ``individual`` for a new individual."""
        tokens, individuals = self.tokens, self.individuals
        first = self.pos
        expr = self.atoms.get(tokens[first])
        if expr is None:
            expr = self.concept()
            pos = self.pos
        else:
            pos = first + 1
        if tokens[pos] != "(":
            self.expected("'('", pos)
        subject = individuals.get(tokens[pos + 1]) or self.individual(pos + 1)
        pos += 2
        if tokens[pos] == ",":
            if not isinstance(expr, Atomic):
                self.fail("role assertions need a plain role name", pos=first)
            target = individuals.get(tokens[pos + 1]) or self.individual(pos + 1)
            pos += 2
            assertion = RoleAssertion(expr.name, subject, target)
        else:
            assertion = ConceptAssertion(expr, subject)
        if tokens[pos] != ")":
            self.expected("')'", pos)
        self.pos = pos + 1
        return assertion

    def statement(self):
        """A constraint, or an axiom with the (line, column, length) of its name."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok == "assert":
            self.pos += 1
            assertion = self.bare_assertion()
            pos = self.pos
            key = tokens[pos], tokens[pos + 1], tokens[pos + 2], tokens[pos + 3]
            pair = _PAIRS.get(key)
            if pair is None:
                pair = self.bounds()
                if len(_PAIRS) >= 1024:
                    _PAIRS.clear()
                _PAIRS[key] = pair
            else:
                self.pos = pos + 4
            constraint = Constraint(assertion, pair[0], pair[1])
            self.pairs.setdefault(key, constraint)
            return constraint
        if tok == "spec" or tok == "define":
            self.pos += 1
            lhs = self.name("an atomic concept name")
            column = self.located(self.pos - 1)[1]
            op = "<" if tok == "spec" else "="
            if tokens[self.pos] != op:
                self.fail(f"expected {op!r} after {lhs!r}")
            self.pos += 1
            axiom = TerminologicalAxiom(lhs, AxiomKind(tok), self.concept())
            return axiom, (self.line_no, column, len(lhs))
        self.fail("expected 'assert', 'spec' or 'define'")

    def line_of(self, line: str, line_no: int, tokens: list[str], rule, end: str):
        """Run one rule on a line, given its tokens, and expect the end after it."""
        tokens += _END
        self.line, self.line_no, self.tokens, self.pos = line, line_no, tokens, 0
        result = rule(self)
        if tokens[self.pos]:
            self.expected(end)
        return result


def _parse(text: str, rule, end: str):
    """Run one ``_Parser`` rule on a single-line text and expect the end."""
    return _Parser().line_of(text, 1, _tokens(text), rule, end)


def parse_concept(text: str) -> ConceptExpr:
    """Parse a single concept expression; raises ConceptSyntaxError."""
    return _parse(text, _Parser.concept, "end of input")


def parse_query(text: str) -> Constraint:
    """Parse a single ``assert ...`` line into a nonstrict constraint."""
    statement = _parse(text, _Parser.statement, "end of line")
    if not isinstance(statement, Constraint):
        error = ParseError(SourceSpan(1, 1, 1), "expected an 'assert' statement", "syntax")
        raise ConceptSyntaxError(error)
    return statement


def parse_assertion(text: str):
    """Parse a bare assertion ``C(a)`` / ``R(a,b)`` without bounds."""
    return _parse(text, _Parser.bare_assertion, "end of input")


def try_parse_kb(text: str) -> tuple[KnowledgeBase | None, list[ParseError]]:
    """Parse a KB, collecting every error instead of stopping at the first."""
    assertions: list[Constraint] = []
    axioms: list[TerminologicalAxiom] = []
    # (line, column, length) of each axiom's name, made a span only for an error.
    spans: dict[int, tuple[int, int, int]] = {}
    errors: list[ParseError] = []
    parser = _Parser()
    lines = _LINE_BREAK.split(text) if "\r" in text else text.split("\n")  # str.split is faster
    for line_no, line in enumerate(lines, start=1):
        tokens = _tokens(line)
        if not tokens:
            continue  # only blanks, or a comment
        try:
            statement = parser.line_of(line, line_no, tokens, _Parser.statement, "end of line")
        except ConceptSyntaxError as exc:
            errors.append(exc.error)
            continue
        if isinstance(statement, Constraint):
            assertions.append(statement)
        else:
            axiom, span = statement
            spans[len(axioms)] = span
            axioms.append(axiom)
    errors += [ParseError(SourceSpan(*spans[idx]), f"{name!r} already defined on an earlier axiom",
                          "duplicate-definition") for idx, name in redefinitions(axioms)]
    if errors:
        return None, errors
    kb = KnowledgeBase(tuple(assertions), tuple(axioms))
    # Duplicates were reported above, so validate finds none of them.
    errors = [ParseError(SourceSpan(*spans.get(v.axiom_index, (1, 1, 1))), v.message, "syntax")
              for v in validate(kb)]
    if errors:
        return None, errors
    # Not a field: a copy, an unpickled KB or one built by hand lacks it.
    object.__setattr__(kb, "_pair_statements", tuple(parser.pairs.values()))
    return kb, []


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and validate a KB; raises KbSyntaxError with all errors."""
    kb, errors = try_parse_kb(text)
    if errors:
        raise KbSyntaxError(errors)
    return kb


def format_statement(constraint: Constraint) -> str:
    """Render a nonstrict constraint as an ``assert`` line."""
    return f"assert {constraint}"
