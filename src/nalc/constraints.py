"""Degree bounds, assertions and signed constraints.

A constraint attaches bounds to the truth value and/or the falsity
value of an assertion.  The four classic shapes pair a bound on each
component:

    >= n <= m     truth >= n  and falsity <= m
    >  n <  m     truth >  n  and falsity <  m
    <= n >= m     truth <= n  and falsity >= m
    <  n >  m     truth <  n  and falsity >  m

Internally a constraint may also carry a bound on only one component
(the other side ``None``).  Such half constraints arise when the
tableau decomposes a paired constraint whose two components must be
realised by different successors; they have no surface syntax.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction

from .syntax import ConceptExpr, FrozenValue, Obj, format_concept, frozen_value


def _check_degree(value: Fraction, what: str) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{what} {value} outside [0, 1]")


def degree_str(value: Fraction) -> str:
    """Render a degree: exact decimal when finite, else ``p/q``."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    d = den
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d != 1:
        return f"{num}/{den}"
    digits = 0
    scaled = Fraction(num, den)
    while scaled.denominator != 1:
        scaled *= 10
        digits += 1
    text = str(scaled.numerator).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class DegreePair:
    """Exact rational bound pair ``(n, m)``, both in ``[0, 1]``."""

    n: Fraction
    m: Fraction

    def __post_init__(self):
        _check_degree(self.n, "first bound")
        _check_degree(self.m, "second bound")


@frozen_value
class ConceptAssertion(FrozenValue):
    concept: ConceptExpr
    subject: Obj

    def __str__(self):
        return f"{format_concept(self.concept)}({self.subject})"


@frozen_value
class RoleAssertion(FrozenValue):
    role: str
    subject: Obj
    target: Obj

    def __str__(self):
        return f"{self.role}({self.subject},{self.target})"


Assertion = ConceptAssertion | RoleAssertion


class Rel(enum.Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    def __init__(self, symbol: str):
        # Plain attributes, not properties: the clash check reads them for
        # every bound of every new constraint.
        self.is_lower = symbol[0] == ">"
        self.is_strict = len(symbol) == 1

    @property
    def complement(self) -> "Rel":
        """The relation that holds at a degree exactly where this one fails."""
        return _COMPLEMENT[self]


_COMPLEMENT = {Rel.GE: Rel.LT, Rel.GT: Rel.LE, Rel.LE: Rel.GT, Rel.LT: Rel.GE}


@frozen_value
class Bound(FrozenValue):
    rel: Rel
    value: Fraction

    def _check(self):
        _check_degree(self.value, "bound")

    def holds(self, v: Fraction) -> bool:
        if self.rel is Rel.GE:
            return v >= self.value
        if self.rel is Rel.GT:
            return v > self.value
        if self.rel is Rel.LE:
            return v <= self.value
        return v < self.value

    def __str__(self):
        return f"{self.rel.value} {degree_str(self.value)}"


def vacuous(bound: Bound) -> bool:
    """Does ``bound`` hold of every degree, as ``>= 0`` and ``<= 1`` do?

    On either channel such a half takes no rule, and a query for it
    needs no refutation.
    """
    return (bound.rel is Rel.GE and bound.value == 0) or (
        bound.rel is Rel.LE and bound.value == 1
    )


# The two relations between bounds below are memoized: the tableau asks
# them for every pair of bounds that meet on an assertion, a KB holds few
# distinct bounds, and a ``Bound`` keeps its hash.  So is a bound's
# complement, which every refutation poses.  The caches are bounded so
# that a long-lived process that sees many KBs keeps a fixed size.
_BOUND_PAIRS = 1 << 16


@functools.lru_cache(maxsize=_BOUND_PAIRS)
def _complement(bound: Bound) -> Bound:
    """The bound that holds at a degree exactly where ``bound`` fails,
    built once per distinct bound."""
    return Bound(bound.rel.complement, bound.value)


@functools.lru_cache(maxsize=_BOUND_PAIRS)
def bound_implies(given: Bound, wanted: Bound) -> bool:
    """Does ``x given`` force ``x wanted`` for every x in [0, 1]?"""
    if given.rel.is_lower != wanted.rel.is_lower:
        return False
    g, w = given.value, wanted.value
    if given.rel.is_lower:
        if wanted.rel is Rel.GT and given.rel is Rel.GE:
            return g > w
        return g >= w
    if wanted.rel is Rel.LT and given.rel is Rel.LE:
        return g < w
    return g <= w


@functools.lru_cache(maxsize=_BOUND_PAIRS)
def bounds_incompatible(a: Bound, b: Bound) -> bool:
    """Is ``{x : x a and x b}`` empty within [0, 1]?

    Two bounds in the same direction are always jointly satisfiable;
    a lower/upper pair is empty when the lower bound meets or crosses
    the upper one (equality is empty as soon as either side is strict).
    """
    if a.rel.is_lower == b.rel.is_lower:
        return False
    lo, up = (a, b) if a.rel.is_lower else (b, a)
    if lo.value > up.value:
        return True
    if lo.value == up.value:
        return lo.rel.is_strict or up.rel.is_strict
    return False


class Form(enum.Enum):
    """The four surface shapes of a paired constraint."""

    GEQ_LEQ = (Rel.GE, Rel.LE)
    GT_LT = (Rel.GT, Rel.LT)
    LEQ_GEQ = (Rel.LE, Rel.GE)
    LT_GT = (Rel.LT, Rel.GT)


_FORM_OF = {form.value: form for form in Form}


@frozen_value
class Constraint(FrozenValue):
    """A signed degree constraint on an assertion.

    ``tbound`` restricts the truth value, ``fbound`` the falsity value;
    at least one is present.
    """

    assertion: Assertion
    tbound: Bound | None
    fbound: Bound | None

    def _check(self):
        if self.tbound is None and self.fbound is None:
            raise ValueError("constraint must bound at least one component")

    @staticmethod
    def of_form(assertion: Assertion, form: Form, bounds: DegreePair) -> "Constraint":
        trel, frel = form.value
        return Constraint(assertion, Bound(trel, bounds.n), Bound(frel, bounds.m))

    @staticmethod
    def geq_leq(assertion: Assertion, n, m) -> "Constraint":
        return Constraint.of_form(assertion, Form.GEQ_LEQ, DegreePair(Fraction(n), Fraction(m)))

    @staticmethod
    def gt_lt(assertion: Assertion, n, m) -> "Constraint":
        return Constraint.of_form(assertion, Form.GT_LT, DegreePair(Fraction(n), Fraction(m)))

    @staticmethod
    def leq_geq(assertion: Assertion, n, m) -> "Constraint":
        return Constraint.of_form(assertion, Form.LEQ_GEQ, DegreePair(Fraction(n), Fraction(m)))

    @staticmethod
    def lt_gt(assertion: Assertion, n, m) -> "Constraint":
        return Constraint.of_form(assertion, Form.LT_GT, DegreePair(Fraction(n), Fraction(m)))

    @property
    def form(self) -> Form | None:
        """The classic four-way shape, or ``None`` for half constraints."""
        if self.tbound is None or self.fbound is None:
            return None
        return _FORM_OF.get((self.tbound.rel, self.fbound.rel))

    @property
    def nonstrict(self) -> bool:
        """Is this ``>= n <= m`` or ``<= n >= m``, the shape of a KB
        assertion and of a query?  It reads the relations' plain
        attributes, not ``form``: a KB asks it of every statement, and an
        enum member hashes through a Python-level call."""
        t, f = self.tbound, self.fbound
        return (t is not None and f is not None and not (t.rel.is_strict or f.rel.is_strict)
                and t.rel.is_lower != f.rel.is_lower)

    def negated(self) -> "Constraint":
        """The paired complement of a nonstrict query, for rendering.

        ``>= n <= m`` becomes ``< n > m`` and ``<= n >= m`` becomes
        ``> n < m``.  It decides nothing: a model of it violates *both*
        halves of the query, while violating one is enough to refute it,
        so queries are decided one half at a time (``_query_halves``).
        When every half is refuted the paired run clashes as well, and
        ``reasoner.entails`` renders that run as an entailed query's
        derivation.
        """
        if not self.nonstrict:
            raise ValueError("only nonstrict constraints can be queried")
        return Constraint(self.assertion, _complement(self.tbound), _complement(self.fbound))

    def __str__(self):
        parts = [str(self.assertion)]
        if self.tbound is not None and self.fbound is not None:
            parts.append(str(self.tbound))
            parts.append(str(self.fbound))
        elif self.tbound is not None:
            parts.append(f"t{self.tbound}")
        else:
            parts.append(f"f{self.fbound}")
        return " ".join(parts)


def conjugated(c1: Constraint, c2: Constraint) -> bool:
    """Are two constraints on the same assertion jointly unsatisfiable?

    Symmetric; true when the truth bounds conflict or the falsity
    bounds conflict.  Two constraints of the same direction are never
    conjugated.
    """
    if c1.assertion != c2.assertion:
        raise ValueError("conjugation is defined on a shared assertion")
    if c1.tbound and c2.tbound and bounds_incompatible(c1.tbound, c2.tbound):
        return True
    if c1.fbound and c2.fbound and bounds_incompatible(c1.fbound, c2.fbound):
        return True
    return False


def _query_halves(query: Constraint) -> list[tuple[Bound, str]]:
    """The (bound, channel) halves a nonstrict query is decided by.

    Truth and falsity are bounded separately, so the query holds iff
    each of its halves does; a vacuous half holds of every degree and is
    left out.
    """
    if not query.nonstrict:
        raise ValueError("only nonstrict constraints can be queried")
    return [
        (bound, ch) for bound, ch in ((query.tbound, "t"), (query.fbound, "f"))
        if not vacuous(bound)
    ]


def _refutation(assertion: Assertion, ch: str, bound: Bound) -> Constraint:
    """The complement of one bound on one channel of an assertion: the
    half a query is entailed by iff no model satisfies this."""
    complement = _complement(bound)
    if ch == "t":
        return Constraint(assertion, complement, None)
    return Constraint(assertion, None, complement)
