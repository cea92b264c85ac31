"""The bound vocabulary against brute force on the sixteenths of [0, 1].

Every relation at every quarter degree is checked against Python's own
comparison for its symbol.  Sixteenths are finer than quarters, so a
strict gap between two quarter degrees always holds a sixteenth, and
"some sixteenth" stands in for "some degree".
"""

import operator
from fractions import Fraction

import pytest

from nalc import Bound, Rel
from nalc.constraints import _complement, bound_implies, bounds_incompatible, vacuous
from nalc.semantics import _scaled

SCALE = 16
SIXTEENTHS = [Fraction(k, SCALE) for k in range(SCALE + 1)]
QUARTERS = [Fraction(k, 4) for k in range(5)]
BOUNDS = [Bound(rel, q) for rel in Rel for q in QUARTERS]
OPERATOR = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _meets(bound: Bound) -> set[Fraction]:
    return {v for v in SIXTEENTHS if OPERATOR[bound.rel.value](v, bound.value)}


# Bounds some degree meets: not '> 1' or '< 0'.
ROOMY = [b for b in BOUNDS if _meets(b)]


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_holds_is_the_comparison_its_symbol_names(bound):
    for v in SIXTEENTHS:
        assert bound.holds(v) == OPERATOR[bound.rel.value](v, bound.value), v


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_the_complement_holds_exactly_where_the_bound_fails(bound):
    complement = _complement(bound)
    assert complement.value == bound.value
    assert complement.rel.is_lower != bound.rel.is_lower
    assert complement.rel.is_strict != bound.rel.is_strict
    assert _complement(complement) == bound
    for v in SIXTEENTHS:
        assert complement.holds(v) != bound.holds(v), v


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_vacuous_bounds_are_those_every_degree_meets(bound):
    assert vacuous(bound) == (_meets(bound) == set(SIXTEENTHS))


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_scaled_is_the_integer_interval_the_bound_allows(bound):
    lo, hi = _scaled(bound, SCALE)
    assert list(range(lo, hi + 1)) == [
        k for k in range(SCALE + 1) if bound.holds(Fraction(k, SCALE))
    ]


def test_bounds_are_incompatible_exactly_when_no_degree_meets_both():
    for a in ROOMY:
        for b in ROOMY:
            assert bounds_incompatible(a, b) == (not _meets(a) & _meets(b)), (a, b)


def test_a_bound_implies_another_exactly_when_its_degrees_all_meet_it():
    for given in ROOMY:
        for wanted in BOUNDS:
            if vacuous(wanted):
                continue
            assert bound_implies(given, wanted) == (_meets(given) <= _meets(wanted)), (
                given, wanted)
