"""The checks each layer makes of what it is handed, message by message."""

from fractions import Fraction

import pytest

from nalc import (
    Atomic,
    Bound,
    ConceptAssertion,
    Constraint,
    ConstraintSet,
    DegreeGrid,
    FiniteInterpretation,
    FuzzyAssertion,
    FuzzyRel,
    Individual,
    KnowledgeBase,
    Rel,
    SourceSpan,
    Variable,
    extract_model,
    parse_kb,
    sharp,
    star,
)
from nalc import parser
from nalc.constraints import _query_halves
from nalc.semantics import assertion_value

A_OF_A = ConceptAssertion(Atomic("A"), Individual("a"))


@pytest.mark.parametrize(
    "domain, individual_map, message",
    [
        ((), {}, "the domain must be nonempty"),
        (("e",), {"a": "e", "b": "e"}, "individuals must map to distinct elements"),
        (("e",), {"a": "x"}, "unknown element 'x' in individual map"),
    ],
)
def test_a_finite_interpretation_checks_its_domain_and_map(domain, individual_map, message):
    with pytest.raises(ValueError) as info:
        FiniteInterpretation(domain, individual_map)
    assert str(info.value) == message


def test_an_assertion_value_needs_each_object_placed():
    interp = FiniteInterpretation(("e",), {"a": "e"})
    with pytest.raises(ValueError) as info:
        assertion_value(interp, ConceptAssertion(Atomic("A"), Individual("b")))
    assert str(info.value) == "individual 'b' is not mapped"
    with pytest.raises(ValueError) as info:
        assertion_value(interp, ConceptAssertion(Atomic("A"), Variable(1)), {})
    assert str(info.value) == "variable x1 has no assignment"


@pytest.mark.parametrize(
    "values",
    [(), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)),
     (Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1, 2))],
    ids=["empty", "descending", "repeated", "no 0", "no 1"],
)
def test_a_degree_grid_must_be_a_ladder_from_0_to_1(values):
    with pytest.raises(ValueError) as info:
        DegreeGrid(values)
    assert str(info.value) == "grid must be sorted, deduplicated and span [0, 1]"


@pytest.mark.parametrize("degree", [Fraction(3, 2), Fraction(-1, 4)])
def test_a_fuzzy_degree_lies_in_the_unit_interval(degree):
    for rel in FuzzyRel:
        with pytest.raises(ValueError) as info:
            FuzzyAssertion(A_OF_A, rel, degree)
        assert str(info.value) == f"fuzzy degree {degree} outside [0, 1]"


def test_a_projection_of_a_strict_assertion_is_refused():
    strict = Constraint.gt_lt(A_OF_A, Fraction(1, 2), Fraction(1, 2))
    kb = KnowledgeBase((strict,), ())
    for project in (sharp, star):
        with pytest.raises(ValueError) as info:
            project(kb)
        assert str(info.value) == (
            "projections are defined on nonstrict assertions: A(a) > 0.5 < 0.5")


def test_a_strict_query_has_no_halves():
    with pytest.raises(ValueError) as info:
        _query_halves(Constraint.lt_gt(A_OF_A, Fraction(1, 2), Fraction(1, 2)))
    assert str(info.value) == "only nonstrict constraints can be queried"


def test_no_model_is_read_off_a_clashed_set():
    s = ConstraintSet.from_constraints([
        Constraint.geq_leq(A_OF_A, Fraction(3, 4), Fraction(1, 4)),
        Constraint.leq_geq(A_OF_A, Fraction(1, 2), Fraction(0)),
    ])
    assert s.clash is not None
    with pytest.raises(ValueError) as info:
        extract_model(s)
    assert str(info.value) == "cannot extract a model from a clashed constraint set"


@pytest.mark.parametrize("line, column", [(0, 1), (1, 0)])
def test_a_source_span_is_one_based(line, column):
    with pytest.raises(ValueError) as info:
        SourceSpan(line, column, 1)
    assert str(info.value) == "spans are 1-based"


def test_the_bound_pair_cache_is_emptied_when_full_and_answers_the_same():
    # 1 120 distinct (n, m) token pairs: more than the 1 024 the cache holds.
    pairs = [(n, m) for m in range(28) for n in range(40)]
    text = "".join(f"assert A(a{i}) >= {n}/40 <= {m}/40\n" for i, (n, m) in enumerate(pairs))
    parser._PAIRS.clear()
    kb = parse_kb(text)
    # Cleared at the 1 025th pair, then refilled by the rest.
    assert len(parser._PAIRS) == len(pairs) - 1024
    assert [(c.tbound, c.fbound) for c in kb.assertions] == [
        (Bound(Rel.GE, Fraction(n, 40)), Bound(Rel.LE, Fraction(m, 40))) for n, m in pairs
    ]
    assert parse_kb(text) == kb
