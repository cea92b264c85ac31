"""Hand-worked values for the benchmark's reference evaluator.

    python3 -m pytest -q bench/test_refsem.py
"""

import itertools
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refsem as rs  # noqa: E402
import workloads  # noqa: E402

A, B, C, D = (("atom", name) for name in "ABCD")


def two_successors():
    """e has R-successors d1 (1, 0) and d2 (1/2, 1/4)."""
    model = rs.Model(["e", "d1", "d2"], {"e": "e"})
    model.set_role("R", "e", "d1", (F(1), F(0)))
    model.set_role("R", "e", "d2", (F(1, 2), F(1, 4)))
    model.set_concept("A", "d1", (F(1, 4), F(3, 4)))
    model.set_concept("A", "d2", (F(1), F(0)))
    model.set_concept("A", "e", (F(3, 4), F(1, 4)))
    model.set_concept("B", "e", (F(1, 2), F(1, 2)))
    return model


def test_constants_atoms_and_negation():
    model = two_successors()
    assert rs.value(model, ("top",), "e") == (1, 0)
    assert rs.value(model, ("bot",), "e") == (0, 1)
    assert rs.value(model, C, "e") == (0, 1)  # unlisted: fully false
    assert rs.value(model, ("not", A), "e") == (F(1, 4), F(3, 4))


def test_conjunction_and_disjunction():
    model = two_successors()
    # truth min / falsity max, and the dual for disjunction
    assert rs.value(model, ("and", A, B), "e") == (F(1, 2), F(1, 2))
    assert rs.value(model, ("or", A, B), "e") == (F(3, 4), F(1, 4))


def test_quantifiers():
    model = two_successors()
    # all: t = min(max(0, 1/4), max(1/4, 1)) = 1/4; f = max(min(1, 3/4), min(1/2, 0)) = 3/4
    assert rs.value(model, ("all", "R", A), "e") == (F(1, 4), F(3, 4))
    # some: t = max(min(1, 1/4), min(1/2, 1)) = 1/2; f = min(max(0, 3/4), max(1/4, 0)) = 1/4
    assert rs.value(model, ("some", "R", A), "e") == (F(1, 2), F(1, 4))
    # no successors: the empty inf and sup
    assert rs.value(model, ("all", "R", A), "d1") == (1, 0)
    assert rs.value(model, ("some", "R", A), "d1") == (0, 1)


def test_dual_swaps_the_pair():
    model = two_successors()
    concepts = [A, ("and", A, ("not", B)), ("or", ("all", "R", A), ("top",)),
                ("some", "R", ("and", A, ("bot",))), ("not", ("all", "R", ("or", A, B)))]
    for c in concepts:
        t, f = rs.value(model, c, "e")
        assert rs.value(model, rs.dual(c), "e") == (f, t)


def side_condition_tuples():
    for n, m, f, g in itertools.product(rs.QUARTERS, repeat=4):
        if n > g and m < f:
            yield n, m, f, g


def test_acceptance_4_countermodel_fails_only_the_truth_half():
    """The fixed countermodel of acceptance 4: premises hold, the
    conclusion's value is (0, 0), so it fails the truth half only."""
    for n, m, f, g in side_condition_tuples():
        model = rs.Model(["a", "y1", "y2"], {"a": "a"})
        model.set_concept("C", "y1", (n, F(1)))
        model.set_concept("D", "y1", (F(0), F(0)))
        model.set_concept("C", "y2", (F(0), F(0)))
        model.set_concept("D", "y2", (F(1), F(0)))
        model.set_role("R", "a", "y1", (n, F(1)))
        model.set_role("R", "a", "y2", (F(0), F(0)))
        premises, query, _ = workloads.family("exists-forall", n, m, f, g)
        assert rs.value(model, ("some", "R", C), "a") == (n, 0)
        assert rs.value(model, ("all", "R", D), "a") == (1, 0)
        assert all(rs.holds(model, p) for p in premises)
        assert rs.value(model, query[0][1], "a") == (0, 0)
        assert not rs.holds(model, query)
        assert not rs.refutes(model, query)


def test_combination_countermodel_refutes_both_halves():
    model = workloads.combination_countermodel()
    for n, m, f, g in side_condition_tuples():
        premises, query, _ = workloads.family("exists-forall", n, m, f, g)
        assert all(rs.holds(model, p) for p in premises)
        assert rs.value(model, query[0][1], "a") == (0, 1)
        assert rs.refutes(model, query)


def test_refutes_needs_both_halves():
    model = two_successors()
    a_at_e = ("c", A, "e")  # value (3/4, 1/4)
    assert rs.refutes(model, (a_at_e, "lower", F(1), F(0)))
    assert not rs.refutes(model, (a_at_e, "lower", F(1), F(1, 4)))
    assert rs.refutes(model, (a_at_e, "upper", F(1, 2), F(1, 2)))
    assert not rs.refutes(model, (a_at_e, "upper", F(3, 4), F(1)))


def test_terminology_unfolding_and_axioms():
    terminology = [("define", "X", ("and", A, B)), ("spec", "Y", ("atom", "X"))]
    resolved = rs.definitions(terminology)
    assert resolved["Y"] == ("and", ("and", A, B), ("atom", "Y*"))
    only_e = rs.Model(["e"], {"e": "e"})
    for name, pair in (("A", (F(3, 4), F(1, 4))), ("B", (F(1, 2), F(1, 2))),
                       ("X", (F(1, 2), F(1, 2))), ("Y", (F(1, 4), F(3, 4)))):
        only_e.set_concept(name, "e", pair)
    assert rs.meets_axiom(only_e, ("define", "X", ("and", A, B)))
    assert rs.meets_axiom(only_e, ("spec", "Y", ("atom", "X")))
    assert not rs.meets_axiom(only_e, ("spec", "X", ("atom", "Y")))


def test_subsumption_countermodels():
    assert rs.subsumption_countermodel(("and", A, B), A) is None
    assert rs.subsumption_countermodel(A, ("or", A, B)) is None
    model = rs.subsumption_countermodel(A, ("and", A, B))
    assert model is not None
    sub, sup = rs.value(model, A, "e"), rs.value(model, ("and", A, B), "e")
    assert not rs.pair_meets(sup, "lower", *sub)
    resolved = rs.definitions([("spec", "C", D)])
    assert rs.subsumption_countermodel(C, D, resolved) is None
    assert rs.subsumption_countermodel(D, C, resolved) is not None


def test_text_round_trip_through_the_parser():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import nalc

    statements = [(("c", ("some", "R", ("not", A)), "a"), "lower", F(3, 4), F(1, 4)),
                  (("r", "R", "a", "b"), "upper", F(1, 2), F(1, 64))]
    text = rs.kb_text(statements, [("spec", "C", ("or", A, B))])
    kb = nalc.parse_kb(text)
    assert len(kb.assertions) == 2 and len(kb.terminology) == 1
    assert [nalc.format_statement(c) for c in kb.assertions] == [
        "assert (some R (not A))(a) >= 0.75 <= 0.25",
        "assert R(a,b) <= 0.5 >= 0.015625",
    ]
