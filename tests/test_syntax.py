"""Concept AST utilities: negation normal form and subterm closure."""

import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nalc import (
    And,
    Atomic,
    BOT,
    Bound,
    ConceptAssertion,
    Constraint,
    Individual,
    Rel,
    RoleAssertion,
    Variable,
    Exists,
    Forall,
    Not,
    Or,
    TOP,
    eval_concept,
    nnf,
    subconcepts,
)
from nalc.tableau import Step
from genutil import rand_concept, rand_interpretation

A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")


def concepts(max_depth=3):
    base = st.one_of(st.sampled_from([A, B, C]), st.just(TOP), st.just(BOT))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Forall, st.sampled_from(["R", "S"]), inner),
            st.builds(Exists, st.sampled_from(["R", "S"]), inner),
        ),
        max_leaves=12,
    )


def in_nnf(c) -> bool:
    if isinstance(c, Not):
        return isinstance(c.inner, Atomic)
    if isinstance(c, (And, Or)):
        return in_nnf(c.left) and in_nnf(c.right)
    if isinstance(c, (Forall, Exists)):
        return in_nnf(c.filler)
    return True


class TestNnfRewrites:
    def test_negated_conjunction(self):
        assert nnf(Not(And(C, D))) == Or(Not(C), Not(D))

    def test_double_negation(self):
        assert nnf(Not(Not(A))) == A

    def test_identity_on_nnf_input(self):
        assert nnf(A) == A
        assert nnf(Exists("R", Not(A))) == Exists("R", Not(A))

    def test_negated_top_bottom(self):
        assert nnf(Not(TOP)) == BOT
        assert nnf(Not(BOT)) == TOP

    def test_negated_quantifiers(self):
        assert nnf(Not(Forall("R", And(A, Not(B))))) == Exists("R", Or(Not(A), B))
        assert nnf(Not(Exists("R", A))) == Forall("R", Not(A))

    @given(concepts())
    @settings(max_examples=200)
    def test_result_is_nnf_and_idempotent(self, c):
        rewritten = nnf(c)
        assert in_nnf(rewritten)
        assert nnf(rewritten) == rewritten


class TestNnfSemanticPreservation:
    def test_pointwise_equal_on_random_interpretations(self):
        rng = random.Random(7)
        for _ in range(100):
            c = rand_concept(rng, rng.randint(0, 3))
            interp = rand_interpretation(rng, rng.randint(1, 3))
            rewritten = nnf(c)
            for d in interp.domain:
                assert eval_concept(interp, c, d) == eval_concept(interp, rewritten, d)

    def test_negated_forall_example_semantics(self):
        rng = random.Random(11)
        c = Not(Forall("R", And(A, Not(B))))
        rewritten = Exists("R", Or(Not(A), B))
        for _ in range(100):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            for d in interp.domain:
                assert eval_concept(interp, c, d) == eval_concept(interp, rewritten, d)


class TestDualities:
    def test_forall_is_negated_exists(self):
        rng = random.Random(13)
        lhs = Forall("R", C)
        rhs = Not(Exists("R", Not(C)))
        for _ in range(100):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            for d in interp.domain:
                assert eval_concept(interp, lhs, d) == eval_concept(interp, rhs, d)

    def test_excluded_middle_fails_somewhere(self):
        rng = random.Random(17)
        lhs = Or(C, Not(C))
        witnessed = False
        for _ in range(200):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            for d in interp.domain:
                value = eval_concept(interp, lhs, d)
                if value.n < 1:
                    witnessed = True
        assert witnessed


class TestSubconcepts:
    def test_atomic(self):
        assert subconcepts(A) == {A}

    def test_conjunction(self):
        assert subconcepts(And(A, B)) == {And(A, B), A, B}

    def test_quantified(self):
        c = Exists("R", Or(A, B))
        assert subconcepts(c) == {c, Or(A, B), A, B}

    @given(concepts())
    @settings(max_examples=100)
    def test_closure_contains_self_and_is_transitive(self, c):
        closure = subconcepts(c)
        assert c in closure
        for sub in closure:
            assert subconcepts(sub) <= closure


def _values():
    """Builders of one value of each frozen value type."""
    a = Individual("a")
    return [
        lambda: TOP,
        lambda: Atomic("A"),
        lambda: And(Atomic("A"), Exists("R", Not(Atomic("B")))),
        lambda: Or(BOT, Forall("S", Atomic("C"))),
        lambda: Individual("a"),
        lambda: Variable(3),
        lambda: ConceptAssertion(Exists("R", Atomic("A")), a),
        lambda: RoleAssertion("R", a, Variable(1)),
        lambda: Bound(Rel.GT, Fraction(1, 3)),
        lambda: Constraint.geq_leq(ConceptAssertion(Not(Atomic("A")), a), Fraction(1, 2), 0),
        lambda: Constraint(RoleAssertion("R", a, a), None, Bound(Rel.LE, Fraction(3, 4))),
    ]


class TestFrozenValues:
    @pytest.mark.parametrize("build", _values())
    def test_built_twice_equal_and_hash_equal(self, build):
        x, y = build(), build()
        assert x == y
        assert hash(x) == hash(y) == hash(x)
        # The dataclass hash: that of the field tuple.
        assert hash(x) == hash(tuple(getattr(x, f.name) for f in fields(x)))

    @pytest.mark.parametrize("build", _values())
    def test_setattr_raises(self, build):
        x = build()
        for name in [f.name for f in fields(x)] + ["other"]:
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(x, name)

    @pytest.mark.parametrize("build", _values())
    def test_pickle_round_trip(self, build):
        x = build()
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x)

    def test_repr_and_field_names(self):
        a = Individual("a")
        assert repr(And(Atomic("A"), TOP)) == "And(left=Atomic(name='A'), right=Top())"
        assert repr(RoleAssertion("R", a, Variable(2))) == (
            "RoleAssertion(role='R', subject=Individual(name='a'), target=Variable(index=2))"
        )
        assert repr(Bound(Rel.GE, Fraction(1, 2))) == (
            "Bound(rel=<Rel.GE: '>='>, value=Fraction(1, 2))"
        )
        names = {
            cls: [f.name for f in fields(cls)]
            for cls in (Atomic, And, Or, Not, Forall, Exists, Individual, Variable,
                        ConceptAssertion, RoleAssertion, Bound, Constraint)
        }
        assert names == {
            Atomic: ["name"], And: ["left", "right"], Or: ["left", "right"],
            Not: ["inner"], Forall: ["role", "filler"], Exists: ["role", "filler"],
            Individual: ["name"], Variable: ["index"],
            ConceptAssertion: ["concept", "subject"],
            RoleAssertion: ["role", "subject", "target"],
            Bound: ["rel", "value"], Constraint: ["assertion", "tbound", "fbound"],
        }


def _step():
    a = Individual("a")
    c = Constraint.geq_leq(ConceptAssertion(Atomic("A"), a), Fraction(1, 2), 0)
    return Step(2, (c,), "(and>=<=)", (1,))


class TestGeneratedConstructors:
    @pytest.mark.parametrize("build", _values() + [_step])
    def test_keyword_construction_and_replace(self, build):
        x = build()
        by_name = {f.name: getattr(x, f.name) for f in fields(x)}
        for y in (type(x)(**by_name), replace(x)):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x)

    def test_replace_builds_a_new_value(self):
        x = replace(Atomic("A"), name="B")
        assert x == Atomic("B") and hash(x) == hash(Atomic("B"))
        step = replace(_step(), number=5)
        assert step.number == 5 and step.render().startswith("(5) A(a) >= 0.5 <= 0")

    def test_a_step_hashes_its_field_tuple(self):
        step = _step()
        assert hash(step) == hash(tuple(getattr(step, f.name) for f in fields(step)))
        assert not hasattr(step, "_hash")

    def test_the_checks_raise_their_messages(self):
        a = ConceptAssertion(Atomic("A"), Individual("a"))
        with pytest.raises(ValueError, match=r"^atomic concept name must be nonempty$"):
            Atomic("")
        with pytest.raises(ValueError, match=r"^atomic concept name must be nonempty$"):
            replace(Atomic("A"), name="")
        with pytest.raises(ValueError, match=r"^bound 3/2 outside \[0, 1\]$"):
            Bound(Rel.GE, Fraction(3, 2))
        with pytest.raises(ValueError, match=r"^constraint must bound at least one component$"):
            Constraint(a, None, None)

    def test_a_wrong_arity_names_the_class(self):
        with pytest.raises(TypeError, match=r"^Atomic\.__init__\(\) takes 2 positional "
                                            r"arguments but 3 were given$"):
            Atomic("A", "B")
        with pytest.raises(TypeError, match=r"^Step\.__init__\(\) missing 1 required "
                                            r"positional argument: 'premises'$"):
            Step(1, (), "hypothesis")

    def test_a_value_without_fields_hashes_the_empty_tuple(self):
        assert hash(TOP) == hash(()) == hash(BOT)
