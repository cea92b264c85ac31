"""Entailment, subsumption and best-bound procedures."""

import random
from fractions import Fraction

import pytest

from nalc import (
    And,
    Atomic,
    AxiomKind,
    BoundKind,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Exists,
    Forall,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    RoleAssertion,
    TerminologicalAxiom,
    check_satisfiable,
    entails,
    expand,
    extract_model,
    glb,
    lub,
    lub_via_negation,
    oracle_entails,
    parse_kb,
    parse_query,
    satisfies,
    subsumes,
)
from genutil import QUARTERS, rand_assertional_kb, rand_concept, rand_query, ring_abox_text

F = Fraction
A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")
a, b = Individual("a"), Individual("b")

POLL_KB = parse_kb(
    "assert (some Support war_x)(p1) >= 0.6 <= 0.5\n"
    "assert (some Support war_y)(p2) >= 0.8 <= 0.1\n"
    "spec war_x < War\nspec war_y < War\n"
)


def akb(*constraints):
    return KnowledgeBase(tuple(constraints), ())


CYCLIC_KB = KnowledgeBase(
    (Constraint.geq_leq(ConceptAssertion(A, a), 1, 0),),
    (TerminologicalAxiom("A", AxiomKind.DEFINITION, B),
     TerminologicalAxiom("B", AxiomKind.DEFINITION, A)),
)

# One call of each public procedure on the poll KB.
PUBLIC_CALLS = {
    "check_satisfiable": lambda kb: check_satisfiable(kb),
    "entails": lambda kb: entails(kb, parse_query("assert (some Support War)(p1) >= 0.6 <= 0.5")),
    "glb": lambda kb: glb(kb, ConceptAssertion(Atomic("war_x"), Individual("p1"))),
    "lub": lambda kb: lub(kb, ConceptAssertion(Atomic("war_x"), Individual("p1"))),
    "subsumes": lambda kb: subsumes(kb.terminology, Atomic("war_x"), Atomic("War")),
    "expand": lambda kb: expand(kb),
}


class TestValidityGate:
    @pytest.mark.parametrize("name", ["check_satisfiable", "expand", "glb", "lub", "subsumes"])
    def test_an_invalid_kb_is_rejected_with_its_first_violation(self, name):
        with pytest.raises(ValueError, match="^invalid KB: cyclic definitions: A -> B -> A$"):
            PUBLIC_CALLS[name](CYCLIC_KB)

    @pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
    def test_each_call_validates_once(self, name, monkeypatch):
        import nalc.kb

        calls = []
        validate = nalc.kb.validate
        monkeypatch.setattr(nalc.kb, "validate", lambda kb: calls.append(kb) or validate(kb))
        PUBLIC_CALLS[name](POLL_KB)
        assert len(calls) == 1

    def test_subsumes_keeps_reserved_names_out_of_its_concepts(self):
        terminology = (TerminologicalAxiom("A", AxiomKind.SPECIALIZATION, B),)
        for sub, super_ in ((Atomic("A*"), B), (A, Atomic("A*"))):
            with pytest.raises(ValueError, match=r"^invalid KB: 'A\*' is reserved"):
                subsumes(terminology, sub, super_)


class TestPreparedKb:
    """A KB is prepared once and every run leaves it as built."""

    @staticmethod
    def _root(kb):
        from nalc.reasoner import _PREPARED

        return _PREPARED[kb][1]

    @staticmethod
    def _state(s):
        return (list(s.constraints), dict(s.step_of), list(s.steps), sorted(s.agenda),
                sorted(s.splits), sorted(s.gens), dict(s.by_assertion), dict(s.successors),
                dict(s.watchers), s.fresh_counter, s.clash)

    def test_runs_leave_the_prepared_set_unchanged(self):
        rng = random.Random(61)
        for _ in range(30):
            kb = rand_assertional_kb(rng, depth=2)
            check_satisfiable(kb)
            root = self._root(kb)
            before = self._state(root)
            entails(kb, rand_query(rng), with_result=True)
            target = ConceptAssertion(rand_concept(rng, 1), a)
            glb(kb, target)
            lub(kb, target)
            assert self._root(kb) is root
            assert self._state(root) == before

    def test_runs_leave_a_wide_prepared_set_unchanged(self):
        # Runs work on the prepared set itself and undo.
        kb = parse_kb(ring_abox_text(70))
        check_satisfiable(kb)
        root = self._root(kb)
        before = self._state(root)
        target = ConceptAssertion(Or(A, Atomic("E")), Individual("a3"))
        assert entails(kb, parse_query("assert D(a3) >= 0.75 <= 0.25"), with_result=True)[0] is False
        assert entails(kb, parse_query("assert (or A E)(a3) >= 0.5 <= 0.75"))
        assert glb(kb, target).bound == DegreePair(F(1, 2), F(1, 4))
        lub(kb, target)
        assert self._state(root) == before

    def test_concurrent_queries_on_one_kb_give_the_sequential_answers(self):
        import sys
        import threading

        target = ConceptAssertion(Or(A, Atomic("E")), Individual("a3"))
        queries = []
        # A wide KB and a narrow one: runs on either work on its prepared set.
        for kb in (parse_kb(ring_abox_text(70)), parse_kb(ring_abox_text(5))):
            queries += [
                lambda kb=kb: entails(kb, parse_query("assert D(a3) >= 0.75 <= 0.25")),
                lambda kb=kb: entails(kb, parse_query("assert (or A E)(a5) >= 0.5 <= 0.75")),
                lambda kb=kb: glb(kb, target),
                lambda kb=kb: lub(kb, target),
                lambda kb=kb: check_satisfiable(kb).branch_count,
            ]
        expected = [query() for query in queries]
        answers, errors = [], []

        def worker(shift):
            try:
                for k in range(len(queries)):
                    i = (k + shift) % len(queries)
                    answers.append((i, queries[i]()))
            except Exception as error:  # reported below with its type
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(shift,)) for shift in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(answers) == 4 * len(queries)
        assert all(answer == expected[i] for i, answer in answers)

    def test_repeated_and_equal_kbs_give_the_same_answers(self):
        rng = random.Random(67)
        for _ in range(30):
            kb = rand_assertional_kb(rng, depth=2)
            twin = KnowledgeBase(tuple(kb.assertions), ())
            query = rand_query(rng)
            target = ConceptAssertion(rand_concept(rng, 1), a)
            seen = []
            for each in (kb, kb, twin):
                checked = check_satisfiable(each)
                answer, result = entails(each, query, with_result=True)
                seen.append((checked.status, checked.branch_count, checked.trace,
                             answer, result.branch_count, result.trace,
                             glb(each, target), lub(each, target)))
            assert seen[0] == seen[1] == seen[2]

    def test_the_entry_goes_with_its_kb(self):
        import gc

        from nalc.reasoner import _PREPARED

        statement = Constraint.geq_leq(ConceptAssertion(Atomic("Dropped"), a), 1, 0)
        kb = akb(statement)
        check_satisfiable(kb)
        # An equal KB finds the entry while the first one lives.
        assert akb(statement) in _PREPARED
        del kb
        gc.collect()
        assert akb(statement) not in _PREPARED

    def test_a_kb_built_from_lists_is_prepared_too(self):
        kb = KnowledgeBase([Constraint.geq_leq(ConceptAssertion(A, a), F(1, 2), F(1, 2))], [])
        assert entails(kb, Constraint.geq_leq(ConceptAssertion(A, a), F(1, 4), F(3, 4)))
        assert kb == akb(*kb.assertions)

    @pytest.mark.parametrize("kind", ["glb", "lub"])
    def test_the_bound_search_finds_what_a_linear_scan_finds(self, kind):
        from nalc import Bound, ConstraintSet, Rel
        from nalc.reasoner import _half_entailed

        tenths = [F(k, 10) for k in range(11)]
        rng = random.Random(71)
        for _ in range(40):
            kb = rand_assertional_kb(rng, size=rng.randint(2, 4), depth=1,
                                     individuals=["a"], degrees=tenths)
            target = ConceptAssertion(rand_concept(rng, 1), a)
            assertions = ConstraintSet.from_constraints(kb.assertions)
            degrees = sorted({d for c in kb.assertions for d in (c.tbound.value, c.fbound.value)}
                             | {F(0), F(1)})
            rels = (Rel.GE, Rel.LE) if kind == "glb" else (Rel.LE, Rel.GE)
            expected = []
            for rel, ch in zip(rels, "tf"):
                scan = degrees[::-1] if rel.is_lower else degrees
                expected.append(next(
                    v for v in scan if _half_entailed(assertions, target, ch, Bound(rel, v))
                ))
            result = (glb if kind == "glb" else lub)(kb, target)
            assert result.bound == DegreePair(*expected)

    def test_the_candidate_degrees_are_gathered_once(self, monkeypatch):
        import nalc.reasoner

        calls = []
        degrees = nalc.reasoner.constraint_degrees
        monkeypatch.setattr(nalc.reasoner, "constraint_degrees",
                            lambda cs: calls.append(cs) or degrees(cs))
        kb = akb(Constraint.geq_leq(ConceptAssertion(A, a), F(1, 2), F(1, 4)),
                 Constraint.leq_geq(ConceptAssertion(A, a), F(3, 4), F(1, 8)))
        assert glb(kb, ConceptAssertion(A, a)).bound == DegreePair(F(1, 2), F(1, 4))
        assert lub(kb, ConceptAssertion(A, a)).bound == DegreePair(F(3, 4), F(1, 8))
        assert len(calls) == 1


class TestEntails:
    def test_invalid_kb_is_rejected(self):
        cyclic = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(A, a), 1, 0),),
            (TerminologicalAxiom("A", AxiomKind.DEFINITION, B),
             TerminologicalAxiom("B", AxiomKind.DEFINITION, A)),
        )
        with pytest.raises(ValueError, match="^invalid KB: cyclic definitions: A -> B -> A$"):
            entails(cyclic, Constraint.geq_leq(ConceptAssertion(A, a), 1, 0))

    def test_poll_kb_supports_both_wars(self):
        assert entails(POLL_KB, parse_query("assert (some Support War)(p1) >= 0.6 <= 0.5"))
        assert entails(POLL_KB, parse_query("assert (some Support War)(p2) >= 0.8 <= 0.1"))

    def test_universal_forces_role_upper_bound(self):
        kb = akb(
            Constraint.geq_leq(ConceptAssertion(Forall("R", A), a), 1, 0),
            Constraint.leq_geq(ConceptAssertion(A, b), 0, 1),
        )
        assert entails(kb, Constraint.leq_geq(RoleAssertion("R", a, b), 0, 1))

    def test_modus_ponens_on_concepts(self):
        kb = akb(
            Constraint.geq_leq(ConceptAssertion(C, a), F(4, 5), F(1, 5)),
            Constraint.geq_leq(ConceptAssertion(Or(Not(C), D), a), F(3, 5), F(3, 10)),
        )
        query = Constraint.geq_leq(ConceptAssertion(D, a), F(3, 5), F(3, 10))
        assert entails(kb, query)
        assert oracle_entails(list(kb.assertions), query)

    def test_monotone_in_the_assertions(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(120):
            kb = rand_assertional_kb(rng, size=2, depth=1)
            query = rand_query(rng, depth=1)
            if not entails(kb, query):
                continue
            checked += 1
            bigger = KnowledgeBase(
                kb.assertions + (rand_assertional_kb(rng, size=1, depth=1).assertions),
                (),
            )
            assert entails(bigger, query)
        assert checked >= 20

    def test_every_refuted_query_has_a_confirmed_countermodel(self):
        rng = random.Random(2024)
        refuted = 0
        for _ in range(300):
            kb = rand_assertional_kb(rng)
            query = rand_query(rng)
            answer, result = entails(kb, query, with_result=True)
            if answer:
                continue
            refuted += 1
            model = extract_model(result.witness)
            assert all(satisfies(model, c) for c in kb.assertions), (kb, query)
            assert not satisfies(model, query), (kb, query)
        assert refuted >= 100

    def test_negation_duality(self):
        rng = random.Random(47)
        for _ in range(60):
            kb = rand_assertional_kb(rng, size=2, depth=1)
            concept = rand_concept(rng, 1)
            n, m = rng.choice(QUARTERS), rng.choice(QUARTERS)
            upper = Constraint.leq_geq(ConceptAssertion(concept, a), n, m)
            swapped = Constraint.geq_leq(ConceptAssertion(Not(concept), a), m, n)
            assert entails(kb, upper) == entails(kb, swapped)


class TestGlb:
    def test_role_closed_form(self):
        kb = akb(
            Constraint.geq_leq(RoleAssertion("R", a, b), F(3, 5), F(3, 10)),
            Constraint.geq_leq(RoleAssertion("R", a, b), F(7, 10), F(2, 5)),
        )
        result = glb(kb, RoleAssertion("R", a, b))
        assert result.bound == DegreePair(F(7, 10), F(3, 10))
        assert result.kind is BoundKind.GLB

    def test_empty_kb_conventions(self):
        result = glb(akb(), ConceptAssertion(C, a))
        assert result.bound == DegreePair(F(0), F(1))

    def test_conjunct_inherits_both_bounds(self):
        kb = akb(Constraint.geq_leq(ConceptAssertion(And(A, B), a), F(3, 5), F(1, 5)))
        assert glb(kb, ConceptAssertion(A, a)).bound == DegreePair(F(3, 5), F(1, 5))

    def test_each_scan_stops_at_the_first_entailed_candidate(self):
        # Truth >= 1 fails, >= 7/10 holds; falsity <= 0 fails, <= 3/10 holds.
        kb = akb(
            Constraint.geq_leq(RoleAssertion("R", a, b), F(3, 5), F(3, 10)),
            Constraint.geq_leq(RoleAssertion("R", a, b), F(7, 10), F(2, 5)),
        )
        assert glb(kb, RoleAssertion("R", a, b)).candidates_examined == 4
        # With no assertions each scan ends on its vacuous last candidate.
        assert glb(akb(), ConceptAssertion(C, a)).candidates_examined == 4
        assert lub(akb(), ConceptAssertion(C, a)).candidates_examined == 4

    def test_glb_is_entailed_and_maximal(self):
        from nalc.reasoner import _half_entailed
        from nalc import Bound, ConstraintSet, Rel

        rng = random.Random(53)
        for _ in range(40):
            kb = rand_assertional_kb(rng, size=2, depth=1, individuals=["a"])
            target = ConceptAssertion(rand_concept(rng, 1), a)
            bound = glb(kb, target).bound
            assertions = ConstraintSet.from_constraints(kb.assertions)
            assert _half_entailed(assertions, target, "t", Bound(Rel.GE, bound.n))
            assert _half_entailed(assertions, target, "f", Bound(Rel.LE, bound.m))
            degrees = sorted({d for c in kb.assertions for d in (c.tbound.value, c.fbound.value)} | {F(0), F(1)})
            for n in degrees:
                if n > bound.n:
                    assert not _half_entailed(assertions, target, "t", Bound(Rel.GE, n))
            for m in degrees:
                if m < bound.m:
                    assert not _half_entailed(assertions, target, "f", Bound(Rel.LE, m))


class TestLub:
    def test_single_upper_constraint_is_tight(self):
        kb = akb(Constraint.leq_geq(ConceptAssertion(C, a), F(2, 5), F(7, 10)))
        assert lub(kb, ConceptAssertion(C, a)).bound == DegreePair(F(2, 5), F(7, 10))

    def test_empty_kb_conventions(self):
        assert lub(akb(), ConceptAssertion(C, a)).bound == DegreePair(F(1), F(0))

    def test_role_assertions_are_rejected(self):
        with pytest.raises(ValueError):
            lub(akb(), RoleAssertion("R", a, b))

    def test_agrees_with_negation_route(self):
        rng = random.Random(59)
        for _ in range(100):
            kb = rand_assertional_kb(rng, size=rng.randint(1, 3), depth=2,
                                     atoms=["A", "B"], roles=["R"], individuals=["a"])
            target = ConceptAssertion(rand_concept(rng, 1, ["A", "B"], ["R"]), a)
            assert lub(kb, target).bound == lub_via_negation(kb, target).bound


class TestSubsumes:
    def test_reflexive(self):
        assert subsumes((), C, C)

    def test_conjunction_is_subsumed_by_its_parts(self):
        assert subsumes((), And(A, B), A)

    def test_disjunction_subsumes_its_parts(self):
        assert subsumes((), A, Or(A, B))
        assert not subsumes((), Or(A, B), A)

    def test_quantifier_monotonicity(self):
        assert subsumes((), Exists("R", And(A, B)), Exists("R", A))
        assert subsumes((), Forall("R", And(A, B)), Forall("R", A))
        assert not subsumes((), Exists("R", A), Exists("R", And(A, B)))

    def test_terminology_is_unfolded(self):
        terminology = (
            TerminologicalAxiom("X", AxiomKind.DEFINITION, And(A, B)),
        )
        assert subsumes(terminology, Atomic("X"), A)
        assert not subsumes(terminology, A, Atomic("X"))

    def test_specialization_gives_subsumption(self):
        terminology = (
            TerminologicalAxiom("X", AxiomKind.SPECIALIZATION, A),
        )
        assert subsumes(terminology, Atomic("X"), A)

    def test_matches_pointwise_domination_on_random_pairs(self):
        """Cross-check against direct countermodel search on interpretations."""
        from genutil import rand_interpretation
        from nalc import eval_concept

        rng = random.Random(61)
        for _ in range(60):
            lhs = rand_concept(rng, rng.randint(0, 2), ["A", "B"], ["R"])
            rhs = rand_concept(rng, rng.randint(0, 2), ["A", "B"], ["R"])
            claimed = subsumes((), lhs, rhs)
            refuted = False
            for _ in range(300):
                interp = rand_interpretation(rng, rng.randint(1, 3), ["A", "B"], ["R"])
                for d in interp.domain:
                    lv = eval_concept(interp, lhs, d)
                    rv = eval_concept(interp, rhs, d)
                    if lv.n > rv.n or lv.m < rv.m:
                        refuted = True
            if refuted:
                assert not claimed, (lhs, rhs)


class TestSpecializationPropagation:
    def test_lower_bounds_flow_up_the_taxonomy(self):
        kb = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(C, a), F(3, 4), F(1, 4)),),
            (TerminologicalAxiom("C", AxiomKind.SPECIALIZATION, D),),
        )
        assert entails(kb, Constraint.geq_leq(ConceptAssertion(D, a), F(3, 4), F(1, 4)))

    def test_upper_bounds_flow_down_the_taxonomy(self):
        kb = KnowledgeBase(
            (Constraint.leq_geq(ConceptAssertion(D, a), F(1, 4), F(3, 4)),),
            (TerminologicalAxiom("C", AxiomKind.SPECIALIZATION, D),),
        )
        assert entails(kb, Constraint.leq_geq(ConceptAssertion(C, a), F(1, 4), F(3, 4)))
