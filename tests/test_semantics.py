"""Finite-interpretation semantics and the brute-force model search."""

import random
from fractions import Fraction

import pytest

from nalc import (
    And,
    Atomic,
    AxiomKind,
    BOT,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreeGrid,
    DegreePair,
    Exists,
    FiniteInterpretation,
    Forall,
    FuzzyAssertion,
    FuzzyInterpretation,
    FuzzyKb,
    FuzzyRel,
    Individual,
    Not,
    Or,
    Rel,
    RoleAssertion,
    SearchExhausted,
    TOP,
    TerminologicalAxiom,
    Variable,
    eval_concept,
    exists_model,
    fuzzy_entails,
    fuzzy_eval,
    fuzzy_exists_model,
    oracle_entails,
    parse_kb,
    parse_query,
    satisfies,
    satisfies_all,
    satisfies_axiom,
    expand,
)
from nalc.semantics import _Dag, _interval, default_domain_size
from genutil import (
    QUARTERS,
    QUARTER_GRID,
    rand_assertional_kb,
    rand_concept,
    rand_fuzzy_kb,
    rand_interpretation,
    rand_query,
    stable_seed,
)

F = Fraction
A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")
a = Individual("a")


def tiny_interp(**concept_values):
    interp = FiniteInterpretation(("d0",), {"a": "d0"})
    for name, (t, f) in concept_values.items():
        interp.concept_table[(name, "d0")] = DegreePair(F(t), F(f))
    return interp


class TestEvalConcept:
    def test_top_everywhere(self):
        interp = rand_interpretation(random.Random(1), 3)
        for d in interp.domain:
            assert eval_concept(interp, TOP, d) == DegreePair(F(1), F(0))
            assert eval_concept(interp, BOT, d) == DegreePair(F(0), F(1))

    def test_negation_swaps_components(self):
        interp = tiny_interp(A=(F(3, 5), F(3, 10)))
        assert eval_concept(interp, Not(A), "d0") == DegreePair(F(3, 10), F(3, 5))

    def test_existential_hand_computation(self):
        interp = FiniteInterpretation(
            ("d0", "d1", "d2"),
            {"a": "d0"},
            {
                ("A", "d1"): DegreePair(F(1, 2), F(2, 5)),
                ("A", "d2"): DegreePair(F(1), F(0)),
            },
            {
                ("R", "d0", "d1"): DegreePair(F(9, 10), F(1, 10)),
                ("R", "d0", "d2"): DegreePair(F(1, 5), F(7, 10)),
            },
        )
        # truth: max(min(9/10, 1/2), min(1/5, 1), min(0, 0)) = 1/2
        # falsity: min(max(1/10, 2/5), max(7/10, 0), max(1, 1)) = 2/5
        assert eval_concept(interp, Exists("R", A), "d0") == DegreePair(F(1, 2), F(2, 5))

    def test_unknown_element_rejected(self):
        interp = tiny_interp()
        with pytest.raises(ValueError):
            eval_concept(interp, A, "nowhere")


class TestSatisfies:
    def test_boundary_equality_holds(self):
        interp = tiny_interp(A=(F(4, 5), F(1, 10)))
        assert satisfies(interp, Constraint.geq_leq(ConceptAssertion(A, a), F(4, 5), F(1, 10)))

    def test_strict_fails_on_the_boundary(self):
        interp = tiny_interp(A=(F(4, 5), F(1, 10)))
        assert not satisfies(interp, Constraint.gt_lt(ConceptAssertion(A, a), F(4, 5), F(1, 10)))

    def test_existential_assertion(self):
        interp = FiniteInterpretation(
            ("d0", "d1", "d2"),
            {"a": "d0"},
            {
                ("A", "d1"): DegreePair(F(1, 2), F(2, 5)),
                ("A", "d2"): DegreePair(F(1), F(0)),
            },
            {
                ("R", "d0", "d1"): DegreePair(F(9, 10), F(1, 10)),
                ("R", "d0", "d2"): DegreePair(F(1, 5), F(7, 10)),
            },
        )
        q = Constraint.geq_leq(ConceptAssertion(Exists("R", A), a), F(1, 2), F(2, 5))
        assert satisfies(interp, q)


class TestSatisfiesAxiom:
    def test_definition_requires_equality(self):
        interp = tiny_interp(A=(F(1, 2), F(1, 4)), B=(F(1, 2), F(1, 4)))
        assert satisfies_axiom(
            interp, TerminologicalAxiom("A", AxiomKind.DEFINITION, B)
        )

    def test_specialization_inequalities(self):
        interp = tiny_interp(A=(F(3, 10), F(4, 5)), C=(F(1, 2), F(1, 5)))
        assert satisfies_axiom(
            interp, TerminologicalAxiom("A", AxiomKind.SPECIALIZATION, C)
        )

    def test_specialization_violation(self):
        interp = tiny_interp(A=(F(3, 5), F(1, 10)), C=(F(1, 2), F(1, 5)))
        assert not satisfies_axiom(
            interp, TerminologicalAxiom("A", AxiomKind.SPECIALIZATION, C)
        )

    def test_definition_fails_on_unequal_values(self):
        interp = tiny_interp(A=(F(1, 2), F(1, 2)), B=(F(1, 4), F(1, 2)))
        assert not satisfies_axiom(
            interp, TerminologicalAxiom("A", AxiomKind.DEFINITION, B)
        )


class TestExistsModel:
    def test_point_constraint_has_model(self):
        grid = DegreeGrid.containing([F(1, 2)])
        constraint = Constraint.geq_leq(ConceptAssertion(A, a), F(1, 2), F(1, 2))
        model = exists_model([constraint], 1, grid)
        assert model is not None
        assert satisfies(model, constraint)

    def test_bottom_with_positive_truth_is_unsatisfiable(self):
        grid = DegreeGrid.containing([F(1, 10)])
        constraint = Constraint.geq_leq(ConceptAssertion(BOT, a), F(1, 10), F(1))
        assert exists_model([constraint], 1, grid) is None

    def test_poll_refutation_set_has_no_model(self):
        kb = expand(parse_kb(
            "assert (some Support war_x)(p1) >= 0.6 <= 0.5\n"
            "assert (some Support war_y)(p2) >= 0.8 <= 0.1\n"
            "spec war_x < War\nspec war_y < War\n"
        ))
        query = parse_query("assert (some Support War)(p1) >= 0.6 <= 0.5")
        grid = DegreeGrid.containing([F(1, 10), F(1, 2), F(3, 5), F(4, 5)])
        refuted = list(kb.assertions) + [query.negated()]
        assert exists_model(refuted, 3, grid) is None

    def test_node_ceiling_reports_exhaustion(self):
        rng = random.Random(3)
        constraints = [
            Constraint.geq_leq(
                ConceptAssertion(rand_concept(rng, 3), Individual("a")),
                F(1, 2),
                F(1, 2),
            )
            for _ in range(3)
        ]
        with pytest.raises(SearchExhausted):
            exists_model(constraints, 4, QUARTER_GRID, max_nodes=3)

    def test_domain_must_fit_individuals(self):
        constraint = Constraint.geq_leq(
            RoleAssertion("R", Individual("a"), Individual("b")), F(1, 2), F(1, 2)
        )
        with pytest.raises(ValueError):
            exists_model([constraint], 1, QUARTER_GRID)

    def test_a_model_holds_only_the_cells_it_reads(self):
        """Each channel of the concept folds to a constant (truth 1,
        falsity 0), so no check reads a cell of R or B, and neither
        search puts one in its model."""
        concept = Or(Forall("R", TOP), B)
        constraint = Constraint.geq_leq(ConceptAssertion(concept, a), F(1), F(0))
        model = exists_model([constraint], 2, QUARTER_GRID)
        assert model is not None
        assert model.concept_table == {} and model.role_table == {}
        model = fuzzy_exists_model([(constraint.assertion, constraint.tbound)], (), 2,
                                   QUARTER_GRID)
        assert model is not None
        assert model.concept_table == {} and model.role_table == {}

    def test_a_model_holds_no_entry_for_an_unread_element(self):
        constraint = Constraint.geq_leq(ConceptAssertion(A, a), F(1, 2), F(1, 2))
        model = exists_model([constraint], 2, QUARTER_GRID)
        assert model is not None
        assert model.concept_table == {("A", "d0"): DegreePair(F(1, 2), F(0))}
        assert model.role_table == {}
        assert model.concept_value("A", "d1") == DegreePair(F(0), F(1))

    @pytest.mark.parametrize("names", [("A", "B"), ("B", "A")])
    def test_table_entries_follow_the_search_order(self, names):
        constraints = [
            Constraint.geq_leq(ConceptAssertion(Atomic(name), a), F(1, 4), F(3, 4))
            for name in names
        ]
        model = exists_model(constraints, 1, QUARTER_GRID)
        assert model is not None
        assert list(model.concept_table) == [(name, "d0") for name in names]

    def test_a_quantifier_model_holds_only_its_own_successors(self):
        constraint = Constraint.geq_leq(ConceptAssertion(Exists("R", A), a), F(1, 2), F(1, 2))
        model = exists_model([constraint], 2, QUARTER_GRID)
        assert model is not None
        assert set(model.role_table) == {("R", "d0", "d0"), ("R", "d0", "d1")}
        assert satisfies(model, constraint)

    def test_a_min_no_child_can_reach_has_no_model(self):
        """Truth of (and A B) strictly between 0 and 1/2 needs A and B
        above 0 and one of them below 1/2: no degree of (0, 1/2, 1).  C's
        bound puts 1/4 on the search's integer scale, so the bounds leave
        the conjunction an interval and the down pass finds the conflict."""
        conj = ConceptAssertion(And(A, B), a)
        constraints = [
            Constraint(conj, Bound(Rel.GT, F(0)), None),
            Constraint(conj, Bound(Rel.LT, F(1, 2)), None),
            Constraint(ConceptAssertion(C, a), Bound(Rel.GE, F(1, 4)), None),
        ]
        assert exists_model(constraints, 1, DegreeGrid((F(0), F(1, 2), F(1)))) is None
        model = exists_model(constraints, 1, DegreeGrid((F(0), F(1, 4), F(1, 2), F(1))))
        assert model is not None
        assert model.concept_value("A", "d0").n == model.concept_value("B", "d0").n == F(1, 4)


class TestExistentialVariables:
    """A variable ranges over the whole domain, individuals' elements
    included: the enumerator tries each element for it in turn."""

    x1 = Variable(1)
    EDGE = Constraint.geq_leq(RoleAssertion("R", a, x1), F(1), F(0))
    FILLER = Constraint.geq_leq(ConceptAssertion(A, x1), F(1), F(0))
    NOT_A = Constraint.leq_geq(ConceptAssertion(A, a), F(0), F(1))

    def test_a_variable_may_share_an_individuals_element(self):
        constraints = [self.EDGE, self.FILLER]
        model = exists_model(constraints, 1, QUARTER_GRID)
        assert model is not None
        assert model.role_value("R", "d0", "d0") == DegreePair(F(1), F(0))
        assert all(satisfies(model, c, {self.x1: "d0"}) for c in constraints)
        assert satisfies_all(model, constraints)

    def test_a_variable_moves_to_a_fresh_element_when_it_must(self):
        constraints = [self.EDGE, self.FILLER, self.NOT_A]
        assert exists_model(constraints, 1, QUARTER_GRID) is None
        model = exists_model(constraints, 2, QUARTER_GRID)
        assert model is not None
        assert model.role_value("R", "d0", "d1") == DegreePair(F(1), F(0))
        assert all(satisfies(model, c, {self.x1: "d1"}) for c in constraints)
        assert not all(satisfies(model, c, {self.x1: "d0"}) for c in constraints)
        assert satisfies_all(model, constraints)

    def test_the_oracle_reads_variables_existentially(self):
        constraints = [self.EDGE, self.FILLER, self.NOT_A]
        assert oracle_entails(constraints, Constraint.geq_leq(
            ConceptAssertion(Exists("R", A), a), F(1), F(0)))
        assert not oracle_entails(constraints, Constraint.geq_leq(
            ConceptAssertion(B, a), F(1), F(0)))

    def test_the_single_valued_search_reads_variables_existentially(self):
        bounded = [(c.assertion, c.tbound) for c in (self.EDGE, self.FILLER, self.NOT_A)]
        assert fuzzy_exists_model(bounded, (), 1, QUARTER_GRID) is None
        model = fuzzy_exists_model(bounded, (), 2, QUARTER_GRID)
        assert model is not None
        assert model.role_value("R", "d0", "d1") == 1 and model.concept_value("A", "d1") == 1


class TestChannelSwap:
    """The map ``t' = 1 - f``, ``f' = 1 - t`` on every cell commutes with
    every connective, so it carries models to models; on bounds it maps
    ``>= n <= m`` to ``>= 1-m <= 1-n``, and the default grid, the bound
    degrees plus midpoints, maps onto itself under ``x -> 1 - x``."""

    MIRROR = {Rel.GE: Rel.LE, Rel.LE: Rel.GE, Rel.GT: Rel.LT, Rel.LT: Rel.GT}

    def swapped(self, c: Constraint) -> Constraint:
        def mirror(bound):
            return None if bound is None else Bound(self.MIRROR[bound.rel], 1 - bound.value)

        return Constraint(c.assertion, mirror(c.fbound), mirror(c.tbound))

    def test_swapped_kb_and_query_have_the_same_answer(self):
        entailed = 0
        for seed in range(400):
            rng = random.Random(seed)
            constraints = list(rand_assertional_kb(rng, depth=2).assertions)
            query = rand_query(rng, depth=1)
            answer = oracle_entails(constraints, query)
            entailed += answer
            swapped = oracle_entails([self.swapped(c) for c in constraints],
                                     self.swapped(query))
            assert swapped == answer, (seed, constraints, query)
        assert 0 < entailed < 400


class TestOracleEntails:
    def test_tautology_from_nothing(self):
        q = Constraint.geq_leq(ConceptAssertion(TOP, a), F(1), F(0))
        assert oracle_entails([], q)

    def test_unconstrained_atom_is_not_entailed(self):
        q = Constraint.geq_leq(ConceptAssertion(A, a), F(1, 2), F(1, 2))
        assert not oracle_entails([], q)

    def test_grid_closure_under_evaluation(self):
        rng = random.Random(5)
        grid_values = set(QUARTERS)
        for _ in range(50):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            c = rand_concept(rng, rng.randint(0, 3))
            for d in interp.domain:
                value = eval_concept(interp, c, d)
                assert value.n in grid_values and value.m in grid_values


FOURTEEN_EQUIVALENCES = [
    (Not(TOP), BOT),
    (And(C, TOP), C),
    (Or(C, TOP), TOP),
    (And(C, BOT), BOT),
    (Or(C, BOT), C),
    (Not(Not(C)), C),
    (Not(And(C, D)), Or(Not(C), Not(D))),
    (Not(Or(C, D)), And(Not(C), Not(D))),
    (And(A, Or(B, C)), Or(And(A, B), And(A, C))),
    (Or(A, And(B, C)), And(Or(A, B), Or(A, C))),
    (Forall("R", C), Not(Exists("R", Not(C)))),
    (Forall("R", TOP), TOP),
    (Exists("R", BOT), BOT),
    (And(Forall("R", C), Forall("R", D)), Forall("R", And(C, D))),
]

NON_THEOREMS = [
    (And(C, Not(C)), BOT),
    (Or(C, Not(C)), TOP),
    (And(Exists("R", C), Forall("R", Not(C))), BOT),
    (Or(Exists("R", C), Forall("R", Not(C))), TOP),
]


class TestEquivalenceLaws:
    @pytest.mark.parametrize("lhs, rhs", FOURTEEN_EQUIVALENCES)
    def test_equivalence_holds_pointwise(self, lhs, rhs):
        rng = random.Random(stable_seed(f"{lhs} {rhs}"))
        for _ in range(60):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            for d in interp.domain:
                assert eval_concept(interp, lhs, d) == eval_concept(interp, rhs, d)

    @pytest.mark.parametrize("lhs, rhs", NON_THEOREMS)
    def test_non_theorem_has_countermodel(self, lhs, rhs):
        rng = random.Random(stable_seed(str(lhs)))
        for _ in range(400):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            for d in interp.domain:
                if eval_concept(interp, lhs, d) != eval_concept(interp, rhs, d):
                    return
        pytest.fail(f"no countermodel found for {lhs} vs {rhs}")


class TestMonotoneBounds:
    def test_conjunction_bounds_are_exact(self):
        rng = random.Random(31)
        for _ in range(100):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            l = rand_concept(rng, 1)
            r = rand_concept(rng, 1)
            for d in interp.domain:
                lv = eval_concept(interp, l, d)
                rv = eval_concept(interp, r, d)
                both = eval_concept(interp, And(l, r), d)
                assert both.n == min(lv.n, rv.n)
                assert both.m == max(lv.m, rv.m)
                either = eval_concept(interp, Or(l, r), d)
                assert either.n == max(lv.n, rv.n)
                assert either.m == min(lv.m, rv.m)

    def test_default_domain_size(self):
        kb = parse_kb(
            "assert (some R (all S A))(a) >= 0.5 <= 0.5\nassert B(b) >= 0 <= 1\n"
        )
        assert default_domain_size(list(kb.assertions)) == 4


class TestSingleChannelTerms:
    def test_assigned_interval_is_the_evaluated_degree(self):
        """With every cell assigned, a translated term's interval is the
        point ``eval_concept`` gives in its channel, and with truth cells
        only it is the point ``fuzzy_eval`` gives (falsity one minus it)."""
        rng = random.Random(2718)
        scale = 4  # every degree of the interpretations is a quarter
        for _ in range(300):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            c = rand_concept(rng, rng.randint(0, 3))
            cells = {}
            for (name, d), v in interp.concept_table.items():
                cells[("c", name, d, "t")] = int(v.n * scale)
                cells[("c", name, d, "f")] = int(v.m * scale)
            for (role, d1, d2), v in interp.role_table.items():
                cells[("r", role, d1, d2, "t")] = int(v.n * scale)
                cells[("r", role, d1, d2, "f")] = int(v.m * scale)
            truth_cells = {k: v for k, v in cells.items() if k[-1] == "t"}
            fuzzy = FuzzyInterpretation(
                interp.domain,
                {},
                {k: v.n for k, v in interp.concept_table.items()},
                {k: v.n for k, v in interp.role_table.items()},
            )
            for d in interp.domain:
                pair = eval_concept(interp, c, d)
                single = fuzzy_eval(fuzzy, c, d)
                for ch, two_valued, one_valued in (("t", pair.n, single), ("f", pair.m, 1 - single)):
                    point = _interval(c, ch, False, d, cells, interp.domain, scale)
                    assert point == (two_valued * scale,) * 2, (c, ch)
                    point = _interval(c, ch, True, d, truth_cells, interp.domain, scale)
                    assert point == (one_valued * scale,) * 2, (c, ch)


    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("ch", ["t", "f"])
    @pytest.mark.parametrize("concept", [
        And(BOT, Exists("R", A)),
        Or(TOP, Forall("R", A)),
        And(Forall("R", TOP), Exists("S", BOT)),
    ])
    def test_a_constant_that_decides_a_term_builds_no_cell(self, concept, ch, single):
        dag = _Dag(("d0", "d1"), 4, [0, 1, 2, 3, 4], single)
        n = dag.node(concept, ch, "d0")
        assert dag.cells == {}
        value = eval_concept(FiniteInterpretation(("d0",), {}), concept, "d0")
        value = value.n if ch == "t" else value.m
        assert dag.lo[n] == dag.hi[n] == value * 4


class TestFuzzyEval:
    """Hand-worked single-valued degrees on a fixed two-element
    interpretation: A is 3/4 at d0 and 1/4 at d1, B is 1/2 at both,
    R(d0, d0) is 1/4 and R(d0, d1) is 3/4; every other entry is 0."""

    INTERP = FuzzyInterpretation(
        ("d0", "d1"),
        {"a": "d0"},
        {("A", "d0"): F(3, 4), ("A", "d1"): F(1, 4), ("B", "d0"): F(1, 2), ("B", "d1"): F(1, 2)},
        {("R", "d0", "d0"): F(1, 4), ("R", "d0", "d1"): F(3, 4)},
    )

    @pytest.mark.parametrize("concept, element, degree", [
        (TOP, "d0", 1),
        (BOT, "d0", 0),
        (Not(A), "d0", F(1, 4)),  # 1 - 3/4
        (And(A, B), "d0", F(1, 2)),  # min(3/4, 1/2)
        (Or(A, B), "d0", F(3, 4)),  # max(3/4, 1/2)
        # min(max(1 - 1/4, 3/4), max(1 - 3/4, 1/4))
        (Forall("R", A), "d0", F(1, 4)),
        # max(min(1/4, 1/2), min(3/4, 1/2))
        (Exists("R", B), "d0", F(1, 2)),
        # d1 has no R-successor to a positive degree
        (Forall("R", A), "d1", 1),
        (Exists("R", A), "d1", 0),
    ])
    def test_hand_worked_degrees(self, concept, element, degree):
        assert fuzzy_eval(self.INTERP, concept, element) == degree

    def test_unknown_element_is_an_error(self):
        with pytest.raises(ValueError):
            fuzzy_eval(self.INTERP, A, "d2")


class TestFuzzyExistsModel:
    def test_returned_models_meet_every_bound_and_axiom(self):
        rng = random.Random(1618)
        found = refuted = 0
        for _ in range(200):
            fkb = rand_fuzzy_kb(rng, atoms=("A", "B", "X"))
            bounded = []
            for fa in fkb.assertions:
                lower = fa.rel is FuzzyRel.GEQ
                if rng.random() < 0.3:
                    rel = Rel.GT if lower else Rel.LT
                else:
                    rel = Rel.GE if lower else Rel.LE
                bounded.append((fa.assertion, Bound(rel, fa.degree)))
            axioms = ()
            if rng.random() < 0.5:
                kind = rng.choice([AxiomKind.SPECIALIZATION, AxiomKind.DEFINITION])
                axioms = (TerminologicalAxiom("X", kind, rand_concept(rng, 1, ["A", "B"], ["R"])),)
            model = fuzzy_exists_model(bounded, axioms, 2, QUARTER_GRID)
            if model is None:
                refuted += 1
                continue
            found += 1
            for a, bound in bounded:
                subject = model.individual_map[a.subject.name]
                if isinstance(a, RoleAssertion):
                    value = model.role_value(a.role, subject, model.individual_map[a.target.name])
                else:
                    value = fuzzy_eval(model, a.concept, subject)
                assert bound.holds(value), (a, bound)
            for ax in axioms:
                for d in model.domain:
                    name, rhs = model.concept_value("X", d), fuzzy_eval(model, ax.rhs, d)
                    assert name <= rhs if ax.kind is AxiomKind.SPECIALIZATION else name == rhs
        assert found and refuted


class TestFuzzyEntailsGrid:
    """The single-valued oracle reads a negated name as ``1 - x``, so its
    default grid holds ``1 - d`` beside every posed degree ``d``."""

    def test_a_negated_bound_needs_the_complement_degree(self):
        b = Individual("b")
        fkb = FuzzyKb((FuzzyAssertion(ConceptAssertion(Not(B), b), FuzzyRel.LEQ, F(1, 5)),))
        # B(b) = 4/5 meets the KB and refutes <B(b) >= 1>
        model = FuzzyInterpretation(("d0",), {"b": "d0"}, {("B", "d0"): F(4, 5)})
        assert fuzzy_eval(model, Not(B), "d0") <= F(1, 5) and fuzzy_eval(model, B, "d0") < 1
        assert not fuzzy_entails(fkb, FuzzyAssertion(ConceptAssertion(B, b), FuzzyRel.GEQ, F(1)))
        assert fuzzy_entails(fkb, FuzzyAssertion(ConceptAssertion(B, b), FuzzyRel.GEQ, F(4, 5)))

    def test_default_grid_answers_as_the_thirtieths(self):
        """Every posed degree, its ``1 - d`` and each midpoint are
        multiples of 1/30, so the finer grid only adds room."""
        degrees = (F(0), F(1, 5), F(1, 3), F(3, 5), F(1))
        thirtieths = DegreeGrid.containing(F(i, 30) for i in range(31))
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for i in range(300):
                fkb = rand_fuzzy_kb(rng, size=rng.randint(1, 3), depth=1, degrees=degrees)
                query = rand_fuzzy_kb(rng, size=1, depth=1, degrees=degrees).assertions[0]
                assert fuzzy_entails(fkb, query) == fuzzy_entails(fkb, query, grid=thirtieths), (
                    seed, i, fkb, query)


class TestPropagation:
    """Refusals that bounds propagation over the shared term DAG turns into
    answers: each contradiction runs through a shared subterm."""

    def test_acceptance_5_kb_383_is_refuted(self):
        from genutil import rand_assertional_kb
        from nalc import Status, complete

        rng = random.Random(55555)
        for _ in range(384):
            kb = rand_assertional_kb(rng)
        constraints = list(kb.assertions)
        model = exists_model(constraints, default_domain_size(constraints), QUARTER_GRID,
                             max_nodes=10_000)
        assert model is None
        assert complete(constraints).status is Status.UNSATISFIABLE

    def test_a_min_no_child_can_reach_is_a_conflict(self):
        """Pinned to 1/4 (scale 4) on the grid 0, 1/2, 1, the minimum of
        two cells pushes both to 1/2, and then neither reaches 1/4."""
        dag = _Dag(("d0",), 4, [0, 2, 4], False)
        n = dag.node(And(A, B), "t", "d0")
        assert not dag.propagate([(n, 1, 1)])

    def test_definition_and_bound_meet_in_a_shared_term(self):
        X = Atomic("X")
        b = Individual("b")
        bounded = [
            (ConceptAssertion(X, b), Bound(Rel.LE, F(1, 4))),
            (RoleAssertion("R", a, a), Bound(Rel.LE, F(1, 2))),
            (RoleAssertion("R", a, b), Bound(Rel.LE, F(1, 2))),
            (ConceptAssertion(Forall("R", A), b), Bound(Rel.GE, F(1, 2))),
        ]
        axioms = (TerminologicalAxiom("X", AxiomKind.DEFINITION, Forall("R", A)),)
        grid = QUARTER_GRID.with_midpoints()
        assert fuzzy_exists_model(bounded, axioms, 3, grid, max_nodes=10_000) is None

    def test_universal_combination_is_decided_in_few_nodes(self):
        tuples = [(n, m, f, g) for n in QUARTERS for m in QUARTERS
                  for f in QUARTERS for g in QUARTERS if n > g and m < f]
        assert len(tuples) == 100
        for n, m, f, g in tuples:
            premises = [
                Constraint.geq_leq(ConceptAssertion(Forall("R", C), a), n, m),
                Constraint.geq_leq(ConceptAssertion(Forall("R", D), a), f, g),
            ]
            query = Constraint.geq_leq(
                ConceptAssertion(Forall("R", And(C, D)), a), min(n, f), max(m, g)
            )
            assert oracle_entails(premises, query, max_nodes=1_000), (n, m, f, g)
