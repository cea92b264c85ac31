"""The constraint-propagation calculus: clashes, rules, completions."""

import pickle
import random
from fractions import Fraction

import pytest

from nalc import (
    And,
    Atomic,
    BOT,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreeGrid,
    DegreePair,
    Exists,
    Forall,
    Individual,
    Not,
    Or,
    Rel,
    ResourceExhausted,
    RoleAssertion,
    Status,
    TOP,
    apply_rules,
    check_satisfiable,
    complete,
    conjugated,
    exists_model,
    extract_model,
    find_clash,
    parse_kb,
    parse_query,
    satisfies,
    satisfies_all,
    expand,
    variable_assignment,
)
from nalc.constraints import bound_implies, vacuous
from nalc.semantics import default_domain_size
from nalc.tableau import DEFAULT_MAX_STEPS, ConstraintSet, _Engine, _halves, _pick
from genutil import QUARTER_GRID, QUARTERS, rand_assertional_kb, rand_interpretation, stable_seed

F = Fraction
A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")
a, b = Individual("a"), Individual("b")


def ca(concept, obj=a):
    return ConceptAssertion(concept, obj)


class TestClashTable:
    """Every unsatisfiable-constraint row, with its boundary complement."""

    @pytest.mark.parametrize(
        "constraint",
        [
            Constraint.geq_leq(ca(BOT), F(1, 5), F(1)),     # truth forced above 0
            Constraint.geq_leq(ca(BOT), F(0), F(9, 10)),    # falsity forced below 1
            Constraint.leq_geq(ca(TOP), F(9, 10), F(0)),    # truth forced below 1
            Constraint.leq_geq(ca(TOP), F(1), F(1, 10)),    # falsity forced above 0
            Constraint.gt_lt(ca(BOT), F(1, 2), F(1, 2)),    # strict on bottom
            Constraint.gt_lt(ca(BOT), F(0), F(1)),
            Constraint.lt_gt(ca(TOP), F(1, 2), F(1, 2)),    # strict on top
            Constraint.lt_gt(ca(TOP), F(1), F(0)),
            Constraint.lt_gt(ca(A), F(0), F(1, 2)),         # truth below 0
            Constraint.gt_lt(ca(A), F(1), F(1, 2)),         # truth above 1
            Constraint.lt_gt(ca(A), F(1, 2), F(1)),         # falsity above 1
            Constraint.gt_lt(ca(A), F(1, 2), F(0)),         # falsity below 0
            # out-of-range strict bounds close role constraints too
            Constraint.lt_gt(RoleAssertion("R", a, b), F(0), F(1, 2)),
        ],
    )
    def test_single_constraint_clash(self, constraint):
        assert find_clash([constraint]) is not None

    @pytest.mark.parametrize(
        "constraint",
        [
            Constraint.geq_leq(ca(BOT), F(0), F(1)),        # bottom at its own value
            Constraint.leq_geq(ca(TOP), F(1), F(0)),        # top at its own value
            Constraint.geq_leq(ca(TOP), F(1), F(0)),
            Constraint.gt_lt(ca(A), F(9, 10), F(1, 10)),    # strict but in range
            Constraint.lt_gt(ca(A), F(1, 10), F(9, 10)),
        ],
    )
    def test_boundary_complements_do_not_clash(self, constraint):
        assert find_clash([constraint]) is None

    def test_conjugated_pair_is_a_clash(self):
        pair = [
            Constraint.geq_leq(ca(A), F(4, 5), F(1, 10)),
            Constraint.lt_gt(ca(A), F(3, 5), F(3, 10)),
        ]
        info = find_clash(pair)
        assert info is not None and "conjugated" in info.message

    @pytest.mark.parametrize(
        "text, clash",
        [
            # Two conjugated pairs: the pair completed first wins, though
            # the other pair's first constraint comes earlier.
            (
                "assert A(a) >= 0.75 <= 0.25\n"
                "assert B(b) >= 0.5 <= 0.5\n"
                "assert B(b) <= 0.25 >= 0.75\n"
                "assert A(a) <= 0.5 >= 0\n",
                "clash : (2), (3) : conjugated pair on B(b)",
            ),
            # One constraint conjugated with two others, on different
            # channels: its truth bound is checked first.
            (
                "assert A(a) >= 0 <= 0.25\n"
                "assert A(a) >= 0.75 <= 1\n"
                "assert A(a) <= 0.5 >= 0.5\n",
                "clash : (2), (3) : conjugated pair on A(a)",
            ),
        ],
    )
    def test_the_first_conjugated_pair_is_the_clash(self, text, clash):
        kb = parse_kb(text)
        assert ConstraintSet.from_constraints(kb.assertions).clash.render() == clash
        trace = check_satisfiable(kb).trace
        assert trace[-1] == clash
        assert trace[:-1] == [
            f"({k}) {c}   [hypothesis]" for k, c in enumerate(kb.assertions, 1)
        ]


class TestConjugationTable:
    def lower_nonstrict(self, n, m):
        return Constraint.geq_leq(ca(A), n, m)

    def lower_strict(self, n, m):
        return Constraint.gt_lt(ca(A), n, m)

    def upper_nonstrict(self, f, g):
        return Constraint.leq_geq(ca(A), f, g)

    def upper_strict(self, f, g):
        return Constraint.lt_gt(ca(A), f, g)

    def test_nonstrict_vs_strict_upper(self):
        # conjugated iff n >= f or m <= g
        assert conjugated(self.lower_nonstrict(F(4, 5), F(1, 2)), self.upper_strict(F(4, 5), F(0)))
        assert conjugated(self.lower_nonstrict(F(1, 2), F(1, 4)), self.upper_strict(F(3, 4), F(1, 4)))
        assert not conjugated(self.lower_nonstrict(F(1, 2), F(1, 2)), self.upper_strict(F(3, 4), F(1, 4)))

    def test_nonstrict_vs_nonstrict_upper(self):
        # conjugated iff n > f or m < g; the boundary n = f, m = g is satisfiable
        assert conjugated(self.lower_nonstrict(F(4, 5), F(1, 10)), self.upper_nonstrict(F(7, 10), F(2, 5)))
        assert not conjugated(self.lower_nonstrict(F(1, 2), F(1, 2)), self.upper_nonstrict(F(1, 2), F(1, 2)))
        assert conjugated(self.lower_nonstrict(F(1, 2), F(1, 4)), self.upper_nonstrict(F(1), F(1, 2)))

    def test_strict_vs_strict_upper(self):
        assert conjugated(self.lower_strict(F(1, 2), F(1, 2)), self.upper_strict(F(1, 2), F(1)))
        assert not conjugated(self.lower_strict(F(1, 4), F(3, 4)), self.upper_strict(F(1, 2), F(1, 2)))

    def test_strict_vs_nonstrict_upper(self):
        assert conjugated(self.lower_strict(F(1, 2), F(1, 2)), self.upper_nonstrict(F(1, 2), F(1, 2)))
        assert not conjugated(self.lower_strict(F(1, 4), F(3, 4)), self.upper_nonstrict(F(1, 2), F(1, 2)))

    def test_same_direction_is_never_conjugated(self):
        assert not conjugated(self.lower_nonstrict(F(1), F(0)), self.lower_strict(F(1, 2), F(1, 2)))
        assert not conjugated(self.upper_nonstrict(F(0), F(1)), self.upper_strict(F(1, 2), F(1, 2)))

    def test_symmetry(self):
        x = self.lower_nonstrict(F(4, 5), F(1, 10))
        y = self.upper_nonstrict(F(7, 10), F(2, 5))
        assert conjugated(x, y) == conjugated(y, x)

    def test_mismatched_assertions_rejected(self):
        with pytest.raises(ValueError):
            conjugated(self.lower_nonstrict(F(1), F(0)),
                       Constraint.leq_geq(ca(B), F(0), F(1)))


class TestComplements:
    """Refutation bounds: each complement holds exactly where its bound fails."""

    @pytest.mark.parametrize(
        "rel, lower, strict, complement",
        [
            (Rel.GE, True, False, Rel.LT),
            (Rel.GT, True, True, Rel.LE),
            (Rel.LE, False, False, Rel.GT),
            (Rel.LT, False, True, Rel.GE),
        ],
    )
    def test_relation_attributes(self, rel, lower, strict, complement):
        assert (rel.is_lower, rel.is_strict, rel.complement) == (lower, strict, complement)

    @pytest.mark.parametrize("rel", list(Rel))
    def test_complement_holds_exactly_where_the_bound_fails(self, rel):
        grid = QUARTER_GRID.with_midpoints().values
        for v in grid:
            for x in grid:
                assert Bound(rel.complement, v).holds(x) != Bound(rel, v).holds(x), (rel, v, x)

    @pytest.mark.parametrize("rel", list(Rel))
    def test_vacuous_exactly_when_every_degree_holds(self, rel):
        for value in QUARTERS:
            bound = Bound(rel, value)
            assert vacuous(bound) == all(bound.holds(x) for x in QUARTERS)

    def test_nonstrict_constraints_negate_to_strict_ones(self):
        assert Constraint.geq_leq(ca(A), F(1, 2), F(1, 4)).negated() == Constraint.lt_gt(
            ca(A), F(1, 2), F(1, 4)
        )
        assert Constraint.leq_geq(ca(A), F(1, 2), F(1, 4)).negated() == Constraint.gt_lt(
            ca(A), F(1, 2), F(1, 4)
        )

    @pytest.mark.parametrize("strict", [Constraint.gt_lt, Constraint.lt_gt])
    def test_strict_constraints_cannot_be_negated(self, strict):
        with pytest.raises(ValueError):
            strict(ca(A), F(1, 2), F(1, 4)).negated()


POLL_KB = (
    "assert (some Support war_x)(p1) >= 0.6 <= 0.5\n"
    "assert (some Support war_y)(p2) >= 0.8 <= 0.1\n"
    "spec war_x < War\nspec war_y < War\n"
)


class TestCompletion:
    def test_poll_refutation_closes_with_the_expected_steps(self):
        kb = expand(parse_kb(POLL_KB))
        query = parse_query("assert (some Support War)(p1) >= 0.6 <= 0.5")
        result = complete(list(kb.assertions) + [query.negated()])
        assert result.status is Status.UNSATISFIABLE
        trace = "\n".join(result.trace)
        assert "Support(p1,x1) >= 0.6 <= 0.5" in trace
        assert "(and War war_x*)(x1) >= 0.6 <= 0.5" in trace
        assert "War(x1) < 0.6 > 0.5" in trace and "(some<>)" in trace
        assert "War(x1) >= 0.6 <= 0.5" in trace and "(and>=<=)" in trace
        assert "clash" in trace

    def test_atomic_set_is_its_own_completion(self):
        constraint = Constraint.geq_leq(ca(A), F(1, 2), F(1, 2))
        result = complete([constraint])
        assert result.status is Status.SATISFIABLE
        assert list(result.witness.constraints) == [constraint]

    def test_disjunction_picks_a_branch(self):
        constraint = Constraint.geq_leq(ca(Or(A, B)), F(3, 5), F(1, 5))
        result = complete([constraint])
        assert result.status is Status.SATISFIABLE
        added = result.witness.constraints[1:]
        assert any(
            c.assertion == ca(A) and c.tbound and c.tbound.value == F(3, 5)
            for c in added
        )
        grid = DegreeGrid.containing([F(1, 5), F(3, 5)])
        assert exists_model([constraint], 1, grid) is not None

    def test_fixpoint_returns_none_from_apply_rules(self):
        s = ConstraintSet.from_constraints([Constraint.geq_leq(ca(A), F(1, 2), F(1, 2))])
        assert apply_rules(s) is None

    @pytest.mark.parametrize("concept", [And(A, B), Forall("R", B)])
    def test_the_upper_form_of_the_vacuous_pair_takes_no_rule(self, concept):
        # Truth <= 1 and falsity >= 0 hold of every degree, as >= 0 and <= 1 do.
        constraint = Constraint.leq_geq(ca(concept), 1, 0)
        result = complete([constraint])
        assert result.status is Status.SATISFIABLE
        assert result.branch_count == 1
        assert list(result.witness.constraints) == [constraint]
        assert result.witness.objects() == [a]

    def test_a_vacuous_half_takes_no_rule(self):
        constraint = Constraint.leq_geq(ca(And(A, B)), 1, F(1, 2))
        result = complete([constraint])
        assert result.branch_count == 2
        assert result.trace[1:] == ["(2) A(a) f>= 0.5   (and f>=) : (1)"]

    def test_branch_ceiling_raises(self):
        constraint = Constraint.leq_geq(ca(And(A, B)), F(1, 2), F(1, 2))
        with pytest.raises(ResourceExhausted):
            complete([constraint], max_branches=1)


class TestExtractModel:
    def test_bounds_become_values(self):
        s = ConstraintSet.from_constraints(
            [Constraint.geq_leq(ca(A), F(3, 5), F(1, 2))]
        )
        interp = extract_model(s)
        assert interp.concept_table[("A", "a")] == DegreePair(F(3, 5), F(1, 2))

    def test_strict_bounds_move_to_midpoints(self):
        s = ConstraintSet.from_constraints(
            [Constraint.gt_lt(ca(A), F(3, 5), F(1, 2))]
        )
        interp = extract_model(s)
        assert interp.concept_table[("A", "a")] == DegreePair(F(4, 5), F(1, 4))

    @pytest.mark.parametrize(
        "bounds, falsity",
        [
            ([(Rel.GT, F(1, 4)), (Rel.LT, F(3, 4))], F(1, 2)),
            ([(Rel.GE, F(1, 4)), (Rel.LT, F(1, 2))], F(3, 8)),
            ([(Rel.GT, F(1, 4)), (Rel.LE, F(3, 4))], F(3, 4)),
            ([(Rel.GT, F(1, 4))], F(1)),
            ([(Rel.LT, F(1, 2))], F(1, 4)),
        ],
    )
    def test_falsity_sits_on_the_strongest_upper_bound(self, bounds, falsity):
        constraints = [Constraint(ca(A), None, Bound(rel, v)) for rel, v in bounds]
        interp = extract_model(ConstraintSet.from_constraints(constraints))
        assert interp.concept_table[("A", "a")] == DegreePair(F(0), falsity)
        assert all(satisfies(interp, c) for c in constraints)

    @pytest.mark.parametrize(
        "bounds, truth",
        [
            ([(Rel.GT, F(1, 4)), (Rel.LT, F(3, 4))], F(1, 2)),
            ([(Rel.GT, F(1, 4)), (Rel.LE, F(1, 2))], F(3, 8)),
            ([(Rel.GE, F(1, 4)), (Rel.LT, F(3, 4))], F(1, 4)),
            ([(Rel.LT, F(1, 2))], F(0)),
            ([(Rel.GT, F(1, 2))], F(3, 4)),
        ],
    )
    def test_truth_sits_on_the_strongest_lower_bound(self, bounds, truth):
        constraints = [Constraint(ca(A), Bound(rel, v), None) for rel, v in bounds]
        interp = extract_model(ConstraintSet.from_constraints(constraints))
        assert interp.concept_table[("A", "a")] == DegreePair(truth, F(1))
        assert all(satisfies(interp, c) for c in constraints)

    def test_empty_completion_defaults(self):
        interp = extract_model(ConstraintSet.from_constraints([]))
        assert interp.concept_table == {} and interp.role_table == {}
        assert interp.concept_value("A", interp.domain[0]) == DegreePair(F(0), F(1))

    def test_extraction_matches_checked_picks(self):
        """Each table entry is the checked pair of its bucket's picks.

        ``extract_model`` takes its pairs from a cache shared across
        calls; the reference here builds every one afresh.  Each KB also runs
        with its bounds made strict, so that picks move to midpoints.
        """
        strict = {Rel.GE: Rel.GT, Rel.LE: Rel.LT}
        checked = {"drawn": 0, "strict": 0}
        for seed in range(300):
            drawn = rand_assertional_kb(random.Random(seed)).assertions
            variants = {"drawn": drawn, "strict": [
                Constraint(c.assertion, Bound(strict[c.tbound.rel], c.tbound.value),
                           Bound(strict[c.fbound.rel], c.fbound.value))
                for c in drawn
            ]}
            for name, constraints in variants.items():
                result = complete(list(constraints))
                if result.status is Status.SATISFIABLE:
                    self._assert_checked_picks(result.witness, (seed, name))
                    checked[name] += 1
        assert checked["drawn"] > 200 and checked["strict"] > 50, checked

    @staticmethod
    def _assert_checked_picks(s, case):
        element = variable_assignment(s)
        element.update((o, o.name) for o in s.objects() if isinstance(o, Individual))
        concepts, roles = {}, {}
        for x, bucket in s.by_assertion.items():
            pair = DegreePair(_pick([c.tbound for c in bucket], low=True),
                              _pick([c.fbound for c in bucket], low=False))
            if isinstance(x, RoleAssertion):
                roles[(x.role, element[x.subject], element[x.target])] = pair
            elif isinstance(x.concept, Atomic):
                concepts[(x.concept.name, element[x.subject])] = pair
        interp = extract_model(s)
        assert (interp.concept_table, interp.role_table) == (concepts, roles), case
        for pair in (*concepts.values(), *roles.values()):
            assert 0 <= pair.n <= 1 and 0 <= pair.m <= 1, (case, pair)

    def test_extraction_satisfies_random_completions(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(150):
            kb = rand_assertional_kb(rng)
            result = complete(list(kb.assertions))
            if result.status is not Status.SATISFIABLE:
                continue
            checked += 1
            interp = extract_model(result.witness)
            assignment = variable_assignment(result.witness)
            for c in result.witness.constraints:
                assert satisfies(interp, c, assignment), (c, interp)
        assert checked > 50

    def test_buckets_with_the_same_bounds_share_one_entry_across_models(self):
        kb = parse_kb("assert A(a) >= 0.5 <= 0.25\n"
                      "assert B(b) >= 0.5 <= 0.25\n"
                      "assert (or A C)(c) >= 0.25 <= 0.5\n")
        witness = check_satisfiable(kb).witness
        table = extract_model(witness).concept_table
        assert table[("A", "a")] == DegreePair(F(1, 2), F(1, 4))
        assert table[("A", "a")] is table[("B", "b")]
        assert extract_model(witness.copy()).concept_table[("A", "a")] is table[("A", "a")]


# --- rule-level properties ---------------------------------------------

def _rule_cases():
    """Premise sets that trigger each decomposition/propagation shape."""
    role = RoleAssertion("R", a, b)
    lo = Constraint.geq_leq(role, F(1, 2), F(1, 4))  # triggering role bounds
    weak = Constraint.geq_leq(role, F(1, 4), F(1, 2))  # non-triggering bounds
    return [
        ("not >=<=", [Constraint.geq_leq(ca(Not(A)), F(1, 2), F(1, 4))]),
        ("not ><", [Constraint.gt_lt(ca(Not(A)), F(1, 2), F(1, 4))]),
        ("not <=>=", [Constraint.leq_geq(ca(Not(A)), F(1, 2), F(1, 4))]),
        ("not <>", [Constraint.lt_gt(ca(Not(A)), F(1, 2), F(1, 4))]),
        ("and >=<= det", [Constraint.geq_leq(ca(And(A, B)), F(1, 2), F(1, 4))]),
        ("and >< det", [Constraint.gt_lt(ca(And(A, B)), F(1, 2), F(1, 4))]),
        ("and <=>= branch", [Constraint.leq_geq(ca(And(A, B)), F(1, 2), F(1, 4))]),
        ("and <> branch", [Constraint.lt_gt(ca(And(A, B)), F(1, 2), F(1, 4))]),
        ("or <=>= det", [Constraint.leq_geq(ca(Or(A, B)), F(1, 2), F(1, 4))]),
        ("or <> det", [Constraint.lt_gt(ca(Or(A, B)), F(1, 2), F(1, 4))]),
        ("or >=<= branch", [Constraint.geq_leq(ca(Or(A, B)), F(1, 2), F(1, 4))]),
        ("or >< branch", [Constraint.gt_lt(ca(Or(A, B)), F(1, 2), F(1, 4))]),
        ("all >=<= prop", [Constraint.geq_leq(ca(Forall("R", C)), F(1, 2), F(1, 4)), lo]),
        ("all >< prop", [Constraint.gt_lt(ca(Forall("R", C)), F(1, 2), F(1, 4)), lo]),
        ("some <=>= prop", [Constraint.leq_geq(ca(Exists("R", C)), F(1, 4), F(1, 2)), lo]),
        ("some <> prop", [Constraint.lt_gt(ca(Exists("R", C)), F(1, 2), F(1, 4)), lo]),
        ("some >=<= gen", [Constraint.geq_leq(ca(Exists("R", C)), F(1, 2), F(1, 4))]),
        ("some >< gen", [Constraint.gt_lt(ca(Exists("R", C)), F(1, 2), F(1, 4))]),
        ("all <=>= gen", [Constraint.leq_geq(ca(Forall("R", C)), F(1, 2), F(1, 4))]),
        ("all <> gen", [Constraint.lt_gt(ca(Forall("R", C)), F(1, 2), F(1, 4))]),
        ("some <=>= edge choice", [Constraint.leq_geq(ca(Exists("R", C)), F(1, 4), F(1, 2)), weak]),
        ("all >=<= edge choice", [Constraint.geq_leq(ca(Forall("R", C)), F(1, 2), F(1, 4)), weak]),
    ]


@pytest.mark.parametrize("name, premises", _rule_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_local_soundness_by_sampling(name, premises):
    """Premise-satisfying interpretations satisfy some branch entirely."""
    root = ConstraintSet.from_constraints(premises)
    branches = apply_rules(root)
    assert branches is not None, f"rule {name} did not fire"
    rng = random.Random(stable_seed(name))
    hits = 0
    for _ in range(2500):
        if hits >= 200:
            break
        interp = rand_interpretation(
            rng, rng.randint(2, 3), individuals=["a", "b"]
        )
        if not satisfies_all(interp, premises):
            continue
        hits += 1
        assert any(
            satisfies_all(interp, branch.constraints) for branch in branches
        ), (name, interp.concept_table, interp.role_table)
    assert hits >= 5, f"sampling produced too few premise models for {name}"


def test_rule_conclusions_follow_the_poll_derivation():
    kb = expand(parse_kb(POLL_KB))
    s = ConstraintSet.from_constraints(list(kb.assertions))
    branches = apply_rules(s)
    shared = branches[0]
    added = shared.constraints[len(s.constraints):]
    assert (
        Constraint.geq_leq(RoleAssertion("Support", Individual("p1"), added[0].assertion.target),
                           F(3, 5), F(1, 2))
        in added
    )


def test_completion_matches_enumeration_on_random_kbs():
    rng = random.Random(41)
    for _ in range(120):
        kb = rand_assertional_kb(rng)
        constraints = list(kb.assertions)
        result = complete(constraints)
        model = exists_model(
            constraints, default_domain_size(constraints), QUARTER_GRID
        )
        assert (result.status is Status.SATISFIABLE) == (model is not None), constraints


# --- incremental saturation ----------------------------------------------

def test_agenda_leaves_no_deterministic_rule_unfired():
    """At a clash-free completion an in-order pass over every constraint fires nothing."""
    rng = random.Random(stable_seed("agenda completeness"))
    checked = 0
    for _ in range(300):
        kb = rand_assertional_kb(rng)
        result = complete(list(kb.assertions))
        if result.status is not Status.SATISFIABLE:
            continue
        checked += 1
        s = result.witness.copy()
        engine = _Engine(DEFAULT_MAX_STEPS)
        for c in list(s.constraints):
            assert not engine.fire(s, c), (str(c), result.trace)
    assert checked > 100


def test_agenda_fires_what_a_full_rescan_fires():
    """Each deterministic step is the first firing of an in-order pass."""
    rng = random.Random(stable_seed("agenda order"))
    engine = _Engine(DEFAULT_MAX_STEPS)
    fired = 0
    for _ in range(300):
        kb = rand_assertional_kb(rng)
        s = ConstraintSet.from_constraints(list(kb.assertions))
        for step in range(60):
            if s.clash is not None:
                break
            rescan = s.copy()
            first = next((c for c in list(rescan.constraints) if engine.fire(rescan, c)), None)
            children = apply_rules(s)
            if first is not None:
                fired += 1
                assert len(children) == 1
                assert children[0].trace_lines() == rescan.trace_lines()
            elif children is None:
                break
            s = children[step % len(children)]
    assert fired > 150


def _first_hit(check, s: ConstraintSet):
    """The first hit of a per-constraint check in an in-order pass."""
    return next((found for c in list(s.constraints) if (found := check(s, c)) is not None), None)


def test_choices_and_witnesses_are_what_a_full_rescan_finds():
    """At each deterministic fixpoint the branching candidate, and else the
    generating one, is the first hit of an in-order pass."""
    rng = random.Random(stable_seed("choice order"))
    engine = _Engine(DEFAULT_MAX_STEPS)
    chosen = generated = 0
    for _ in range(300):
        kb = rand_assertional_kb(rng)
        s = ConstraintSet.from_constraints(list(kb.assertions))
        for step in range(60):
            if s.clash is not None:
                break
            if not engine.apply_deterministic(s.copy()):
                found = engine.find_branches(s.copy())
                assert found == _first_hit(engine.choice, s.copy())
                if found is not None:
                    chosen += 1
                else:
                    found = engine.find_generation(s.copy())
                    assert found == _first_hit(engine.demand, s.copy())
                    generated += found is not None
            children = apply_rules(s)
            if children is None:
                break
            s = children[step % len(children)]
    assert chosen > 80 and generated > 60


def test_a_chain_decides_each_link_a_bounded_number_of_times(monkeypatch):
    """Successor-wide bounds are not re-examined at every choice."""
    n = 160
    kb = parse_kb("".join(
        f"assert R(a{i}, a{i + 1}) >= 1 <= 0\n"
        f"assert (all R (and A (some S B)))(a{i}) >= 0.5 <= 0.5\n"
        for i in range(n)
    ))
    calls = []
    actions = _Engine._universal_actions
    monkeypatch.setattr(_Engine, "_universal_actions",
                        lambda self, s, c: calls.append(c) or actions(self, s, c))
    result = check_satisfiable(kb)
    assert result.status is Status.SATISFIABLE
    assert result.branch_count == n + 1
    assert len(calls) <= 4 * n


def test_a_chain_asks_each_link_for_a_witness_at_most_twice(monkeypatch):
    """A witness demand leaves its heap when the search takes one of its
    branches, since each branch meets it: no later pass asks again."""
    n = 160
    kb = parse_kb("".join(
        f"assert R(a{i}, a{i + 1}) >= 1 <= 0\n"
        f"assert (all R (and A (some S B)))(a{i}) >= 0.5 <= 0.5\n"
        for i in range(n)
    ))
    calls = []
    demand = _Engine.demand
    monkeypatch.setattr(_Engine, "demand",
                        lambda self, s, c: calls.append(c) or demand(self, s, c))
    result = check_satisfiable(kb)
    assert result.status is Status.SATISFIABLE
    assert result.branch_count == n + 1
    assert len(calls) <= 2 * n


def _fan_out(n: int):
    """One universal over n successors whose edges each force its filler."""
    return parse_kb("assert (all R A)(a) >= 0.5 <= 0.5\n" + "".join(
        f"assert R(a, b{i}) >= 1 <= 0\n" for i in range(n)))


def test_a_fan_out_is_decided_in_linear_work(monkeypatch):
    """A universal forced at each of n successors fires one per step, and
    each firing resumes past the successors already settled, so the
    bound lookups grow linearly with n."""
    calls = []
    first_bound = ConstraintSet.first_bound
    monkeypatch.setattr(ConstraintSet, "first_bound",
                        lambda self, *args: calls.append(None) or first_bound(self, *args))
    counts = []
    for n in (100, 400):
        calls.clear()
        result = check_satisfiable(_fan_out(n))
        assert result.status is Status.SATISFIABLE
        assert result.branch_count == 1
        counts.append(len(calls))
    assert counts[1] <= 4.5 * counts[0]


def test_a_fan_out_fires_its_successors_in_order():
    assert check_satisfiable(_fan_out(3)).trace == [
        "(1) (all R A)(a) >= 0.5 <= 0.5   [hypothesis]",
        "(2) R(a,b0) >= 1 <= 0   [hypothesis]",
        "(3) R(a,b1) >= 1 <= 0   [hypothesis]",
        "(4) R(a,b2) >= 1 <= 0   [hypothesis]",
        "(5) A(b0) >= 0.5 <= 0.5   (all>=<=) : (1), (2)",
        "(6) A(b1) >= 0.5 <= 0.5   (all>=<=) : (1), (3)",
        "(7) A(b2) >= 0.5 <= 0.5   (all>=<=) : (1), (4)",
    ]


def test_a_half_resumes_only_past_settled_successors():
    """Along random search paths, every successor that a successor-wide
    half's scan skips has a side that already meets the half's bound."""
    rng = random.Random(stable_seed("settled successors"))
    engine = _Engine(DEFAULT_MAX_STEPS)
    skipped = 0
    for _ in range(300):
        kb = rand_assertional_kb(rng, size=8)
        s = ConstraintSet.from_constraints(list(kb.assertions))
        for _ in range(60):
            engine.saturate(s)
            for (c, ch), front in s.settled.items():
                a = c.assertion
                targets = s.successors[(a.subject, a.concept.role)]
                assert front <= len(targets)
                half = next(h for h in _halves(c, every=True) if h[1] == ch)
                bound, _, role_ch = half
                for target in targets[:front]:
                    skipped += 1
                    assert (s.first_bound(ConceptAssertion(a.concept.filler, target), ch,
                                          bound_implies, bound)
                            or s.first_bound(RoleAssertion(a.concept.role, a.subject, target),
                                             role_ch, bound_implies, bound))
            children = apply_rules(s)
            if children is None:
                break
            s = rng.choice(children)
    assert skipped > 300


def test_where_the_agenda_fires_nothing_no_rule_fires():
    """The agenda misses no deterministic rule at any state a search can
    reach, completed or not, so a choice made there finds every
    per-successor decision open, none forced.  Eight statements give a
    quantifier successors that other rules give bounds after it ran."""
    rng = random.Random(stable_seed("deterministic fixpoint"))
    engine = _Engine(DEFAULT_MAX_STEPS)
    fixpoints = 0
    for _ in range(400):
        kb = rand_assertional_kb(rng, size=8)
        s = ConstraintSet.from_constraints(list(kb.assertions))
        for _ in range(60):
            if not engine.apply_deterministic(s.copy()):
                fixpoints += 1
                # A rule that does not fire leaves the set as it was.
                idle = s.copy()
                for c in list(idle.constraints):
                    assert not engine.fire(idle, c), (str(c), s.trace_lines())
            children = apply_rules(s)
            if children is None:
                break
            s = rng.choice(children)
    assert fixpoints > 1000


_PER_SUCCESSOR_EDGES = (
    "assert R(a,b) >= 1 <= 0\nassert R(a,c) >= 0.5 <= 0.5\nassert R(a,d) >= 0.5 <= 0.5\n"
)


@pytest.mark.parametrize("text, steps", [
    # b's edge refutes the role side, d's filler the filler side: both
    # are forced, in successor order; c is open in each half.
    ("assert (all R A)(a) >= 0.5 <= 0.5\n" + _PER_SUCCESSOR_EDGES
     + "assert A(d) <= 0.25 >= 0.75\n", [
         "(6) A(b) >= 0.5 <= 0.5   (all>=<=) : (1), (2)",
         "(7) R(a,d) f>= 0.5, R(a,d) t<= 0.5   (all>=<=) : (1), (5)",
         "(8) R(a,c) f>= 0.5   (all t>= ?) : (1)",
         "(9) R(a,c) t<= 0.5   (all f<= ?) : (1)",
     ]),
    ("assert (some R A)(a) <= 0.5 >= 0.5\n" + _PER_SUCCESSOR_EDGES
     + "assert A(d) >= 0.75 <= 0.25\n", [
         "(6) A(b) <= 0.5 >= 0.5   (some<=>=) : (1), (2)",
         "(7) R(a,d) t<= 0.5, R(a,d) f>= 0.5   (some<=>=) : (1), (5)",
         "(8) R(a,c) t<= 0.5   (some t<= ?) : (1)",
         "(9) R(a,c) f>= 0.5   (some f>= ?) : (1)",
     ]),
    # Each edge refutes the role side of one half only: the truth half
    # is forced at c before the falsity half at b, and each forced
    # successor leaves the other half open there.
    ("assert (all R A)(a) >= 0.5 <= 0.5\nassert R(a,b) >= 0.75 <= 0.5\n"
     "assert R(a,c) >= 0 <= 0\n", [
         "(4) A(c) t>= 0.5   (all t>=) : (1), (3)",
         "(5) A(b) f<= 0.5   (all f<=) : (1), (2)",
         "(6) R(a,b) f>= 0.5   (all t>= ?) : (1)",
         "(7) R(a,c) t<= 0.5   (all f<= ?) : (1)",
     ]),
])
def test_a_successor_wide_bound_fires_forced_sides_and_then_branches(text, steps):
    """Forced sides fire one successor per step, halves major, the filler
    halves of a successor as one constraint; the open decisions then
    branch one half at a time."""
    result = check_satisfiable(parse_kb(text))
    assert result.status is Status.SATISFIABLE
    assert result.branch_count == 3
    assert result.trace[text.count("\n"):] == steps


def test_a_step_that_lists_a_constraint_twice_holds_it_once():
    """``(and A A)`` lists its part twice in one step; the branch holds it
    once, as a set built from hypotheses does, so ``step_of`` keys the
    constraints one for one."""
    kb = parse_kb("assert (and A A)(a) >= 1 <= 0.5\nassert (or B C)(a) >= 1 <= 0\n")
    base = ConstraintSet.from_constraints(list(kb.assertions))
    before = _state(base)
    result = complete([], base=base)
    assert _state(base) == before
    assert result.trace[2:4] == [
        "(3) A(a) >= 1 <= 0.5, A(a) >= 1 <= 0.5   (and>=<=) : (1)",
        "(4) B(a) >= 1 <= 0   (or>=<=) : (2)",
    ]
    s = result.witness
    assert s.constraints == list(s.step_of)
    assert s.by_assertion[ca(A)] == (Constraint.geq_leq(ca(A), 1, F(1, 2)),)


def test_branch_copies_leave_the_parent_unchanged():
    premises = [
        Constraint.geq_leq(ca(Forall("R", C)), F(1, 2), F(1, 4)),
        Constraint.geq_leq(RoleAssertion("R", a, b), F(1, 4), F(1, 2)),
    ]
    parent = ConstraintSet.from_constraints(premises)
    constraints = list(parent.constraints)
    buckets = {k: tuple(v) for k, v in parent.by_assertion.items()}
    steps = list(parent.steps)
    children = apply_rules(parent)
    assert len(children) == 2
    c = Individual("c")
    for child in children:
        child.add(
            [Constraint.geq_leq(RoleAssertion("R", a, c), 1, 0),
             Constraint.geq_leq(ca(C, b), 1, 0)],
            "hypothesis", [],
        )
        assert child.successors[(a, "R")] == (b, c)
    assert parent.constraints == constraints
    assert parent.steps == steps
    assert {k: tuple(v) for k, v in parent.by_assertion.items()} == buckets
    assert parent.successors == {(a, "R"): (b,)}
    assert ca(C, b) not in parent.by_assertion


def test_a_completion_pickles_and_its_witness_serves_as_a_base():
    kb = parse_kb("assert (or A B)(a) >= 1 <= 0\nassert A(a) <= 0.5 >= 0.5\n")
    result = complete(list(kb.assertions))
    copy = pickle.loads(pickle.dumps(result))
    assert copy.trace == result.trace
    assert copy.witness.constraints == result.witness.constraints
    extra = [Constraint.geq_leq(ca(C), 1, 0)]
    assert complete(extra, base=copy.witness).trace == complete(extra, base=result.witness).trace


def test_only_the_first_clash_is_kept():
    kb = parse_kb(
        "assert (or A B)(a) >= 1 <= 0\n"
        "assert A(a) <= 0.5 >= 0.5\n"
        "assert B(a) <= 0.5 >= 0.5\n"
    )
    result = complete(list(kb.assertions))
    assert result.status is Status.UNSATISFIABLE
    assert result.branch_count == 5
    assert len(result.clashes) == 1
    assert result.trace == result.clashes[0][0].trace_lines() == [
        "(1) (or A B)(a) >= 1 <= 0   [hypothesis]",
        "(2) A(a) <= 0.5 >= 0.5   [hypothesis]",
        "(3) B(a) <= 0.5 >= 0.5   [hypothesis]",
        "(4) A(a) >= 1 <= 0   (or>=<=) : (1)",
        "clash : (2), (4) : conjugated pair on A(a)",
    ]


def _state(s: ConstraintSet):
    return (list(s.constraints), list(s.step_of.items()), list(s.steps), sorted(s.agenda),
            sorted(s.splits), sorted(s.gens), list(s.by_assertion.items()),
            list(s.successors.items()), list(s.watchers.items()),
            s.fresh_counter, s.clash, s.trail)


def test_a_run_from_a_base_set_is_the_run_from_its_hypotheses():
    rng = random.Random(stable_seed("complete-from-base"))
    for _ in range(200):
        hypotheses = list(rand_assertional_kb(rng).assertions)
        extra = list(rand_assertional_kb(rng, size=rng.randint(0, 2)).assertions)
        base = ConstraintSet.from_constraints(hypotheses)
        before = _state(base)
        shared = complete(extra, base=base)
        whole = complete(hypotheses + extra)
        assert _state(base) == before
        assert shared.status is whole.status
        assert shared.branch_count == whole.branch_count
        assert shared.trace == whole.trace
        if whole.witness is not None:
            assert extract_model(shared.witness) == extract_model(whole.witness)


def test_a_run_leaves_the_settled_marks_of_its_base_as_built():
    """A run moves the settled marks of its base's successor-wide halves
    as its successors settle, and its undo puts them back."""
    rng = random.Random(stable_seed("settled marks of a base"))
    marked = 0
    for _ in range(300):
        base = ConstraintSet.from_constraints(list(rand_assertional_kb(rng, size=8).assertions))
        _Engine(DEFAULT_MAX_STEPS).saturate(base)
        before = list(base.settled.items())
        marked += bool(before)
        extra = list(rand_assertional_kb(rng, size=2).assertions)
        shared = complete(extra, base=base)
        assert list(base.settled.items()) == before
        whole = complete(list(base.constraints) + extra)
        assert shared.status is whole.status
    assert marked > 15


@pytest.fixture(params=["narrow", "wide"])
def base_padding(request):
    """Facts put in each base next to its hypotheses: none, or 300 on
    individuals of their own, so a run's undo also has to leave a base
    of hundreds of constraints as it was built."""
    if request.param == "narrow":
        return []
    return [Constraint(ca(A, Individual(f"w{i}")), Bound(Rel.GE, F(1, 2)), Bound(Rel.LE, F(1, 4)))
            for i in range(300)]


@pytest.mark.parametrize("ceiling", [{"max_branches": 2}, {"max_steps": 1}])
def test_a_failed_run_leaves_its_base_as_built(base_padding, ceiling):
    """A run that hits a ceiling undoes what it added to its base, and
    the next run from that base is the run from its hypotheses."""
    def prepared(hypotheses):
        base = ConstraintSet.from_constraints(base_padding + hypotheses)
        _Engine(DEFAULT_MAX_STEPS).saturate(base)
        return base

    rng = random.Random(stable_seed("failed-run-restores"))
    failed = 0
    for _ in range(200):
        hypotheses = list(rand_assertional_kb(rng).assertions)
        extra = list(rand_assertional_kb(rng, size=rng.randint(1, 2)).assertions)
        base = prepared(hypotheses)
        before = _state(base)
        try:
            complete(extra, base=base, **ceiling)
        except ResourceExhausted:
            failed += 1
        assert _state(base) == before
        again = complete(extra, base=base)
        fresh = complete(extra, base=prepared(hypotheses))
        assert again.status is fresh.status
        assert again.branch_count == fresh.branch_count
        assert again.trace == fresh.trace
    assert failed > 20


def test_a_paired_witness_demand_offers_a_shared_and_a_split_witness():
    s = ConstraintSet.from_constraints([Constraint.geq_leq(ca(Exists("R", A)), F(1, 2), F(1, 2))])
    children = apply_rules(s)
    assert [child.fresh_counter for child in children] == [1, 2]
    assert [child.trace_lines()[1:] for child in children] == [
        ["(2) R(a,x1) >= 0.5 <= 0.5, A(x1) >= 0.5 <= 0.5   (some>=<=) : (1)"],
        ["(2) R(a,x1) t>= 0.5, A(x1) t>= 0.5, R(a,x2) f<= 0.5, A(x2) f<= 0.5"
         "   (some>=<=) split : (1)"],
    ]
    assert s.fresh_counter == 0 and len(s.steps) == 1


def test_the_search_takes_the_split_witness_when_the_shared_one_clashes():
    result = check_satisfiable(parse_kb("assert (some S bot)(b) >= 0.5 <= 0.25"))
    assert result.status is Status.UNSATISFIABLE
    # The start, the shared witness, whose clash the trace shows, and the split.
    assert result.branch_count == 3
    assert result.trace[1:] == [
        "(2) S(b,x1) >= 0.5 <= 0.25, bot(x1) >= 0.5 <= 0.25   (some>=<=) : (1)",
        "clash : (2) : bottom concept has t-value 0, violating >= 0.5",
    ]


# Each half of a quantifier reads its role in the channel ``takes_min``
# gives it: the steps below pin those role channels on both quantifiers,
# both channels and both bound directions, with a named successor that
# witnesses one half or both.
@pytest.mark.parametrize("statements, branches, steps", [
    (["(all R A)(a) <= 0.5 >= 0.5"], 2,
     ["(2) R(a,x1) >= 0.5 <= 0.5, A(x1) <= 0.5 >= 0.5   (all<=>=) : (1)"]),
    (["(all R A)(a) <= 0.5 >= 0"], 2,
     ["(2) R(a,x1) f<= 0.5, A(x1) t<= 0.5   (all t<=) : (1)"]),
    (["(some R A)(a) >= 0.5 <= 1"], 2,
     ["(2) R(a,x1) t>= 0.5, A(x1) t>= 0.5   (some t>=) : (1)"]),
    # b witnesses the truth half only.
    (["(some R A)(a) >= 0.5 <= 0.5", "R(a,b) >= 0.75 <= 1", "A(b) >= 0.5 <= 1"], 2,
     ["(4) R(a,x1) f<= 0.5, A(x1) f<= 0.5   (some f<=) : (1)"]),
    # b witnesses both halves.
    (["(all R A)(a) <= 0.5 >= 0.5", "R(a,b) >= 0.75 <= 0.25", "A(b) <= 0.25 >= 0.75"], 1, []),
])
def test_a_witness_reads_each_half_s_role_in_its_own_channel(statements, branches, steps):
    result = check_satisfiable(parse_kb("".join(f"assert {s}\n" for s in statements)))
    assert result.status is Status.SATISFIABLE
    assert result.branch_count == branches
    assert result.trace[len(statements):] == steps


def test_a_split_universal_witness_reads_each_half_s_role_in_its_own_channel():
    s = ConstraintSet.from_constraints(
        list(parse_kb("assert (all R A)(a) <= 0.5 >= 0.5\n").assertions))
    assert apply_rules(s)[1].trace_lines()[1:] == [
        "(2) R(a,x1) f<= 0.5, A(x1) t<= 0.5, R(a,x2) t>= 0.5, A(x2) f>= 0.5"
        "   (all<=>=) split : (1)",
    ]


_TRIPLE_NOT = "assert (not (not (not A)))(a) >= 0.5 <= 0.25\n"


def test_the_step_ceiling_counts_the_rule_firings_that_record_a_step():
    """Three negations take three steps: a ceiling of 3 lets the run
    complete, a ceiling of 2 stops it at the third firing."""
    hypotheses = list(parse_kb(_TRIPLE_NOT).assertions)
    result = complete(hypotheses, max_steps=3)
    assert result.status is Status.SATISFIABLE
    assert result.branch_count == 1
    with pytest.raises(ResourceExhausted, match=r"^step ceiling 2 exceeded$"):
        complete(hypotheses, max_steps=2)


def test_an_idle_firing_counts_no_step():
    """A rule whose conclusion is already in the set fires idle: it
    reports False and takes nothing off the step budget."""
    s = ConstraintSet.from_constraints(list(parse_kb(_TRIPLE_NOT).assertions))
    engine = _Engine(1)
    assert engine.fire(s, s.constraints[0]) is True
    assert engine.fire(s, s.constraints[0]) is False
    assert engine.steps_done == 1
    with pytest.raises(ResourceExhausted, match=r"^step ceiling 1 exceeded$"):
        engine.fire(s, s.constraints[1])


@pytest.mark.parametrize("statements, step", [
    # Both edges refute the role side; the first in bucket order is the premise.
    (["(all R A)(a) >= 0.5 <= 0.5", "R(a,b) >= 1 <= 0", "R(a,b) >= 0.75 <= 0.25"],
     "(4) A(b) >= 0.5 <= 0.5   (all>=<=) : (1), (2)"),
    (["(all R A)(a) >= 0.5 <= 0.5", "R(a,b) >= 0.75 <= 0.25", "R(a,b) >= 1 <= 0"],
     "(4) A(b) >= 0.5 <= 0.5   (all>=<=) : (1), (2)"),
    # Both fillers refute the filler side.
    (["(all R A)(a) >= 0.5 <= 0.5", "R(a,b) >= 0.5 <= 0.5", "A(b) <= 0.25 >= 0.75",
      "A(b) <= 0 >= 1"],
     "(5) R(a,b) f>= 0.5, R(a,b) t<= 0.5   (all>=<=) : (1), (3)"),
])
def test_a_forced_side_cites_the_first_refuter_of_the_other_side(statements, step):
    result = check_satisfiable(parse_kb("".join(f"assert {s}\n" for s in statements)))
    assert result.status is Status.SATISFIABLE
    assert result.branch_count == 1
    assert result.trace[len(statements)] == step
