"""Every question is decided one bound at a time.

A paired query holds iff each of its non-vacuous halves does, so
refuting both halves at once (``Constraint.negated``) is no decision:
it calls a query entailed whenever every model violates one half or the
other.  These tests pin the per-half answers against the enumerator and
against confirmed countermodels, and pin what deciding that way must not
move: the subsumption answers of a full per-half grid, and the KB's
satisfiability run from its saturated prepared set.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import nalc.reasoner
from nalc import (
    And,
    Atomic,
    AxiomKind,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreeGrid,
    Individual,
    KnowledgeBase,
    Or,
    Rel,
    ResourceExhausted,
    Status,
    TerminologicalAxiom,
    check_satisfiable,
    complete,
    entails,
    exists_model,
    expand,
    extract_model,
    oracle_entails,
    parse_kb,
    parse_query,
    satisfies,
    subsumes,
)
from nalc.cli import run
from nalc.constraints import vacuous
from nalc.kb import resolved_definitions, unfold_assertion
from nalc.semantics import default_domain_size
from nalc.tableau import _unsatisfiable
from genutil import QUARTERS, rand_assertional_kb, rand_concept, rand_kb_constraint, rand_query

F = Fraction
POLLS = str(Path(__file__).parent / "data" / "polls.nalc")
PROBE = Individual("_probe")


def _half_refutations(query):
    """One single-bound complement per non-vacuous half of the query."""
    t, f = query.tbound, query.fbound
    out = []
    if not vacuous(t):
        out.append(Constraint(query.assertion, Bound(t.rel.complement, t.value), None))
    if not vacuous(f):
        out.append(Constraint(query.assertion, None, Bound(f.rel.complement, f.value)))
    return out


class TestPairedRefutationIsNoDecision:
    def test_the_poll_reproducer_is_refuted(self):
        kb = parse_kb(Path(POLLS).read_text(encoding="utf-8"))
        query = parse_query("assert (some Support War)(p1) <= 0 >= 0")
        # The KB forces truth >= 0.6, so the truth half "<= 0" fails...
        assert not entails(kb, query)
        # ...though no model violates both halves at once.
        assert complete(list(expand(kb).assertions) + [query.negated()]).status \
            is Status.UNSATISFIABLE

    def test_a_half_at_an_extreme_is_not_entailed_by_every_kb(self):
        kb = parse_kb("assert A(a) >= 1 <= 1")
        assert not entails(kb, parse_query("assert A(a) >= 1 <= 0"))
        assert entails(kb, parse_query("assert A(a) >= 1 <= 1"))

    def test_the_cli_exits_one_and_the_oracle_agrees(self, capsys):
        code = run(["entails", POLLS, "--query",
                    "assert (some Support War)(p1) <= 0 >= 0", "--oracle"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines() == [
            "assert (some Support War)(p1) <= 0 >= 0: false",
            "oracle agreement: true",
        ]

    def test_a_refuted_query_returns_the_refuting_halfs_countermodel(self):
        kb = parse_kb("assert A(a) >= 1 <= 1")
        query = parse_query("assert A(a) >= 1 <= 0")
        answer, result = entails(kb, query, with_result=True)
        assert not answer and result.status is Status.SATISFIABLE
        model = extract_model(result.witness)
        assert all(satisfies(model, c) for c in kb.assertions)
        assert not satisfies(model, query)

    def test_answers_match_the_enumerator_on_a_random_corpus(self):
        rng = random.Random(31337)
        small = dict(atoms=["A", "B"], roles=["R"], individuals=["a", "b"])
        entailed = refuted = paired_clash_refuted = 0
        for _ in range(150):
            kb = rand_assertional_kb(rng, size=rng.randint(1, 3), depth=1, **small)
            query = rand_query(rng, depth=1, **small)
            answer, result = entails(kb, query, with_result=True)
            assert answer == oracle_entails(kb.assertions, query), (kb, query)
            if answer:
                entailed += 1
                continue
            refuted += 1
            model = extract_model(result.witness)
            assert all(satisfies(model, c) for c in kb.assertions), (kb, query)
            assert not satisfies(model, query), (kb, query)
            paired = complete(list(kb.assertions) + [query.negated()])
            paired_clash_refuted += paired.status is Status.UNSATISFIABLE
        assert entailed >= 20 and refuted >= 20
        # The corpus holds the class a paired refutation gets wrong.
        assert paired_clash_refuted >= 10

    def test_a_one_half_querys_derivation_is_that_halfs_run(self):
        kb = parse_kb("assert A(a) >= 0.75 <= 0.25")
        answer, result = entails(kb, parse_query("assert A(a) >= 0.5 <= 1"), with_result=True)
        assert answer
        assert result.trace == [
            "(1) A(a) >= 0.75 <= 0.25   [hypothesis]",
            "(2) A(a) t< 0.5   [hypothesis]",
            "clash : (1), (2) : conjugated pair on A(a)",
        ]


def _reference_subsumes(sub, super_, grid):
    """Both halves of ``super_ >= n <= m`` from ``sub >= n <= m``, at
    every pair of the grid."""
    sub_a, super_a = ConceptAssertion(sub, PROBE), ConceptAssertion(super_, PROBE)
    for n in grid:
        for m in grid:
            premise = Constraint.geq_leq(sub_a, n, m)
            for refuted in _half_refutations(Constraint.geq_leq(super_a, n, m)):
                if complete([premise, refuted]).status is not Status.UNSATISFIABLE:
                    return False
    return True


def _unfolded(concept, resolved):
    return unfold_assertion(ConceptAssertion(concept, PROBE), resolved).concept


class TestSubsumptionScans:
    def _pairs(self, rng, count, atoms=("A", "B", "C")):
        for _ in range(count):
            sub, super_ = rand_concept(rng, 2, atoms), rand_concept(rng, 2, atoms)
            pick = rng.random()
            if pick < 0.25:
                super_ = Or(sub, super_)
            elif pick < 0.5:
                sub = And(super_, sub)
            yield sub, super_

    def _check(self, rng, grid, count):
        answers = set()
        for sub, super_ in self._pairs(rng, count):
            answer = subsumes((), sub, super_, grid=grid)
            assert answer == _reference_subsumes(sub, super_, grid), (sub, super_)
            answers.add(answer)
        assert answers == {True, False}

    def test_the_quarter_grid_matches_every_per_half_pair(self):
        self._check(random.Random(811), QUARTERS, 60)

    def test_a_grid_without_the_extremes_matches_every_per_half_pair(self):
        self._check(random.Random(812), (F(1, 4), F(3, 4)), 60)

    @pytest.mark.parametrize("seed, grid", [
        (814, (F(0), F(1, 2))),
        (815, (F(1, 2), F(1))),
        (816, (F(0),)),
        (817, (F(1),)),
        (818, (F(1, 5), F(2, 3), F(9, 10))),
    ])
    def test_more_grids_match_every_per_half_pair(self, seed, grid):
        self._check(random.Random(seed), grid, 40)

    @pytest.mark.parametrize("grid", [QUARTERS, (F(1, 4), F(3, 4)), (F(1),)])
    def test_a_terminology_matches_every_per_half_pair_of_the_unfolded_concepts(self, grid):
        rng = random.Random(819)
        answers = set()
        for _ in range(12):
            terminology = _terminology_kb(rng).terminology
            resolved = resolved_definitions(KnowledgeBase((), terminology))
            for sub, super_ in self._pairs(rng, 4, atoms=("A", "B", "D1", "D2")):
                answer = subsumes(terminology, sub, super_, grid=grid)
                expected = _reference_subsumes(_unfolded(sub, resolved),
                                               _unfolded(super_, resolved), grid)
                assert answer == expected, (terminology, sub, super_)
                answers.add(answer)
        assert answers == {True, False}

    def test_at_most_two_runs_per_grid_degree(self, monkeypatch):
        # One refutation per call, whether a run or a clash at once decides it.
        runs = []
        real = nalc.reasoner._unsatisfiable

        def counting(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(nalc.reasoner, "_unsatisfiable", counting)
        rng = random.Random(813)
        for grid in (QUARTERS, (F(1, 4), F(3, 4)), (F(1, 3),), (F(0),), (F(1),),
                     (F(1, 5), F(2, 3), F(9, 10))):
            for sub, super_ in self._pairs(rng, 20):
                runs.clear()
                subsumes((), sub, super_, grid=grid)
                assert len(runs) <= 2 * len(grid)
                assert len(runs) <= 2
        runs.clear()
        assert subsumes((), Atomic("A"), Or(Atomic("A"), Atomic("B")))
        assert len(runs) == 2  # truth at the greatest grid degree, falsity at the least

    def test_an_empty_grid_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="non-empty grid"):
            subsumes((), Atomic("A"), Atomic("A"), grid=())


class TestSubsumptionCut:
    """On the quarter grid a subsumption fails iff a two-valued model
    gives the subconcept truth 1 and the superconcept truth below 1, so
    one cut at 1 decides all the grid's thresholds on both channels.
    Checked by the enumerator alone, without the tableau."""

    def test_the_answer_is_a_two_valued_countermodel_search(self):
        rng = random.Random(4243)
        probe = Individual("o")
        answers = {True: 0, False: 0}
        for _ in range(300):
            sub, super_ = (rand_concept(rng, rng.randint(0, 3)) for _ in range(2))
            pick = rng.random()
            if pick < 0.25:
                super_ = Or(sub, super_)
            elif pick < 0.5:
                sub = And(super_, sub)
            refuted = [
                Constraint(ConceptAssertion(sub, probe), Bound(Rel.GE, F(1)), None),
                Constraint(ConceptAssertion(super_, probe), Bound(Rel.LT, F(1)), None),
            ]
            model = exists_model(refuted, default_domain_size(refuted), DegreeGrid((F(0), F(1))))
            answer = subsumes((), sub, super_)
            assert answer == (model is None), (sub, super_)
            answers[answer] += 1
        assert min(answers.values()) >= 50


def _terminology_kb(rng):
    """A random KB over atoms A, B, C and two defined names, one of them
    a specialization, built in dependency order."""
    terminology = (
        TerminologicalAxiom("D1", AxiomKind.DEFINITION, rand_concept(rng, 1)),
        TerminologicalAxiom("D2", AxiomKind.SPECIALIZATION,
                            rand_concept(rng, 1, atoms=["A", "B", "D1"])),
    )
    names = ["A", "B", "C", "D1", "D2"]
    statements = tuple(
        rand_kb_constraint(rng, depth=2, atoms=names, individuals=["a", "b"])
        for _ in range(rng.randint(2, 4))
    )
    return KnowledgeBase(statements, terminology)


class TestSaturatedPreparedSet:
    def test_check_is_the_run_over_the_expanded_assertions(self):
        rng = random.Random(821)
        statuses = set()
        for _ in range(120):
            kb = _terminology_kb(rng)
            checked = check_satisfiable(kb)
            whole = complete(list(expand(kb).assertions))
            assert checked.status is whole.status
            assert checked.branch_count == whole.branch_count
            assert checked.trace == whole.trace
            statuses.add(whole.status)
        assert statuses == {Status.SATISFIABLE, Status.UNSATISFIABLE}

    def test_entailment_is_each_halfs_run_over_the_expanded_assertions(self):
        rng = random.Random(822)
        answers = set()
        for _ in range(120):
            kb = _terminology_kb(rng)
            query = rand_query(rng, depth=1, atoms=["A", "B", "D1"], individuals=["a", "b"])
            unfolded = expand(KnowledgeBase((query,), kb.terminology)).assertions[0]
            hypotheses = list(expand(kb).assertions)
            expected = all(
                complete(hypotheses + [refuted]).status is Status.UNSATISFIABLE
                for refuted in _half_refutations(unfolded)
            )
            assert entails(kb, query) == expected, (kb, query)
            answers.add(expected)
        assert answers == {True, False}


class TestRefutationDecidedAtOnce:
    """A refutation that clashes with the prepared set as it is added is
    decided without a run; the answer is the run's."""

    def _cases(self, rng, count):
        for _ in range(count):
            kb = _terminology_kb(rng)
            (_, root, _), _ = nalc.reasoner._prepared(kb)
            query = rand_query(rng, depth=1, atoms=["A", "B", "D1"], individuals=["a", "b"])
            for refuted in _half_refutations(query):
                yield root, refuted

    def test_the_answer_is_the_runs(self):
        at_once = ran = 0
        for root, refuted in self._cases(random.Random(831), 150):
            expected = complete([refuted], base=root).status is Status.UNSATISFIABLE
            assert _unsatisfiable(refuted, root) == expected, (root, refuted)
            if root._clashes_with(refuted):
                assert expected
                at_once += 1
            else:
                ran += 1
        assert at_once and ran

    def test_the_branch_ceiling_still_holds(self):
        for root, refuted in self._cases(random.Random(832), 150):
            if root._clashes_with(refuted):
                with pytest.raises(ResourceExhausted):
                    complete([refuted], max_branches=0, base=root)
                with pytest.raises(ResourceExhausted):
                    _unsatisfiable(refuted, root, max_branches=0)
                return
        raise AssertionError("no refutation clashed at once")
