"""A prepared KB pays for its statements once.

The KB caches its hash and its statement facts, unfolding shares every
part it does not change, and ``complete`` searches on one constraint set,
undoing a branch instead of copying the set for it.  None of that may
change an answer.
"""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from nalc import (
    And,
    Atomic,
    AxiomKind,
    Bound,
    ConceptAssertion,
    Constraint,
    ConstraintSet,
    DegreePair,
    Exists,
    Forall,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    Rel,
    RoleAssertion,
    Status,
    TerminologicalAxiom,
    Variable,
    apply_rules,
    check_satisfiable,
    complete,
    entails,
    expand,
    glb,
    parse_kb,
    parse_query,
    validate,
)
from nalc.kb import resolved_definitions, unfold_assertion, unfold_constraint
from nalc.reasoner import _PREPARED
from genutil import rand_assertional_kb, rand_kb_constraint, rand_query, ring_abox_text

from test_parser import EXAMPLE_KB

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
a = Individual("a")
SRC = Path(__file__).resolve().parents[1] / "src"


class TestStatementFacts:
    STRICT = Constraint(ConceptAssertion(A, a), Bound(Rel.GT, 0), Bound(Rel.LT, 1))
    ON_VARIABLE = Constraint.geq_leq(ConceptAssertion(Atomic("B*"), Variable(1)), 1, 0)
    EDGE = Constraint.geq_leq(RoleAssertion("R", Variable(2), Variable(3)), 1, 0)
    TERMINOLOGY = (
        TerminologicalAxiom("B", AxiomKind.SPECIALIZATION, C),
        TerminologicalAxiom("B", AxiomKind.DEFINITION, A),
    )

    def kb(self):
        return KnowledgeBase((self.STRICT, self.ON_VARIABLE, self.EDGE), self.TERMINOLOGY)

    def expected(self):
        return [
            ("duplicate-lhs", "'B' appears on the left-hand side of more than one axiom", 1),
            ("bad-assertion", f"KB assertions must be nonstrict: {self.STRICT}", -1),
            ("bad-assertion", f"KB assertions range over individuals: {self.ON_VARIABLE}", -1),
            ("bad-assertion", f"KB assertions range over individuals: {self.EDGE}", -1),
            ("bad-assertion", f"KB assertions range over individuals: {self.EDGE}", -1),
            ("name-collision", "'B*' is reserved for expanding 'spec B < ...'", 0),
        ]

    @staticmethod
    def rows(violations):
        return [(v.kind, v.message, v.axiom_index) for v in violations]

    def test_repeated_calls_give_the_same_violations_in_order(self):
        kb = self.kb()
        assert self.rows(validate(kb)) == self.expected()
        assert self.rows(validate(kb)) == self.expected()

    def test_an_equal_kb_built_apart_gives_the_same_violations(self):
        kb, twin = self.kb(), self.kb()
        assert twin == kb and twin is not kb
        validate(kb)
        assert validate(twin) == validate(kb)

    def test_the_returned_list_is_fresh(self):
        kb = self.kb()
        first = validate(kb)
        first.clear()
        second = validate(kb)
        assert self.rows(second) == self.expected()
        second.append(second[0])
        assert self.rows(validate(kb)) == self.expected()


class TestCachedGate:
    """Every call passes the validity gate, and a KB is frozen, so its
    check and its unfolded definitions are computed once and cached."""

    QUERY = "assert (some Support War)(p1) >= 0.5 <= 0.5"

    def test_a_second_call_checks_and_unfolds_nothing_again(self, monkeypatch):
        import nalc.kb

        calls = {"validate": 0, "_find_violations": 0, "_unfold_definitions": 0}
        for name in calls:
            def counting(*args, _name=name, _wrapped=getattr(nalc.kb, name)):
                calls[_name] += 1
                return _wrapped(*args)
            monkeypatch.setattr(nalc.kb, name, counting)
        parsed = parse_kb(EXAMPLE_KB)
        # A KB built apart from the parser, which has validated its own.
        kb = KnowledgeBase(parsed.assertions, parsed.terminology)
        calls.update(dict.fromkeys(calls, 0))
        query = parse_query(self.QUERY)
        first = entails(kb, query)
        assert calls == {"validate": 1, "_find_violations": 1, "_unfold_definitions": 1}
        assert entails(kb, query) == first
        assert calls == {"validate": 2, "_find_violations": 1, "_unfold_definitions": 1}

    def test_an_invalid_kb_raises_on_every_call(self):
        kb = KnowledgeBase((), TestStatementFacts.TERMINOLOGY)
        query = parse_query(self.QUERY)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^invalid KB: 'B' appears on the left-hand side"):
                entails(kb, query)
        assert kb not in _PREPARED

    def test_the_resolved_map_is_fresh(self):
        kb = parse_kb(EXAMPLE_KB)
        first = resolved_definitions(kb)
        first.clear()
        assert sorted(resolved_definitions(kb)) == ["war_x", "war_y"]


class TestKbHashAndPickle:
    def test_pickle_round_trips_to_an_equal_prepared_kb(self):
        kb = parse_kb(EXAMPLE_KB)
        entails(kb, parse_query("assert (some Support War)(p1) >= 0.5 <= 0.5"))
        copy = pickle.loads(pickle.dumps(kb))
        assert copy == kb and copy is not kb
        assert hash(copy) == hash(kb)
        assert _PREPARED.get(copy) is _PREPARED[kb]

    def test_hash_is_the_field_tuple_hash(self):
        kb = parse_kb(EXAMPLE_KB)
        assert hash(kb) == hash((kb.assertions, kb.terminology))
        assert hash(kb) == hash(kb)

    def test_repr_fields_and_weak_references_are_unchanged(self):
        kb = parse_kb(EXAMPLE_KB)
        hash(kb)
        validate(kb)
        assert repr(kb) == (
            f"KnowledgeBase(assertions={kb.assertions!r}, terminology={kb.terminology!r})"
        )
        assert [f.name for f in dataclasses.fields(kb)] == ["assertions", "terminology"]
        assert weakref.ref(kb)() is kb

    def test_a_kb_pickled_in_another_process_hashes_afresh(self):
        # String hashes are salted per process: a KB that carried its
        # cached hash across would hash differently from an equal one.
        script = (
            "import pickle, sys\n"
            "from nalc import parse_kb, validate\n"
            "from test_parser import EXAMPLE_KB\n"
            "kb = parse_kb(EXAMPLE_KB)\n"
            "hash(kb); validate(kb)\n"
            "sys.stdout.buffer.write(pickle.dumps(kb))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
        data = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, check=True).stdout
        copy = pickle.loads(data)
        kb = parse_kb(EXAMPLE_KB)
        assert copy == kb
        assert hash(copy) == hash(kb)
        assert validate(copy) == []


def _rebuild(c, mapping):
    """The unfolding that rebuilds every node, shared or not."""
    if isinstance(c, Atomic):
        return mapping.get(c.name, c)
    if isinstance(c, (And, Or)):
        return type(c)(_rebuild(c.left, mapping), _rebuild(c.right, mapping))
    if isinstance(c, Not):
        return Not(_rebuild(c.inner, mapping))
    if isinstance(c, (Exists, Forall)):
        return type(c)(c.role, _rebuild(c.filler, mapping))
    return c


def _rebuilt_constraint(c, mapping):
    assertion = c.assertion
    if isinstance(assertion, ConceptAssertion):
        assertion = ConceptAssertion(_rebuild(assertion.concept, mapping), assertion.subject)
    return Constraint(assertion, c.tbound, c.fbound)


class TestSharedUnfolding:
    TERMINOLOGY = (
        TerminologicalAxiom("X", AxiomKind.DEFINITION, And(B, Atomic("Y"))),
        TerminologicalAxiom("Y", AxiomKind.SPECIALIZATION, Exists("R", C)),
    )

    def resolved(self):
        return resolved_definitions(KnowledgeBase((), self.TERMINOLOGY))

    def test_a_constraint_naming_no_defined_concept_is_returned_as_is(self):
        resolved = self.resolved()
        for c in (
            Constraint.geq_leq(ConceptAssertion(Or(A, Forall("R", Not(B))), a), 0.5, 0.25),
            Constraint.geq_leq(RoleAssertion("R", a, a), 1, 0),
            Constraint(ConceptAssertion(A, a), Bound(Rel.GE, 1), None),
        ):
            assert unfold_constraint(c, resolved) is c
            assert unfold_assertion(c.assertion, resolved) is c.assertion

    def test_unfolding_equals_the_rebuilt_unfolding(self):
        resolved = self.resolved()
        rng = random.Random(2718)
        atoms = ["A", "B", "X", "Y"]
        for _ in range(200):
            c = rand_kb_constraint(rng, 3, atoms)
            unfolded = unfold_constraint(c, resolved)
            assert unfolded == _rebuilt_constraint(c, resolved)
            if unfolded == c:
                assert unfolded is c

    def test_expand_output_is_unchanged(self):
        rng = random.Random(3141)
        atoms = ["A", "B", "X", "Y"]
        for _ in range(50):
            assertions = tuple(rand_kb_constraint(rng, 2, atoms) for _ in range(4))
            kb = KnowledgeBase(assertions, self.TERMINOLOGY)
            resolved = resolved_definitions(kb)
            expected = tuple(_rebuilt_constraint(c, resolved) for c in assertions)
            assert expand(kb) == KnowledgeBase(expected, ())


def _reference_complete(constraints):
    """Depth-first search on the public ``apply_rules``, which never
    modifies the set it is given.  A single child that made no fresh variable is a
    deterministic step and stays in its branch; anything else is a choice
    or a generation, whose children are branches of their own."""
    stack = [ConstraintSet.from_constraints(constraints)]
    first_clashed, branch_count = None, 0
    while stack:
        s = stack.pop()
        branch_count += 1
        while s.clash is None:
            children = apply_rules(s)
            if children is None:
                return Status.SATISFIABLE, s, branch_count
            if len(children) == 1 and children[0].fresh_counter == s.fresh_counter:
                s = children[0]
                continue
            stack.extend(reversed(children))
            break
        else:
            if first_clashed is None:
                first_clashed = s
    return Status.UNSATISFIABLE, first_clashed, branch_count


class TestCompleteAgainstReference:
    def test_random_corpus_matches_the_copying_search(self):
        rng = random.Random(4242)
        statuses = set()
        for _ in range(150):
            kb = rand_assertional_kb(rng, size=rng.randint(2, 5), depth=2)
            constraints = list(kb.assertions)
            if rng.random() < 0.5:
                constraints.append(rand_query(rng).negated())
            result = complete(constraints)
            status, reference, branch_count = _reference_complete(constraints)
            statuses.add(status)
            assert result.status is status
            assert result.branch_count == branch_count
            assert result.trace == reference.trace_lines()
            if status is Status.SATISFIABLE:
                assert result.witness.constraints == reference.constraints
        assert statuses == {Status.SATISFIABLE, Status.UNSATISFIABLE}


class TestCopies:
    """A search works on one constraint set: it copies the witness it
    returns and the first clashed branch it reports, and nothing else; a
    run read only for its status returns neither, so it copies nothing."""

    @pytest.fixture
    def copies(self, monkeypatch):
        counted = []
        copy = ConstraintSet.copy
        monkeypatch.setattr(ConstraintSet, "copy", lambda s: counted.append(s) or copy(s))
        return counted

    def test_a_chain_check_copies_its_witness_only(self, copies):
        n = 160
        kb = parse_kb("".join(
            f"assert R(a{i}, a{i + 1}) >= 1 <= 0\n"
            f"assert (all R (and A (some S B)))(a{i}) >= 0.5 <= 0.5\n"
            for i in range(n)
        ))
        result = check_satisfiable(kb)
        assert result.status is Status.SATISFIABLE
        assert result.branch_count == n + 1
        assert len(copies) == 1

    def test_a_refuted_point_query_on_a_wide_kb_copies_nothing(self, copies):
        kb = parse_kb(ring_abox_text(500))
        query = parse_query("assert D(a3) >= 0.75 <= 0.25")
        assert len(kb.assertions) == 2000
        assert entails(kb, query) is False
        assert len(copies) == 0

    def test_a_narrow_kb_copies_only_a_returned_witness(self, copies):
        kb = parse_kb(ring_abox_text(5))
        target = ConceptAssertion(Or(A, Atomic("E")), Individual("a3"))
        assert len(kb.assertions) == 20
        assert entails(kb, parse_query("assert D(a3) >= 0.75 <= 0.25")) is False
        assert glb(kb, target).bound == DegreePair(Fraction(1, 2), Fraction(1, 4))
        assert len(copies) == 0
        assert check_satisfiable(kb).status is Status.SATISFIABLE
        assert len(copies) == 1

    def test_a_bound_search_copies_nothing(self, copies, monkeypatch):
        import nalc.reasoner
        import nalc.tableau

        kb = parse_kb(ring_abox_text(500))
        target = ConceptAssertion(Or(A, Atomic("E")), Individual("a3"))
        probes, runs = [], []
        half_entailed, search = nalc.reasoner._half_entailed, nalc.tableau._search
        monkeypatch.setattr(nalc.reasoner, "_half_entailed",
                            lambda *args: probes.append(half_entailed(*args)) or probes[-1])
        monkeypatch.setattr(nalc.tableau, "_search",
                            lambda *args, **kw: runs.append(search(*args, **kw)) or runs[-1])
        result = glb(kb, target)
        assert (result.bound.n, result.bound.m) == (Fraction(1, 2), Fraction(1, 4))
        # Probes go both ways, and some entailed ones are decided by a run.
        assert True in probes and False in probes
        assert any(r.status is Status.UNSATISFIABLE for r in runs)
        assert len(copies) == 0
