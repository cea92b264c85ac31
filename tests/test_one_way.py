"""A query is decided one way, with or without its derivation, and each
helper has one home.

``entails`` decides every query through the status-only half runs
(``reasoner._half_entailed``); ``with_result`` adds exactly one
``complete`` run, which only renders.  Concept rendering lives with the
concepts, in ``nalc.syntax``.  The reference evaluator checks its
element once per call.
"""

from __future__ import annotations

import random

import pytest

import nalc
import nalc.parser
import nalc.reasoner as reasoner
import nalc.syntax
from genutil import rand_assertional_kb, rand_interpretation, rand_query
from nalc import (
    And,
    Atomic,
    BOT,
    ConceptAssertion,
    Exists,
    FiniteInterpretation,
    Forall,
    Individual,
    Not,
    Or,
    Status,
    TOP,
    entails,
    eval_concept,
)
from nalc.constraints import _refutation


@pytest.fixture
def spies(monkeypatch):
    """Record each ``_half_entailed`` and each ``complete`` call that
    ``entails`` makes."""
    halves, runs = [], []
    half_entailed, complete = reasoner._half_entailed, reasoner.complete

    def spy_half(root, assertion, ch, bound, *rest):
        halves.append((assertion, ch, bound, rest))
        return half_entailed(root, assertion, ch, bound, *rest)

    def spy_complete(constraints, *rest, **options):
        runs.append(list(constraints))
        return complete(constraints, *rest, **options)

    monkeypatch.setattr(reasoner, "_half_entailed", spy_half)
    monkeypatch.setattr(reasoner, "complete", spy_complete)
    return halves, runs


def test_both_modes_decide_through_the_same_half_runs(spies):
    halves, runs = spies
    for seed in range(300):
        rng = random.Random(seed)
        kb = rand_assertional_kb(rng)
        for _ in range(3):
            query = rand_query(rng)
            halves.clear()
            runs.clear()
            plain = entails(kb, query)
            plain_halves = list(halves)
            assert runs == []
            halves.clear()
            answer, result = entails(kb, query, with_result=True)
            assert answer == plain
            assert halves == plain_halves
            assert len(runs) == 1
            assert result.status is (Status.UNSATISFIABLE if answer else Status.SATISFIABLE)
            if not answer:
                # the rendered run is the refuting half's: the last one decided
                assertion, ch, bound, _ = halves[-1]
                assert runs[0] == [_refutation(assertion, ch, bound)]


def test_concept_rendering_lives_with_the_concepts():
    assert nalc.parser.format_concept is nalc.syntax.format_concept
    assert nalc.format_concept is nalc.syntax.format_concept
    concept = Forall("R", Or(Not(Atomic("A")), Exists("S", And(TOP, BOT))))
    assert (str(ConceptAssertion(concept, Individual("a")))
            == "(all R (or (not A) (some S (and top bot))))(a)")


class _CountingDomain(tuple):
    """A domain that counts its membership tests."""

    tests = 0

    def __contains__(self, element):
        type(self).tests += 1
        return super().__contains__(element)


def test_eval_concept_checks_its_element_once():
    interp = rand_interpretation(random.Random(7), 4)
    domain = _CountingDomain(interp.domain)
    counted = FiniteInterpretation(domain, {}, interp.concept_table, interp.role_table)
    concept = Forall("R", And(Exists("S", Not(Atomic("A"))), Forall("R", Or(Atomic("B"), TOP))))
    _CountingDomain.tests = 0
    value = eval_concept(counted, concept, "d1")
    assert _CountingDomain.tests == 1
    assert value == eval_concept(interp, concept, "d1")
    with pytest.raises(ValueError, match="^unknown element 'd9'$"):
        eval_concept(counted, concept, "d9")
