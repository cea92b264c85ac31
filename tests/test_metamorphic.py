"""Metamorphic relations on the tableau, beyond the enumerator's reach.

Each relation maps a KB and its questions to another KB and questions
whose answers follow from the first ones by the semantics alone, so no
oracle is needed and the KBs can be as deep as the tableau handles:

* channel swap: the map t' = 1 - f, f' = 1 - t on every cell is a
  bijection of models, and it sends each concept's pair the same way.
  So ``>= n <= m`` becomes ``>= 1-m <= 1-n``, ``<= n >= m`` becomes
  ``<= 1-m >= 1-n``, every check and entailment answers the same, and a
  best bound pair (n, m) becomes (1 - m, 1 - n);
* degree warp: a strictly increasing bijection of [0, 1] commutes with
  min, max, inf and sup, so warping every degree by x -> x^2 keeps every
  answer and warps every best bound;
* permuting the statements and renaming the individuals by a bijection
  keep every answer;
* adding a statement never loses an entailment, and a best bound only
  gets tighter.

The KBs are ``rand_assertional_kb`` ones of quantifier depth 3, and a
40-link role chain whose best bounds are known.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genutil import rand_assertional_kb, rand_kb_constraint, rand_query, stable_seed
from nalc import (
    And,
    Atomic,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Exists,
    Forall,
    Individual,
    KnowledgeBase,
    RoleAssertion,
    Status,
    check_satisfiable,
    entails,
    glb,
    lub,
)

SEEDS = range(120)
QUERIES_PER_KB = 2
CHAIN_LINKS = 40


def _map_bounds(kb: KnowledgeBase, queries, bounds):
    """The KB and queries with each constraint's (tbound, fbound) mapped."""
    def each(c: Constraint) -> Constraint:
        return Constraint(c.assertion, *bounds(c.tbound, c.fbound))
    return KnowledgeBase(tuple(map(each, kb.assertions)), kb.terminology), [each(q) for q in queries]


def _swap(t: Bound, f: Bound):
    return Bound(t.rel, 1 - f.value), Bound(f.rel, 1 - t.value)


def _warp(t: Bound, f: Bound):
    return Bound(t.rel, t.value ** 2), Bound(f.rel, f.value ** 2)


def _renamed(assertion, names: dict):
    if isinstance(assertion, RoleAssertion):
        return RoleAssertion(assertion.role, names[assertion.subject], names[assertion.target])
    return ConceptAssertion(assertion.concept, names[assertion.subject])


def _answers(kb: KnowledgeBase, queries):
    """Every answer the relations compare: the check's status, and per
    query its entailment, its glb pair and, for a concept assertion, its
    lub pair."""
    return check_satisfiable(kb).status, [
        (entails(kb, q), glb(kb, q.assertion).bound,
         lub(kb, q.assertion).bound if isinstance(q.assertion, ConceptAssertion) else None)
        for q in queries
    ]


def _through(answers, pair):
    """``answers`` with every best bound pair sent through ``pair``."""
    status, per_query = answers
    return status, [(held, pair(low), None if up is None else pair(up))
                    for held, low, up in per_query]


def _count(answers) -> int:
    """How many answers a relation compares."""
    return 1 + sum(2 + (up is not None) for _, _, up in answers[1])


def _random_cases():
    for seed in SEEDS:
        rng = random.Random(stable_seed(f"metamorphic-{seed}"))
        kb = rand_assertional_kb(rng, depth=3)
        yield rng, kb, [rand_query(rng, depth=2) for _ in range(QUERIES_PER_KB)]


def _chain():
    """``R(k_i, k_i+1) >= 1 <= 0`` and ``(all R (and A (some S B)))(k_i)
    >= n_i <= m_i`` per link, with a distinct degree pair per link.  The
    glb of ``A(k_i+1)`` is link i's pair; the queries ask it, and a
    stronger pair, at five links."""
    rng = random.Random(stable_seed("metamorphic-chain"))
    values = [Fraction(k, 256) for k in sorted(rng.sample(range(1, 256), 2 * CHAIN_LINKS))]
    pairs = list(zip(values[CHAIN_LINKS:][::-1], values[:CHAIN_LINKS]))
    rng.shuffle(pairs)
    k = [Individual(f"k{i}") for i in range(CHAIN_LINKS + 1)]
    link = Forall("R", And(Atomic("A"), Exists("S", Atomic("B"))))
    statements = []
    for i, (n, m) in enumerate(pairs):
        statements.append(Constraint.geq_leq(RoleAssertion("R", k[i], k[i + 1]), 1, 0))
        statements.append(Constraint.geq_leq(ConceptAssertion(link, k[i]), n, m))
    queries = []
    for i in (0, 9, 20, 31, CHAIN_LINKS - 1):
        at = ConceptAssertion(Atomic("A"), k[i + 1])
        n, m = pairs[i]
        queries += [Constraint.geq_leq(at, n, m), Constraint.geq_leq(at, (n + 1) / 2, m / 2)]
    return KnowledgeBase(tuple(statements), ()), queries, pairs


def _cases():
    kb, queries, _ = _chain()
    yield random.Random(stable_seed("metamorphic-chain-rng")), kb, queries
    yield from _random_cases()


@pytest.fixture(scope="module")
def cases():
    return [(rng, kb, queries, _answers(kb, queries)) for rng, kb, queries in _cases()]


def test_the_chain_answers_its_known_bounds(cases):
    _, _, _, (status, per_query) = cases[0]
    _, _, pairs = _chain()
    assert status is Status.SATISFIABLE
    for j, i in enumerate((0, 9, 20, 31, CHAIN_LINKS - 1)):
        (held, low, _), (stronger, _, _) = per_query[2 * j: 2 * j + 2]
        assert held and not stronger
        assert low == DegreePair(*pairs[i])


def test_the_channel_swap_keeps_every_answer(cases):
    instances = 0
    for _, kb, queries, answers in cases:
        swapped = _answers(*_map_bounds(kb, queries, _swap))
        assert swapped == _through(answers, lambda p: DegreePair(1 - p.m, 1 - p.n)), kb
        instances += _count(answers)
    assert instances >= 750


def test_a_degree_warp_keeps_every_answer(cases):
    instances = 0
    for _, kb, queries, answers in cases:
        warped = _answers(*_map_bounds(kb, queries, _warp))
        assert warped == _through(answers, lambda p: DegreePair(p.n ** 2, p.m ** 2)), kb
        instances += _count(answers)
    assert instances >= 750


def test_permuting_and_renaming_keep_every_answer(cases):
    instances = 0
    for rng, kb, queries, answers in cases:
        individuals = list(dict.fromkeys(
            o for c in [*kb.assertions, *queries]
            for o in ((c.assertion.subject, c.assertion.target)
                      if isinstance(c.assertion, RoleAssertion) else (c.assertion.subject,))))
        targets = individuals[:]
        rng.shuffle(targets)
        names = dict(zip(individuals, targets))
        statements = [Constraint(_renamed(c.assertion, names), c.tbound, c.fbound)
                      for c in kb.assertions]
        rng.shuffle(statements)
        renamed = [Constraint(_renamed(q.assertion, names), q.tbound, q.fbound) for q in queries]
        assert _answers(KnowledgeBase(tuple(statements), ()), renamed) == answers, kb
        instances += _count(answers)
    assert instances >= 750


def test_adding_a_statement_loses_no_entailment(cases):
    instances = 0
    for rng, kb, queries, (status, per_query) in cases:
        extra = rand_kb_constraint(rng, depth=2)
        grown_status, grown = _answers(KnowledgeBase(kb.assertions + (extra,), ()), queries)
        assert grown_status is Status.UNSATISFIABLE or status is Status.SATISFIABLE, (kb, extra)
        for (held, low, up), (still, tighter_low, tighter_up) in zip(per_query, grown):
            assert still or not held, (kb, extra)
            # a glb pair tightens with truth up and falsity down, a lub pair the other way
            assert tighter_low.n >= low.n and tighter_low.m <= low.m, (kb, extra)
            if up is not None:
                assert tighter_up.n <= up.n and tighter_up.m >= up.m, (kb, extra)
        instances += _count((status, per_query))
    assert instances >= 750
