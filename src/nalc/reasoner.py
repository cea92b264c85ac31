"""Top-level decision procedures over knowledge bases.

Every procedure reaches one expanded KB the same way: each call passes
the KB through ``kb.resolved_definitions``, the one validity gate, whose
``validate`` reads the KB's cached statement facts and checks only its
terminology.  The KB is prepared once, on its first call: its assertions
are unfolded through the resolved map and added, unsaturated, to one
hypothesis set that is kept for as long as the KB object lives.  So a
call on a prepared KB walks none of its statements except in the one
copy of that set a run starts from.  Each task is then decided by
refutation runs of ``tableau.complete`` that start from that copy:

* entailment adds the query's refutation constraint, and the query
  holds iff no completion is clash-free;
* subsumption unfolds both concepts through the terminology once and
  refutes the bound transfer from one to the other at every degree
  pair of a fixed grid, over a fresh individual;
* the best truth-value bounds search the degrees mentioned in the KB,
  refuting one component at a time; entailment of a bound is monotone
  in its degree, so the search gallops and then bisects.

The bound scans test the two components separately (adding the half
that refutes only the truth bound, then only the falsity bound).
Refuting both at once would accept a candidate as soon as every model
violates one side or the other, which inflates the bounds past the
closed form they must reproduce for role assertions.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .constraints import (
    Assertion,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Form,
    RoleAssertion,
    vacuous,
)
from .kb import KnowledgeBase, resolved_definitions, unfold_assertion, unfold_constraint
from .semantics import constraint_degrees
from .syntax import ConceptExpr, Individual, Not, nnf
from .tableau import CompletionResult, ConstraintSet, Status, _make, complete

ZERO = Fraction(0)
ONE = Fraction(1)

SUBSUMPTION_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)


# KB -> [unfolded assertions, their unsaturated hypothesis set, the
# glb/lub candidate degrees or None before the first bound search]; an
# entry lives as long as its KB.
_PREPARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _prepared(kb: KnowledgeBase):
    """The KB's entry in ``_PREPARED`` and the name-unfolding map for
    queries.

    Every call validates the KB, and validate reads the KB's cached
    statement facts, so it costs the size of the terminology.  The entry
    is built on the first call and shared by every later one; the lookup
    reads the KB's cached hash.  Runs start from a copy of the
    hypothesis set (``complete(..., base=root)``), which stays as built.
    Queries are posed against the same terminology as the KB, so any
    defined name they mention unfolds the same way.
    """
    resolved = resolved_definitions(kb)
    prepared = _PREPARED.get(kb)
    if prepared is None:
        assertions = [unfold_constraint(c, resolved) for c in kb.assertions]
        prepared = _PREPARED[kb] = [assertions, ConstraintSet.from_constraints(assertions), None]
    return prepared, resolved


def entails(
    kb: KnowledgeBase,
    query: Constraint,
    max_branches: int | None = None,
    with_result: bool = False,
):
    """Does every model of the KB satisfy the (nonstrict) query?

    Decided by refutation: ``>= n <= m`` queries add ``< n > m`` and
    ``<= n >= m`` queries add ``> n < m``; the query holds iff the
    extended constraint set has no clash-free completion.
    """
    (_, root, _), resolved = _prepared(kb)
    query = unfold_constraint(query, resolved)
    result = complete([query.negated()], max_branches=max_branches, base=root)
    answer = result.status is Status.UNSATISFIABLE
    if with_result:
        return answer, result
    return answer


def _half_entailed(
    base: ConstraintSet | list[Constraint],
    assertion: Assertion,
    ch: str,
    bound: Bound,
    max_branches: int | None = None,
) -> bool:
    """Is the single-component bound forced in every model of ``base``,
    a prepared hypothesis set or a list of constraints?"""
    if vacuous(bound):
        return True
    if not isinstance(base, ConstraintSet):
        base = ConstraintSet.from_constraints(base)
    refuted = _make(assertion, [(Bound(bound.rel.complement, bound.value), ch)])
    result = complete([refuted], max_branches=max_branches, base=base)
    return result.status is Status.UNSATISFIABLE


class BoundKind(enum.Enum):
    GLB = "glb"
    LUB = "lub"


@dataclass(frozen=True)
class BtvbResult:
    bound: DegreePair
    kind: BoundKind
    candidates_examined: int


def _candidate_degrees(prepared: list) -> list[Fraction]:
    """The degrees a bound search scans: the KB's own, with 0 and 1.

    They are gathered on the KB's first search and kept in its entry; a
    check or an entailment never reads them, so it does not pay for them.
    """
    if prepared[2] is None:
        prepared[2] = sorted(constraint_degrees(prepared[0]) | {ZERO, ONE})
    return prepared[2]


_FORM = {BoundKind.GLB: Form.GEQ_LEQ, BoundKind.LUB: Form.LEQ_GEQ}


def _best_bound(kb: KnowledgeBase, assertion: Assertion, kind: BoundKind,
                max_branches: int | None) -> BtvbResult:
    """The tightest entailed bound of each component, in the relations of
    the kind's form.

    A lower bound orders the candidate degrees from the top, an upper one
    from the bottom, and takes the first entailed one.  Entailment is
    monotone along that order (a bound implies every weaker one), so the
    entailed candidates form a tail.  It ends in the last candidate (0 or
    1), which is vacuous and needs no run.  The search probes offsets 0,
    1, 2, 4, 8, ... from the start, the last candidate standing in for
    any offset past it, then bisects the gap between the last refuted
    probe and the first entailed one.  It finds the answer a linear scan
    finds, with the same runs when the answer is among the first three
    candidates, and with O(log k) runs over k candidates.
    """
    prepared, resolved = _prepared(kb)
    assertion = unfold_assertion(assertion, resolved)
    root, degrees = prepared[1], _candidate_degrees(prepared)
    best, examined = [], 0
    for rel, ch in zip(_FORM[kind].value, "tf"):
        order = degrees[::-1] if rel.is_lower else degrees
        refuted, entailed, offset = -1, None, 0
        while entailed is None or entailed - refuted > 1:
            if entailed is None:
                index = min(offset, len(order) - 1)
            else:
                index = (refuted + entailed) // 2
            examined += 1
            if _half_entailed(root, assertion, ch, Bound(rel, order[index]), max_branches):
                entailed = index
            else:
                refuted, offset = index, 2 * index or 1
        best.append(order[entailed])
    return BtvbResult(DegreePair(*best), kind, examined)


def glb(kb: KnowledgeBase, assertion: Assertion, max_branches: int | None = None) -> BtvbResult:
    """Greatest entailed lower bound pair for an assertion.

    Scans the degrees mentioned in the expanded KB (plus 0 and 1) for
    the largest truth lower bound and the smallest falsity upper bound
    that are entailed.  With no applicable assertions the conventions
    sup {} = 0 and inf {} = 1 fall out: the vacuous bounds >= 0 and
    <= 1 are always entailed.
    """
    return _best_bound(kb, assertion, BoundKind.GLB, max_branches)


def lub(kb: KnowledgeBase, assertion: Assertion, max_branches: int | None = None) -> BtvbResult:
    """Least entailed upper bound pair for a concept assertion.

    Role assertions are rejected: their falsity component has no
    negated assertion to fall back on, and upper role bounds are not
    derivable degrees in this calculus.
    """
    if isinstance(assertion, RoleAssertion):
        raise ValueError("least upper bounds are only defined for concept assertions")
    return _best_bound(kb, assertion, BoundKind.LUB, max_branches)


def lub_via_negation(kb: KnowledgeBase, assertion: ConceptAssertion,
                     max_branches: int | None = None) -> BtvbResult:
    """The dual route: swap the greatest lower bound of the negation."""
    negated = ConceptAssertion(Not(assertion.concept), assertion.subject)
    result = glb(kb, negated, max_branches)
    return BtvbResult(
        DegreePair(result.bound.m, result.bound.n),
        BoundKind.LUB,
        result.candidates_examined,
    )


def subsumes(
    terminology,
    sub: ConceptExpr,
    super_: ConceptExpr,
    grid=SUBSUMPTION_GRID,
    max_branches: int | None = None,
) -> bool:
    """Does ``super_`` dominate ``sub`` in every model of the terminology?

    Both concepts are first rewritten through the (acyclic) terminology,
    reducing to the empty-terminology case; then the bound-transfer
    test runs for every degree pair of the grid over a fresh individual.
    The concepts ride along as assertions of the one KB that is
    validated, so the starred names that specializations reserve stay
    out of them too.
    """
    probe = Individual("_probe")
    sub_a, super_a = ConceptAssertion(sub, probe), ConceptAssertion(super_, probe)
    resolved = resolved_definitions(KnowledgeBase(
        (Constraint.geq_leq(sub_a, 0, 1), Constraint.geq_leq(super_a, 0, 1)),
        tuple(terminology),
    ))
    sub_a, super_a = (
        ConceptAssertion(nnf(unfold_assertion(a, resolved).concept), probe)
        for a in (sub_a, super_a)
    )
    for n in grid:
        for m in grid:
            refuted = Constraint.geq_leq(super_a, n, m).negated()
            result = complete([Constraint.geq_leq(sub_a, n, m), refuted],
                              max_branches=max_branches)
            if result.status is not Status.UNSATISFIABLE:
                return False
    return True


def check_satisfiable(kb: KnowledgeBase, max_branches: int | None = None) -> CompletionResult:
    """Tableau satisfiability of the expanded assertional part."""
    (_, root, _), _ = _prepared(kb)
    return complete([], max_branches=max_branches, base=root)
