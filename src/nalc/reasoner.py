"""Top-level decision procedures over knowledge bases.

Entailment is decided by refutation: the KB is expanded to a purely
assertional form, the query's refutation constraint is added, and the
tableau must close every completion.  Subsumption reduces to a family
of entailment checks over a fixed degree grid; the best truth-value
bound procedures scan the candidate degrees mentioned in the KB.

The candidate scans in ``glb``/``lub`` test the two components
separately (adding the half that refutes only the truth bound, then
only the falsity bound).  Refuting both at once would accept a
candidate as soon as every model violates one side or the other,
which inflates the bounds past the closed form they must reproduce
for role assertions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .constraints import (
    Assertion,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Rel,
    RoleAssertion,
    vacuous,
)
from .kb import (
    KnowledgeBase,
    expand,
    resolve_valid,
    unfold_assertion,
    unfold_constraint,
    validate,
)
from .semantics import constraint_degrees
from .syntax import ConceptExpr, Individual, Not, nnf
from .tableau import CompletionResult, Status, _make, complete

ZERO = Fraction(0)
ONE = Fraction(1)

SUBSUMPTION_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)


def _prepared(kb: KnowledgeBase):
    """Expanded assertions plus the name-unfolding map for queries.

    Queries are posed against the same terminology as the KB, so any
    defined name they mention unfolds the same way.
    """
    problems = validate(kb)
    if problems:
        raise ValueError("invalid KB: " + problems[0].message)
    resolved = resolve_valid(kb)
    assertions = [unfold_constraint(c, resolved) for c in kb.assertions]
    return assertions, resolved


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
    assertions, resolved = _prepared(kb)
    query = unfold_constraint(query, resolved)
    result = complete(assertions + [query.negated()], max_branches=max_branches)
    answer = result.status is Status.UNSATISFIABLE
    if with_result:
        return answer, result
    return answer


def _half_entailed(
    assertions: list[Constraint],
    assertion: Assertion,
    ch: str,
    bound: Bound,
    max_branches: int | None = None,
) -> bool:
    """Is the single-component bound forced in every model?"""
    if vacuous(bound, ch):
        return True
    refuted = _make(assertion, [(Bound(bound.rel.complement, bound.value), ch)])
    result = complete(assertions + [refuted], max_branches=max_branches)
    return result.status is Status.UNSATISFIABLE


class BoundKind(enum.Enum):
    GLB = "glb"
    LUB = "lub"


@dataclass(frozen=True)
class BtvbResult:
    bound: DegreePair
    kind: BoundKind
    candidates_examined: int


def _candidate_degrees(assertions: list[Constraint]) -> list[Fraction]:
    return sorted(constraint_degrees(assertions) | {ZERO, ONE})


def _first_entailed(assertions, assertion, ch: str, rel: Rel, candidates, default,
                    max_branches):
    """The first candidate whose one-component bound is entailed.

    Returns it (``default`` when there is none) with the number of
    candidates examined.
    """
    for examined, value in enumerate(candidates, 1):
        if _half_entailed(assertions, assertion, ch, Bound(rel, value), max_branches):
            return value, examined
    return default, len(candidates)


def glb(kb: KnowledgeBase, assertion: Assertion, max_branches: int | None = None) -> BtvbResult:
    """Greatest entailed lower bound pair for an assertion.

    Scans the degrees mentioned in the expanded KB (plus 0 and 1) for
    the largest truth lower bound and the smallest falsity upper bound
    that are entailed.  With no applicable assertions the conventions
    sup {} = 0 and inf {} = 1 fall out: the vacuous bounds >= 0 and
    <= 1 are always entailed.
    """
    assertions, resolved = _prepared(kb)
    assertion = unfold_assertion(assertion, resolved)
    degrees = _candidate_degrees(assertions)
    n, n_seen = _first_entailed(
        assertions, assertion, "t", Rel.GE, degrees[::-1], ZERO, max_branches
    )
    m, m_seen = _first_entailed(assertions, assertion, "f", Rel.LE, degrees, ONE, max_branches)
    return BtvbResult(DegreePair(n, m), BoundKind.GLB, n_seen + m_seen)


def lub(kb: KnowledgeBase, assertion: Assertion, max_branches: int | None = None) -> BtvbResult:
    """Least entailed upper bound pair for a concept assertion.

    Role assertions are rejected: their falsity component has no
    negated assertion to fall back on, and upper role bounds are not
    derivable degrees in this calculus.
    """
    if isinstance(assertion, RoleAssertion):
        raise ValueError("least upper bounds are only defined for concept assertions")
    assertions, resolved = _prepared(kb)
    assertion = unfold_assertion(assertion, resolved)
    degrees = _candidate_degrees(assertions)
    n, n_seen = _first_entailed(assertions, assertion, "t", Rel.LE, degrees, ONE, max_branches)
    m, m_seen = _first_entailed(
        assertions, assertion, "f", Rel.GE, degrees[::-1], ZERO, max_branches
    )
    return BtvbResult(DegreePair(n, m), BoundKind.LUB, n_seen + m_seen)


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


def _unfold_concept(c: ConceptExpr, terminology) -> ConceptExpr:
    """Rewrite a concept through the expanded terminology."""
    probe = Individual("_probe")
    helper = KnowledgeBase(
        (Constraint.geq_leq(ConceptAssertion(c, probe), 0, 1),),
        tuple(terminology),
    )
    expanded = expand(helper)
    return expanded.assertions[0].assertion.concept


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
    """
    sub = nnf(_unfold_concept(sub, terminology))
    super_ = nnf(_unfold_concept(super_, terminology))
    probe = Individual("_probe")
    for n in grid:
        for m in grid:
            premise = KnowledgeBase(
                (Constraint.geq_leq(ConceptAssertion(sub, probe), n, m),), ()
            )
            query = Constraint.geq_leq(ConceptAssertion(super_, probe), n, m)
            if not entails(premise, query, max_branches=max_branches):
                return False
    return True


def check_satisfiable(kb: KnowledgeBase, max_branches: int | None = None) -> CompletionResult:
    """Tableau satisfiability of the expanded assertional part."""
    assertions, _ = _prepared(kb)
    return complete(assertions, max_branches=max_branches)
