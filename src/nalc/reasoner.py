"""Top-level decision procedures over knowledge bases.

Every procedure reaches one expanded KB the same way: each call passes
the KB through ``kb.resolved_definitions``, the one validity gate, whose
``validate`` reads the KB's cached statement facts and checks only its
terminology.  The KB is prepared once, on its first call: its assertions
are unfolded through the resolved map, added to one hypothesis set and
saturated there under the deterministic rules, and that set is kept for
as long as the KB object lives.  So a call on a prepared KB neither
walks its statements nor re-derives their deterministic closure, except
in the one copy of that set a run starts from.

Every question is decided by one kind of run, ``_half_entailed``: it
refutes a single bound on one component of an assertion, truth or
falsity, by adding the bound's complement and searching the completions
(``tableau.complete``); the bound holds iff none is clash-free.  Truth
and falsity are bounded separately, so a paired bound holds iff each of
its halves does, and a vacuous half (``>= 0`` on truth, ``<= 1`` on
falsity) needs no run:

* entailment refutes each non-vacuous half of the query in turn;
* subsumption unfolds both concepts through the terminology once and
  scans the grid twice over a fresh individual: the truth bound of the
  superconcept at each degree from the weakest premise that has that
  truth bound, then its falsity bound likewise;
* the best truth-value bounds search the degrees mentioned in the KB
  for each component; entailment of a bound is monotone in its degree,
  so the search gallops and then bisects.

A complement that clashes with the saturated set as it is added needs
no run either (``tableau._unsatisfiable``): that run would build nothing
but its copy of the set.  So on a wide KB a query costs about the same
whether one of its halves is decided or both.

Refuting both halves of a query at once (``Constraint.negated``) would
accept a query as soon as every model violates one side or the other;
that paired run only renders an entailed query's derivation.
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
    Rel,
    RoleAssertion,
    _query_halves,
    vacuous,
)
from .kb import KnowledgeBase, resolved_definitions, unfold_assertion, unfold_constraint
from .semantics import constraint_degrees
from .syntax import ConceptExpr, Individual, Not, nnf
from .tableau import (
    DEFAULT_MAX_STEPS,
    CompletionResult,
    ConstraintSet,
    Status,
    _Engine,
    _make,
    _unsatisfiable,
    complete,
)

ZERO = Fraction(0)
ONE = Fraction(1)

SUBSUMPTION_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)


# KB -> [unfolded assertions, their hypothesis set saturated under the
# deterministic rules, the glb/lub candidate degrees or None before the
# first bound search]; an entry lives as long as its KB.
_PREPARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _prepared(kb: KnowledgeBase):
    """The KB's entry in ``_PREPARED`` and the name-unfolding map for
    queries.

    Every call validates the KB, and validate reads the KB's cached
    statement facts, so it costs the size of the terminology.  The entry
    is built on the first call and shared by every later one; the lookup
    reads the KB's cached hash.  Building it saturates the hypotheses
    under the deterministic rules, within ``DEFAULT_MAX_STEPS`` steps of
    its own; past that ``ResourceExhausted`` propagates and no entry is
    kept.  Runs start from a copy of the saturated set
    (``complete(..., base=root)``), which stays as built.  Queries are
    posed against the same terminology as the KB, so any defined name
    they mention unfolds the same way.
    """
    resolved = resolved_definitions(kb)
    prepared = _PREPARED.get(kb)
    if prepared is None:
        assertions = [unfold_constraint(c, resolved) for c in kb.assertions]
        root = ConstraintSet.from_constraints(assertions)
        _Engine(DEFAULT_MAX_STEPS).saturate(root)
        prepared = _PREPARED[kb] = [assertions, root, None]
    return prepared, resolved


def entails(
    kb: KnowledgeBase,
    query: Constraint,
    max_branches: int | None = None,
    with_result: bool = False,
):
    """Does every model of the KB satisfy the (nonstrict) query?

    True iff each non-vacuous half of the query is entailed, each
    decided by its own refutation (``_half_entailed``); the first half
    that a clash-free completion refutes settles False.  With
    ``with_result`` every half gets a full run, and the answer
    comes with a run to render: the refuting half's, whose witness is a
    countermodel, for False; for True the run of the query's only
    non-vacuous half, or else the paired run of ``query.negated()``,
    which clashes whenever each half's run does.
    """
    (_, root, _), resolved = _prepared(kb)
    query = unfold_constraint(query, resolved)
    halves = _query_halves(query)
    if not with_result:
        return all(_half_entailed(root, query.assertion, ch, bound, max_branches)
                   for bound, ch in halves)
    for bound, ch in halves:
        result = complete([_refutation(query.assertion, ch, bound)], max_branches=max_branches,
                          base=root)
        if result.status is Status.SATISFIABLE:
            return False, result
    if len(halves) != 1:
        result = complete([query.negated()], max_branches=max_branches, base=root)
    return True, result


def _refutation(assertion: Assertion, ch: str, bound: Bound) -> Constraint:
    """The complement of one bound on one component of an assertion."""
    return _make(assertion, [(Bound(bound.rel.complement, bound.value), ch)])


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
    return _unsatisfiable(_refutation(assertion, ch, bound), base, max_branches)


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
    reducing to the empty-terminology case.  Domination means that at
    every grid pair (n, m), over a fresh individual, ``sub >= n <= m``
    entails both halves of ``super_ >= n <= m``.  A weaker premise
    entails less, so two scans decide all those pairs: the truth half
    ``>= n`` from ``sub >= n <= max(grid)`` for each n, and the falsity
    half ``<= m`` from ``sub >= min(grid) <= m`` for each m, at most
    2 * len(grid) runs.  The concepts ride along as assertions of the
    one KB that is validated, so the starred names that specializations
    reserve stay out of them too.
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
    low, high = min(grid), max(grid)
    scans = [((n, high), "t", Bound(Rel.GE, n)) for n in grid]
    scans += [((low, m), "f", Bound(Rel.LE, m)) for m in grid]
    return all(
        _half_entailed([Constraint.geq_leq(sub_a, *premise)], super_a, ch, bound, max_branches)
        for premise, ch, bound in scans
    )


def check_satisfiable(kb: KnowledgeBase, max_branches: int | None = None) -> CompletionResult:
    """Tableau satisfiability of the expanded assertional part."""
    (_, root, _), _ = _prepared(kb)
    return complete([], max_branches=max_branches, base=root)
