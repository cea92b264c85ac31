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
* subsumption poses the subconcept at the grid's greatest and least
  degrees on two fresh individuals of one KB, prepared like any other,
  and refutes the superconcept's truth bound on the first and its
  falsity bound on the second, the two thresholds that decide the grid;
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
    _refutation,
    vacuous,
)
from .kb import KnowledgeBase, resolved_definitions, unfold_assertion, unfold_constraint
from .semantics import constraint_degrees
from .syntax import ConceptExpr, Individual, Not
from .tableau import (
    DEFAULT_MAX_STEPS,
    CompletionResult,
    ConstraintSet,
    Status,
    _Engine,
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


def _half_entailed(
    root: ConstraintSet,
    assertion: Assertion,
    ch: str,
    bound: Bound,
    max_branches: int | None = None,
) -> bool:
    """Is the single-component bound forced in every model of the
    prepared hypothesis set ``root``?"""
    if vacuous(bound):
        return True
    return _unsatisfiable(_refutation(assertion, ch, bound), root, max_branches)


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

    Domination means that at every grid pair (n, m), over a fresh
    individual, ``sub >= n <= m`` entails both halves of
    ``super_ >= n <= m``.  A weaker premise entails less, so the truth
    halves are decided by ``sub >= n <= g1`` giving ``super_ t>= n`` for
    each n, and the falsity halves by ``sub >= g0 <= m`` giving
    ``super_ f<= m`` for each m (g0, g1 the least and greatest grid
    degrees).  Each channel of a concept is a min/max/sup/inf term over
    the doubled signature, so a monotone map of the degrees commutes with
    it: sending those below n to 0, those in [n, g1] to n' and those
    above g1 to 1 moves a counterexample at truth threshold n > 0 to any
    other n' > 0 of the grid.  So n = g1 decides the truth scan and,
    dually, m = g0 the falsity scan.

    Both probes sit in one prepared KB, on individuals no role links:
    ``sub(o_t) >= g1 <= g1`` and ``sub(o_f) >= g0 <= g0``, each
    satisfiable (every cell at the degree) unless the truth of ``sub`` is
    constantly 0, and then neither is; so sharing changes no answer, and
    a call makes at most 2 runs.  A vacuous ``super_(o_t) >= 0 <= 1``
    keeps the names that specializations reserve out of both concepts.
    """
    if not grid:
        raise ValueError(f"subsumption needs a non-empty grid of degrees, got {grid!r}")
    low, high = Fraction(min(grid)), Fraction(max(grid))
    o_t, o_f = Individual("_probe_t"), Individual("_probe_f")
    (assertions, root, _), _ = _prepared(KnowledgeBase((
        Constraint.geq_leq(ConceptAssertion(sub, o_t), high, high),
        Constraint.geq_leq(ConceptAssertion(sub, o_f), low, low),
        Constraint.geq_leq(ConceptAssertion(super_, o_t), 0, 1),
    ), tuple(terminology)))
    super_ = assertions[2].assertion.concept  # unfolded through the terminology
    halves = ((o_t, "t", Bound(Rel.GE, high)), (o_f, "f", Bound(Rel.LE, low)))
    return all(_half_entailed(root, ConceptAssertion(super_, o), ch, bound, max_branches)
               for o, ch, bound in halves)


def check_satisfiable(kb: KnowledgeBase, max_branches: int | None = None) -> CompletionResult:
    """Tableau satisfiability of the expanded assertional part."""
    (_, root, _), _ = _prepared(kb)
    return complete([], max_branches=max_branches, base=root)
