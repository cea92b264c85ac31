"""Top-level decision procedures over knowledge bases.

Every procedure reaches one expanded KB the same way: each call passes
the KB through ``kb.resolved_definitions``, the one validity gate, which
reads the check and the unfolded definitions that the KB caches.  The
KB is prepared once, on its first call: its assertions are unfolded
through the resolved map, added to one hypothesis set and saturated
there under the deterministic rules, and that set is kept for as long as
the KB object lives.  So a call on a prepared KB neither
walks its statements nor re-derives their deterministic closure: every
run works on that set itself and undoes what it added when it ends
(``tableau.complete``).

Every question is decided by one kind of run, ``_half_entailed``: it
refutes a single bound on one component of an assertion, truth or
falsity, by adding the bound's complement and searching the completions
(``tableau.complete``); the bound holds iff none is clash-free.  Truth
and falsity are bounded separately, so a paired bound holds iff each of
its halves does, and a vacuous half (``>= 0`` on truth, ``<= 1`` on
falsity) needs no run:

* entailment refutes each non-vacuous half of the query in turn;
* subsumption is one entailment: over a fresh individual,
  ``<C(o): >= 1, <= 1>`` entails ``<D(o): >= 1, <= 1>``, whose falsity
  half is vacuous, so it is one truth refutation on any grid;
* the best truth-value bounds search the degrees mentioned in the KB
  for each component, strongest first; entailment of a bound is
  monotone in its degree, and each refuted probe's countermodel refutes
  every candidate its value violates, so the search jumps past them to
  the first candidate that value meets.

Every bound the reasoner poses, other than a caller's, is built once: a
KB's candidate bounds with its candidate degrees, on its first search; a
subsumption probe's bounds with the module; and a refutation's
complement in a memo (``constraints._complement``).

A complement that clashes with the saturated set as it is added needs
no run either (``tableau._unsatisfiable``): that run would clash before
any rule fired.  A half's run copies nothing, neither a witness nor a
clashed branch; a traced query then makes one ``complete`` run to render.

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
    _check_degree,
    _query_halves,
    _refutation,
    vacuous,
)
from .kb import (KnowledgeBase, _check_query, resolved_definitions, unfold_assertion,
                 unfold_constraint)
from .semantics import ONE, ZERO, constraint_degrees
from .syntax import ConceptExpr, Individual, Not
from .tableau import (
    DEFAULT_MAX_BRANCHES,
    DEFAULT_MAX_STEPS,
    CompletionResult,
    ConstraintSet,
    _Engine,
    _unsatisfiable,
    complete,
    completion_value,
)

SUBSUMPTION_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)
# The bounds of a subsumption probe, built once.
_GE_ONE, _LE_ONE, _GE_ZERO = Bound(Rel.GE, ONE), Bound(Rel.LE, ONE), Bound(Rel.GE, ZERO)


# KB -> [unfolded assertions, their hypothesis set saturated under the
# deterministic rules, None before the first bound search and then the
# glb/lub candidate degrees beside their bounds]; an entry lives as long
# as its KB.
_PREPARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _prepared(kb: KnowledgeBase):
    """The KB's entry in ``_PREPARED`` and the name-unfolding map for
    queries.

    Every call validates the KB, which caches its check and its unfolded
    definitions, so on a prepared KB that costs two copies.  The entry
    is built on the first call and shared by every later one; the lookup
    reads the KB's cached hash.  Building it saturates the hypotheses
    under the deterministic rules, within ``DEFAULT_MAX_STEPS`` steps of
    its own; past that ``ResourceExhausted`` propagates and no entry is
    kept.  Every run works on the saturated set itself (``complete(...,
    base=root)``) and leaves it as built, also when it raises; runs from
    one set hold its lock, so concurrent queries on one KB run one at a
    time.  Queries are posed against the same terminology as
    the KB, so any defined name they mention unfolds the same way.
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
    max_branches: int = DEFAULT_MAX_BRANCHES,
    with_result: bool = False,
):
    """Does every model of the KB satisfy the (nonstrict) query?

    True iff each non-vacuous half of the query is entailed, each decided
    by its own refutation (``_half_entailed``) in every mode; the first
    half that a clash-free completion refutes settles False, and no later
    half runs.  ``with_result`` adds one ``complete`` run to render: the
    refuting half's, whose witness is a countermodel, for False; for True
    the run of the query's only non-vacuous half, or else the paired run
    of ``query.negated()``, which clashes whenever each half's run does.
    """
    (_, root, _), resolved = _prepared(kb)
    _check_query(kb, query.assertion)
    query = unfold_constraint(query, resolved)
    halves = _query_halves(query)
    refuted = next(((bound, ch) for bound, ch in halves
                    if not _half_entailed(root, query.assertion, ch, bound, max_branches)), None)
    if not with_result:
        return refuted is None
    if refuted is None and len(halves) != 1:
        shown = query.negated()
    else:
        bound, ch = refuted or halves[0]
        shown = _refutation(query.assertion, ch, bound)
    return refuted is None, complete([shown], max_branches=max_branches, base=root)


def _half_entailed(
    root: ConstraintSet,
    assertion: Assertion,
    ch: str,
    bound: Bound,
    max_branches: int = DEFAULT_MAX_BRANCHES,
    read=None,
) -> bool:
    """Is the single-component bound forced in every model of the
    prepared hypothesis set ``root``?  ``read`` sees the refuting
    completion, if there is one (``tableau._unsatisfiable``)."""
    if vacuous(bound):
        return True
    return _unsatisfiable(_refutation(assertion, ch, bound), root, max_branches, read)


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

    They are gathered on the KB's first search and kept in its entry,
    beside the candidate bounds of each relation a search poses, in the
    order it scans them: ``>=`` from the top degree, ``<=`` from the
    bottom.  A check or an entailment never reads them, so it does not
    pay for them.
    """
    if prepared[2] is None:
        degrees = sorted(constraint_degrees(prepared[0]) | {ZERO, ONE})
        scans = {Rel.GE: degrees[::-1], Rel.LE: degrees}
        prepared[2] = degrees, {rel: [Bound(rel, v) for v in scan] for rel, scan in scans.items()}
    return prepared[2][0]


_FORM = {BoundKind.GLB: Form.GEQ_LEQ, BoundKind.LUB: Form.LEQ_GEQ}


def _best_bound(kb: KnowledgeBase, assertion: Assertion, kind: BoundKind,
                max_branches: int) -> BtvbResult:
    """The tightest entailed bound of each component, in the relations of
    the kind's form.

    A lower bound orders the candidate degrees from the top, an upper one
    from the bottom, and takes the first entailed one; the last candidate
    (0 or 1) is vacuous and needs no run.  A refuted probe ends on a
    clash-free completion, whose model is a model of the KB; its value v
    of the probed component (``completion_value``) refutes every
    candidate that v violates, so the search goes on at the first later
    candidate that v meets.  It finds the answer a linear scan finds and
    probes no candidate that scan would not.  Each probe, and each check
    that skips a candidate, indexes the bounds built with the KB's
    candidate degrees, so a search builds no ``Bound``.
    """
    prepared, resolved = _prepared(kb)
    _check_query(kb, assertion)
    assertion = unfold_assertion(assertion, resolved)
    _candidate_degrees(prepared)
    root, candidates = prepared[1], prepared[2][1]
    best, examined = [], 0
    for rel, ch in zip(_FORM[kind].value, "tf"):
        bounds = candidates[rel]
        values = []  # one per refuted probe: its countermodel's value
        read = lambda s: values.append(completion_value(s, assertion, ch))
        index = 0
        while not _half_entailed(root, assertion, ch, bounds[index], max_branches, read):
            index += 1
            while not bounds[index].holds(values[-1]):
                index += 1
        examined += len(values) + 1
        best.append(bounds[index].value)
    return BtvbResult(DegreePair(*best), kind, examined)


def glb(kb: KnowledgeBase, assertion: Assertion,
        max_branches: int = DEFAULT_MAX_BRANCHES) -> BtvbResult:
    """Greatest entailed lower bound pair for an assertion.

    Scans the degrees mentioned in the expanded KB (plus 0 and 1) for
    the largest truth lower bound and the smallest falsity upper bound
    that are entailed.  With no applicable assertions the conventions
    sup {} = 0 and inf {} = 1 fall out: the vacuous bounds >= 0 and
    <= 1 are always entailed.
    """
    return _best_bound(kb, assertion, BoundKind.GLB, max_branches)


def lub(kb: KnowledgeBase, assertion: Assertion,
        max_branches: int = DEFAULT_MAX_BRANCHES) -> BtvbResult:
    """Least entailed upper bound pair for a concept assertion.

    Role assertions are rejected: their falsity component has no
    negated assertion to fall back on, and upper role bounds are not
    derivable degrees in this calculus.
    """
    if isinstance(assertion, RoleAssertion):
        raise ValueError("least upper bounds are only defined for concept assertions")
    return _best_bound(kb, assertion, BoundKind.LUB, max_branches)


def lub_via_negation(kb: KnowledgeBase, assertion: ConceptAssertion,
                     max_branches: int = DEFAULT_MAX_BRANCHES) -> BtvbResult:
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
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> bool:
    """Does ``super_`` dominate ``sub`` in every model of the terminology?

    On a grid, domination means that at every pair (n, m) of its
    degrees, over a fresh individual, ``sub >= n <= m`` entails both
    halves of ``super_ >= n <= m``.  One entailment decides it:
    ``sub >= 1 <= 1`` entails ``super_ >= 1 <= 1``, whose falsity half
    is vacuous, so a call makes one truth refutation on any grid.

    Proved: the run holds iff t(sub) <= t(super_) and f(sub) >= f(super_)
    in every model.  Each channel of a concept, and of each definition,
    is a min/max/sup/inf term over the doubled signature, so a monotone
    map of the degrees that fixes 0 and 1 commutes with it (on a finite
    model, such as a tableau witness).  Sending the degrees at or above
    t(sub) to 1 and the rest to 0 turns a model with t(sub) > t(super_)
    into one with t(sub) = 1 and t(super_) = 0.  The channel swap
    t' = 1 - f, f' = 1 - t on every cell gives t'(X) = 1 - f(X) for
    every concept X, so falsity domination fails exactly when truth
    domination does.  Domination gives every grid pair; the pair (1, 1)
    asks the run's own truth question, and by the same threshold map
    and swap the pair (0, 0) asks its falsity twin.  So on a grid that
    holds 0 or 1, the default among them, the answer is proved the
    same.  That a grid inside (0, 1) answers the same only the tests
    show, against every per-half pair of such grids.

    The grid's degrees are checked and change nothing else.  A vacuous
    ``super_ >= 0 <= 1`` in the probe KB keeps the names that
    specializations reserve out of both concepts.
    """
    if not grid:
        raise ValueError(f"subsumption needs a non-empty grid of degrees, got {grid!r}")
    for degree in grid:
        _check_degree(Fraction(degree), "grid degree")
    o = Individual("_probe")
    sub_a, super_a = ConceptAssertion(sub, o), ConceptAssertion(super_, o)
    probe = KnowledgeBase((Constraint(sub_a, _GE_ONE, _LE_ONE),
                           Constraint(super_a, _GE_ZERO, _LE_ONE)), tuple(terminology))
    return entails(probe, Constraint(super_a, _GE_ONE, _LE_ONE), max_branches)


def check_satisfiable(kb: KnowledgeBase,
                      max_branches: int = DEFAULT_MAX_BRANCHES) -> CompletionResult:
    """Tableau satisfiability of the expanded assertional part."""
    (_, root, _), _ = _prepared(kb)
    return complete([], max_branches=max_branches, base=root)
