"""Model-theoretic semantics over explicit finite interpretations.

Concepts evaluate to a pair of degrees: the truth component composes
with min/max and the falsity component with the dual operator, while
negation swaps the two.  Quantifiers take the pointwise best value
over the finite domain, so inf and sup are attained.  A single-valued
interpretation is read through its ``(x, 1 - x)`` embedding, so one
evaluator and one model check serve both semantics.

Truth and falsity never meet in a cell, so each channel of a concept
reads alone as a negation-free fuzzy-ALC term over a doubled signature
(min, max, and sup/inf over role and filler degrees): negation swaps
the channel and a universal reads the role in the other channel.  One
exhaustive search serves both oracles: it compiles the concept of
every check straight into that reading, one hash-consed DAG where
constants fold, with an integer interval per node; it propagates
bounds through min/max in both directions at the root and after each
assignment, and backtracks over the cells one connected component at
a time.
``exists_model`` gives every (name, channel) its own cell; the
single-valued ``fuzzy_exists_model`` keeps the truth cells and reads
falsity as one minus truth.  The search is the ground-truth check for
the tableau at desk scale.  Everything is exact rational arithmetic;
inside the search degrees are scaled to a common integer denominator,
which changes nothing but the constant factor.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .constraints import (
    Assertion,
    Bound,
    Constraint,
    DegreePair,
    Rel,
    RoleAssertion,
    _query_halves,
    _refutation,
    vacuous,
)
from .kb import (AxiomKind, FuzzyAssertion, TerminologicalAxiom, _unfold_definitions,
                 unfold_constraint)
from .syntax import (
    And,
    Atomic,
    Bottom,
    ConceptExpr,
    Exists,
    Forall,
    Individual,
    Not,
    Or,
    Top,
    Variable,
    quantifier_depth,
)

ZERO = Fraction(0)
ONE = Fraction(1)
_FALSE = DegreePair(ZERO, ONE)  # what a missing table entry reads
DEFAULT_MAX_NODES = 5_000_000  # the enumerator's node ceiling


class SearchExhausted(RuntimeError):
    """Raised when model search exceeds its node ceiling."""

    def __init__(self, nodes: int):
        super().__init__(f"model search exceeded the ceiling after {nodes} nodes")
        self.nodes = nodes


@dataclass
class FiniteInterpretation:
    """Explicit finite interpretation with degree-valued tables.

    Missing table entries default to ``(0, 1)``: fully false.  The
    individual map must be injective.
    """

    domain: tuple[str, ...]
    individual_map: dict[str, str]
    concept_table: dict[tuple[str, str], DegreePair] = field(default_factory=dict)
    role_table: dict[tuple[str, str, str], DegreePair] = field(default_factory=dict)

    def __post_init__(self):
        if not self.domain:
            raise ValueError("the domain must be nonempty")
        targets = list(self.individual_map.values())
        if len(set(targets)) != len(targets):
            raise ValueError("individuals must map to distinct elements")
        elements = set(self.domain)
        for e in targets:
            if e not in elements:
                raise ValueError(f"unknown element {e!r} in individual map")

    def concept_value(self, name: str, element: str) -> DegreePair:
        return self.concept_table.get((name, element), _FALSE)

    def role_value(self, role: str, e1: str, e2: str) -> DegreePair:
        return self.role_table.get((role, e1, e2), _FALSE)


def eval_concept(interp: FiniteInterpretation, c: ConceptExpr, element: str) -> DegreePair:
    """Evaluate the truth/falsity pair of ``c`` at a domain element."""
    if element not in interp.domain:
        raise ValueError(f"unknown element {element!r}")
    return _eval(interp, c, element)


def _eval(interp: FiniteInterpretation, c: ConceptExpr, element: str) -> DegreePair:
    if isinstance(c, Top):
        return DegreePair(ONE, ZERO)
    if isinstance(c, Bottom):
        return DegreePair(ZERO, ONE)
    if isinstance(c, Atomic):
        return interp.concept_value(c.name, element)
    if isinstance(c, Not):
        inner = _eval(interp, c.inner, element)
        return DegreePair(inner.m, inner.n)
    if isinstance(c, And):
        l = _eval(interp, c.left, element)
        r = _eval(interp, c.right, element)
        return DegreePair(min(l.n, r.n), max(l.m, r.m))
    if isinstance(c, Or):
        l = _eval(interp, c.left, element)
        r = _eval(interp, c.right, element)
        return DegreePair(max(l.n, r.n), min(l.m, r.m))
    if isinstance(c, Forall):
        t = ONE
        f = ZERO
        for d in interp.domain:
            rv = interp.role_value(c.role, element, d)
            fv = _eval(interp, c.filler, d)
            t = min(t, max(rv.m, fv.n))
            f = max(f, min(rv.n, fv.m))
        return DegreePair(t, f)
    if isinstance(c, Exists):
        t = ZERO
        f = ONE
        for d in interp.domain:
            rv = interp.role_value(c.role, element, d)
            fv = _eval(interp, c.filler, d)
            t = max(t, min(rv.n, fv.n))
            f = min(f, max(rv.m, fv.m))
        return DegreePair(t, f)
    raise TypeError(f"not a concept expression: {c!r}")


def _resolve(obj, interp: FiniteInterpretation, assignment) -> str:
    if isinstance(obj, Individual):
        if obj.name not in interp.individual_map:
            raise ValueError(f"individual {obj.name!r} is not mapped")
        return interp.individual_map[obj.name]
    if assignment is None or obj not in assignment:
        raise ValueError(f"variable {obj} has no assignment")
    return assignment[obj]


def _objects(a: Assertion):
    return (a.subject, a.target) if isinstance(a, RoleAssertion) else (a.subject,)


def assertion_value(
    interp: FiniteInterpretation, assertion: Assertion, assignment=None
) -> DegreePair:
    if isinstance(assertion, RoleAssertion):
        e1 = _resolve(assertion.subject, interp, assignment)
        e2 = _resolve(assertion.target, interp, assignment)
        return interp.role_value(assertion.role, e1, e2)
    e = _resolve(assertion.subject, interp, assignment)
    return eval_concept(interp, assertion.concept, e)


def satisfies(interp: FiniteInterpretation, constraint: Constraint, assignment=None) -> bool:
    """Does the interpretation satisfy one constraint?

    Variables in the constraint are resolved through ``assignment``.
    """
    value = assertion_value(interp, constraint.assertion, assignment)
    if constraint.tbound is not None and not constraint.tbound.holds(value.n):
        return False
    if constraint.fbound is not None and not constraint.fbound.holds(value.m):
        return False
    return True


def constraint_variables(constraints) -> list[Variable]:
    out = {o for c in constraints for o in _objects(c.assertion) if isinstance(o, Variable)}
    return sorted(out, key=lambda v: v.index)


def _assignments(constraints, domain):
    """Every assignment of the constraints' variables to elements of the
    domain; just the empty one when they have none."""
    variables = constraint_variables(constraints)
    for combo in itertools.product(domain, repeat=len(variables)):
        yield dict(zip(variables, combo))


def satisfies_all(interp: FiniteInterpretation, constraints) -> bool:
    """Satisfaction of a set; variables are taken existentially."""
    constraints = list(constraints)
    return any(all(satisfies(interp, c, assignment) for c in constraints)
               for assignment in _assignments(constraints, interp.domain))


def satisfies_axiom(interp: FiniteInterpretation, axiom: TerminologicalAxiom) -> bool:
    for d in interp.domain:
        av = interp.concept_value(axiom.lhs, d)
        cv = eval_concept(interp, axiom.rhs, d)
        if axiom.kind is AxiomKind.SPECIALIZATION:
            if not (av.n <= cv.n and av.m >= cv.m):
                return False
        else:
            if av != cv:
                return False
    return True


# --- degree grids ------------------------------------------------------

@dataclass(frozen=True)
class DegreeGrid:
    """Finite ascending degree ladder containing 0 and 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = self.values
        if not vals or list(vals) != sorted(set(vals)) or vals[0] != 0 or vals[-1] != 1:
            raise ValueError("grid must be sorted, deduplicated and span [0, 1]")

    @staticmethod
    def containing(degrees) -> "DegreeGrid":
        return DegreeGrid(tuple(sorted(set(map(Fraction, degrees)) | {ZERO, ONE})))

    def with_midpoints(self) -> "DegreeGrid":
        """Insert midpoints between neighbours (room for strict bounds)."""
        vals = list(self.values)
        mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
        return DegreeGrid.containing(vals + mids)


# --- exhaustive model search ------------------------------------------
#
# The search compiles each (concept, channel) at its elements straight
# into one ``_Dag``.  A literal reads the cell of its channel, or one
# minus the truth cell in the single-valued search; a binary concept is
# the min or max of its parts, and a quantifier the min (inf) or max
# (sup) of its per-successor ``(role literal, filler)`` parts, so every
# node is a cell, one minus a cell, a constant, a min or a max.  A bound
# narrows its concept's node and an axiom becomes node inequalities.

class _Budget:
    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.ceiling:
            raise SearchExhausted(self.nodes)


def takes_min(kind: type, ch: str) -> bool:
    """Does channel ``ch`` of a binary or quantified concept of type
    ``kind`` take a minimum?

    True for ``and`` and ``all`` in the truth channel and for ``or`` and
    ``some`` in the falsity channel; the other four take a maximum.  A
    quantifier that takes a minimum is an infimum over the successors
    and reads the role in the falsity channel; one that takes a maximum
    is a supremum and reads the role in the truth channel.
    """
    return issubclass(kind, (And, Forall)) == (ch == "t")


# Node kinds of a _Dag.  A cell node holds the cell's degree; a flip node
# is one minus its one child (a falsity literal of the single-valued
# search).
_CELL, _FLIP, _MIN, _MAX, _CONST = range(5)


class _Dag:
    """Hash-consed concept channels over one domain, with an interval per
    node.

    ``node`` compiles a (concept, channel, element) once: equal subterms
    share a node, ``min(x, x)`` and ``max(x, x)`` fold to ``x`` and
    constants fold into their parents (``_op``).  A ``single`` DAG keeps
    truth cells only.  ``lo``/``hi`` hold each node's integer-scaled
    interval, and ``pairs`` the node inequalities (below, above).

    In the search the intervals narrow by bounds propagation: a node is
    narrowed from its children (up) and its children from it (down), and
    a cell node's interval always ends on degrees of the grid, so it is
    the cell's domain.  ``trail`` records every narrowing so that
    backtracking restores the intervals.
    """

    def __init__(self, domain, scale: int, grid, single: bool):
        self.domain = domain
        self.scale = scale
        self.grid = grid  # the ascending integer degrees a cell may take
        self.single = single
        self.kind: list[int] = []
        self.kids: list[tuple] = []
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.pairs: list[tuple[int, int]] = []
        # what to re-run when a node narrows: its parents, itself (to push
        # down to its children) and its inequalities, pair i as ~i
        self.watch: list[list[int]] = []
        self.trail: list[tuple[int, int, int]] = []
        self.cells: dict = {}  # cell key -> its node
        self._nodes: dict = {}  # structural key -> node
        self._built: dict = {}  # (concept, channel, element) -> node

    def _new(self, kind: int, kids: tuple, lo: int, hi: int) -> int:
        n = len(self.kind)
        self.kind.append(kind)
        self.kids.append(kids)
        self.lo.append(lo)
        self.hi.append(hi)
        self.watch.append([n] if kids else [])
        for c in kids:
            self.watch[c].append(n)
        return n

    def _add(self, key, kind: int, kids: tuple, lo: int, hi: int) -> int:
        n = self._nodes.get(key)
        if n is None:
            n = self._nodes[key] = self._new(kind, kids, lo, hi)
        return n

    def literal(self, key: tuple, ch: str) -> int:
        """The node that reads channel ``ch`` of cell ``key``: one minus
        the truth cell when the search is single-valued and ``ch`` is
        falsity."""
        neg = self.single and ch == "f"
        key += ("t",) if neg else (ch,)
        n = self.cells.get(key)
        if n is None:
            n = self.cells[key] = self._new(_CELL, (), 0, self.scale)
        return self._add(("flip", n), _FLIP, (n,), 0, self.scale) if neg else n

    def _const(self, top: bool) -> int:
        v = self.scale if top else 0
        return self._add(("k", v), _CONST, (), v, v)

    def _absorbs(self, low: bool, k: int) -> bool:
        """Is node ``k`` the constant that decides a min (``low``: 0) or
        a max (1) on its own?"""
        return self.kind[k] == _CONST and self.lo[k] == (0 if low else self.scale)

    def _op(self, low: bool, kids) -> int:
        """The min (``low``) or max of ``kids``: an absorbing constant
        (0 for min, 1 for max) is the result, a neutral one drops out."""
        distinct = set()
        for k in kids:
            if self.kind[k] != _CONST:
                distinct.add(k)
            elif self._absorbs(low, k):
                return k
        if len(distinct) < 2:
            return distinct.pop() if distinct else self._const(low)
        kids = tuple(sorted(distinct))
        return self._add((low, kids), _MIN if low else _MAX, kids, 0, self.scale)

    def node(self, c: ConceptExpr, ch: str, e: str) -> int:
        """The node of channel ``ch`` of concept ``c`` at element ``e``.

        Negation swaps the channel; ``takes_min`` picks every other
        operator, and a quantifier's role literal is in the falsity
        channel under a minimum and in the truth channel under a maximum.
        A binary concept's right part is built only when its left one is
        not the absorbing constant, and a quantifier's filler before its
        role literal, so no subterm that an earlier constant decides is
        built.  A quantifier part is never the outer absorbing constant:
        it is a role literal, holds one, or is the inner absorbing (outer
        neutral) constant.
        """
        memo = (c, ch, e)
        n = self._built.get(memo)
        if n is not None:
            return n
        if isinstance(c, Atomic):
            n = self.literal(("c", c.name, e), ch)
        elif isinstance(c, Not):
            n = self.node(c.inner, "f" if ch == "t" else "t", e)
        elif isinstance(c, (And, Or)):
            low = takes_min(type(c), ch)
            n = self.node(c.left, ch, e)
            if not self._absorbs(low, n):
                n = self._op(low, (n, self.node(c.right, ch, e)))
        elif isinstance(c, (Exists, Forall)):
            low = takes_min(type(c), ch)
            role_ch = "f" if low else "t"
            parts = []
            for d in self.domain:
                part = self.node(c.filler, ch, d)
                if not self._absorbs(not low, part):
                    part = self._op(not low, (self.literal(("r", c.role, e, d), role_ch), part))
                parts.append(part)
            n = self._op(low, parts)
        elif isinstance(c, (Top, Bottom)):
            n = self._const(isinstance(c, Top) == (ch == "t"))
        else:
            raise TypeError(f"not a concept expression: {c!r}")
        self._built[memo] = n
        return n

    def reads(self, roots) -> set:
        """Cell nodes under ``roots``."""
        kind, kids = self.kind, self.kids
        if len(roots) == 1 and kind[roots[0]] == _CELL:
            return {roots[0]}
        seen: set = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(kids[n])
        return {n for n in seen if kind[n] == _CELL}

    def below(self, low: int, high: int) -> None:
        """Add the inequality ``low <= high``."""
        p = ~len(self.pairs)
        self.pairs.append((low, high))
        self.watch[low].append(p)
        self.watch[high].append(p)

    def undo(self, mark: int) -> None:
        lo, hi, trail = self.lo, self.hi, self.trail
        while len(trail) > mark:
            n, a, b = trail.pop()
            lo[n] = a
            hi[n] = b

    def propagate(self, narrowings, queue=None) -> bool:
        """Narrow each (node, lo, hi) of ``narrowings``, then propagate
        bounds to a fixpoint, running first the propagators of ``queue``.
        False when some interval empties; the trail then holds what to
        undo.
        """
        kind, kids, lo, hi = self.kind, self.kids, self.lo, self.hi
        watch, trail, grid = self.watch, self.trail, self.grid
        scale, pairs = self.scale, self.pairs
        queue = [] if queue is None else queue
        queued = set(queue)

        def narrow(n, a, b) -> bool:
            if kind[n] == _CELL:
                # a cell's interval is its domain: it ends on grid degrees
                j = bisect_left(grid, a)
                a = grid[j] if j < len(grid) else scale + 1
                j = bisect_right(grid, b)
                b = grid[j - 1] if j else -1
            if a > b:
                return False
            trail.append((n, lo[n], hi[n]))
            lo[n] = a
            hi[n] = b
            for w in watch[n]:
                if w not in queued:
                    queued.add(w)
                    queue.append(w)
            return True

        ok = True
        for n, a, b in narrowings:
            a = a if a > lo[n] else lo[n]
            b = b if b < hi[n] else hi[n]
            if (a != lo[n] or b != hi[n]) and not narrow(n, a, b):
                ok = False
                break
        while ok and queue:
            p = queue.pop()
            queued.discard(p)
            if p < 0:
                below, above = pairs[~p]
                if hi[below] > hi[above]:
                    ok = narrow(below, lo[below], hi[above])
                if ok and lo[above] < lo[below]:
                    ok = narrow(above, lo[below], hi[above])
                continue
            k = kind[p]
            if k == _FLIP:
                c = kids[p][0]
                a = scale - hi[c]
                b = scale - lo[c]
                if a < lo[p]:
                    a = lo[p]
                if b > hi[p]:
                    b = hi[p]
                if (a != lo[p] or b != hi[p]) and not narrow(p, a, b):
                    ok = False
                elif scale - b > lo[c] or scale - a < hi[c]:
                    ok = narrow(c, scale - b, scale - a)
                continue
            ks = kids[p]
            if k == _MIN:
                a = b = scale
                for c in ks:
                    if lo[c] < a:
                        a = lo[c]
                    if hi[c] < b:
                        b = hi[c]
            else:
                a = b = 0
                for c in ks:
                    if lo[c] > a:
                        a = lo[c]
                    if hi[c] > b:
                        b = hi[c]
            if a < lo[p]:
                a = lo[p]
            if b > hi[p]:
                b = hi[p]
            if (a != lo[p] or b != hi[p]) and not narrow(p, a, b):
                ok = False
                continue
            # Down: every child of a min is at least its lower end, and
            # the upper end needs one child that reaches it; dually for max.
            # No narrowing here empties a child: the up step left a <= b <=
            # hi[c] under a min (lo[c] <= a <= b under a max) and a cell's
            # ends are grid degrees.  No child reaches only when a cell's snap
            # to the grid passed b (a); it re-queues this node to find a > b.
            reach = last = -1
            if k == _MIN:
                for c in ks:
                    if lo[c] < a:
                        narrow(c, a, hi[c])
                    if lo[c] <= b:
                        reach += 1
                        last = c
                if reach == 0 and hi[last] > b:
                    narrow(last, lo[last], b)
            else:
                for c in ks:
                    if hi[c] > b:
                        narrow(c, lo[c], b)
                    if hi[c] >= a:
                        reach += 1
                        last = c
                if reach == 0 and lo[last] < a:
                    narrow(last, a, hi[last])
        return ok


def _interval(c: ConceptExpr, ch: str, single: bool, e: str, cells, domain, scale: int):
    """Reachable [lo, hi] of channel ``ch`` of ``c`` at element ``e``,
    integer scaled, in the two-channel or the ``single``-valued reading.

    ``cells[key]`` is an assigned integer or None (free, meaning the
    whole [0, scale] range).  When every cell occurs with one sign, as
    in the two-channel search, the all-low / all-high corners are
    attained and the interval is exact; a cell read both ways makes it
    a sound over-approximation.  It is the search's propagation on the
    concept's DAG with no bound: from the assigned cells it only narrows
    upward, so it reaches the intervals evaluated from the leaves.
    """
    values = {v for v in cells.values() if v is not None}
    dag = _Dag(domain, scale, sorted(values | {0, scale}), single)
    root = dag.node(c, ch, e)
    dag.propagate([(n, cells[k], cells[k]) for k, n in dag.cells.items()
                   if cells.get(k) is not None])
    return dag.lo[root], dag.hi[root]


def _scaled(bound: Bound, scale: int) -> tuple[int, int]:
    """The integer interval a bound allows."""
    v = bound.value.numerator * (scale // bound.value.denominator)
    rel = bound.rel
    if rel.is_lower:
        return v + rel.is_strict, scale
    return 0, v - rel.is_strict


def _compile(bounded, axioms, element, domain, scale: int, grid, single: bool):
    """Compile the checks into one DAG.

    ``bounded`` holds (assertion, bound, channel) triples; each narrows
    its assertion's node.  Each axiom gives one check per element, an
    inequality per channel the search keeps: the name's truth may not
    exceed the right-hand side's and its falsity may not fall below it;
    a definition needs both directions.  Returns the DAG, the node
    narrowings and, per check, the nodes it reads from.
    """
    dag = _Dag(domain, scale, grid, single)
    narrowings = []
    checks = []
    for assertion, bound, ch in bounded:
        subject = element(assertion.subject)
        if isinstance(assertion, RoleAssertion):
            n = dag.literal(("r", assertion.role, subject, element(assertion.target)), ch)
        else:
            n = dag.node(assertion.concept, ch, subject)
        narrowings.append((n,) + _scaled(bound, scale))
        checks.append((n,))

    for ax in axioms:
        both = ax.kind is not AxiomKind.SPECIALIZATION
        for d in domain:
            nodes = []
            for ch in ("t",) if single else ("t", "f"):
                name = dag.literal(("c", ax.lhs, d), ch)
                rhs = dag.node(ax.rhs, ch, d)
                below, above = (name, rhs) if ch == "t" else (rhs, name)
                dag.below(below, above)
                if both:
                    dag.below(above, below)
                nodes += (below, above)
            checks.append(nodes)
    return dag, narrowings, checks


def _backtrack(dag: _Dag, order, budget) -> bool:
    """DFS over the cells of ``order``, propagating after each assignment.

    A cell tries the grid degrees left in its domain, in ascending
    order.  A loop keeping the next grid index per depth (-1 before the
    depth is entered), so no recursion limit bounds a component; the
    budget ticks once per node entered.
    """
    budget.tick()
    lo, hi, grid, trail = dag.lo, dag.hi, dag.grid, dag.trail
    depth = len(order)
    nxt = [-1] * depth
    last = [0] * depth
    mark = [0] * depth
    i = 0
    while i < depth:
        c = order[i]
        j = nxt[i]
        if j < 0:
            mark[i] = len(trail)
            j = bisect_left(grid, lo[c])
            last[i] = bisect_left(grid, hi[c])
        elif len(trail) > mark[i]:
            dag.undo(mark[i])
        if j > last[i]:
            nxt[i] = -1
            if i == 0:
                return False
            i -= 1
            continue
        nxt[i] = j + 1
        v = grid[j]
        # a cell left with one degree is assigned already
        if lo[c] == hi[c] or dag.propagate(((c, v, v),)):
            budget.tick()
            i += 1
    return True


def _solve(dag: _Dag, narrowings, checks, budget) -> dict | None:
    """Assign the cells the checks read, one independent component at a
    time, after propagating the bounds and inequalities at the root.

    Returns the degree of each cell some check reads.  A cell whose
    parent folded to a constant reaches no check, so propagation never
    narrows it and it is left out.
    """
    if not dag.propagate(narrowings, [~i for i in range(len(dag.pairs))]):
        return None
    reads = [dag.reads(roots) for roots in checks]
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cells in reads:
        ordered = sorted(cells)
        for a, b in zip(ordered, ordered[1:]):
            parent[find(a)] = find(b)

    groups: dict = {}
    for idx, cells in enumerate(reads):
        if cells:
            groups.setdefault(find(min(cells)), []).append(idx)
    key = {n: k for k, n in dag.cells.items()}
    for idxs in groups.values():
        # Tight checks first: cells of small-scope checks get assigned
        # consecutively, so each check can prune as soon as possible.
        order = list(dict.fromkeys(
            n for i in sorted(idxs, key=lambda i: len(reads[i]))
            for n in sorted(reads[i], key=key.__getitem__)
        ))
        if not _backtrack(dag, order, budget):
            return None
    read = set().union(*reads)
    return {k: dag.lo[n] for k, n in dag.cells.items() if n in read}


def _search(constraints, axioms, domain_size: int, grid: DegreeGrid, max_nodes: int,
            single: bool) -> FiniteInterpretation | None:
    """Grid search shared by both oracles.

    Individuals map injectively onto the first elements; variables are
    taken existentially over the whole domain.  Returns the model found
    for the first assignment that has one, or None.  A ``single``-valued
    search reads each truth cell ``x`` as the pair ``(x, 1 - x)``.  The
    model must satisfy every constraint and axiom, else AssertionError.
    """
    constraints = list(constraints)
    axioms = list(axioms)
    bounded = [
        (c.assertion, bound, ch)
        for c in constraints
        for bound, ch in ((c.tbound, "t"), (c.fbound, "f"))
        if bound is not None
    ]
    individuals = sorted({o.name for c in constraints for o in _objects(c.assertion)
                          if isinstance(o, Individual)})
    if domain_size < max(1, len(individuals)):
        raise ValueError("domain too small for the named individuals")
    domain = tuple(f"d{i}" for i in range(domain_size))
    ind_map = {name: domain[i] for i, name in enumerate(individuals)}
    scale = math.lcm(*(v.denominator for v in list(grid.values) + [b.value for _, b, _ in bounded]))
    grid_ints = [v.numerator * (scale // v.denominator) for v in grid.values]
    degree = dict(zip(grid_ints, grid.values))
    budget = _Budget(max_nodes)
    for assignment in _assignments(constraints, domain):

        def element(obj) -> str:
            return ind_map[obj.name] if isinstance(obj, Individual) else assignment[obj]

        cells = _solve(*_compile(bounded, axioms, element, domain, scale, grid_ints, single),
                       budget)
        if cells is not None:
            interp = FiniteInterpretation(domain, ind_map)
            for key in dict.fromkeys(k[:-1] for k in cells):
                t = degree[cells.get(key + ("t",), 0)]
                f = 1 - t if single else degree[cells.get(key + ("f",), scale)]
                table = interp.concept_table if key[0] == "c" else interp.role_table
                table[key[1:]] = DegreePair(t, f)
            if all(satisfies(interp, c, assignment) for c in constraints) and all(
                satisfies_axiom(interp, ax) for ax in axioms
            ):
                return interp
            raise AssertionError("search produced a non-model; pruning is unsound")
    return None


def exists_model(
    constraints,
    domain_size: int,
    grid: DegreeGrid,
    max_nodes: int = DEFAULT_MAX_NODES,
    axioms=(),
) -> FiniteInterpretation | None:
    """Search for a grid-valued model of the constraints.

    Every (name, channel) has its own cell.  Individuals map injectively
    onto the first elements; variables are taken existentially over the
    whole domain.  Terminological axioms, if given, are enforced
    pointwise at every element.  The model holds the cells the search
    read, in the order it compiled them; every other entry reads the
    fully-false default.  Raises SearchExhausted when the search exceeds
    ``max_nodes`` nodes.
    """
    return _search(constraints, axioms, domain_size, grid, max_nodes, single=False)


def constraint_degrees(constraints) -> set[Fraction]:
    """The degrees the constraints' bounds mention.

    A parse shares one ``Bound`` per literal, so few ``Fraction``s are
    hashed, and the glb/lub search passes a parsed KB's first statement of
    each distinct bound pair alone, some 50 on a 10^4-statement ABox.
    """
    bounds = set()
    for c in constraints:
        bounds.add(c.tbound)
        bounds.add(c.fbound)
    return {bound.value for bound in bounds if bound is not None}


def default_domain_size(constraints) -> int:
    """Distinct objects plus the deepest quantifier nesting."""
    objects = set()
    depth = 0
    for c in constraints:
        objects.update(_objects(c.assertion))
        if not isinstance(c.assertion, RoleAssertion):
            depth = max(depth, quantifier_depth(c.assertion.concept))
    return max(1, len(objects)) + depth


def oracle_entails(
    constraints,
    query: Constraint,
    domain_size: int | None = None,
    grid: DegreeGrid | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> bool:
    """Brute-force entailment: no model violates a half of the query.

    One search per non-vacuous half of the query, each for a model of
    the constraints with that half's complement; the query holds iff
    none is found.  The search's grid is the default grid of
    ``_entailed`` plus the degrees of ``grid``, if given.
    """
    return _entailed(list(constraints), (), query, _query_halves(query), domain_size, grid,
                     max_nodes, single=False)


def _entailed(constraints, axioms, query: Constraint, halves, domain_size, grid, max_nodes: int,
              single: bool) -> bool:
    """Refutation driver shared by both oracles: does the search find no
    model of the constraints plus the complement of any (bound, channel)
    half of the query?

    The search's grid is always the default grid, and a caller's
    ``grid`` only adds degrees to it: a model on the default grid is a
    model on any larger one, so no grid hides a countermodel the default
    grid has.  The default grid holds the posed degrees (the
    constraints' and the query's), their ``1 - d`` in the single-valued
    reading, where a negated name reads ``1 - x``, and the midpoints
    between neighbours, which give strict refutation bounds room.  The
    default domain counts the posed constraints unfolded through the
    axioms, so a definition's quantifiers count."""
    posed = constraints + [query]
    degrees = constraint_degrees(posed)
    if single:
        degrees |= {1 - d for d in degrees}
    default = DegreeGrid.containing(degrees).with_midpoints()
    grid = default if grid is None else DegreeGrid.containing(default.values + grid.values)
    if domain_size is None:
        resolved = _unfold_definitions(axioms)
        domain_size = default_domain_size([unfold_constraint(c, resolved) for c in posed])
    return all(
        _search(constraints + [_refutation(query.assertion, ch, bound)], axioms, domain_size,
                grid, max_nodes, single) is None
        for bound, ch in halves
    )


# --- single-valued (fuzzy) oracle --------------------------------------

@dataclass
class FuzzyInterpretation:
    domain: tuple[str, ...]
    individual_map: dict[str, str]
    concept_table: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    role_table: dict[tuple[str, str, str], Fraction] = field(default_factory=dict)

    def concept_value(self, name: str, element: str) -> Fraction:
        return self.concept_table.get((name, element), ZERO)

    def role_value(self, role: str, e1: str, e2: str) -> Fraction:
        return self.role_table.get((role, e1, e2), ZERO)


def _embedded(interp: FuzzyInterpretation) -> FiniteInterpretation:
    """The two-channel interpretation that reads each degree ``x`` as the
    pair ``(x, 1 - x)``; a missing entry stays ``(0, 1)``."""
    return FiniteInterpretation(
        interp.domain,
        interp.individual_map,
        {k: DegreePair(v, 1 - v) for k, v in interp.concept_table.items()},
        {k: DegreePair(v, 1 - v) for k, v in interp.role_table.items()},
    )


def fuzzy_eval(interp: FuzzyInterpretation, c: ConceptExpr, element: str) -> Fraction:
    """The single-valued degree of ``c`` at a domain element: the truth of
    ``eval_concept`` on the ``(x, 1 - x)`` embedding, whose falsity then
    stays one minus its truth under every connective."""
    return eval_concept(_embedded(interp), c, element).n


def fuzzy_exists_model(
    bounded_assertions,
    axioms,
    domain_size: int,
    grid: DegreeGrid,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> FuzzyInterpretation | None:
    """Grid search for a single-valued model.

    ``bounded_assertions`` is an iterable of ``(assertion, Bound)``
    pairs (strict bounds welcome); ``axioms`` are checked pointwise.
    This is the two-valued search with one truth cell per name, the
    falsity channel read as one minus truth.  The model is the truth
    component of the checked one, whose bounds are all on truth.  A
    negated name reads ``1 - x``, so a grid needs ``1 - d`` beside each
    degree ``d``, as ``fuzzy_entails``'s default grid has.
    """
    constraints = [Constraint(a, bound, None) for a, bound in bounded_assertions]
    model = _search(constraints, axioms, domain_size, grid, max_nodes, single=True)
    if model is None:
        return None
    return FuzzyInterpretation(
        model.domain,
        model.individual_map,
        {k: v.n for k, v in model.concept_table.items()},
        {k: v.n for k, v in model.role_table.items()},
    )


def fuzzy_entails(
    fkb,
    query: FuzzyAssertion,
    domain_size: int | None = None,
    grid: DegreeGrid | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> bool:
    """Single-valued entailment by refuted-query model search, on the
    default grid of ``_entailed`` (which holds ``1 - d`` beside every
    posed degree ``d``) plus the degrees of ``grid``, if given."""

    def truth_only(fa: FuzzyAssertion) -> Constraint:
        return Constraint(fa.assertion, Bound(Rel(fa.rel.value), fa.degree), None)

    wanted = truth_only(query)
    # a vacuous query holds of every degree: it has no refutation
    halves = [] if vacuous(wanted.tbound) else [(wanted.tbound, "t")]
    return _entailed([truth_only(fa) for fa in fkb.assertions], fkb.terminology, wanted, halves,
                     domain_size, grid, max_nodes, single=True)
