"""Model-theoretic semantics over explicit finite interpretations.

Concepts evaluate to a pair of degrees: the truth component composes
with min/max and the falsity component with the dual operator, while
negation swaps the two.  Quantifiers take the pointwise best value
over the finite domain, so inf and sup are attained.

Truth and falsity never meet in a cell, so each channel of a concept
reads alone as a negation-free fuzzy-ALC term over a doubled signature
(min, max, and sup/inf over role and filler degrees): negation swaps
the channel and a universal reads the role in the other channel.  One
exhaustive search over those terms (backtracking with interval pruning
and connected-component splitting) serves both oracles.
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
from dataclasses import dataclass, field
from fractions import Fraction

from .constraints import (
    Assertion,
    Bound,
    Constraint,
    DegreePair,
    Rel,
    RoleAssertion,
    vacuous,
)
from .kb import AxiomKind, FuzzyAssertion, FuzzyRel, TerminologicalAxiom
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
        return self.concept_table.get((name, element), DegreePair(ZERO, ONE))

    def role_value(self, role: str, e1: str, e2: str) -> DegreePair:
        return self.role_table.get((role, e1, e2), DegreePair(ZERO, ONE))


def eval_concept(interp: FiniteInterpretation, c: ConceptExpr, element: str) -> DegreePair:
    """Evaluate the truth/falsity pair of ``c`` at a domain element."""
    if element not in interp.domain:
        raise ValueError(f"unknown element {element!r}")
    if isinstance(c, Top):
        return DegreePair(ONE, ZERO)
    if isinstance(c, Bottom):
        return DegreePair(ZERO, ONE)
    if isinstance(c, Atomic):
        return interp.concept_value(c.name, element)
    if isinstance(c, Not):
        inner = eval_concept(interp, c.inner, element)
        return DegreePair(inner.m, inner.n)
    if isinstance(c, And):
        l = eval_concept(interp, c.left, element)
        r = eval_concept(interp, c.right, element)
        return DegreePair(min(l.n, r.n), max(l.m, r.m))
    if isinstance(c, Or):
        l = eval_concept(interp, c.left, element)
        r = eval_concept(interp, c.right, element)
        return DegreePair(max(l.n, r.n), min(l.m, r.m))
    if isinstance(c, Forall):
        t = ONE
        f = ZERO
        for d in interp.domain:
            rv = interp.role_value(c.role, element, d)
            fv = eval_concept(interp, c.filler, d)
            t = min(t, max(rv.m, fv.n))
            f = max(f, min(rv.n, fv.m))
        return DegreePair(t, f)
    if isinstance(c, Exists):
        t = ZERO
        f = ONE
        for d in interp.domain:
            rv = interp.role_value(c.role, element, d)
            fv = eval_concept(interp, c.filler, d)
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


def satisfies_all(interp: FiniteInterpretation, constraints) -> bool:
    """Satisfaction of a set; variables are taken existentially."""
    constraints = list(constraints)
    variables = constraint_variables(constraints)
    if not variables:
        return all(satisfies(interp, c) for c in constraints)
    for combo in itertools.product(interp.domain, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if all(satisfies(interp, c, assignment) for c in constraints):
            return True
    return False


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


QUARTER_GRID = DegreeGrid.containing([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])


# --- exhaustive model search ------------------------------------------
#
# Each (concept, channel) translates into a negation-free term:
#
#   ("k", top)                      the constant 1 when top, else 0
#   ("c", name, ch, neg)            the concept cell of the element
#   ("r", role, target, ch, neg)    the role cell from the element to target
#   ("min" | "max", left, right)
#   ("sup", role, ch, neg, filler)  sup over d of min(role cell to d, filler at d)
#   ("inf", role, ch, neg, filler)  inf over d of max(role cell to d, filler at d)
#
# A literal reads the cell of channel ``ch``, or one minus it when ``neg``.

class _Budget:
    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.ceiling:
            raise SearchExhausted(self.nodes)


def _literal(ch: str, single: bool) -> tuple[str, bool]:
    """(cell channel, negated) of a ``ch`` literal.

    The single-valued search keeps truth cells only and reads falsity
    as one minus truth.
    """
    return ("t", True) if single and ch == "f" else (ch, False)


def takes_min(c: ConceptExpr, ch: str) -> bool:
    """Does channel ``ch`` of a binary or quantified concept take a minimum?

    True for ``and`` and ``all`` in the truth channel and for ``or`` and
    ``some`` in the falsity channel; the other four take a maximum.  A
    quantifier that takes a minimum is an infimum over the successors
    and reads the role in the falsity channel; one that takes a maximum
    is a supremum and reads the role in the truth channel.
    """
    return isinstance(c, (And, Forall)) == (ch == "t")


def _term(c: ConceptExpr, ch: str, single: bool) -> tuple:
    """Translate one channel of a concept into a negation-free term.

    Negation swaps the channel; ``takes_min`` picks every other operator.
    Subterms that are constant whatever the cells hold fold to
    constants, so they read no cells and the search never enumerates
    degrees that prune nothing.
    """
    if isinstance(c, Atomic):
        return ("c", c.name) + _literal(ch, single)
    if isinstance(c, Not):
        return _term(c.inner, "f" if ch == "t" else "t", single)
    if isinstance(c, (And, Or)):
        low = takes_min(c, ch)
        left = _term(c.left, ch, single)
        right = _term(c.right, ch, single)
        for const, other in ((left, right), (right, left)):
            if const[0] == "k":
                # 0 absorbs min and 1 absorbs max; the other constant is neutral
                return const if const[1] != low else other
        return ("min" if low else "max", left, right)
    if isinstance(c, (Exists, Forall)):
        low = takes_min(c, ch)
        filler = _term(c.filler, ch, single)
        if filler == ("k", low):
            # inf over max(role, 1) is 1 and sup over min(role, 0) is 0
            return filler
        return ("inf" if low else "sup", c.role) + _literal("f" if low else "t", single) + (filler,)
    if isinstance(c, (Top, Bottom)):
        return ("k", isinstance(c, Top) == (ch == "t"))
    raise TypeError(f"not a concept expression: {c!r}")


def _interval(t: tuple, e: str, cells, domain, scale: int):
    """Reachable [lo, hi] of a term at element ``e``, integer scaled.

    ``cells[key]`` is an assigned integer or None (free, meaning the
    whole [0, scale] range).  When every cell occurs with one sign, as
    in the two-channel search, the all-low / all-high corners are
    attained and the interval is exact; a cell read both ways makes it
    a sound over-approximation.
    """
    tag = t[0]
    if tag == "c":
        v = cells.get(("c", t[1], e, t[2]))
        if v is None:
            return 0, scale
        if t[3]:
            v = scale - v
        return v, v
    if tag == "min":
        llo, lhi = _interval(t[1], e, cells, domain, scale)
        rlo, rhi = _interval(t[2], e, cells, domain, scale)
        return (llo if llo < rlo else rlo), (lhi if lhi < rhi else rhi)
    if tag == "max":
        llo, lhi = _interval(t[1], e, cells, domain, scale)
        rlo, rhi = _interval(t[2], e, cells, domain, scale)
        return (llo if llo > rlo else rlo), (lhi if lhi > rhi else rhi)
    if tag == "k":
        return (scale, scale) if t[1] else (0, 0)
    if tag == "r":
        v = cells.get(("r", t[1], e, t[2], t[3]))
        if v is None:
            return 0, scale
        if t[4]:
            v = scale - v
        return v, v
    _, role, ch, neg, filler = t
    if tag == "sup":
        lo = hi = 0
        for d in domain:
            v = cells.get(("r", role, e, d, ch))
            if v is None:
                rlo, rhi = 0, scale
            else:
                rlo = rhi = scale - v if neg else v
            flo, fhi = _interval(filler, d, cells, domain, scale)
            plo = rlo if rlo < flo else flo
            phi = rhi if rhi < fhi else fhi
            lo = lo if lo > plo else plo
            hi = hi if hi > phi else phi
        return lo, hi
    lo = hi = scale
    for d in domain:
        v = cells.get(("r", role, e, d, ch))
        if v is None:
            rlo, rhi = 0, scale
        else:
            rlo = rhi = scale - v if neg else v
        flo, fhi = _interval(filler, d, cells, domain, scale)
        plo = rlo if rlo > flo else flo
        phi = rhi if rhi > fhi else fhi
        lo = lo if lo < plo else plo
        hi = hi if hi < phi else phi
    return lo, hi


def _reads(t: tuple, e: str, domain, acc: set) -> None:
    """Cells a term at element ``e`` reads."""
    tag = t[0]
    if tag == "c":
        acc.add(("c", t[1], e, t[2]))
    elif tag == "r":
        acc.add(("r", t[1], e, t[2], t[3]))
    elif tag in ("min", "max"):
        _reads(t[1], e, domain, acc)
        _reads(t[2], e, domain, acc)
    elif tag in ("sup", "inf"):
        for d in domain:
            acc.add(("r", t[1], e, d, t[2]))
            _reads(t[4], d, domain, acc)


def _int_check(bound: Bound, scale: int):
    """Compile a bound into a predicate over integer intervals."""
    v = int(bound.value * scale)
    rel = bound.rel
    if rel is Rel.GE:
        return lambda lo, hi: hi >= v
    if rel is Rel.GT:
        return lambda lo, hi: hi > v
    if rel is Rel.LE:
        return lambda lo, hi: lo <= v
    return lambda lo, hi: lo < v


def _common_scale(fractions) -> int:
    scale = 1
    for value in fractions:
        scale = scale * value.denominator // math.gcd(scale, value.denominator)
    return scale


def _checks(bounded, axioms, element, domain, scale: int, single: bool):
    """Feasibility checks over the cells, each paired with the cells it reads.

    ``bounded`` holds (assertion, bound, channel) triples.  Each axiom
    gives one check per element, comparing the name with its right-hand
    side in every channel the search keeps.
    """
    checks = []
    for assertion, bound, ch in bounded:
        if isinstance(assertion, RoleAssertion):
            term = ("r", assertion.role, element(assertion.target)) + _literal(ch, single)
        else:
            term = _term(assertion.concept, ch, single)
        e = element(assertion.subject)
        reads: set = set()
        _reads(term, e, domain, reads)

        def run(cells, term=term, e=e, check=_int_check(bound, scale)):
            return check(*_interval(term, e, cells, domain, scale))

        checks.append((run, reads))

    for ax in axioms:
        # (below, above) per channel: the name's truth may not exceed the
        # right-hand side's and its falsity may not fall below it; a
        # definition needs both directions.
        pairs = []
        for ch in ("t",) if single else ("t", "f"):
            name = ("c", ax.lhs) + _literal(ch, single)
            rhs = _term(ax.rhs, ch, single)
            pairs.append((name, rhs) if ch == "t" else (rhs, name))
        both = ax.kind is not AxiomKind.SPECIALIZATION
        for d in domain:
            reads = set()
            for pair in pairs:
                for term in pair:
                    _reads(term, d, domain, reads)

            def run(cells, pairs=pairs, d=d, both=both):
                for below, above in pairs:
                    blo, bhi = _interval(below, d, cells, domain, scale)
                    alo, ahi = _interval(above, d, cells, domain, scale)
                    if blo > ahi or (both and alo > bhi):
                        return False
                return True

            checks.append((run, reads))
    return checks


def _backtrack(order, grid_ints, cells, watchers, run_check, budget) -> bool:
    """DFS over cell assignments; only checks watching a cell re-run.

    A loop keeping the next grid index per depth, so no recursion limit
    bounds a component; the budget ticks once per node entered.
    """
    budget.tick()
    nxt = [0] * len(order)
    i = 0
    while i < len(order):
        key = order[i]
        j = nxt[i]
        if j == len(grid_ints):
            cells[key] = None
            nxt[i] = 0
            if i == 0:
                return False
            i -= 1
            continue
        nxt[i] = j + 1
        cells[key] = grid_ints[j]
        if all(run_check(w) for w in watchers[key]):
            budget.tick()
            i += 1
    return True


def _solve(checks, grid_ints, budget) -> dict | None:
    """Assign the cells the checks read, one independent component at a time."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, reads in checks:
        ordered = sorted(reads)
        for a, b in zip(ordered, ordered[1:]):
            parent[find(a)] = find(b)

    cells = dict.fromkeys(key for _, reads in checks for key in reads)
    groups: dict = {}
    for idx, (_, reads) in enumerate(checks):
        groups.setdefault(find(min(reads)) if reads else None, []).append(idx)

    def run_check(i):
        return checks[i][0](cells)

    for root, idxs in groups.items():
        if not all(run_check(i) for i in idxs):
            return None
        if root is None:
            continue
        watchers: dict = {}
        for i in idxs:
            for k in checks[i][1]:
                watchers.setdefault(k, []).append(i)
        # Tight checks first: cells of small-scope checks get assigned
        # consecutively, so each check can prune as soon as possible.
        order = list(dict.fromkeys(
            k for i in sorted(idxs, key=lambda i: len(checks[i][1]))
            for k in sorted(checks[i][1])
        ))
        if not _backtrack(order, grid_ints, cells, watchers, run_check, budget):
            return None
    return cells


def _search(bounded, axioms, domain_size: int, grid: DegreeGrid, max_nodes: int,
            single: bool):
    """Grid search shared by both oracles.

    Individuals map injectively onto the first elements; variables are
    taken existentially over the whole domain.  Returns ``(domain,
    individual map, assignment, degrees)`` for the first assignment with
    a model, where ``degrees`` maps every cell read to its degree (a free
    cell reads as fully false), or None when there is no model.
    """
    objects = [o for a, _, _ in bounded for o in _objects(a)]
    individuals = sorted({o.name for o in objects if isinstance(o, Individual)})
    if domain_size < max(1, len(individuals)):
        raise ValueError("domain too small for the named individuals")
    domain = tuple(f"d{i}" for i in range(domain_size))
    ind_map = {name: domain[i] for i, name in enumerate(individuals)}
    variables = sorted({o for o in objects if isinstance(o, Variable)}, key=lambda v: v.index)
    scale = _common_scale(list(grid.values) + [b.value for _, b, _ in bounded])
    grid_ints = [int(v * scale) for v in grid.values]
    budget = _Budget(max_nodes)
    for combo in itertools.product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, combo))

        def element(obj) -> str:
            return ind_map[obj.name] if isinstance(obj, Individual) else assignment[obj]

        cells = _solve(_checks(bounded, axioms, element, domain, scale, single),
                       grid_ints, budget)
        if cells is not None:
            degrees = {
                k: (ZERO if k[-1] == "t" else ONE) if v is None else Fraction(v, scale)
                for k, v in cells.items()
            }
            return domain, ind_map, assignment, degrees
    return None


def exists_model(
    constraints,
    domain_size: int,
    grid: DegreeGrid,
    max_nodes: int = 5_000_000,
    axioms=(),
) -> FiniteInterpretation | None:
    """Search for a grid-valued model of the constraints.

    Every (name, channel) has its own cell.  Individuals map injectively
    onto the first elements; variables are taken existentially over the
    whole domain.  Terminological axioms, if given, are enforced
    pointwise at every element.  Raises SearchExhausted when the search
    exceeds ``max_nodes`` nodes.
    """
    constraints = list(constraints)
    axioms = list(axioms)
    bounded = [
        (c.assertion, bound, ch)
        for c in constraints
        for bound, ch in ((c.tbound, "t"), (c.fbound, "f"))
        if bound is not None
    ]
    found = _search(bounded, axioms, domain_size, grid, max_nodes, single=False)
    if found is None:
        return None
    domain, ind_map, assignment, degrees = found
    interp = FiniteInterpretation(domain, ind_map)

    def pair(*key) -> DegreePair:
        return DegreePair(degrees.get(key + ("t",), ZERO), degrees.get(key + ("f",), ONE))

    for name in {k[1] for k in degrees if k[0] == "c"}:
        for d in domain:
            interp.concept_table[(name, d)] = pair("c", name, d)
    for role in {k[1] for k in degrees if k[0] == "r"}:
        for d1, d2 in itertools.product(domain, repeat=2):
            interp.role_table[(role, d1, d2)] = pair("r", role, d1, d2)
    if all(satisfies(interp, c, assignment) for c in constraints) and all(
        satisfies_axiom(interp, ax) for ax in axioms
    ):
        return interp
    raise AssertionError("search produced a non-model; pruning is unsound")


def constraint_degrees(constraints) -> set[Fraction]:
    """The degrees the constraints' bounds mention.

    Equal degrees are found by their (numerator, denominator) pair, which
    hashes several times faster than a ``Fraction`` does.
    """
    seen: dict[tuple[int, int], Fraction] = {}
    for c in constraints:
        for bound in (c.tbound, c.fbound):
            if bound is not None:
                v = bound.value
                seen.setdefault((v.numerator, v.denominator), v)
    return set(seen.values())


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
    max_nodes: int = 5_000_000,
) -> bool:
    """Brute-force entailment: no model satisfies the refuted query.

    The default grid contains every degree of the constraints and the
    query plus the midpoints between neighbours; midpoints give the
    strict refutation bounds room to be satisfied, mirroring the
    midpoint choice model extraction makes.
    """
    constraints = list(constraints)
    refuted = constraints + [query.negated()]
    if grid is None:
        grid = DegreeGrid.containing(constraint_degrees(refuted)).with_midpoints()
    if domain_size is None:
        domain_size = default_domain_size(refuted)
    return exists_model(refuted, domain_size, grid, max_nodes=max_nodes) is None


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


def fuzzy_eval(interp: FuzzyInterpretation, c: ConceptExpr, element: str) -> Fraction:
    if isinstance(c, Top):
        return ONE
    if isinstance(c, Bottom):
        return ZERO
    if isinstance(c, Atomic):
        return interp.concept_value(c.name, element)
    if isinstance(c, Not):
        return 1 - fuzzy_eval(interp, c.inner, element)
    if isinstance(c, And):
        return min(fuzzy_eval(interp, c.left, element), fuzzy_eval(interp, c.right, element))
    if isinstance(c, Or):
        return max(fuzzy_eval(interp, c.left, element), fuzzy_eval(interp, c.right, element))
    if isinstance(c, Forall):
        return min(
            max(1 - interp.role_value(c.role, element, d), fuzzy_eval(interp, c.filler, d))
            for d in interp.domain
        )
    if isinstance(c, Exists):
        return max(
            min(interp.role_value(c.role, element, d), fuzzy_eval(interp, c.filler, d))
            for d in interp.domain
        )
    raise TypeError(f"not a concept expression: {c!r}")


def fuzzy_exists_model(
    bounded_assertions,
    axioms,
    domain_size: int,
    grid: DegreeGrid,
    max_nodes: int = 5_000_000,
) -> FuzzyInterpretation | None:
    """Grid search for a single-valued model.

    ``bounded_assertions`` is an iterable of ``(assertion, Bound)``
    pairs (strict bounds welcome); ``axioms`` are checked pointwise.
    This is the two-valued search with one truth cell per name, the
    falsity channel read as one minus truth.
    """
    bounded = [(a, bound, "t") for a, bound in bounded_assertions]
    found = _search(bounded, list(axioms), domain_size, grid, max_nodes, single=True)
    if found is None:
        return None
    domain, ind_map, _, degrees = found
    interp = FuzzyInterpretation(domain, ind_map)
    for key, value in degrees.items():
        if key[0] == "c":
            interp.concept_table[key[1:3]] = value
        else:
            interp.role_table[key[1:4]] = value
    return interp


def fuzzy_entails(
    fkb,
    query: FuzzyAssertion,
    domain_size: int | None = None,
    grid: DegreeGrid | None = None,
    max_nodes: int = 5_000_000,
) -> bool:
    """Single-valued entailment by refuted-query model search."""

    def bound(fa: FuzzyAssertion) -> Bound:
        return Bound(Rel.GE if fa.rel is FuzzyRel.GEQ else Rel.LE, fa.degree)

    wanted = bound(query)
    if vacuous(wanted):
        return True  # every degree meets the query: its refutation is empty
    bounded = [(fa.assertion, bound(fa)) for fa in fkb.assertions]
    bounded.append((query.assertion, Bound(wanted.rel.complement, wanted.value)))
    if grid is None:
        grid = DegreeGrid.containing(b.value for _, b in bounded).with_midpoints()
    if domain_size is None:
        query_like = [Constraint(a, Bound(Rel.GE, ZERO), None) for a, _ in bounded]
        domain_size = default_domain_size(query_like)
    model = fuzzy_exists_model(bounded, fkb.terminology, domain_size, grid, max_nodes)
    return model is None
