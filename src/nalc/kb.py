"""Knowledge bases: assertions plus an acyclic terminology.

A KB pairs nonstrict degree assertions about individuals with
terminological axioms (specializations ``A < C`` and definitions
``A = C``).  The expansion step turns a valid KB into a purely
assertional one that entails exactly the same statements, which is
the form the tableau works on.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .constraints import (
    Assertion,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Form,
    _check_degree,
)
from .syntax import (
    And,
    Atomic,
    ConceptExpr,
    Exists,
    Forall,
    Individual,
    Not,
    Or,
    atomic_names,
)


class AxiomKind(enum.Enum):
    SPECIALIZATION = "spec"
    DEFINITION = "define"


@dataclass(frozen=True)
class TerminologicalAxiom:
    lhs: str
    kind: AxiomKind
    rhs: ConceptExpr


@dataclass(frozen=True)
class KnowledgeBase:
    """Assertions and terminology, with what the reasoner reads of them
    on every call computed once per object.

    The hash, the violations ``validate`` reports and the unfolded
    definitions are cached on the KB the first time they are asked for:
    a KB is frozen, so a call on a prepared KB walks neither its
    statements nor its terminology again.  A copy or an unpickled KB is
    rebuilt through the constructor and computes them afresh: string
    hashes are salted per process.
    """

    assertions: tuple[Constraint, ...]
    terminology: tuple[TerminologicalAxiom, ...]

    def __post_init__(self):
        # Tuples also when built from lists: the reasoner keys the KB's
        # prepared form on the KB, so a KB must hash.
        object.__setattr__(self, "assertions", tuple(self.assertions))
        object.__setattr__(self, "terminology", tuple(self.terminology))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.assertions, self.terminology)

    @cached_property
    def _hash(self) -> int:
        return hash((self.assertions, self.terminology))

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_find_violations(self))

    @cached_property
    def _resolved(self) -> dict[str, ConceptExpr]:
        """The unfolded definitions, which ``resolved_definitions`` reads
        once the KB has passed ``validate``."""
        return _unfold_definitions(self.terminology)


@dataclass(frozen=True)
class Violation:
    kind: str  # duplicate-lhs | cycle | bad-assertion | name-collision
    message: str
    axiom_index: int = -1


def validate(kb: KnowledgeBase) -> list[Violation]:
    """Check KB well-formedness; an empty list means the KB is valid.

    The check runs once per KB object and is cached on it, so on a wide
    KB only the first call walks the statements.  Every call returns a
    fresh list.
    """
    return list(kb._violations)


def _statement_facts(assertions) -> tuple[list[Violation], frozenset[str]]:
    """The violations of single statements, in statement order, and the
    concept names the assertions use."""
    violations = []
    # A wide ABox repeats a few concepts: each distinct one is read once.
    concepts = set()
    for constraint in assertions:
        if not constraint.nonstrict:
            violations.append(
                Violation("bad-assertion", f"KB assertions must be nonstrict: {constraint}")
            )
        a = constraint.assertion
        if isinstance(a, ConceptAssertion):
            concepts.add(a.concept)
            subjects = (a.subject,)
        else:
            subjects = (a.subject, a.target)
        for s in subjects:
            if not isinstance(s, Individual):
                violations.append(
                    Violation("bad-assertion", f"KB assertions range over individuals: {constraint}")
                )
    return violations, frozenset().union(*map(atomic_names, concepts))


def redefinitions(terminology) -> Iterator[tuple[int, str]]:
    """The index and name of each axiom whose left-hand side an earlier
    axiom already has."""
    seen: set[str] = set()
    for idx, axiom in enumerate(terminology):
        if axiom.lhs in seen:
            yield idx, axiom.lhs
        seen.add(axiom.lhs)


def _walk(deps: dict[str, frozenset[str]]) -> tuple[list[str], list[list[str]]]:
    """One depth-first walk of a definition graph: the defined names in
    post-order, and the cycles that back edges close.

    A back edge is reported, with the cycle it closes, when it is a
    self-definition or when no reported cycle closes on its target yet.
    A back edge's target lies in its own strongly connected set, so every
    cyclic set still gets a report.  Roots are taken in the order of
    ``deps`` and each body's names in sorted order; names ``deps`` does
    not define are skipped.  The walk keeps its own stack, so a long
    chain needs no recursion, and it enters every name once.
    """
    finished: dict[str, None] = {}
    place: dict[str, int] = {}  # a name on the path -> its index there
    path: list[str] = []
    todo: list[Iterator[str]] = []
    cycles: list[list[str]] = []
    closed: set[str] = set()  # the names a reported cycle closes on
    for root in deps:
        if root in finished:
            continue
        place[root] = 0
        path.append(root)
        todo.append(iter(sorted(deps[root])))
        while todo:
            dep = next(todo[-1], None)
            if dep is None:
                todo.pop()
                name = path.pop()
                del place[name]
                finished[name] = None
            elif dep in place:
                if dep not in closed or dep == path[-1]:
                    closed.add(dep)
                    cycles.append(path[place[dep]:] + [dep])
            elif dep in deps and dep not in finished:
                place[dep] = len(path)
                path.append(dep)
                todo.append(iter(sorted(deps[dep])))
    return list(finished), cycles


def _find_violations(kb: KnowledgeBase) -> list[Violation]:
    """Every violation of the KB, for ``validate`` to cache."""
    violations = [
        Violation("duplicate-lhs", f"{name!r} appears on the left-hand side of more than one axiom", idx)
        for idx, name in redefinitions(kb.terminology)
    ]

    statement_violations, assertion_concepts = _statement_facts(kb.assertions)
    violations.extend(statement_violations)

    # Starred companions of specialized names must be fresh: no
    # statement may use one and no axiom may define one.
    lhs = [axiom.lhs for axiom in kb.terminology]
    body_names = [atomic_names(axiom.rhs) for axiom in kb.terminology]
    used_concepts = assertion_concepts.union(lhs, *body_names)
    violations.extend(
        Violation("name-collision", message, idx)
        for idx, name, message in _reserved_names(kb.terminology)
        if name in used_concepts
    )

    # One cycle per name a back edge closes on, and one per self-definition.
    index_of = {name: idx for idx, name in enumerate(lhs)}
    _, cycles = _walk(dict(zip(lhs, body_names)))
    violations.extend(
        Violation("cycle", "cyclic definitions: " + " -> ".join(cycle), index_of[cycle[0]])
        for cycle in cycles
    )
    return violations


def _reserved_names(terminology) -> Iterator[tuple[int, str, str]]:
    """The index, starred companion ``A*`` and refusal message of each
    specialization ``A < C``, whose expansion introduces ``A*`` fresh."""
    for idx, axiom in enumerate(terminology):
        if axiom.kind is AxiomKind.SPECIALIZATION:
            name = axiom.lhs + "*"
            yield idx, name, f"{name!r} is reserved for expanding 'spec {axiom.lhs} < ...'"


def _check_query(kb: KnowledgeBase, assertion: Assertion) -> None:
    """Refuse a query naming a starred companion ``A*``: unfolded through
    the expansion, it would be answered about a name the KB never states.
    A KB without a terminology costs one test."""
    if kb.terminology and isinstance(assertion, ConceptAssertion):
        names = atomic_names(assertion.concept)
        for _, name, message in _reserved_names(kb.terminology):
            if name in names:
                raise ValueError("invalid query: " + message)


def _substitute(c: ConceptExpr, mapping: dict[str, ConceptExpr]) -> ConceptExpr:
    """``c`` with every name in ``mapping`` replaced by its body.

    A subtree that names no mapped concept is returned as it is, so an
    unfolding shares every part it does not change.
    """
    if isinstance(c, Atomic):
        return mapping.get(c.name, c)
    if isinstance(c, (And, Or)):
        left, right = _substitute(c.left, mapping), _substitute(c.right, mapping)
        if left is c.left and right is c.right:
            return c
        return type(c)(left, right)
    if isinstance(c, Not):
        inner = _substitute(c.inner, mapping)
        return c if inner is c.inner else Not(inner)
    if isinstance(c, (Forall, Exists)):
        filler = _substitute(c.filler, mapping)
        return c if filler is c.filler else type(c)(c.role, filler)
    return c


def resolved_definitions(kb: KnowledgeBase) -> dict[str, ConceptExpr]:
    """Fully unfolded right-hand side for every defined name.

    Specializations ``A < C`` contribute the definition ``A = C and A*``
    with a fresh starred atomic concept.  This is the one validity gate
    of the reasoner: an invalid KB raises ``ValueError`` naming its first
    violation.  The unfolding is cached on the KB; every call validates
    it (from the cached check) and returns a fresh dict.
    """
    problems = validate(kb)
    if problems:
        raise ValueError("invalid KB: " + problems[0].message)
    return dict(kb._resolved)


def _unfold_definitions(terminology) -> dict[str, ConceptExpr]:
    """The unfolded definitions of a terminology that ``validate`` passes."""
    definitions: dict[str, ConceptExpr] = {}
    for axiom in terminology:
        if axiom.kind is AxiomKind.SPECIALIZATION:
            definitions[axiom.lhs] = And(axiom.rhs, Atomic(axiom.lhs + "*"))
        else:
            definitions[axiom.lhs] = axiom.rhs

    # In post-order each name comes after the names its body uses.
    order, _ = _walk({name: atomic_names(body) for name, body in definitions.items()})
    resolved: dict[str, ConceptExpr] = {}
    for name in order:
        resolved[name] = _substitute(definitions[name], resolved)
    return resolved


def unfold_assertion(assertion: Assertion, resolved: dict[str, ConceptExpr]) -> Assertion:
    """Replace defined names in an assertion's concept by their bodies;
    the assertion itself when it names none."""
    if isinstance(assertion, ConceptAssertion):
        concept = _substitute(assertion.concept, resolved)
        if concept is not assertion.concept:
            return ConceptAssertion(concept, assertion.subject)
    return assertion


def unfold_constraint(constraint: Constraint, resolved: dict[str, ConceptExpr]) -> Constraint:
    """Replace defined names in a constraint's concept by their bodies;
    the constraint itself when it names none."""
    assertion = unfold_assertion(constraint.assertion, resolved)
    if assertion is constraint.assertion:
        return constraint
    return Constraint(assertion, constraint.tbound, constraint.fbound)


def expand(kb: KnowledgeBase) -> KnowledgeBase:
    """Unfold the terminology into the assertions.

    Specializations ``A < C`` first become definitions ``A = C and A*``
    with a fresh starred atomic concept, then every defined name is
    exhaustively replaced by its right-hand side.  The result is purely
    assertional and entails the same statements as the input.
    """
    resolved = resolved_definitions(kb)
    new_assertions = tuple(
        unfold_constraint(constraint, resolved) for constraint in kb.assertions
    )
    return KnowledgeBase(new_assertions, ())


# --- fuzzy embedding and projections ---------------------------------

class FuzzyRel(enum.Enum):
    GEQ = ">="
    LEQ = "<="


@dataclass(frozen=True)
class FuzzyAssertion:
    """A single-valued degree assertion ``<alpha >= n>`` / ``<alpha <= m>``.

    Projections of two-component KBs may produce the vacuous degrees 0
    (for >=) and 1 (for <=); the fuzzy oracle treats those as trivially
    satisfied.
    """

    assertion: Assertion
    rel: FuzzyRel
    degree: Fraction

    def __post_init__(self):
        _check_degree(self.degree, "fuzzy degree")


@dataclass(frozen=True)
class FuzzyKb:
    assertions: tuple[FuzzyAssertion, ...]
    terminology: tuple[TerminologicalAxiom, ...] = ()


def embed_fuzzy(fkb: FuzzyKb) -> KnowledgeBase:
    """Represent a fuzzy KB with paired-degree assertions.

    ``<alpha >= n>`` becomes ``<alpha: >= n, <= 1-n>`` and
    ``<alpha <= n>`` becomes ``<alpha: <= n, >= 1-n>``; axioms carry
    over unchanged.
    """
    return KnowledgeBase(
        tuple(
            Constraint.of_form(
                fa.assertion,
                Form.GEQ_LEQ if fa.rel is FuzzyRel.GEQ else Form.LEQ_GEQ,
                DegreePair(fa.degree, 1 - fa.degree),
            )
            for fa in fkb.assertions
        ),
        fkb.terminology,
    )


def _project(kb: KnowledgeBase, truth_side: bool) -> FuzzyKb:
    assertions = []
    for constraint in kb.assertions:
        if not constraint.nonstrict:
            raise ValueError(f"projections are defined on nonstrict assertions: {constraint}")
        bound = constraint.tbound if truth_side else constraint.fbound
        rel = FuzzyRel(bound.rel.value)
        assertions.append(FuzzyAssertion(constraint.assertion, rel, bound.value))
    return FuzzyKb(tuple(assertions), kb.terminology)


def sharp(kb: KnowledgeBase) -> FuzzyKb:
    """Truth-side projection: keep the bound on the truth value."""
    return _project(kb, truth_side=True)


def star(kb: KnowledgeBase) -> FuzzyKb:
    """Falsity-side projection: keep the bound on the falsity value.

    The degrees of the result bound falsity, not truth.  An oracle that
    reads degrees as truth, such as ``fuzzy_entails``, must read each
    bound as ``1 - v`` with the direction flipped: ``<alpha <= m>``
    becomes ``<alpha >= 1-m>`` and ``<alpha >= m>`` becomes
    ``<alpha <= 1-m>``.
    """
    return _project(kb, truth_side=False)

