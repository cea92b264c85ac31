"""Knowledge bases: assertions plus an acyclic terminology.

A KB pairs nonstrict degree assertions about individuals with
terminological axioms (specializations ``A < C`` and definitions
``A = C``).  The expansion step turns a valid KB into a purely
assertional one that entails exactly the same statements, which is
the form the tableau works on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .constraints import (
    Assertion,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Form,
    Rel,
    RoleAssertion,
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

    The hash and the statement facts (``_statement_facts``: the
    per-statement violations and the assertions' concept names) are
    cached on the KB the first time they are asked for, so a call on a
    prepared KB does not walk its statements again.  A copy or an
    unpickled KB is rebuilt through the constructor and computes them
    afresh: string hashes are salted per process.
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
    def _statement_facts(self) -> tuple[tuple[Violation, ...], frozenset[str]]:
        """The violations of single statements, in statement order, and
        the concept names the assertions use."""
        violations = []
        for constraint in self.assertions:
            if constraint.form not in (Form.GEQ_LEQ, Form.LEQ_GEQ):
                violations.append(
                    Violation("bad-assertion", f"KB assertions must be nonstrict: {constraint}")
                )
            a = constraint.assertion
            subjects = (a.subject, a.target) if isinstance(a, RoleAssertion) else (a.subject,)
            for s in subjects:
                if not isinstance(s, Individual):
                    violations.append(
                        Violation("bad-assertion", f"KB assertions range over individuals: {constraint}")
                    )
        # A wide ABox repeats a few concepts over many individuals, so
        # each distinct concept is read once.
        concepts = {c.assertion.concept for c in self.assertions
                    if isinstance(c.assertion, ConceptAssertion)}
        return tuple(violations), frozenset().union(*map(atomic_names, concepts))


@dataclass(frozen=True)
class Violation:
    kind: str  # duplicate-lhs | cycle | bad-assertion | name-collision
    message: str
    axiom_index: int = -1


def validate(kb: KnowledgeBase) -> list[Violation]:
    """Check KB well-formedness; an empty list means the KB is valid.

    Only the terminology is checked here.  The statement facts (the
    form and subjects of each assertion, the concept names the
    assertions use) are read from the KB, which computes them once, so
    on a wide KB a call costs the size of its terminology.  Every call
    returns a fresh list.
    """
    violations: list[Violation] = []
    seen: dict[str, int] = {}
    for idx, axiom in enumerate(kb.terminology):
        if axiom.lhs in seen:
            violations.append(
                Violation(
                    "duplicate-lhs",
                    f"{axiom.lhs!r} appears on the left-hand side of more than one axiom",
                    idx,
                )
            )
        else:
            seen[axiom.lhs] = idx

    statement_violations, assertion_concepts = kb._statement_facts
    violations.extend(statement_violations)

    # Starred companions of specialized names must be fresh.
    used_concepts = assertion_concepts.union(*(atomic_names(axiom.rhs) for axiom in kb.terminology))
    for idx, axiom in enumerate(kb.terminology):
        if axiom.kind is AxiomKind.SPECIALIZATION and axiom.lhs + "*" in used_concepts:
            violations.append(
                Violation(
                    "name-collision",
                    f"{axiom.lhs + '*'!r} is reserved for expanding 'spec {axiom.lhs} < ...'",
                    idx,
                )
            )

    # Cycle check over the definition dependency graph.
    deps = {axiom.lhs: atomic_names(axiom.rhs) for axiom in kb.terminology}
    index_of = {axiom.lhs: idx for idx, axiom in enumerate(kb.terminology)}
    state: dict[str, int] = {}  # 0 visiting, 1 done
    stack: list[str] = []

    def visit(name: str) -> list[str] | None:
        """The first cycle a depth-first walk from ``name`` meets, taking
        dependencies in sorted order.  A loop, so a long chain needs no
        recursion; on a cycle it leaves ``stack`` and ``state`` as they
        stand."""
        todo = [iter((name,))]
        while todo:
            dep = next(todo[-1], None)
            if dep is None:
                todo.pop()
                if todo:
                    state[stack.pop()] = 1
            elif dep in deps and state.get(dep) != 1:
                if state.get(dep) == 0:
                    return stack[stack.index(dep):] + [dep]
                state[dep] = 0
                stack.append(dep)
                todo.append(iter(sorted(deps[dep])))
        return None

    reported: set[frozenset[str]] = set()
    for name in deps:
        cycle = visit(name)
        if cycle is not None and frozenset(cycle) not in reported:
            reported.add(frozenset(cycle))
            # A walk that meets a cycle reported before leaves its path
            # marked, so a later walk can stop on a stale path that is no
            # cycle of the terminology; only a path along definitions is
            # reported.
            if all(b in deps[a] for a, b in zip(cycle, cycle[1:])):
                violations.append(
                    Violation(
                        "cycle",
                        "cyclic definitions: " + " -> ".join(cycle),
                        index_of[cycle[0]],
                    )
                )
            state.clear()
            stack.clear()
    return violations


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
    violation.
    """
    problems = validate(kb)
    if problems:
        raise ValueError("invalid KB: " + problems[0].message)
    definitions: dict[str, ConceptExpr] = {}
    for axiom in kb.terminology:
        if axiom.kind is AxiomKind.SPECIALIZATION:
            definitions[axiom.lhs] = And(axiom.rhs, Atomic(axiom.lhs + "*"))
        else:
            definitions[axiom.lhs] = axiom.rhs

    # Each name after the names its body uses, in the body's order; the
    # walk keeps its own stack, so a long chain needs no recursion.
    resolved: dict[str, ConceptExpr] = {}
    for root in definitions:
        todo = [root]
        while todo:
            name = todo[-1]
            if name in resolved:
                todo.pop()
                continue
            body = definitions[name]
            deps = [dep for dep in atomic_names(body) if dep in definitions]
            pending = [dep for dep in deps if dep not in resolved]
            if pending:
                todo.extend(reversed(pending))
                continue
            todo.pop()
            resolved[name] = _substitute(body, {dep: resolved[dep] for dep in deps})
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
        if not 0 <= self.degree <= 1:
            raise ValueError(f"fuzzy degree {self.degree} outside [0, 1]")


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
        if constraint.form not in (Form.GEQ_LEQ, Form.LEQ_GEQ):
            raise ValueError(f"projections are defined on nonstrict assertions: {constraint}")
        bound = constraint.tbound if truth_side else constraint.fbound
        rel = FuzzyRel.GEQ if bound.rel is Rel.GE else FuzzyRel.LEQ
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

