"""Random generators shared by the test suite.

All generators take an explicit ``random.Random`` so every test run is
reproducible from its seed.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from nalc import (
    And,
    Atomic,
    BOT,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreeGrid,
    DegreePair,
    Exists,
    FiniteInterpretation,
    Forall,
    FuzzyAssertion,
    FuzzyKb,
    FuzzyRel,
    Individual,
    KnowledgeBase,
    Not,
    Or,
    Rel,
    RoleAssertion,
    TOP,
)

QUARTERS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
QUARTER_GRID = DegreeGrid.containing(QUARTERS)

ATOMS = ["A", "B", "C"]
ROLES = ["R", "S"]
INDIVIDUALS = ["a", "b", "c"]


def stable_seed(name: str) -> int:
    """A seed derived from ``name`` that is the same in every process.

    ``hash`` of a string is salted per interpreter run, so it cannot
    serve as a reproducible seed.
    """
    return zlib.crc32(name.encode("utf-8"))


def rand_concept(rng: random.Random, depth: int, atoms=ATOMS, roles=ROLES):
    """Random concept of quantifier depth at most ``depth``."""
    if depth <= 0:
        pick = rng.random()
        if pick < 0.8:
            return Atomic(rng.choice(atoms))
        return TOP if pick < 0.9 else BOT
    pick = rng.random()
    if pick < 0.30:
        return Atomic(rng.choice(atoms))
    if pick < 0.45:
        return Not(rand_concept(rng, depth - 1, atoms, roles))
    if pick < 0.60:
        return And(rand_concept(rng, depth - 1, atoms, roles),
                   rand_concept(rng, depth - 1, atoms, roles))
    if pick < 0.75:
        return Or(rand_concept(rng, depth - 1, atoms, roles),
                  rand_concept(rng, depth - 1, atoms, roles))
    if pick < 0.875:
        return Exists(rng.choice(roles), rand_concept(rng, depth - 1, atoms, roles))
    return Forall(rng.choice(roles), rand_concept(rng, depth - 1, atoms, roles))


def rand_interpretation(
    rng: random.Random,
    domain_size: int,
    atoms=ATOMS,
    roles=ROLES,
    degrees=QUARTERS,
    individuals=(),
) -> FiniteInterpretation:
    domain = tuple(f"d{i}" for i in range(domain_size))
    interp = FiniteInterpretation(
        domain, {name: domain[i] for i, name in enumerate(individuals)}
    )
    for name in atoms:
        for d in domain:
            interp.concept_table[(name, d)] = DegreePair(
                rng.choice(degrees), rng.choice(degrees)
            )
    for role in roles:
        for d1 in domain:
            for d2 in domain:
                interp.role_table[(role, d1, d2)] = DegreePair(
                    rng.choice(degrees), rng.choice(degrees)
                )
    return interp


def rand_assertion(rng: random.Random, depth: int, atoms=ATOMS, roles=ROLES,
                   individuals=INDIVIDUALS, role_share=0.25):
    if rng.random() < role_share:
        return RoleAssertion(
            rng.choice(roles),
            Individual(rng.choice(individuals)),
            Individual(rng.choice(individuals)),
        )
    return ConceptAssertion(
        rand_concept(rng, rng.randint(0, depth), atoms, roles),
        Individual(rng.choice(individuals)),
    )


def rand_kb_constraint(rng: random.Random, depth: int = 3, atoms=ATOMS, roles=ROLES,
                       individuals=INDIVIDUALS, degrees=QUARTERS) -> Constraint:
    assertion = rand_assertion(rng, depth, atoms, roles, individuals)
    n, m = rng.choice(degrees), rng.choice(degrees)
    if rng.random() < 0.5:
        return Constraint(assertion, Bound(Rel.GE, n), Bound(Rel.LE, m))
    return Constraint(assertion, Bound(Rel.LE, n), Bound(Rel.GE, m))


def rand_assertional_kb(rng: random.Random, size: int | None = None, depth: int = 3,
                        atoms=ATOMS, roles=ROLES, individuals=INDIVIDUALS,
                        degrees=QUARTERS) -> KnowledgeBase:
    if size is None:
        size = rng.randint(2, 4)
    inds = individuals[: rng.randint(1, len(individuals))]
    return KnowledgeBase(
        tuple(
            rand_kb_constraint(rng, depth, atoms, roles, inds, degrees)
            for _ in range(size)
        ),
        (),
    )


def rand_fuzzy_kb(rng: random.Random, size: int | None = None, depth: int = 2,
                  atoms=("A", "B"), roles=("R",), individuals=("a", "b"),
                  degrees=QUARTERS) -> FuzzyKb:
    if size is None:
        size = rng.randint(2, 4)
    assertions = []
    for _ in range(size):
        assertion = rand_assertion(rng, depth, atoms, roles, individuals)
        if rng.random() < 0.5:
            degree = rng.choice([d for d in degrees if d > 0])
            assertions.append(FuzzyAssertion(assertion, FuzzyRel.GEQ, degree))
        else:
            degree = rng.choice([d for d in degrees if d < 1])
            assertions.append(FuzzyAssertion(assertion, FuzzyRel.LEQ, degree))
    return FuzzyKb(tuple(assertions), ())


def rand_query(rng: random.Random, depth: int = 2, atoms=ATOMS, roles=ROLES,
               individuals=INDIVIDUALS, degrees=QUARTERS) -> Constraint:
    return rand_kb_constraint(rng, depth, atoms, roles, individuals, degrees)


def ring_abox_text(individuals: int) -> str:
    """Four statements per individual ``a<i>``, whose R-successor is the
    next one around a ring.  Each individual opens a disjunction choice
    and an edge choice, so a run branches once per individual."""
    return "".join(
        f"assert A(a{i}) >= 0.5 <= 0.25\n"
        f"assert R(a{i}, a{(i + 1) % individuals}) >= 0.75 <= 0.25\n"
        f"assert (or B (some R C))(a{i}) >= 0.5 <= 0.5\n"
        f"assert (all R (or A D))(a{i}) >= 0.25 <= 0.75\n"
        for i in range(individuals)
    )
