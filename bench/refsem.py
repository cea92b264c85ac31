"""Reference evaluator of the truth/falsity semantics of neutrosophic ALC.

Written apart from ``nalc.semantics`` so that the benchmark can check the
program's answers against a second computation.  Concepts are plain
tuples:

    ("top",) ("bot",) ("atom", A) ("not", C) ("and", C, D) ("or", C, D)
    ("all", R, C) ("some", R, C)

An interpretation assigns a (truth, falsity) pair to every atomic concept
at every element and to every role at every pair of elements; entries
that are not listed are (0, 1), fully false.  Truth composes with
min/max, falsity with the dual operator, negation swaps the two, and

    (all R C)  = (inf_d max(R_f, C_t), sup_d min(R_t, C_f))
    (some R C) = (sup_d min(R_t, C_t), inf_d max(R_f, C_f)).

A (0, 1) role entry is neutral in all four quantifier channels, so the
quantifiers only need to visit the listed successors.

A statement is ``(assertion, form, n, m)``: the assertion is
``("c", concept, ind)`` or ``("r", role, ind, ind)``; form "lower" reads
truth >= n and falsity <= m, form "upper" reads truth <= n and
falsity >= m.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
QUARTERS = tuple(Fraction(k, 4) for k in range(5))


class Model:
    """A finite interpretation; individuals name elements of the domain."""

    def __init__(self, domain, individuals):
        self.domain = list(domain)
        self.individuals = dict(individuals)
        self.concepts: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}
        self.roles: dict[tuple[str, str, str], tuple[Fraction, Fraction]] = {}
        self._succ: dict[tuple[str, str], dict[str, tuple[Fraction, Fraction]]] = {}

    def set_concept(self, name, element, pair):
        self.concepts[(name, element)] = pair

    def set_role(self, role, e, d, pair):
        self.roles[(role, e, d)] = pair
        self._succ.setdefault((role, e), {})[d] = pair

    def concept(self, name, element):
        return self.concepts.get((name, element), (ZERO, ONE))

    def role(self, role, e, d):
        return self.roles.get((role, e, d), (ZERO, ONE))

    def successors(self, role, e):
        return self._succ.get((role, e), {}).items()


def from_interpretation(interp) -> Model:
    """Read a ``nalc`` finite interpretation through its public tables."""
    model = Model(interp.domain, interp.individual_map)
    for (name, element), pair in interp.concept_table.items():
        model.set_concept(name, element, (pair.n, pair.m))
    for (role, e, d), pair in interp.role_table.items():
        model.set_role(role, e, d, (pair.n, pair.m))
    return model


def value(model: Model, c, element):
    """The (truth, falsity) pair of concept ``c`` at ``element``."""
    tag = c[0]
    if tag == "atom":
        return model.concept(c[1], element)
    if tag == "top":
        return (ONE, ZERO)
    if tag == "bot":
        return (ZERO, ONE)
    if tag == "not":
        t, f = value(model, c[1], element)
        return (f, t)
    if tag in ("and", "or"):
        lt, lf = value(model, c[1], element)
        rt, rf = value(model, c[2], element)
        if tag == "and":
            return (min(lt, rt), max(lf, rf))
        return (max(lt, rt), min(lf, rf))
    if tag == "all":
        t, f = ONE, ZERO
        for d, (rt, rf) in model.successors(c[1], element):
            ct, cf = value(model, c[2], d)
            t = min(t, max(rf, ct))
            f = max(f, min(rt, cf))
        return (t, f)
    if tag == "some":
        t, f = ZERO, ONE
        for d, (rt, rf) in model.successors(c[1], element):
            ct, cf = value(model, c[2], d)
            t = max(t, min(rt, ct))
            f = min(f, max(rf, cf))
        return (t, f)
    raise ValueError(f"not a concept: {c!r}")


def assertion_value(model: Model, assertion):
    if assertion[0] == "r":
        _, role, i, j = assertion
        return model.role(role, model.individuals[i], model.individuals[j])
    _, concept, i = assertion
    return value(model, concept, model.individuals[i])


def pair_meets(pair, form, n, m) -> bool:
    t, f = pair
    if form == "lower":
        return t >= n and f <= m
    return t <= n and f >= m


def holds(model: Model, statement) -> bool:
    assertion, form, n, m = statement
    return pair_meets(assertion_value(model, assertion), form, n, m)


def refutes(model: Model, query) -> bool:
    """Does the model fail both halves of a query?

    Entailment of ``>= n <= m`` is refuted by a model of ``< n > m``, and
    of ``<= n >= m`` by one of ``> n < m``: a model that fails only one
    half is not a countermodel.
    """
    assertion, form, n, m = query
    t, f = assertion_value(model, assertion)
    if form == "lower":
        return t < n and f > m
    return t > n and f < m


def meets_axiom(model: Model, axiom) -> bool:
    """Pointwise reading of ``define A = C`` (equal pairs) and ``spec A < C``
    (A's truth at most C's, A's falsity at least C's)."""
    kind, name, body = axiom
    for e in model.domain:
        at, af = model.concept(name, e)
        ct, cf = value(model, body, e)
        if kind == "define" and (at, af) != (ct, cf):
            return False
        if kind == "spec" and not (at <= ct and af >= cf):
            return False
    return True


# --- terminology ---------------------------------------------------------

def substitute(c, mapping):
    tag = c[0]
    if tag == "atom":
        return mapping.get(c[1], c)
    if tag == "not":
        return ("not", substitute(c[1], mapping))
    if tag in ("and", "or"):
        return (tag, substitute(c[1], mapping), substitute(c[2], mapping))
    if tag in ("all", "some"):
        return (tag, c[1], substitute(c[2], mapping))
    return c


def definitions(terminology):
    """Unfolded body of every defined name of an acyclic terminology.

    ``("define", A, C)`` reads A = C; ``("spec", A, C)`` reads A < C and
    is taken as A = C and A*, with A* a fresh atomic concept.  A model of
    the unfolded statements, with A read as its body, is a model of the
    terminology.
    """
    bodies = {}
    for kind, name, body in terminology:
        bodies[name] = body if kind == "define" else ("and", body, ("atom", name + "*"))
    resolved = {}

    def resolve(name):
        if name not in resolved:
            resolved[name] = substitute(bodies[name], {n: resolve(n) for n in atoms(bodies[name]) if n in bodies})
        return resolved[name]

    for name in bodies:
        resolve(name)
    return resolved


def unfold_statement(statement, resolved):
    assertion, form, n, m = statement
    if assertion[0] == "c" and resolved:
        assertion = ("c", substitute(assertion[1], resolved), assertion[2])
    return (assertion, form, n, m)


def atoms(c) -> set[str]:
    tag = c[0]
    if tag == "atom":
        return {c[1]}
    if tag == "not":
        return atoms(c[1])
    if tag in ("and", "or"):
        return atoms(c[1]) | atoms(c[2])
    if tag in ("all", "some"):
        return atoms(c[2])
    return set()


def roles(c) -> set[str]:
    tag = c[0]
    if tag == "not":
        return roles(c[1])
    if tag in ("and", "or"):
        return roles(c[1]) | roles(c[2])
    if tag in ("all", "some"):
        return {c[1]} | roles(c[2])
    return set()


def depth(c) -> int:
    tag = c[0]
    if tag == "not":
        return depth(c[1])
    if tag in ("and", "or"):
        return max(depth(c[1]), depth(c[2]))
    if tag in ("all", "some"):
        return 1 + depth(c[2])
    return 0


def dual(c):
    """Negation normal form of ``(not c)``, by de Morgan and the role
    dualities; ``value(dual(c))`` is ``value(c)`` with the pair swapped."""
    tag = c[0]
    if tag == "atom":
        return ("not", c)
    if tag == "top":
        return ("bot",)
    if tag == "bot":
        return ("top",)
    if tag == "not":
        return c[1]
    if tag == "and":
        return ("or", dual(c[1]), dual(c[2]))
    if tag == "or":
        return ("and", dual(c[1]), dual(c[2]))
    if tag == "all":
        return ("some", c[1], dual(c[2]))
    return ("all", c[1], dual(c[2]))


def subsumption_countermodel(sub, sup, resolved=None):
    """A one-element, crisp-valued model refuting ``sub`` below ``sup``.

    Subsumption over the degree grid asks, for every grid pair (n, m),
    that ``sub >= n <= m`` entail ``sup >= n <= m``.  A model where
    ``sub`` takes the crisp pair (n, m) and ``sup`` misses it refutes
    the pair (n, m), which lies on every grid.  Returns the model or None.
    """
    resolved = resolved or {}
    sub = substitute(sub, resolved)
    sup = substitute(sup, resolved)
    names = sorted(atoms(sub) | atoms(sup))
    rnames = sorted(roles(sub) | roles(sup))
    crisp = (ZERO, ONE)
    cells = len(names) + len(rnames)
    for bits in itertools.product(crisp, repeat=2 * cells):
        model = Model(["e"], {"_probe": "e"})
        for k, name in enumerate(names):
            model.set_concept(name, "e", (bits[2 * k], bits[2 * k + 1]))
        for k, role in enumerate(rnames, start=len(names)):
            model.set_role(role, "e", "e", (bits[2 * k], bits[2 * k + 1]))
        n, m = value(model, sub, "e")
        if not pair_meets(value(model, sup, "e"), "lower", n, m):
            return model
    return None


# --- text ----------------------------------------------------------------

def degree_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def concept_text(c) -> str:
    tag = c[0]
    if tag == "atom":
        return c[1]
    if tag in ("top", "bot"):
        return tag
    if tag == "not":
        return f"(not {concept_text(c[1])})"
    if tag in ("and", "or"):
        return f"({tag} {concept_text(c[1])} {concept_text(c[2])})"
    return f"({tag} {c[1]} {concept_text(c[2])})"


def assertion_text(assertion) -> str:
    if assertion[0] == "r":
        return f"{assertion[1]}({assertion[2]},{assertion[3]})"
    return f"{concept_text(assertion[1])}({assertion[2]})"


def statement_text(statement) -> str:
    assertion, form, n, m = statement
    rels = (">=", "<=") if form == "lower" else ("<=", ">=")
    return (f"assert {assertion_text(assertion)} "
            f"{rels[0]} {degree_text(n)} {rels[1]} {degree_text(m)}")


def axiom_text(axiom) -> str:
    kind, name, body = axiom
    return f"{kind} {name} {'=' if kind == 'define' else '<'} {concept_text(body)}"


def kb_text(statements, terminology=()) -> str:
    lines = [axiom_text(a) for a in terminology]
    lines += [statement_text(s) for s in statements]
    return "\n".join(lines) + "\n"
