"""Seeded inputs of the four workloads, each operation with its answer.

A workload is a pool of rounds; a round is a list of operations that run
in order and share a context (a ``load`` stores the parsed KB there).
Every answer comes from construction, never from running the program:

* satisfiable and "not entailed" answers come with a planted finite
  model that the reference evaluator (``refsem``) checks;
* "entailed", "unsatisfiable" and "subsumed" answers are weakenings of
  a KB statement, instances of an entailed bound-transfer family, de
  Morgan contradictions or lattice laws;
* glb/lub answers are closed forms: a fresh concept asserted once has
  exactly its asserted pair as glb and nothing above it, so its lub is
  (1, 0); a role edge's glb is the best of its lower-form assertions.

``check`` on an operation result returns None when the answer is right,
else a one-line description of what is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import refsem as rs
from refsem import ONE, QUARTERS, ZERO

ATOMS = ("A", "B", "C")
ROLES = ("R", "S")
INDIVIDUALS = ("a", "b", "c")


@dataclass
class Op:
    kind: str  # load | check | entails | glb | lub | subsumes | oracle
    label: str
    call: Callable[[dict], Any]
    check: Callable[[Any], str | None]
    size: int = 0  # statements in the KB the operation reads


@dataclass
class Workload:
    rounds: list[list[Op]]
    description: str


# --- random material -----------------------------------------------------

def rand_concept(rng, depth, atoms=ATOMS, roles=ROLES):
    """Random concept of quantifier depth at most ``depth``."""
    if depth <= 0:
        pick = rng.random()
        if pick < 0.8:
            return ("atom", rng.choice(atoms))
        return ("top",) if pick < 0.9 else ("bot",)
    pick = rng.random()
    if pick < 0.30:
        return ("atom", rng.choice(atoms))
    if pick < 0.45:
        return ("not", rand_concept(rng, depth - 1, atoms, roles))
    if pick < 0.75:
        tag = "and" if pick < 0.60 else "or"
        return (tag, rand_concept(rng, depth - 1, atoms, roles),
                rand_concept(rng, depth - 1, atoms, roles))
    tag = "some" if pick < 0.875 else "all"
    return (tag, rng.choice(roles), rand_concept(rng, depth - 1, atoms, roles))


def rand_model(rng, individuals, extra, atoms=ATOMS, roles=ROLES):
    """Quarter-grid model: individuals first, then ``extra`` elements."""
    domain = [f"e{k}" for k in range(len(individuals) + extra)]
    model = rs.Model(domain, {name: domain[k] for k, name in enumerate(individuals)})
    for name in atoms:
        for e in domain:
            model.set_concept(name, e, (rng.choice(QUARTERS), rng.choice(QUARTERS)))
    for role in roles:
        for e in domain:
            for d in domain:
                model.set_role(role, e, d, (rng.choice(QUARTERS), rng.choice(QUARTERS)))
    return model


def weakening(rng, pair, form):
    """A bound pair met by ``pair`` in ``form``, tight half of the time."""
    t, f = pair
    if form == "lower":
        n = t if rng.random() < 0.5 else rng.choice([q for q in QUARTERS if q <= t])
        m = f if rng.random() < 0.5 else rng.choice([q for q in QUARTERS if q >= f])
    else:
        n = t if rng.random() < 0.5 else rng.choice([q for q in QUARTERS if q >= t])
        m = f if rng.random() < 0.5 else rng.choice([q for q in QUARTERS if q <= f])
    return n, m


def weaker(rng, statement):
    """A statement entailed by ``statement``: each bound relaxed a step or not."""
    assertion, form, n, m = statement
    step = Fraction(1, 4) if rng.random() < 0.5 else ZERO
    if form == "lower":
        return (assertion, form, max(ZERO, n - step), min(ONE, m + step))
    return (assertion, form, min(ONE, n + step), max(ZERO, m - step))


def refuted_by(rng, pair, assertion):
    """A nonstrict query on ``assertion`` whose both halves ``pair`` fails,
    or None when no query can be refuted by it ((1, 1) and (0, 0))."""
    t, f = pair
    if t < 1 and f > 0:
        return (assertion, "lower", rng.choice([q for q in QUARTERS if q > t]),
                rng.choice([q for q in QUARTERS if q < f]))
    if t > 0 and f < 1:
        return (assertion, "upper", rng.choice([q for q in QUARTERS if q < t]),
                rng.choice([q for q in QUARTERS if q > f]))
    return None


def individuals_of(statements):
    out = []
    for (assertion, *_rest) in statements:
        names = assertion[2:] if assertion[0] == "r" else (assertion[2],)
        for name in names:
            if name not in out:
                out.append(name)
    return sorted(out)


def oracle_domain(statements):
    """Distinct individuals plus the deepest quantifier nesting."""
    deepest = max((rs.depth(a[1]) for (a, *_r) in statements if a[0] == "c"), default=0)
    return max(1, len(individuals_of(statements))) + deepest


# --- answer checks -------------------------------------------------------

def expect_equal(expected, what):
    def check(result):
        return None if result == expected else f"{what}: expected {expected}, got {result}"
    return check


def expect_pair(expected, what):
    def check(result):
        got = (result.bound.n, result.bound.m)
        return None if got == expected else f"{what}: expected {fmt_pair(expected)}, got {fmt_pair(got)}"
    return check


def fmt_pair(pair):
    return "(" + ", ".join(rs.degree_text(x) for x in pair) + ")"


def expect_satisfiable(statements, terminology, what):
    """Status satisfiable, and the returned model meets every statement
    once the terminology is unfolded."""
    resolved = rs.definitions(terminology)
    unfolded = [rs.unfold_statement(s, resolved) for s in statements]

    def check(result):
        status, interp = result
        if status != "satisfiable":
            return f"{what}: expected satisfiable, got {status}"
        model = rs.from_interpretation(interp)
        for s in unfolded:
            if not rs.holds(model, s):
                return f"{what}: returned model fails {rs.statement_text(s)}"
        return None
    return check


def expect_model(statements, what, refuted=None, axioms=()):
    """The enumerator returned a model; it meets the statements and the
    axioms, and refutes ``refuted`` when one is given."""
    def check(interp):
        if interp is None:
            return f"{what}: expected a model, got none"
        model = rs.from_interpretation(interp)
        for s in statements:
            if not rs.holds(model, s):
                return f"{what}: returned model fails {rs.statement_text(s)}"
        if not all(rs.meets_axiom(model, ax) for ax in axioms):
            return f"{what}: returned model breaks the terminology"
        if refuted is not None and not rs.refutes(model, refuted):
            return f"{what}: returned model does not refute the query"
        return None
    return check


def confirm_countermodel(model, statements, query, terminology=()):
    """A "not entailed" answer is used only with a model that meets the
    statements (terminology unfolded) and refutes the query."""
    resolved = rs.definitions(terminology)
    if not all(rs.holds(model, rs.unfold_statement(s, resolved)) for s in statements):
        raise AssertionError("planted model fails the KB")
    if not rs.refutes(model, rs.unfold_statement(query, resolved)):
        raise AssertionError(f"planted model does not refute {rs.statement_text(query)}")


# --- operations ----------------------------------------------------------

def op_load(api, text, statements, terminology=(), slot="kb"):
    count = len(statements)

    def call(ctx):
        ctx[slot] = kb = api.parse_kb(text)
        return (len(kb.assertions), len(kb.terminology))
    return Op("load", f"load of {count} statements", call,
              expect_equal((count, len(terminology)), f"load of {count} statements"), count)


def op_check(api, statements, terminology=(), slot="kb", satisfiable=True):
    def call(ctx):
        result = api.check_satisfiable(ctx[slot])
        if result.status is api.Status.SATISFIABLE:
            return ("satisfiable", api.extract_model(result.witness))
        return ("unsatisfiable", None)
    what = f"check of {len(statements)} statements"
    if satisfiable:
        verdict = expect_satisfiable(statements, terminology, what)
    else:
        def verdict(result):
            return None if result[0] == "unsatisfiable" else f"{what}: expected unsatisfiable"
    return Op("check", what, call, verdict, len(statements))


def op_entails(api, query, expected, size, slot="kb"):
    text = rs.statement_text(query)
    parsed = api.parse_query(text)
    return Op("entails", f"entails {text}", lambda ctx: api.entails(ctx[slot], parsed),
              expect_equal(expected, f"entails {text}"), size)


def op_bound(api, kind, assertion, expected, size, slot="kb"):
    text = rs.assertion_text(assertion)
    parsed = api.parse_assertion(text)
    return Op(kind, f"{kind} {text}", lambda ctx: getattr(api, kind)(ctx[slot], parsed),
              expect_pair(expected, f"{kind} {text}"), size)


def op_subsumes(api, sub, sup, expected, axioms=()):
    text = f"{rs.concept_text(sub)} below {rs.concept_text(sup)}"
    psub = api.parse_concept(rs.concept_text(sub))
    psup = api.parse_concept(rs.concept_text(sup))
    return Op("subsumes", f"subsumes {text}", lambda ctx: api.subsumes(axioms, psub, psup),
              expect_equal(expected, f"subsumes {text}"))


def subsumption_ops(api, laws, candidates, terminology=()):
    """Known subsumptions (``laws``) and the first refutable candidate pair.

    A refutable pair is one with a one-element crisp countermodel from
    the reference evaluator; it is answered "not subsumed".
    """
    resolved = rs.definitions(terminology)
    axioms = api.parse_kb(rs.kb_text([], terminology)).terminology
    ops = [op_subsumes(api, sub, sup, True, axioms) for sub, sup in laws]
    for sub, sup in candidates:
        if rs.subsumption_countermodel(sub, sup, resolved) is not None:
            ops.append(op_subsumes(api, sub, sup, False, axioms))
            break
    return ops


def lattice_laws(x, y, role):
    return [
        (("and", x, y), x),
        (x, ("or", x, y)),
        (("all", role, ("and", x, y)), ("all", role, x)),
        (("some", role, x), ("some", role, ("or", x, y))),
    ]


def op_model_search(api, statements, what):
    """``exists_model`` on a satisfiable KB over the quarter grid."""
    constraints = list(api.parse_kb(rs.kb_text(statements)).assertions)
    grid = api.DegreeGrid.containing(QUARTERS)
    size = oracle_domain(statements)
    return Op("oracle", what, lambda ctx: api.exists_model(constraints, size, grid),
              expect_model(statements, what), len(statements))


def op_oracle_entails(api, premises, query, expected, what, terminology=()):
    """Enumerator entailment: no grid model of the premises and the
    refuted query (terminology enforced pointwise) means "entailed".

    The grid and domain size are the ones ``oracle_entails`` builds (every
    degree plus midpoints; individuals plus quantifier depth);
    ``exists_model`` is called directly so that the countermodel of a
    "not entailed" answer can be checked.
    """
    text = rs.kb_text(premises, terminology)
    kb = api.parse_kb(text)
    refuted = list(kb.assertions) + [api.parse_query(rs.statement_text(query)).negated()]
    degrees = {d for (_a, _f, n, m) in premises + [query] for d in (n, m)}
    grid = api.DegreeGrid.containing(degrees).with_midpoints()
    size = oracle_domain(premises + [query])
    axioms = list(kb.terminology)

    def call(ctx):
        return api.exists_model(refuted, size, grid, axioms=axioms)

    if expected:
        def verdict(result):
            return None if result is None else f"{what}: the enumerator refuted an entailed query"
    else:
        verdict = expect_model(premises, what, refuted=query, axioms=terminology)
    return Op("oracle", what, call, verdict, len(premises))


# --- planted -------------------------------------------------------------

def planted_kb(rng, max_depth, max_individuals, sizes):
    """Statements weakened from a random quarter-grid model (returned too).

    The model's domain is the KB's individuals plus its deepest
    quantifier nesting, the domain the enumerator searches.
    """
    names = INDIVIDUALS[:rng.randint(1, max_individuals)]
    shapes = []
    for _ in range(rng.randint(*sizes)):
        if rng.random() < 0.25:
            shapes.append(("r", rng.choice(ROLES), rng.choice(names), rng.choice(names)))
        else:
            shapes.append(("c", rand_concept(rng, rng.randint(0, max_depth)), rng.choice(names)))
    statements = [(a, "lower", ZERO, ONE) for a in shapes]
    model = rand_model(rng, individuals_of(statements), oracle_domain(statements) - len(individuals_of(statements)))
    out = []
    for a in shapes:
        form = rng.choice(("lower", "upper"))
        n, m = weakening(rng, rs.assertion_value(model, a), form)
        out.append((a, form, n, m))
    return model, out


PROBE_LOW = (Fraction(3, 4), Fraction(1, 4))
PROBE_HIGH = (Fraction(1, 2), Fraction(1, 2))


def probe_ops(api, statements, model=None):
    """Assert fresh concepts P >= 3/4 <= 1/4 and Q <= 1/2 >= 1/2 once each,
    on the first individual (and in ``model``), and return glb/lub
    operations on them.

    Nothing else mentions P or Q, so glb(P) is P's pair and lub(P) is
    (1, 0); lub(Q) is Q's pair and glb(Q) is (0, 1).  The two probes put
    every quarter among the candidate degrees, so each scan examines the
    same candidates whatever the rest of the KB: 4 for glb(P), 10 for
    glb(Q) and lub(P), 6 for lub(Q).
    """
    name = individuals_of(statements)[0]
    p, q = ("c", ("atom", "P"), name), ("c", ("atom", "Q"), name)
    if model is not None:
        model.set_concept("P", model.individuals[name], PROBE_LOW)
        model.set_concept("Q", model.individuals[name], PROBE_HIGH)
    statements += [(p, "lower", *PROBE_LOW), (q, "upper", *PROBE_HIGH)]
    size = len(statements)
    return [
        op_bound(api, "glb", p, PROBE_LOW, size),
        op_bound(api, "glb", q, (ZERO, ONE), size),
        op_bound(api, "lub", p, (ONE, ZERO), size),
        op_bound(api, "lub", q, PROBE_HIGH, size),
    ]


def refuted_query(rng, model, individuals, depth):
    """A query the planted model refutes, on a fresh random concept."""
    while True:
        assertion = ("c", rand_concept(rng, depth), rng.choice(individuals))
        query = refuted_by(rng, rs.assertion_value(model, assertion), assertion)
        if query is not None:
            return query


def planted_round(api, rng, max_depth=3, max_individuals=3, sizes=(2, 4)):
    """One desk-scale KB with every kind of request on it, and one
    unsatisfiable KB: a concept and the de Morgan dual of its negation,
    whose truth bound exceeds the concept's falsity bound."""
    model, statements = planted_kb(rng, max_depth, max_individuals, sizes)
    names = individuals_of(statements)
    entailed = [weaker(rng, s) for s in rng.sample(statements, 2)]
    bounds = probe_ops(api, statements, model)
    size = len(statements)
    refuted = [refuted_query(rng, model, names, 2) for _ in range(2)]
    for query in refuted:
        confirm_countermodel(model, statements, query)

    x = rand_concept(rng, 2)
    xm = rng.choice(QUARTERS[:-1])
    clash = [
        (("c", x, "a"), "lower", rng.choice(QUARTERS), xm),
        (("c", rs.dual(x), "a"), "lower", rng.choice([q for q in QUARTERS if q > xm]), ONE),
    ]
    x, y = rand_concept(rng, 1), rand_concept(rng, 1)
    # The enumerator gets the statements without quantifiers: on the whole
    # KB it can exceed its node ceiling (see CHANGES.md).
    flat = [s for s in statements if s[0][0] == "r" or rs.depth(s[0][1]) == 0]
    return [
        op_load(api, rs.kb_text(statements), statements),
        op_check(api, statements),
        *(op_entails(api, query, True, size) for query in entailed),
        *(op_entails(api, query, False, size) for query in refuted),
        *bounds,
        op_load(api, rs.kb_text(clash), clash, slot="clash"),
        op_check(api, clash, slot="clash", satisfiable=False),
        *subsumption_ops(api, lattice_laws(x, y, rng.choice(ROLES)),
                         [(("atom", "Z"), x), (x, ("and", x, ("atom", "Z")))]),
        op_model_search(api, flat, f"exists_model on {len(flat)} flat statements"),
    ]


def planted(api, rng, rounds=200):
    return Workload([planted_round(api, rng) for _ in range(rounds)],
                    f"{rounds} planted KBs of 2-4 statements and two probes, depth <= 3, 1-3 individuals")


# --- chain ---------------------------------------------------------------

CHAIN_LENGTHS = (3, 5, 8)
LINK = ("all", "R", ("and", ("atom", "A"), ("some", "S", ("atom", "B"))))


def chain_round(api, rng, length):
    """``R(k_i, k_i+1)`` and ``(all R (and A (some S B)))(k_i)`` per link.

    The 2L link degrees are distinct multiples of 1/64: the L largest are
    truth bounds, the L smallest falsity bounds, and the link with the
    j-th largest truth bound has the j-th smallest falsity bound (links
    shuffled).  So glb(A(k_i+1)) is link i's pair, and the number of
    candidates a glb scans depends only on the chain length.
    """
    values = [Fraction(k, 64) for k in sorted(rng.sample(range(1, 64), 2 * length))]
    truths = values[length:][::-1]
    falsities = values[:length]
    order = list(range(length))
    rng.shuffle(order)
    pairs = [(truths[order[i]], falsities[order[i]]) for i in range(length)]
    names = [f"k{i}" for i in range(length + 1)]
    statements = []
    model = rs.Model(names + [f"w{i}" for i in range(1, length + 1)],
                     {name: name for name in names})
    for i, (n, m) in enumerate(pairs):
        statements.append((("r", "R", names[i], names[i + 1]), "lower", ONE, ZERO))
        statements.append((("c", LINK, names[i]), "lower", n, m))
        model.set_role("R", names[i], names[i + 1], (ONE, ZERO))
        model.set_concept("A", names[i + 1], (n, m))
        model.set_role("S", names[i + 1], f"w{i + 1}", (ONE, ZERO))
        model.set_concept("B", f"w{i + 1}", (ONE, ZERO))
    size = len(statements)
    degrees = sorted(set(values) | {ZERO, ONE})

    def a_at(i):
        return ("c", ("atom", "A"), names[i + 1])

    ops = [op_load(api, rs.kb_text(statements), statements), op_check(api, statements)]
    middle = length // 2
    for i in sorted({0, middle, length - 1}):
        n, m = pairs[i]
        ops.append(op_entails(api, (a_at(i), "lower", n, m), True, size))
        above = next(d for d in degrees if d > n)
        below = max(d for d in degrees if d < m)
        query = (a_at(i), "lower", above, below)
        confirm_countermodel(model, statements, query)
        ops.append(op_entails(api, query, False, size))
    for i in range(length):
        ops.append(op_bound(api, "glb", a_at(i), pairs[i], size))
    ops.append(op_bound(api, "lub", a_at(middle), (ONE, ZERO), size))
    ops += subsumption_ops(api, [(LINK, ("all", "R", ("atom", "A")))],
                           [(("all", "R", ("atom", "A")), LINK)])
    link = statements[2 * middle: 2 * middle + 2]
    n, m = pairs[middle]
    ops.append(op_oracle_entails(api, link, (a_at(middle), "lower", n, m), True,
                                 f"enumerator on link {middle} of {length}"))
    query = (a_at(middle), "lower", ONE, ZERO)
    ops.append(op_oracle_entails(api, link, query, False,
                                 f"enumerator refutes on link {middle} of {length}"))
    return ops


def chain(api, rng):
    return Workload([[op for length in CHAIN_LENGTHS for op in chain_round(api, rng, length)]],
                    f"role chains of {CHAIN_LENGTHS} links")


# --- oracle --------------------------------------------------------------

def side_condition_tuple(rng):
    """(n, m, f, g) on the quarter grid with n > g and m < f."""
    while True:
        n, m, f, g = (rng.choice(QUARTERS) for _ in range(4))
        if n > g and m < f:
            return n, m, f, g


def family(name, n, m, f, g):
    """Premises, query and terminology of one bound-transfer instance."""
    c, d = ("atom", "C"), ("atom", "D")
    spec = [("spec", "C", d)]
    if name == "mp-concepts":
        return ([(("c", c, "a"), "lower", n, m), (("c", ("or", ("not", c), d), "a"), "lower", f, g)],
                (("c", d, "a"), "lower", f, g), [])
    if name == "mp-roles":
        return ([(("r", "R", "a", "b"), "lower", n, m), (("c", ("all", "R", d), "a"), "lower", f, g)],
                (("c", d, "b"), "lower", f, g), [])
    if name == "forall-combination":
        return ([(("c", ("all", "R", c), "a"), "lower", n, m), (("c", ("all", "R", d), "a"), "lower", f, g)],
                (("c", ("all", "R", ("and", c, d)), "a"), "lower", min(n, f), max(m, g)), [])
    if name == "spec-up":
        return [(("c", c, "a"), "lower", n, m)], (("c", d, "a"), "lower", n, m), spec
    if name == "spec-down":
        return [(("c", d, "a"), "upper", n, m)], (("c", c, "a"), "upper", n, m), spec
    # The existential/universal combination: not a theorem.
    return ([(("c", ("some", "R", c), "a"), "lower", n, m), (("c", ("all", "R", d), "a"), "lower", f, g)],
            (("c", ("some", "R", ("and", c, d)), "a"), "lower", min(n, f), max(m, g)), [])


ENTAILED_FAMILIES = ("mp-concepts", "mp-roles", "forall-combination", "spec-up", "spec-down")


def combination_countermodel():
    """Refutes both halves of the existential/universal combination for
    every tuple with n > g and m < f: no R-successor is both strongly
    related and in C and D (truth 0), and each has a falsity 1 part."""
    model = rs.Model(["a", "y1", "y2"], {"a": "a"})
    model.set_role("R", "a", "y1", (ONE, ONE))
    model.set_role("R", "a", "y2", (ZERO, ZERO))
    model.set_concept("C", "y1", (ONE, ONE))
    model.set_concept("D", "y1", (ZERO, ZERO))
    model.set_concept("C", "y2", (ZERO, ZERO))
    model.set_concept("D", "y2", (ONE, ONE))
    return model


def oracle_round(api, rng):
    """Each family instance is loaded with the probes P and Q, which the
    enumerator does not see; a planted KB follows."""
    ops = []
    for name in ENTAILED_FAMILIES + ("exists-forall",):
        premises, query, terminology = family(name, *side_condition_tuple(rng))
        entailed = name != "exists-forall"
        if not entailed:
            confirm_countermodel(combination_countermodel(), premises, query)
        statements = list(premises)
        bounds = probe_ops(api, statements)
        ops.append(op_load(api, rs.kb_text(statements, terminology), statements, terminology))
        ops.append(op_check(api, statements, terminology))
        ops.append(op_entails(api, query, entailed, len(statements)))
        ops += bounds
        ops.append(op_oracle_entails(api, premises, query, entailed, f"enumerator on {name}", terminology))
    c, d = ("atom", "C"), ("atom", "D")
    ops += subsumption_ops(api, [(c, d)], [(d, c)], [("spec", "C", d)])
    model, statements = planted_kb(rng, 2, 2, (2, 3))
    names = individuals_of(statements)
    entailed = weaker(rng, rng.choice(statements))
    refuted = refuted_query(rng, model, names, 1)
    confirm_countermodel(model, statements, refuted)
    size = len(statements)
    ops += [
        op_load(api, rs.kb_text(statements), statements),
        op_check(api, statements),
        op_entails(api, entailed, True, size),
        op_model_search(api, statements, f"exists_model on {size} statements"),
        op_oracle_entails(api, statements, refuted, False, "enumerator refutes on a planted KB"),
    ]
    return ops


def oracle(api, rng, rounds=40):
    return Workload([oracle_round(api, rng) for _ in range(rounds)],
                    f"{rounds} rounds of six bound-transfer instances and one planted KB")


# --- abox ----------------------------------------------------------------

ABOX_STATEMENTS = 10_000
ABOX_INDIVIDUALS = 1_000
ABOX_ATOMS = ("A0", "A1", "A2", "A3")
ABOX_TERMINOLOGY = [
    ("define", "Big", ("and", ("atom", "A0"), ("atom", "A1"))),
    ("spec", "Small", ("or", ("atom", "A2"), ("atom", "A3"))),
    ("define", "Linked", ("some", "R", ("atom", "A0"))),
    ("spec", "Hub", ("all", "R", ("atom", "A1"))),
]
# One assertion of each, in a fixed form (see ``abox_composites``).
ABOX_COMPOSITES = (
    (("atom", "Big"), "lower"), (("atom", "Small"), "lower"),
    (("atom", "Linked"), "lower"), (("atom", "Hub"), "upper"),
    (("or", ("atom", "A0"), ("some", "R", ("atom", "A1"))), "lower"),
    (("all", "S", ("atom", "A2")), "lower"),
)
GLB_EDGE = (Fraction(3, 4), Fraction(1, 4))
LUB_FACT = (Fraction(1, 4), Fraction(3, 4))


def abox_composites(model, resolved):
    """The composite assertions and their neighbourhood, the same on every
    seed so that the tableau's branching does not depend on it.

    Composite k sits on individual ``h<k>``, which has R- and S-edges to
    two targets of its own; all of it is weakened, tightly, from a model
    drawn once from a fixed seed.
    """
    rng = random.Random("abox:composites")
    statements = []
    for k, (concept, form) in enumerate(ABOX_COMPOSITES):
        subject, targets = f"h{k}", (f"t{2 * k}", f"t{2 * k + 1}")
        for name in (subject, *targets):
            model.domain.append(name)
            model.individuals[name] = name
            for atom in ABOX_ATOMS + ("Small*", "Hub*"):
                model.set_concept(atom, name, (rng.choice(QUARTERS), rng.choice(QUARTERS)))
        for role in ("R", "S"):
            for target in targets:
                pair = (rng.choice(QUARTERS), rng.choice(QUARTERS))
                model.set_role(role, subject, target, pair)
                statements.append((("r", role, subject, target), "lower", *pair))
        for target in targets:
            atom = rng.choice(ABOX_ATOMS)
            statements.append((("c", ("atom", atom), target), "lower", *model.concept(atom, target)))
        pair = rs.assertion_value(model, ("c", rs.substitute(concept, resolved), subject))
        statements.append((("c", concept, subject), form, *pair))
    return statements


def abox(api, rng):
    """One wide ABox: atomic facts and role edges over many individuals,
    a small terminology and a few composite assertions.

    Loads and checks run on the first quarter and on all of it (the
    composites first, in both); point queries, bounds and subsumption run
    on the whole KB, the enumerator on single individuals' facts.  Every
    degree is a quarter, so the glb of the probe edge and the lub of the
    probe fact U each make the same tableau runs on every seed: two that
    saturate the KB, two that clash at once.
    """
    names = [f"i{k}" for k in range(ABOX_INDIVIDUALS)]
    model = rs.Model(names, {n: n for n in names})
    for name in ABOX_ATOMS:
        for ind in names:
            model.set_concept(name, ind, (rng.choice(QUARTERS), rng.choice(QUARTERS)))
    resolved = rs.definitions(ABOX_TERMINOLOGY)
    composites = abox_composites(model, resolved)

    edge_count = ABOX_STATEMENTS // 3
    edges = set()
    while len(edges) < edge_count:
        edges.add((rng.choice(("R", "S")), rng.choice(names), rng.choice(names)))
    edges = sorted(edges)
    for role, i, j in edges:
        model.set_role(role, i, j, (rng.choice(QUARTERS), rng.choice(QUARTERS)))
    while True:
        i, j = rng.choice(names), rng.choice(names)
        if ("R", i, j) not in model.roles:
            break
    glb_probe = ("r", "R", i, j)
    model.set_role("R", i, j, GLB_EDGE)
    lub_probe = ("c", ("atom", "U"), rng.choice(names))
    model.set_concept("U", lub_probe[2], LUB_FACT)

    def weakened(assertion, form):
        return (assertion, form, *weakening(rng, rs.assertion_value(model, assertion), form))

    statements = [weakened(("r", *edge), "lower") for edge in edges]
    statements += [(glb_probe, "lower", *GLB_EDGE), (lub_probe, "upper", *LUB_FACT)]
    while len(statements) < ABOX_STATEMENTS - len(composites):
        statements.append(weakened(("c", ("atom", rng.choice(ABOX_ATOMS)), rng.choice(names)),
                                   rng.choice(("lower", "upper"))))
    rng.shuffle(statements)
    statements = composites + statements
    size = len(statements)

    ops = []
    for share in (4, 1):
        part = statements[: size // share]
        slot = f"kb/{share}"
        ops.append(op_load(api, rs.kb_text(part, ABOX_TERMINOLOGY), part, ABOX_TERMINOLOGY, slot))
        ops.append(op_check(api, part, ABOX_TERMINOLOGY, slot))

    facts = [s for s in statements if s[0][0] == "c" and s[0][1][0] == "atom" and s[0][1][1] in ABOX_ATOMS]
    fact = rng.choice(facts)
    entailed = weaker(rng, fact)
    while True:
        point = ("c", ("atom", rng.choice(ABOX_ATOMS)), rng.choice(names))
        refuted = refuted_by(rng, rs.assertion_value(model, point), point)
        if refuted is not None:
            break
    confirm_countermodel(model, statements, refuted, ABOX_TERMINOLOGY)
    ops.append(op_entails(api, entailed, True, size, "kb/1"))
    ops.append(op_entails(api, refuted, False, size, "kb/1"))
    ops.append(op_bound(api, "glb", glb_probe, GLB_EDGE, size, "kb/1"))
    ops.append(op_bound(api, "lub", lub_probe, LUB_FACT, size, "kb/1"))

    a0, a1, a2, a3 = (("atom", a) for a in ABOX_ATOMS)
    laws = [(("atom", "Big"), a0), (("atom", "Small"), ("or", a2, a3)),
            (("atom", "Hub"), ("all", "R", a1)), (("atom", "Linked"), ("some", "R", ("or", a0, a1)))]
    ops += subsumption_ops(api, laws, [(a0, ("atom", "Big"))], ABOX_TERMINOLOGY)

    # The enumerator decides point queries on one individual's facts and
    # outgoing edges: weakenings of a fact, and a query the planted model
    # refutes.
    queries = [(entailed, True), (refuted, False)]
    for _ in range(38):
        queries.append((weaker(rng, rng.choice(facts)), True))
    for query, expected in queries:
        subject = query[0][2]
        piece = [s for s in statements if s[0][2] == subject and (s[0][0] == "r" or s in facts)]
        ops.append(op_oracle_entails(api, piece, query, expected,
                                     f"enumerator on the {len(piece)} facts of {subject}"))
    return Workload([ops], f"one ABox of {size} statements over {len(model.domain)} individuals")


WORKLOADS = {"planted": planted, "chain": chain, "oracle": oracle, "abox": abox}


def build(api, name, seed):
    """The workload's rounds; the same seed gives the same inputs."""
    return WORKLOADS[name](api, random.Random(f"{name}:{seed}"))
