"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them) and enforces its runtime budget.  Random corpora are seeded, so
every run checks the same instances.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from nalc import (
    And,
    Atomic,
    Bound,
    ConceptAssertion,
    Constraint,
    ConstraintSet,
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
    Status,
    complete,
    embed_fuzzy,
    entails,
    eval_concept,
    exists_model,
    expand,
    fuzzy_entails,
    glb,
    lub,
    lub_via_negation,
    parse_kb,
    satisfies,
    sharp,
    star,
)
from nalc.cli import run as cli_run
from nalc.reasoner import _half_entailed
from nalc.semantics import default_domain_size
from genutil import (
    QUARTERS,
    QUARTER_GRID,
    rand_assertional_kb,
    rand_concept,
    rand_fuzzy_kb,
    rand_interpretation,
    rand_query,
    stable_seed,
)
from test_semantics import FOURTEEN_EQUIVALENCES, NON_THEOREMS
from test_tableau import _rule_cases

F = Fraction
POLL_KB_PATH = str(Path(__file__).parent / "data" / "polls.nalc")
A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")
a, b = Individual("a"), Individual("b")


def report(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_acceptance_1_poll_derivation(capsys):
    """Both poll queries are entailed and the derivation steps appear."""
    start = time.monotonic()
    code1 = cli_run(["entails", POLL_KB_PATH, "--trace", "--query",
                     "assert (some Support War)(p1) >= 0.6 <= 0.5"])
    out = capsys.readouterr().out
    first_elapsed = time.monotonic() - start
    steps_present = (
        "Support(p1,x1) >= 0.6 <= 0.5" in out          # generation: role edge
        and "(and War war_x*)(x1) >= 0.6 <= 0.5" in out  # generation: filler
        and "War(x1) < 0.6 > 0.5" in out                 # existential propagation
        and "War(x1) >= 0.6 <= 0.5" in out               # conjunction decomposition
        and "clash" in out
    )
    start2 = time.monotonic()
    code2 = cli_run(["entails", POLL_KB_PATH, "--query",
                     "assert (some Support War)(p2) >= 0.8 <= 0.1"])
    capsys.readouterr()
    second_elapsed = time.monotonic() - start2
    with capsys.disabled():
        report(
            1,
            "poll derivation",
            code1 == 0 and code2 == 0 and steps_present
            and first_elapsed < 1 and second_elapsed < 1,
            f"both queries entailed, four derivation steps in trace",
            first_elapsed + second_elapsed,
            2,
        )


def test_acceptance_2_expansion(capsys):
    """Expansion prints the two-assertion form and preserves entailment."""
    start = time.monotonic()
    code = cli_run(["expand", POLL_KB_PATH])
    lines = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
    expected = [
        "assert (some Support (and War war_x*))(p1) >= 0.6 <= 0.5".split(),
        "assert (some Support (and War war_y*))(p2) >= 0.8 <= 0.1".split(),
    ]
    kb = parse_kb(Path(POLL_KB_PATH).read_text(encoding="utf-8"))
    expanded = expand(kb)
    rng = random.Random(2025)
    agreeing = 0
    for _ in range(50):
        query = rand_query(
            rng, depth=2,
            atoms=["War", "war_x", "war_y"], roles=["Support"],
            individuals=["p1", "p2"],
            degrees=[F(0), F(1, 10), F(1, 2), F(3, 5), F(4, 5), F(1)],
        )
        if entails(kb, query) == entails(expanded, query):
            agreeing += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            2,
            "terminology expansion",
            code == 0 and lines == expected and agreeing == 50,
            f"printed assertional form matches; {agreeing}/50 queries agree",
            elapsed,
            30,
        )


def test_acceptance_3_equivalence_laws(capsys):
    """Fourteen concept equivalences hold exactly; four non-laws refuted."""
    start = time.monotonic()
    rng = random.Random(31337)
    failures = 0
    for lhs, rhs in FOURTEEN_EQUIVALENCES:
        for _ in range(1000):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            for d in interp.domain:
                if eval_concept(interp, lhs, d) != eval_concept(interp, rhs, d):
                    failures += 1
    countermodels = 0
    for lhs, rhs in NON_THEOREMS:
        for _ in range(500):
            interp = rand_interpretation(rng, rng.randint(1, 3))
            if any(
                eval_concept(interp, lhs, d) != eval_concept(interp, rhs, d)
                for d in interp.domain
            ):
                countermodels += 1
                break
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            3,
            "equivalence laws",
            failures == 0 and countermodels == len(NON_THEOREMS),
            f"14 laws exact on 1000 interpretations each; "
            f"{countermodels}/4 non-laws refuted by search",
            elapsed,
            60,
        )


def _side_condition_tuples(rng, count):
    """(n, m, f, g) from the quarter grid with n > g and m < f."""
    out = []
    while len(out) < count:
        n, m, f, g = (rng.choice(QUARTERS) for _ in range(4))
        if n > g and m < f:
            out.append((n, m, f, g))
    return out


def _combination_countermodel(n):
    """Three-element interpretation refuting the existential/universal
    combination for any degree tuple with ``n > g`` and ``m < f``.

    The witness ``y1`` realises the existential's truth bound but leaves
    ``D`` fully unknown; the universal's truth bound holds there through
    the role's falsity degree 1, not through ``D``.  The second
    successor ``y2`` carries the existential's falsity bound on an edge
    of degree ``<0, 0>``.  No successor is both strongly R-related and
    in ``C and D``, so the conclusion's truth degree is 0.
    """
    return FiniteInterpretation(
        ("a", "y1", "y2"),
        {"a": "a"},
        concept_table={
            ("C", "y1"): DegreePair(n, F(1)),
            ("D", "y1"): DegreePair(F(0), F(0)),
            ("C", "y2"): DegreePair(F(0), F(0)),
            ("D", "y2"): DegreePair(F(1), F(0)),
        },
        role_table={
            ("R", "a", "y1"): DegreePair(n, F(1)),
            ("R", "a", "y2"): DegreePair(F(0), F(0)),
        },
    )


def test_acceptance_4_entailment_families(capsys):
    """Bound-transfer rules hold for every sampled degree tuple, and the
    existential/universal combination is refuted for every one.

    The combination (``some R C`` and ``all R D`` give
    ``some R (and C D)``) is the fuzzy-ALC rule of Straccia (JAIR 2001),
    which needs the link ``R_f = 1 - R_t``.  Here a universal's truth
    degree reads the role's falsity degree, ``max(R_f, D_t)``, so the
    rule is not a theorem: the tableau must answer "not entailed", and a
    fixed countermodel checked under ``satisfies`` must exist for each
    tuple, independently of the calculus.
    """
    start = time.monotonic()
    rng = random.Random(424242)
    failures = []
    refutation_failures = []

    def check(name, kb, query):
        if not entails(kb, query):
            failures.append(name)

    for n, m, f, g in _side_condition_tuples(rng, 100):
        kb = KnowledgeBase((
            Constraint.geq_leq(ConceptAssertion(C, a), n, m),
            Constraint.geq_leq(ConceptAssertion(Or(Not(C), D), a), f, g),
        ), ())
        check("mp-concepts", kb, Constraint.geq_leq(ConceptAssertion(D, a), f, g))

    for n, m, f, g in _side_condition_tuples(rng, 100):
        kb = KnowledgeBase((
            Constraint.geq_leq(RoleAssertion("R", a, b), n, m),
            Constraint.geq_leq(ConceptAssertion(Forall("R", D), a), f, g),
        ), ())
        check("mp-roles", kb, Constraint.geq_leq(ConceptAssertion(D, b), f, g))

    for n, m, f, g in _side_condition_tuples(rng, 100):
        kb = KnowledgeBase((
            Constraint.geq_leq(ConceptAssertion(Exists("R", C), a), n, m),
            Constraint.geq_leq(ConceptAssertion(Forall("R", D), a), f, g),
        ), ())
        query = Constraint.geq_leq(
            ConceptAssertion(Exists("R", And(C, D)), a), min(n, f), max(m, g)
        )
        model = _combination_countermodel(n)
        refuted = (
            not entails(kb, query)
            and all(satisfies(model, premise) for premise in kb.assertions)
            and not satisfies(model, query)
        )
        if not refuted:
            refutation_failures.append((n, m, f, g))

    for _ in range(100):
        n, m = rng.choice(QUARTERS), rng.choice(QUARTERS)
        f, g = rng.choice(QUARTERS), rng.choice(QUARTERS)
        kb = KnowledgeBase((
            Constraint.geq_leq(ConceptAssertion(Forall("R", C), a), n, m),
            Constraint.geq_leq(ConceptAssertion(Forall("R", D), a), f, g),
        ), ())
        check(
            "forall-combination",
            kb,
            Constraint.geq_leq(
                ConceptAssertion(Forall("R", And(C, D)), a), min(n, f), max(m, g)
            ),
        )

    from nalc import AxiomKind, TerminologicalAxiom

    taxonomy = (TerminologicalAxiom("C", AxiomKind.SPECIALIZATION, D),)
    for _ in range(100):
        n, m = rng.choice(QUARTERS), rng.choice(QUARTERS)
        kb_up = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(C, a), n, m),), taxonomy
        )
        check("spec-up", kb_up, Constraint.geq_leq(ConceptAssertion(D, a), n, m))
        kb_down = KnowledgeBase(
            (Constraint.leq_geq(ConceptAssertion(D, a), n, m),), taxonomy
        )
        check("spec-down", kb_down, Constraint.leq_geq(ConceptAssertion(C, a), n, m))

    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            4,
            "entailment families",
            not failures and not refutation_failures,
            f"500 sampled instances across 5 entailed families, failures: "
            f"{sorted(set(failures))}; mp-roles-combination refuted with its "
            f"countermodel on {100 - len(refutation_failures)}/100 tuples",
            elapsed,
            300,
        )


def test_acceptance_5_oracle_equivalence(capsys):
    """Tableau satisfiability matches exhaustive model search, and every
    rule is locally sound under randomized semantic sampling."""
    from nalc import apply_rules, satisfies_all
    from nalc.tableau import ConstraintSet

    from nalc import SearchExhausted

    start = time.monotonic()
    rng = random.Random(55555)
    mismatches = 0
    refused = 0
    for _ in range(500):
        kb = rand_assertional_kb(rng)
        constraints = list(kb.assertions)
        result = complete(constraints)
        try:
            model = exists_model(
                constraints, default_domain_size(constraints), QUARTER_GRID,
                max_nodes=2_000_000,
            )
        except SearchExhausted:
            # The enumerator refused within its node ceiling (correlated
            # subterms blunt its interval pruning); refusals are reported
            # and excluded rather than counted as disagreements.
            refused += 1
            continue
        if (result.status is Status.SATISFIABLE) != (model is not None):
            mismatches += 1

    rule_failures = []
    for name, premises in _rule_cases():
        branches = apply_rules(ConstraintSet.from_constraints(premises))
        sample_rng = random.Random(stable_seed(name))
        hits = 0
        for _ in range(3000):
            if hits >= 200:
                break
            interp = rand_interpretation(sample_rng, sample_rng.randint(2, 3),
                                         individuals=["a", "b"])
            if not satisfies_all(interp, premises):
                continue
            hits += 1
            if not any(satisfies_all(interp, br.constraints) for br in branches):
                rule_failures.append(name)
                break

    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            5,
            "oracle equivalence",
            mismatches == 0 and refused <= 5 and not rule_failures,
            f"500 KBs, {mismatches} mismatches, {refused} enumerator refusals; "
            f"per-rule soundness failures: {rule_failures}",
            elapsed,
            600,
        )


def test_acceptance_6_btvb(capsys):
    """Bound procedures agree with brute force and with each other."""
    start = time.monotonic()
    rng = random.Random(66666)
    glb_disagreements = dual_disagreements = closed_form_disagreements = 0
    for i in range(200):
        kb = rand_assertional_kb(rng, size=rng.randint(1, 3), depth=2,
                                 atoms=["A", "B"], roles=["R"], individuals=["a", "b"])
        assertions = list(kb.assertions)
        target = ConceptAssertion(rand_concept(rng, 1, ["A", "B"], ["R"]), a)
        hypotheses = ConstraintSet.from_constraints(assertions)

        computed = glb(kb, target).bound
        degrees = sorted(
            {d for c in assertions for d in (c.tbound.value, c.fbound.value)}
            | {F(0), F(1)}
        )
        best_n = max(
            (n for n in degrees if _half_entailed(hypotheses, target, "t", Bound(Rel.GE, n))),
            default=F(0),
        )
        best_m = min(
            (m for m in degrees if _half_entailed(hypotheses, target, "f", Bound(Rel.LE, m))),
            default=F(1),
        )
        if computed != DegreePair(best_n, best_m):
            glb_disagreements += 1

        if lub(kb, target).bound != lub_via_negation(kb, target).bound:
            dual_disagreements += 1

        # closed form for role assertions over satisfiable KBs
        if complete(assertions).status is Status.SATISFIABLE:
            role_target = RoleAssertion("R", a, b)
            lower_forms = [
                c for c in assertions
                if c.assertion == role_target and c.tbound.rel is Rel.GE
            ]
            closed = DegreePair(
                max((c.tbound.value for c in lower_forms), default=F(0)),
                min((c.fbound.value for c in lower_forms), default=F(1)),
            )
            if glb(kb, role_target).bound != closed:
                closed_form_disagreements += 1

    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            6,
            "best truth-value bounds",
            glb_disagreements == dual_disagreements == closed_form_disagreements == 0,
            f"200 KBs: glb-vs-bruteforce {glb_disagreements}, "
            f"lub dual-route {dual_disagreements}, role closed form {closed_form_disagreements}",
            elapsed,
            600,
        )


def _falsity_as_truth(fkb: FuzzyKb) -> FuzzyKb:
    """Read a falsity-side projection as single-valued truth bounds.

    ``star`` keeps the bounds on falsity degrees, while ``fuzzy_entails``
    reads every degree as truth.  In a fuzzy KB falsity is ``1 - truth``,
    so ``<beta <= m>`` on falsity is ``<beta >= 1-m>`` on truth and
    ``<beta >= m>`` is ``<beta <= 1-m>``.
    """
    flipped = {FuzzyRel.LEQ: FuzzyRel.GEQ, FuzzyRel.GEQ: FuzzyRel.LEQ}
    return FuzzyKb(
        tuple(
            FuzzyAssertion(fa.assertion, flipped[fa.rel], 1 - fa.degree)
            for fa in fkb.assertions
        ),
        fkb.terminology,
    )


def test_acceptance_7_projection_agreement(capsys):
    """Embedded two-component entailment vs the two fuzzy projections.

    An embedded fuzzy KB entails an embedded query iff both
    single-valued projections do: ``sharp`` with its truth bounds and
    ``star`` with its falsity bounds.  ``star`` keeps raw falsity
    degrees, so its side is read as falsity (``1 - truth``) before the
    truth-reading oracle ``fuzzy_entails`` decides it.  Deciding the
    raw falsity bounds as truth bounds would turn contradictions into
    satisfiable KBs: ``top(b) <= 0 >= 1`` has the star image
    ``<top(b) >= 1>``, which holds.
    """
    start = time.monotonic()
    rng = random.Random(77777)
    mismatches = []
    entailed = 0
    for i in range(200):
        fkb = rand_fuzzy_kb(rng)
        query = rand_fuzzy_kb(rng, size=1).assertions[0]
        nkb = embed_fuzzy(fkb)
        nquery = embed_fuzzy(FuzzyKb((query,), ())).assertions[0]
        neutro = entails(nkb, nquery)
        entailed += neutro
        sharp_side = fuzzy_entails(
            sharp(nkb), sharp(KnowledgeBase((nquery,), ())).assertions[0]
        )
        star_side = fuzzy_entails(
            _falsity_as_truth(star(nkb)),
            _falsity_as_truth(star(KnowledgeBase((nquery,), ()))).assertions[0],
        )
        if neutro != (sharp_side and star_side):
            mismatches.append((i, neutro, sharp_side, star_side))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            7,
            "projection agreement",
            not mismatches and 0 < entailed < 200,
            f"200 fuzzy KBs ({entailed} entailed), {len(mismatches)} disagreements "
            f"(first: {mismatches[0] if mismatches else None})",
            elapsed,
            600,
        )


def test_acceptance_8_clash_and_conjugation_tables(capsys):
    """Exhaustive unit coverage of the clash rows and conjugation cells."""
    import test_tableau as tt

    start = time.monotonic()
    clash_rows = tt.TestClashTable()
    # run the parametrized bodies directly, over their parameter sets
    clash_params = [
        p for mark in tt.TestClashTable.test_single_constraint_clash.pytestmark
        for p in mark.args[1]
    ]
    for constraint in clash_params:
        clash_rows.test_single_constraint_clash(constraint)
    complement_params = [
        p for mark in tt.TestClashTable.test_boundary_complements_do_not_clash.pytestmark
        for p in mark.args[1]
    ]
    for constraint in complement_params:
        clash_rows.test_boundary_complements_do_not_clash(constraint)
    clash_rows.test_conjugated_pair_is_a_clash()

    cells = tt.TestConjugationTable()
    cells.test_nonstrict_vs_strict_upper()
    cells.test_nonstrict_vs_nonstrict_upper()
    cells.test_strict_vs_strict_upper()
    cells.test_strict_vs_nonstrict_upper()
    cells.test_same_direction_is_never_conjugated()
    cells.test_symmetry()

    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            8,
            "clash and conjugation tables",
            True,
            f"{len(clash_params)} clash rows, {len(complement_params)} boundary "
            "complements, all four conjugation cells with boundaries",
            elapsed,
            1,
        )
