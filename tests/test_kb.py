"""Knowledge bases: validation, expansion, fuzzy embedding, projections."""

import random
from fractions import Fraction

from nalc import (
    And,
    Atomic,
    AxiomKind,
    ConceptAssertion,
    Constraint,
    FuzzyAssertion,
    FuzzyKb,
    FuzzyRel,
    Individual,
    KnowledgeBase,
    Status,
    TerminologicalAxiom,
    check_satisfiable,
    embed_fuzzy,
    entails,
    expand,
    fuzzy_entails,
    oracle_entails,
    parse_kb,
    sharp,
    star,
    validate,
)
from nalc import cli
from nalc.kb import resolved_definitions
from genutil import rand_fuzzy_kb

from test_parser import EXAMPLE_KB

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
a = Individual("a")


def axiom(lhs, kind, rhs):
    return TerminologicalAxiom(lhs, kind, rhs)


class TestValidate:
    def test_example_kb_is_valid(self):
        assert validate(parse_kb(EXAMPLE_KB)) == []

    def test_two_cycle(self):
        kb = KnowledgeBase(
            (),
            (
                axiom("A", AxiomKind.DEFINITION, Atomic("B")),
                axiom("B", AxiomKind.DEFINITION, Atomic("A")),
            ),
        )
        problems = validate(kb)
        assert any(v.kind == "cycle" and "A" in v.message and "B" in v.message
                   for v in problems)

    def test_duplicate_lhs(self):
        kb = KnowledgeBase(
            (),
            (
                axiom("A", AxiomKind.SPECIALIZATION, Atomic("B")),
                axiom("A", AxiomKind.SPECIALIZATION, Atomic("C")),
            ),
        )
        assert any(v.kind == "duplicate-lhs" for v in validate(kb))

    def test_starred_name_collision(self):
        kb = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(Atomic("A*"), a), 1, 0),),
            (axiom("A", AxiomKind.SPECIALIZATION, Atomic("B")),),
        )
        assert any(v.kind == "name-collision" for v in validate(kb))


class TestLongDefinitionChains:
    """A long flat terminology needs no recursion depth: the cycle check
    and the unfolding walk it with their own stacks."""

    N = 1200

    def test_top_down_chain_is_valid_and_resolves(self, tmp_path):
        lines = [f"define A{i} = A{i - 1}" for i in range(self.N - 1, 0, -1)]
        lines += ["define A0 = B", f"assert A{self.N - 1}(a) >= 0.5 <= 0.5"]
        path = tmp_path / "chain.nalc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        kb = parse_kb(path.read_text(encoding="utf-8"))
        assert resolved_definitions(kb)[f"A{self.N - 1}"] == B
        assert check_satisfiable(kb).status is Status.SATISFIABLE
        assert cli.run(["check", str(path)]) == 0

    def test_long_cycle_is_one_violation(self):
        """A cycle written top-down gives one violation naming it, and no
        path that is not a cycle of the terminology."""
        n = self.N
        kb = KnowledgeBase(
            (), tuple(axiom(f"A{i}", AxiomKind.DEFINITION, Atomic(f"A{(i - 1) % n}"))
                      for i in range(n - 1, -1, -1))
        )
        walk = " -> ".join(f"A{i % n}" for i in range(2 * n - 1, n - 2, -1))
        assert [(v.kind, v.message, v.axiom_index) for v in validate(kb)] == [
            ("cycle", "cyclic definitions: " + walk, 0)
        ]


class TestExpand:
    def test_example_expansion(self):
        expanded = expand(parse_kb(EXAMPLE_KB))
        assert expanded.terminology == ()
        concepts = [c.assertion.concept for c in expanded.assertions]
        from nalc import Exists

        assert concepts[0] == Exists("Support", And(Atomic("War"), Atomic("war_x*")))
        assert concepts[1] == Exists("Support", And(Atomic("War"), Atomic("war_y*")))

    def test_purely_assertional_is_untouched(self):
        kb = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(A, a), Fraction(1, 2), Fraction(1, 2)),),
            (),
        )
        assert expand(kb) == kb

    def test_definition_unfolds_into_assertions(self):
        kb = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(Atomic("X"), a), Fraction(1, 2), Fraction(1, 2)),),
            (axiom("X", AxiomKind.DEFINITION, And(B, C)),),
        )
        expanded = expand(kb)
        assert expanded.assertions[0].assertion.concept == And(B, C)

    def test_unfolding_preserves_entailment_on_grid(self):
        kb = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(Atomic("X"), a), Fraction(1, 2), Fraction(1, 2)),),
            (axiom("X", AxiomKind.DEFINITION, And(B, C)),),
        )
        expanded = expand(kb)
        query = Constraint.geq_leq(ConceptAssertion(B, a), Fraction(1, 2), Fraction(1, 2))
        assert oracle_entails(list(expanded.assertions), query)
        # and through the reasoner, which expands internally
        assert entails(kb, query)

    def test_expansion_preserves_oracle_entailment(self):
        """The starred rewrite changes no entailments, per model search.

        The original KB is checked with its axioms enforced pointwise in
        the enumeration; the expanded KB is purely assertional.
        """
        from nalc import Bound, DegreeGrid, Rel, exists_model
        from nalc.semantics import constraint_degrees, default_domain_size
        from genutil import QUARTERS, rand_concept

        rng = random.Random(71)
        for _ in range(30):
            rhs = rand_concept(rng, 1, ["A", "B"], ["R"])
            kind = rng.choice([AxiomKind.DEFINITION, AxiomKind.SPECIALIZATION])
            terminology = (TerminologicalAxiom("X", kind, rhs),)
            assertions = []
            for _ in range(rng.randint(1, 2)):
                concept = rand_concept(rng, 1, ["A", "B", "X"], ["R"])
                n, m = rng.choice(QUARTERS), rng.choice(QUARTERS)
                rels = (Rel.GE, Rel.LE) if rng.random() < 0.5 else (Rel.LE, Rel.GE)
                assertions.append(
                    Constraint(ConceptAssertion(concept, a), Bound(rels[0], n), Bound(rels[1], m))
                )
            kb = KnowledgeBase(tuple(assertions), terminology)
            if validate(kb):
                continue
            expanded = expand(kb)
            query_concept = rand_concept(rng, 1, ["A", "B"], ["R"])
            query = Constraint.geq_leq(
                ConceptAssertion(query_concept, a),
                rng.choice(QUARTERS), rng.choice(QUARTERS),
            )
            refuted_original = list(kb.assertions) + [query.negated()]
            refuted_expanded = list(expanded.assertions) + [query.negated()]
            grid = DegreeGrid.containing(
                constraint_degrees(refuted_original) | constraint_degrees(refuted_expanded)
            ).with_midpoints()
            domain = max(
                default_domain_size(refuted_original),
                default_domain_size(refuted_expanded),
            )
            with_axioms = exists_model(
                refuted_original, domain, grid, axioms=kb.terminology
            )
            without = exists_model(refuted_expanded, domain, grid)
            assert (with_axioms is None) == (without is None), (kb, query)

    def test_chained_definitions(self):
        kb = KnowledgeBase(
            (Constraint.geq_leq(ConceptAssertion(Atomic("X"), a), 1, 0),),
            (
                axiom("X", AxiomKind.DEFINITION, And(Atomic("Y"), B)),
                axiom("Y", AxiomKind.SPECIALIZATION, C),
            ),
        )
        expanded = expand(kb)
        assert expanded.assertions[0].assertion.concept == And(
            And(C, Atomic("Y*")), B
        )


class TestFuzzyEmbedding:
    def test_geq_maps_to_complement_pair(self):
        fkb = FuzzyKb(
            (FuzzyAssertion(ConceptAssertion(C, a), FuzzyRel.GEQ, Fraction(7, 10)),)
        )
        constraint = embed_fuzzy(fkb).assertions[0]
        assert constraint.tbound.value == Fraction(7, 10)
        assert constraint.fbound.value == Fraction(3, 10)

    def test_leq_maps_to_complement_pair(self):
        fkb = FuzzyKb(
            (FuzzyAssertion(ConceptAssertion(C, a), FuzzyRel.LEQ, Fraction(2, 5)),)
        )
        constraint = embed_fuzzy(fkb).assertions[0]
        assert constraint.tbound.rel.value == "<="
        assert constraint.tbound.value == Fraction(2, 5)
        assert constraint.fbound.value == Fraction(3, 5)

    def test_boundary_degree_one(self):
        fkb = FuzzyKb(
            (FuzzyAssertion(ConceptAssertion(C, a), FuzzyRel.GEQ, Fraction(1)),)
        )
        constraint = embed_fuzzy(fkb).assertions[0]
        assert (constraint.tbound.value, constraint.fbound.value) == (1, 0)


class TestProjections:
    kb = parse_kb(
        "assert C(a) >= 0.6 <= 0.5\nassert D(b) <= 0.3 >= 0.9\n"
    )

    def test_sharp_keeps_truth_bounds(self):
        projected = sharp(self.kb).assertions
        assert (projected[0].rel, projected[0].degree) == (FuzzyRel.GEQ, Fraction(3, 5))
        assert (projected[1].rel, projected[1].degree) == (FuzzyRel.LEQ, Fraction(3, 10))

    def test_star_keeps_falsity_bounds(self):
        projected = star(self.kb).assertions
        assert (projected[0].rel, projected[0].degree) == (FuzzyRel.LEQ, Fraction(1, 2))
        assert (projected[1].rel, projected[1].degree) == (FuzzyRel.GEQ, Fraction(9, 10))

    def test_projection_of_empty_kb(self):
        empty = KnowledgeBase((), ())
        assert sharp(empty).assertions == ()
        assert star(empty).assertions == ()

    def test_sharp_inverts_embedding(self):
        rng = random.Random(23)
        for _ in range(50):
            fkb = rand_fuzzy_kb(rng)
            interior = FuzzyKb(
                tuple(
                    fa
                    for fa in fkb.assertions
                    if 0 < fa.degree < 1
                ),
                fkb.terminology,
            )
            assert sharp(embed_fuzzy(interior)) == interior


class TestEmbeddingFaithfulness:
    def test_fuzzy_consequences_survive_embedding(self):
        """Single-valued entailments transfer to the paired reading."""
        rng = random.Random(29)
        checked = 0
        for _ in range(200):
            fkb = rand_fuzzy_kb(rng, size=rng.randint(1, 3), depth=1)
            query = rand_fuzzy_kb(rng, size=1, depth=1).assertions[0]
            if not fuzzy_entails(fkb, query):
                continue
            checked += 1
            nkb = embed_fuzzy(fkb)
            nquery = embed_fuzzy(FuzzyKb((query,), ())).assertions[0]
            assert entails(nkb, nquery), (fkb, query)
            if checked >= 40:
                break
        assert checked >= 20
