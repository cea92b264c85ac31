"""The definition graph is walked once: which cycles ``validate``
reports, and that the unfolding matches a naive fixpoint."""

import random

import pytest

from nalc import (
    And,
    Atomic,
    AxiomKind,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    TerminologicalAxiom,
    validate,
)
from nalc import cli
from nalc.kb import resolved_definitions
from nalc.parser import try_parse_kb
from nalc.syntax import atomic_names
from genutil import rand_concept

NAMES = ["A", "B", "C", "D", "E", "F", "G"]
SEEDS = range(2000)


def rand_terminology(seed):
    """One to seven axioms with distinct names over ``NAMES``; bodies of
    quantifier depth at most 3 may name any of them."""
    rng = random.Random(seed)
    lhs = rng.sample(NAMES, rng.randint(1, len(NAMES)))
    return tuple(
        TerminologicalAxiom(name, rng.choice(list(AxiomKind)), rand_concept(rng, rng.randint(0, 3), NAMES))
        for name in lhs
    )


def reachable(deps, name):
    """The names reachable from ``name`` along one or more definitions."""
    seen, todo = set(), list(deps[name])
    while todo:
        dep = todo.pop()
        if dep not in seen:
            seen.add(dep)
            todo.extend(deps[dep])
    return seen


def reported_cycles(kb):
    prefix = "cyclic definitions: "
    return [
        (v.message[len(prefix):].split(" -> "), v.axiom_index)
        for v in validate(kb) if v.kind == "cycle"
    ]


class TestCycleReports:
    @pytest.mark.parametrize(
        "text, errors",
        [
            # A self-definition met after another cycle is still reported.
            ("define A = B\ndefine B = (and A B)",
             ["1:8: syntax: cyclic definitions: A -> B -> A",
              "2:8: syntax: cyclic definitions: B -> B"]),
            # One back edge, one report: no second path through a finished name.
            ("define A = (and B C)\ndefine B = C\ndefine C = A",
             ["1:8: syntax: cyclic definitions: A -> B -> C -> A"]),
        ],
    )
    def test_error_list(self, text, errors):
        kb, found = try_parse_kb(text)
        assert kb is None
        assert [str(e) for e in found] == errors

    def test_back_edges_into_one_name_report_it_once(self, tmp_path, capsys):
        """``define A0 = A1999`` and ``define Ai = (and A(i-1) A1999)``:
        about 2 000 back edges close on A0 or A1999.  Reporting each with
        its whole path wrote 2 000 stderr lines, 17.6 MB."""
        n = 2000
        lines = ["define A0 = A1999"] + [f"define A{i} = (and A{i - 1} A1999)" for i in range(1, n)]
        kb, found = try_parse_kb("\n".join(lines))
        assert kb is None
        terminology = tuple(
            TerminologicalAxiom(f"A{i}", AxiomKind.DEFINITION,
                                And(Atomic(f"A{i - 1}"), Atomic("A1999")) if i else Atomic("A1999"))
            for i in range(n)
        )
        cycles = reported_cycles(KnowledgeBase((), terminology))
        assert len(cycles) == len(found) == 3
        deps = {axiom.lhs: atomic_names(axiom.rhs) for axiom in terminology}
        for path, idx in cycles:
            assert path[0] == path[-1] and idx == int(path[0][1:])
            assert all(b in deps[a] for a, b in zip(path, path[1:]))
        # the first report is the one every back edge used to lead with;
        # names sort as strings, so the walk from A1999 turns back at A1000
        assert cycles[0][0] == [f"A{i}" for i in range(n - 1, 999, -1)] + ["A1999"]
        path = tmp_path / "closing.nalc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.run(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 3 and len(err.encode()) < 1_000_000

    def test_reports_match_reachability(self):
        cyclic = sum(self.check_reports(seed) for seed in SEEDS)
        assert cyclic >= 1000

    @staticmethod
    def check_reports(seed):
        """Check the cycles reported for one terminology against
        reachability; whether it has one."""
        terminology = rand_terminology(seed)
        kb = KnowledgeBase((), terminology)
        index_of = {axiom.lhs: idx for idx, axiom in enumerate(terminology)}
        deps = {axiom.lhs: atomic_names(axiom.rhs) & index_of.keys() for axiom in terminology}
        reach = {name: reachable(deps, name) for name in deps}
        cycles = reported_cycles(kb)

        assert bool(cycles) == any(name in reach[name] for name in deps)
        for path, idx in cycles:
            assert path[0] == path[-1] and idx == index_of[path[0]]
            assert len(set(path[:-1])) == len(path) - 1
            assert all(b in deps[a] for a, b in zip(path, path[1:]))
        assert len({tuple(path) for path, _ in cycles}) == len(cycles)
        for name in deps:
            if name in deps[name]:
                assert [name, name] in [path for path, _ in cycles]
            if name in reach[name]:
                component = {other for other in reach[name] if name in reach[other]}
                assert any(set(path) <= component for path, _ in cycles)
        return bool(cycles)


def replace_once(c, bodies):
    if isinstance(c, Atomic):
        return bodies.get(c.name, c)
    if isinstance(c, (And, Or)):
        return type(c)(replace_once(c.left, bodies), replace_once(c.right, bodies))
    if isinstance(c, Not):
        return Not(replace_once(c.inner, bodies))
    if isinstance(c, (Forall, Exists)):
        return type(c)(c.role, replace_once(c.filler, bodies))
    return c


class TestUnfolding:
    def test_matches_substitution_to_a_fixpoint(self):
        valid = 0
        for seed in SEEDS:
            kb = KnowledgeBase((), rand_terminology(seed))
            if validate(kb):
                continue
            valid += 1
            bodies = {
                axiom.lhs: And(axiom.rhs, Atomic(axiom.lhs + "*"))
                if axiom.kind is AxiomKind.SPECIALIZATION else axiom.rhs
                for axiom in kb.terminology
            }
            expected = {}
            for name, body in bodies.items():
                while atomic_names(body) & bodies.keys():
                    body = replace_once(body, bodies)
                expected[name] = body
            resolved = resolved_definitions(kb)
            assert resolved == expected
            # Each name comes after the defined names its body uses.
            order = list(resolved)
            assert all(atomic_names(bodies[name]) & bodies.keys() <= set(order[:i])
                       for i, name in enumerate(order))
        assert valid >= 500

    def test_a_defined_starred_companion_is_a_collision(self, tmp_path):
        text = "spec A < B\ndefine A* = A\nassert A(a) >= 0.5 <= 0.5\n"
        kb, found = try_parse_kb(text)
        assert kb is None
        assert [str(e) for e in found] == [
            "1:6: syntax: 'A*' is reserved for expanding 'spec A < ...'"
        ]
        path = tmp_path / "starred.nalc"
        path.write_text(text, encoding="utf-8")
        assert cli.run(["check", str(path)]) == 2
