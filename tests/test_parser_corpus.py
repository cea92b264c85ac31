"""The parser pinned on a golden corpus of mangled lines, the characters
it takes as blank, and the leaves one parse shares.

``tests/data/parse_corpus.jsonl`` holds about 1 500 seeded texts, each
with one fault put in, and what the parser gave for each: every
``ParseError``, or the statements rendered back.  A change to the parser
that moves a message, a span or a kind, or reads a statement
differently, fails ``test_the_parser_reproduces_the_corpus``.  The
corpus was written by ``python tests/test_parser_corpus.py`` with
``src`` and ``tests`` on the path; ``corpus()`` below is its generator.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

from nalc import (
    AxiomKind,
    ConceptSyntaxError,
    format_concept,
    format_statement,
    parse_assertion,
    parse_concept,
    parse_kb,
    parse_query,
    try_parse_kb,
)
from nalc.cli import run
from genutil import rand_assertion, rand_assertional_kb, rand_concept, rand_kb_constraint
import test_parser

CORPUS = Path(__file__).parent / "data" / "parse_corpus.jsonl"

# A token for mangling: the parser's operators, numbers and names, or
# any other non-space character.
TOKEN = re.compile(r"[<>]=|\d+(?:\.\d+)?(?:/\d+)?|[A-Za-z_][A-Za-z0-9_*]*|\S")
# \x85 ends no line for the parser, so it joins two statements.
ENDINGS = ("\n",) * 12 + ("\r", "\r", "\r\n", "\r\n", "\x85")
COMMENTS = ("# note", "#", "# caf\x85 (and", "#assert A(a) >= 2 <= 0")
DEGREES = ("0", "1/4", "1/2", "3/4", "1", "0.5", "0.25")


def mangle(rng: random.Random, text: str) -> str:
    """``text`` with one fault: a token dropped, duplicated or swapped
    with the next one, or a piece of ``PIECES`` inserted anywhere."""
    spans = [m.span() for m in TOKEN.finditer(text)]
    fault = rng.randrange(4)
    if fault == 3 or not spans:
        i = rng.randint(0, len(text))
        return text[:i] + rng.choice(test_parser.TestBadInputIsAnError.PIECES) + text[i:]
    k = rng.randrange(len(spans))
    s, e = spans[k]
    if fault == 1:
        return text[:e] + rng.choice(("", " ")) + text[s:e] + text[e:]
    if fault == 0 or len(spans) == 1:
        return text[:s] + text[e:]
    if k + 1 == len(spans):
        k -= 1
        s, e = spans[k]
    s2, e2 = spans[k + 1]
    return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]


def join(rng: random.Random, lines: list[str]) -> str:
    """``lines`` as a KB text: mixed line endings, the odd comment, blank
    line or comment line."""
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(("", " \t", "  " + rng.choice(COMMENTS))) + rng.choice(ENDINGS))
        if rng.random() < 0.15:
            line += rng.choice(("", " ", "\t")) + rng.choice(COMMENTS)
        out.append(line + rng.choice(ENDINGS))
    return "".join(out)


def abox_line(rng: random.Random) -> str:
    """A line shaped as the wide benchmark ABox's: an atomic fact or an edge."""
    ops = rng.choice((">= {} <= {}", "<= {} >= {}"))
    degrees = ops.format(rng.choice(DEGREES), rng.choice(DEGREES))
    if rng.random() < 0.35:
        comma = rng.choice((",", ", "))
        return f"assert {rng.choice('RS')}(i{rng.randrange(50)}{comma}i{rng.randrange(50)}) {degrees}"
    return f"assert A{rng.randrange(4)}(i{rng.randrange(50)}) {degrees}"


def axiom_line(rng: random.Random, lhs: str) -> str:
    body = format_concept(rand_concept(rng, 2, atoms=["A", "B", "D", "E", "A*"]))
    return f"define {lhs} = {body}" if rng.random() < 0.5 else f"spec {lhs} < {body}"


def terminology(rng: random.Random) -> list[str]:
    """Axioms over a few names, so that duplicate definitions, cycles and
    reserved starred names come up, and a statement or two."""
    lines = [axiom_line(rng, rng.choice("DEFA")) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        lines += ["define D = (some R E)", "define E = (not D)"]
    lines += [format_statement(rand_kb_constraint(rng, depth=1, atoms=["A", "D", "A*"]))
              for _ in range(rng.randint(0, 2))]
    rng.shuffle(lines)
    return lines


def single_line(rng: random.Random) -> str:
    """A concept, a bare assertion or a query, for the one-line entries."""
    pick = rng.randrange(3)
    if pick == 0:
        return format_concept(rand_concept(rng, 2))
    if pick == 1:
        return str(rand_assertion(rng, 2))
    return format_statement(rand_kb_constraint(rng, depth=2))


def corpus():
    """(entry, text) for every case: 1 200 KB texts and 300 lines."""
    rng = random.Random("parse corpus")
    for seed in range(500):
        kb = rand_assertional_kb(random.Random(seed))
        yield "kb", mangle(rng, join(rng, [format_statement(c) for c in kb.assertions]))
    for _ in range(400):
        yield "kb", mangle(rng, join(rng, [abox_line(rng) for _ in range(rng.randint(1, 6))]))
    for _ in range(300):
        yield "kb", mangle(rng, join(rng, terminology(rng)))
    for _ in range(300):
        yield "line", mangle(rng, single_line(rng))


def render_axiom(axiom) -> str:
    op = "<" if axiom.kind is AxiomKind.SPECIALIZATION else "="
    return f"{axiom.kind.value} {axiom.lhs} {op} {format_concept(axiom.rhs)}"


def outcome(entry: str, text: str) -> list[str]:
    """What the parser gives for a case: the errors, or the statements."""
    if entry == "kb":
        kb, errors = try_parse_kb(text)
        if errors:
            return [str(e) for e in errors]
        return [format_statement(c) for c in kb.assertions] + [render_axiom(a) for a in kb.terminology]
    out = []
    for parse, render in ((parse_concept, format_concept), (parse_query, format_statement),
                          (parse_assertion, str)):
        try:
            out.append(render(parse(text)))
        except ConceptSyntaxError as exc:
            out.append(str(exc.error))
    return out


def record(path: Path = CORPUS) -> None:
    with path.open("w", encoding="utf-8") as out:
        for entry, text in corpus():
            out.write(json.dumps({"entry": entry, "text": text, "out": outcome(entry, text)}) + "\n")


def test_the_parser_reproduces_the_corpus():
    cases = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(cases) == 1500
    wrong = [(case["text"], case["out"], found) for case in cases
             if (found := outcome(case["entry"], case["text"])) != case["out"]]
    assert wrong == []


def test_the_corpus_both_parses_and_fails():
    cases = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    kinds = {out.split(": ")[1] for case in cases for out in case["out"] if re.match(r"\d+:\d+: ", out)}
    assert kinds == {"lex", "syntax", "degree-range", "duplicate-definition"}
    assert any(case["out"] and not re.match(r"\d+:\d+: ", case["out"][0]) for case in cases)


class TestBlanks:
    """Blank means a space, a tab or ``\\r``: any other character, a
    no-break space or a form feed say, is a lex error, on a line of its
    own too."""

    @pytest.mark.parametrize("blank", ["\xa0", "\x0c", "　"])
    @pytest.mark.parametrize("rest", ["\n", "assert B(b) >= 1 <= 0", "# a comment", " "])
    def test_another_space_is_a_lex_error_at_its_column(self, blank, rest):
        kb, errors = try_parse_kb(f"assert A(a) >= 1 <= 0\n {blank}{rest}")
        assert kb is None
        assert [str(e) for e in errors] == [f"2:2: lex: unexpected character {blank!r}"]

    def test_a_line_of_blanks_or_a_comment_is_skipped(self):
        kb = parse_kb(" \t\r\nassert A(a) >= 1 <= 0\n\t # note \xa0\n\r\n")
        assert [format_statement(c) for c in kb.assertions] == ["assert A(a) >= 1 <= 0"]

    def test_the_end_of_line_counts_another_space_in_a_comment(self):
        kb, errors = try_parse_kb("assert A(a) >= 1 # x\xa0 \t")
        assert [str(e) for e in errors] == ["1:22: syntax: expected '<=' after the first bound"]

    def test_a_queries_file_skips_only_blank_lines(self, tmp_path, capsys):
        kb = tmp_path / "kb.nalc"
        kb.write_text("assert A(a) >= 1 <= 0\n", encoding="utf-8")
        queries = tmp_path / "queries.txt"
        queries.write_text(" \t\n# note\nassert A(a) >= 1 <= 0 \n", encoding="utf-8")
        assert run(["entails", str(kb), "--queries", str(queries)]) == 0
        assert capsys.readouterr().out == "assert A(a) >= 1 <= 0: true\n"
        queries.write_text("\xa0\n", encoding="utf-8")
        assert run(["entails", str(kb), "--queries", str(queries)]) == 2
        assert "1:1: lex: unexpected character '\\xa0'" in capsys.readouterr().err


def test_one_parse_shares_its_leaves():
    """The statements of one parse share one ``Atomic`` per concept name,
    one ``Individual`` per individual name, one ``Bound`` per relation
    and literal and one ``Fraction`` per literal: equal but distinct
    leaves would pass every equality test and still slow down every hash
    and comparison of a check on the KB."""
    rng = random.Random("shared leaves")
    lines = []
    for _ in range(10_000):
        ops = rng.choice(((">=", "<="), ("<=", ">=")))
        n, m = rng.choice(DEGREES), rng.choice(DEGREES)
        if rng.random() < 0.35:
            subject = f"{rng.choice('RS')}(i{rng.randrange(1000)},i{rng.randrange(1000)})"
        else:
            subject = f"A{rng.randrange(4)}(i{rng.randrange(1000)})"
        lines.append(f"assert {subject} {ops[0]} {n} {ops[1]} {m}")
    kb = parse_kb("\n".join(lines))
    leaves = {}

    def share(key, value):
        assert leaves.setdefault(key, value) is value, key

    for constraint, line in zip(kb.assertions, lines):
        a = constraint.assertion
        subjects = (a.subject, a.target) if hasattr(a, "target") else (a.subject,)
        if not hasattr(a, "target"):
            share(("concept", a.concept.name), a.concept)
        for individual in subjects:
            share(("individual", individual.name), individual)
        *_, op, n, op2, m = line.split()
        share(("bound", op, n), constraint.tbound)
        share(("bound", op2, m), constraint.fbound)
        share(("degree", n), constraint.tbound.value)
        share(("degree", m), constraint.fbound.value)
    assert len([k for k in leaves if k[0] == "concept"]) == 4
    assert len([k for k in leaves if k[0] == "bound"]) == 2 * len(DEGREES)


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS)
