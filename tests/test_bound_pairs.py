"""A parsed KB carries its first statement of each distinct bound pair.

``try_parse_kb`` hands the KB the first statement it read of each
distinct bound pair (by the text of its four tokens), and the glb/lub
search reads the candidate degrees from those few statements in place
of every statement.  A KB built, copied or unpickled any other way has
every statement read.  Both ways must give the same degrees, so the same
bounds and the same probe counts.
"""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nalc.reasoner
from nalc import (
    TOP,
    ConceptAssertion,
    DegreePair,
    Individual,
    KnowledgeBase,
    expand,
    format_statement,
    glb,
    lub,
    parse_kb,
    try_parse_kb,
)
from nalc.reasoner import _PREPARED
from nalc.semantics import constraint_degrees
from genutil import rand_assertional_kb, rand_concept, ring_abox_text

CORPUS = Path(__file__).parent / "data" / "parse_corpus.jsonl"


def corpus_texts():
    """Every KB text of the parse corpus that parses."""
    texts = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        if entry["entry"] == "kb" and try_parse_kb(entry["text"])[0] is not None:
            texts.append(entry["text"])
    return texts


def spellings(value: Fraction) -> list[str]:
    """Literals of one degree: ``p/q``, ``2p/2q`` and, when finite, a decimal."""
    p, q = value.numerator, value.denominator
    texts = [f"{p}/{q}", f"{2 * p}/{2 * q}"]
    if 10 ** 6 % q == 0:
        texts.append(f"{p * 10 ** 6 // q / 10 ** 6}" if q > 1 else str(p))
    return texts


def respelled(rng: random.Random, kb: KnowledgeBase) -> str:
    """The KB's statements as text, each degree in a spelling drawn apart."""
    lines = []
    for c in kb.assertions:
        line = format_statement(c).rsplit(" ", 4)[0]
        for bound in (c.tbound, c.fbound):
            line += f" {bound.rel.value} {rng.choice(spellings(bound.value))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def random_texts():
    """Random KBs rendered and re-parsed, with each degree respelled at
    random, plus one that writes 1/2 both ways."""
    rng = random.Random(38)
    texts = ["assert A(a) >= 0.5 <= 0.25\nassert B(a) >= 1/2 <= 1/4\nassert A(b) <= 2/4 >= 0.5\n"]
    for _ in range(60):
        kb = rand_assertional_kb(rng, size=rng.randint(1, 5), depth=2)
        texts.append("".join(format_statement(c) + "\n" for c in kb.assertions))
        texts.append(respelled(rng, kb))
    return texts


def first_answers(kb: KnowledgeBase, targets) -> list:
    """Each target's glb and, for a concept assertion, lub, from the KB's
    own first search: no KB equal to it may be prepared already."""
    assert kb not in _PREPARED
    answers = []
    for target in targets:
        results = [glb(kb, target)]
        if isinstance(target, ConceptAssertion):
            results.append(lub(kb, target))
        answers += [(r.bound, r.candidates_examined) for r in results]
    return answers


def test_the_handed_statements_give_every_answer_the_full_scan_gives():
    rng = random.Random(3801)
    texts = corpus_texts() + random_texts()
    assert len(texts) > 200
    for text in texts:
        kb = parse_kb(text)
        assert constraint_degrees(kb._pair_statements) == constraint_degrees(kb.assertions)
        built = KnowledgeBase(kb.assertions, kb.terminology)
        assert not hasattr(built, "_pair_statements")
        a = Individual("a")
        first = kb.assertions[0].assertion if kb.assertions else ConceptAssertion(TOP, a)
        targets = [first, ConceptAssertion(rand_concept(rng, 1), a)]
        # A fresh parse, whose entry goes with it, so the built KB scans afresh.
        parsed = first_answers(parse_kb(text), targets)
        assert parsed == first_answers(built, targets), text


def test_a_parse_hands_one_statement_per_spelled_pair():
    kb = parse_kb("assert A(a) >= 0.5 <= 0.25\nassert B(a) >= 1/2 <= 1/4\n"
                  "assert C(a) >= 0.5 <= 0.25\nassert A(b) >= 1/2 <= 1/4\n")
    assert kb._pair_statements == kb.assertions[:2]
    assert constraint_degrees(kb._pair_statements) == {Fraction(1, 2), Fraction(1, 4)}


class TestTheScanReadsTheHandedStatements:
    TEXT = ring_abox_text(1000)
    TARGET = ConceptAssertion(TOP, Individual("a0"))

    @pytest.fixture
    def first_glb(self, monkeypatch):
        """The KB's first glb of the target (twice) and the size of each
        statement collection ``constraint_degrees`` read for it."""
        calls = []
        degrees = nalc.reasoner.constraint_degrees
        monkeypatch.setattr(nalc.reasoner, "constraint_degrees",
                            lambda cs: calls.append(len(cs)) or degrees(cs))

        def first_glb(kb):
            calls.clear()
            assert kb not in _PREPARED
            result = glb(kb, self.TARGET)
            assert glb(kb, self.TARGET) == result
            return result, list(calls)
        return first_glb

    def test_a_parsed_kb_scans_one_statement_per_pair(self, first_glb):
        kb = parse_kb(self.TEXT)
        pairs = {tuple(line.split()[-4:]) for line in self.TEXT.splitlines()}
        result, calls = first_glb(kb)
        assert len(calls) == 1 and calls[0] <= len(pairs) < len(kb.assertions)
        assert result.bound == DegreePair(Fraction(1), Fraction(0))

    def test_a_kb_the_parse_did_not_return_scans_every_statement(self, first_glb):
        parsed = parse_kb(self.TEXT)
        answers = set()
        for made in (lambda kb: pickle.loads(pickle.dumps(kb)), copy.copy, dataclasses.replace,
                     expand, lambda kb: KnowledgeBase(kb.assertions, kb.terminology)):
            kb = made(parsed)
            assert kb == parsed and hash(kb) == hash(parsed) and repr(kb) == repr(parsed)
            assert not hasattr(kb, "_pair_statements")
            result, calls = first_glb(kb)
            assert calls == [len(parsed.assertions)]
            answers.add(result)
            del kb  # its entry goes with it, so the next KB scans afresh
        result, calls = first_glb(parsed)
        assert answers == {result} and len(calls) == 1 and calls[0] < len(parsed.assertions)
