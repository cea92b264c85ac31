"""Surface language: concepts, assertions, KB files, round-tripping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nalc import (
    And,
    Atomic,
    BOT,
    ConceptAssertion,
    Exists,
    Forall,
    Individual,
    ConceptSyntaxError,
    Not,
    Or,
    RoleAssertion,
    TOP,
    format_concept,
    format_statement,
    parse_assertion,
    parse_concept,
    parse_kb,
    parse_query,
    try_parse_kb,
)
from test_syntax import concepts

EXAMPLE_KB = """\
# two polls about two wars
assert (some Support war_x)(p1) >= 0.6 <= 0.5
assert (some Support war_y)(p2) >= 0.8 <= 0.1
spec war_x < War
spec war_y < War
"""


class TestParseConcept:
    def test_conjunction_with_existential(self):
        assert parse_concept("(and Video (some About Basket))") == And(
            Atomic("Video"), Exists("About", Atomic("Basket"))
        )

    def test_top(self):
        assert parse_concept("top") == TOP
        assert parse_concept("bot") == BOT

    def test_negated_universal(self):
        assert parse_concept("(not (all Support War))") == Not(
            Forall("Support", Atomic("War"))
        )

    def test_starred_identifier(self):
        assert parse_concept("war_x*") == Atomic("war_x*")

    @pytest.mark.parametrize(
        "bad, column",
        [
            ("(and A)", 7),        # missing second argument
            ("(foo A B)", 2),      # unknown head
            ("()", 2),             # empty form
            ("(not A", 7),         # unclosed
            ("A B", 3),            # trailing junk
        ],
    )
    def test_error_spans_point_at_the_offence(self, bad, column):
        with pytest.raises(ConceptSyntaxError) as err:
            parse_concept(bad)
        assert err.value.error.span.column == column


class TestDegrees:
    def test_decimal_is_exact(self):
        q = parse_query("assert A(a) >= 0.6 <= 0.5")
        assert q.tbound.value == Fraction(3, 5)
        assert q.tbound.value != 0.6  # never the binary float

    def test_fraction_literal(self):
        q = parse_query("assert A(a) >= 1/3 <= 2/3")
        assert q.tbound.value == Fraction(1, 3)

    def test_out_of_range_is_reported(self):
        kb, errors = try_parse_kb("assert C(a) >= 1.2 <= 0\n")
        assert kb is None
        assert [e.kind for e in errors] == ["degree-range"]

    def test_role_assertion_query(self):
        q = parse_query("assert R(a,b) <= 0.4 >= 0.6")
        assert q.assertion == RoleAssertion("R", Individual("a"), Individual("b"))
        assert q.tbound.rel.value == "<="


class TestParseKb:
    def test_example_kb_shape(self):
        kb = parse_kb(EXAMPLE_KB)
        assert len(kb.assertions) == 2
        assert len(kb.terminology) == 2
        assert kb.terminology[0].lhs == "war_x"

    def test_empty_text_is_the_empty_kb(self):
        kb = parse_kb("")
        assert kb.assertions == () and kb.terminology == ()

    def test_all_errors_are_collected(self):
        text = "assert C(a) >= 1.2 <= 0\nassert D(\nspec A < B\nspec A < C\n"
        kb, errors = try_parse_kb(text)
        assert kb is None
        kinds = sorted(e.kind for e in errors)
        assert kinds == ["degree-range", "duplicate-definition", "syntax"]
        assert {e.span.line for e in errors} == {1, 2, 4}

    def test_cycle_is_an_error(self):
        text = "define A = (some R B)\ndefine B = (not A)\n"
        kb, errors = try_parse_kb(text)
        assert kb is None
        assert any("cyclic" in e.message for e in errors)


class TestRoundTrip:
    @given(concepts())
    @settings(max_examples=300)
    def test_concept_round_trip(self, c):
        assert parse_concept(format_concept(c)) == c

    def test_statement_round_trip(self):
        for line in (
            "assert (some Support (and War war_x*))(p1) >= 0.6 <= 0.5",
            "assert R(a,b) <= 1/3 >= 0.25",
            "assert top(a) >= 1 <= 0",
        ):
            constraint = parse_query(line)
            assert parse_query(format_statement(constraint)) == constraint


class TestBareAssertions:
    def test_concept_assertion(self):
        assertion = parse_assertion("(or A B)(alice)")
        assert assertion == ConceptAssertion(
            Or(Atomic("A"), Atomic("B")), Individual("alice")
        )

    def test_role_assertion(self):
        assert parse_assertion("R(a,b)") == RoleAssertion(
            "R", Individual("a"), Individual("b")
        )

    def test_complex_role_head_is_rejected(self):
        with pytest.raises(ConceptSyntaxError):
            parse_assertion("(and A B)(a,b)")


class TestBadInputIsAnError:
    def test_bad_degree_literals_are_collected_with_later_errors(self):
        kb, errors = try_parse_kb("assert A(a) >= 0.5/2 <= 0\nassert B(b) >= 2 <= 0\n")
        assert kb is None
        assert [str(e) for e in errors] == [
            "1:16: syntax: bad degree literal '0.5/2'",
            "2:16: degree-range: degree 2 outside [0, 1]",
        ]

    def test_lines_break_only_at_newlines(self):
        kb, errors = try_parse_kb("assert A(a) >= 1 <= 0 # caf\x85\nassert B(b) >= 2 <= 0\n")
        assert kb is None
        assert [str(e) for e in errors] == ["2:16: degree-range: degree 2 outside [0, 1]"]
        kb, errors = try_parse_kb("assert A(a) >= 1 <= 0\r\nassert B(b) >= 1\x0c<= 0\r")
        assert kb is None
        assert [str(e) for e in errors] == ["2:17: lex: unexpected character '\\x0c'"]

    def test_arabic_indic_digit_reads_as_a_degree(self):
        assert parse_query("assert A(a) >= ١ <= 0").tbound.value == 1

    PIECES = [
        "0", "1", "2", "5", ".", "/", "²", "١", "#", "\t", "\xa0", " ", "\n",
        "(", ")", ",", ">=", "<=", "<", ">", "=", "A", "R", "a", "b",
        "assert", "spec", "define", "and", "or", "not", "all", "some", "top", "bot",
    ]

    @given(st.lists(st.sampled_from(PIECES), max_size=24).map(lambda parts: "".join(parts)[:60]))
    @settings(max_examples=400)
    def test_any_text_parses_or_reports_errors(self, text):
        kb, errors = try_parse_kb(text)
        assert (kb is not None and errors == []) or (kb is None and errors)
        for parse in (parse_concept, parse_query, parse_assertion):
            try:
                parse(text)
            except ConceptSyntaxError:
                pass
