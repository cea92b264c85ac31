"""Command-line behaviour: subcommands, exit codes, machine output."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nalc import entails, parse_kb, parse_query
from nalc.cli import run

POLL_KB = (
    "assert (some Support war_x)(p1) >= 0.6 <= 0.5\n"
    "assert (some Support war_y)(p2) >= 0.8 <= 0.1\n"
    "spec war_x < War\n"
    "spec war_y < War\n"
)


@pytest.fixture
def poll_kb(tmp_path):
    path = tmp_path / "polls.nalc"
    path.write_text(POLL_KB, encoding="utf-8")
    return str(path)


class TestEntailsCommand:
    def test_positive_query_exits_zero(self, poll_kb, capsys):
        code = run(["entails", poll_kb, "--query",
                    "assert (some Support War)(p1) >= 0.6 <= 0.5"])
        assert code == 0
        assert "true" in capsys.readouterr().out

    def test_negative_query_exits_one(self, poll_kb, capsys):
        code = run(["entails", poll_kb, "--query",
                    "assert (some Support War)(p1) >= 0.9 <= 0.4"])
        assert code == 1

    def test_trace_shows_the_derivation(self, poll_kb, capsys):
        run(["entails", poll_kb, "--trace", "--query",
             "assert (some Support War)(p1) >= 0.6 <= 0.5"])
        out = capsys.readouterr().out
        assert "Support(p1,x1) >= 0.6 <= 0.5" in out
        assert "(and War war_x*)(x1) >= 0.6 <= 0.5" in out
        assert "War(x1) < 0.6 > 0.5" in out
        assert "War(x1) >= 0.6 <= 0.5" in out
        assert "clash" in out

    def test_oracle_agreement_flag(self, poll_kb, capsys):
        code = run(["entails", poll_kb, "--oracle", "--query",
                    "assert (some Support War)(p2) >= 0.8 <= 0.1"])
        assert code == 0
        assert "oracle agreement: true" in capsys.readouterr().out

    def test_oracle_unfolds_defined_names_in_the_query(self, poll_kb, capsys):
        # war_x is specialized, so the query holds only through the KB's
        # terminology; the enumerator must read it unfolded as well.
        code = run(["entails", poll_kb, "--oracle", "--domain-size", "2", "--query",
                    "assert (some Support war_x)(p1) >= 0.6 <= 0.5"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "assert (some Support war_x)(p1) >= 0.6 <= 0.5: true",
            "oracle agreement: true",
        ]

    def test_oracle_batch_expands_the_kb_once(self, poll_kb, tmp_path, monkeypatch, capsys):
        import nalc.kb

        calls = []
        validate = nalc.kb.validate
        monkeypatch.setattr(nalc.kb, "validate", lambda kb: calls.append(kb) or validate(kb))
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "assert (some Support War)(p2) >= 0.8 <= 0.1\n"
            "assert (some Support War)(p2) >= 0.7 <= 0.2\n",
            encoding="utf-8",
        )
        code = run(["entails", poll_kb, "--oracle", "--domain-size", "2",
                    "--queries", str(queries)])
        assert code == 0
        assert capsys.readouterr().out.count("oracle agreement: true") == 2
        # The reasoner's gate once per query, the oracle's expansion once.
        assert len(calls) == 3

    def test_malformed_kb_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.nalc"
        path.write_text("assert C(a) >= 1.2 <= 0\n", encoding="utf-8")
        code = run(["entails", str(path), "--query", "assert C(a) >= 0 <= 1"])
        assert code == 2
        assert "degree-range" in capsys.readouterr().err

    def test_batch_mode_runs_each_line(self, poll_kb, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "assert (some Support War)(p1) >= 0.6 <= 0.5\n"
            "assert (some Support War)(p1) >= 0.9 <= 0.4\n",
            encoding="utf-8",
        )
        code = run(["entails", poll_kb, "--queries", str(queries)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count(":") >= 2 and "true" in out and "false" in out

    def test_json_round_trips(self, poll_kb, capsys):
        run(["entails", poll_kb, "--json", "--query",
             "assert (some Support War)(p1) >= 0.6 <= 0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] is True
        assert payload["query"].startswith("assert")


class TestOtherCommands:
    def test_check_satisfiable(self, poll_kb):
        assert run(["check", poll_kb]) == 0

    def test_check_unsatisfiable(self, tmp_path):
        path = tmp_path / "bad.nalc"
        path.write_text("assert bot(a) >= 1 <= 0\n", encoding="utf-8")
        assert run(["check", str(path)]) == 1

    def test_nnf(self, capsys):
        assert run(["nnf", "(not (and A B))"]) == 0
        assert capsys.readouterr().out.strip() == "(or (not A) (not B))"

    def test_expand_prints_the_assertional_form(self, poll_kb, capsys):
        assert run(["expand", poll_kb]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "assert (some Support (and War war_x*))(p1) >= 0.6 <= 0.5",
            "assert (some Support (and War war_y*))(p2) >= 0.8 <= 0.1",
        ]

    def test_subsumes(self, capsys):
        assert run(["subsumes", "--sub", "(and A B)", "--super", "A"]) == 0
        assert run(["subsumes", "--sub", "(or A B)", "--super", "A"]) == 1

    def test_subsumes_with_terminology(self, poll_kb):
        assert run(["subsumes", poll_kb, "--sub", "war_x", "--super", "War"]) == 0

    def test_glb_prints_rationals_and_decimals(self, poll_kb, tmp_path, capsys):
        path = tmp_path / "role.nalc"
        path.write_text(
            "assert R(a,b) >= 0.6 <= 0.3\nassert R(a,b) >= 0.7 <= 0.4\n",
            encoding="utf-8",
        )
        assert run(["glb", str(path), "--assertion", "R(a,b)"]) == 0
        out = capsys.readouterr().out
        assert "7/10 3/10" in out and "0.7 0.3" in out

    def test_glb_json_round_trips_rationals(self, tmp_path, capsys):
        path = tmp_path / "role.nalc"
        path.write_text("assert R(a,b) >= 2/3 <= 0.25\n", encoding="utf-8")
        assert run(["glb", str(path), "--json", "--assertion", "R(a,b)"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert Fraction(payload["bound"]["n"]) == Fraction(2, 3)
        assert Fraction(payload["bound"]["m"]) == Fraction(1, 4)

    def test_lub_rejects_role_assertions(self, tmp_path, capsys):
        path = tmp_path / "role.nalc"
        path.write_text("assert R(a,b) >= 0.5 <= 0.5\n", encoding="utf-8")
        assert run(["lub", str(path), "--assertion", "R(a,b)"]) == 2

    def test_invalid_kb_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cyclic.nalc"
        path.write_text("define A = B\ndefine B = A\nassert A(a) >= 1 <= 0\n", encoding="utf-8")
        assert run(["check", str(path)]) == 2
        assert "cyclic definitions: A -> B -> A" in capsys.readouterr().err

    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        deep = "(not " * 3000 + "A" + ")" * 3000
        assert run(["nnf", deep]) == 2
        assert capsys.readouterr().err == "input nested too deeply to process\n"
        path = tmp_path / "deep.nalc"
        path.write_text(f"assert {deep}(a) >= 0.5 <= 0.5\n", encoding="utf-8")
        assert run(["check", str(path)]) == 2
        assert capsys.readouterr().err == "input nested too deeply to process\n"

    def test_usage_error(self, capsys):
        assert run(["entails"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["subsumes", "--sub", "(and A", "--super", "A"],
         "1:7: syntax: expected a concept, found 'end of line'"),
        (["subsumes", "--sub", "A", "--super", "(some R)"],
         "1:8: syntax: expected a concept, found ')'"),
        (["glb", "KB", "--assertion", "A(a"], "1:4: syntax: expected ')', found 'end of line'"),
        (["lub", "KB", "--assertion", "(or A B(a)"], "1:8: syntax: expected ')', found '('"),
        (["nnf", "(or A B"], "1:8: syntax: expected ')', found 'end of line'"),
        (["nnf", "A &"], "1:3: lex: unexpected character '&'"),
    ])
    def test_malformed_concept_argument_exits_two(self, poll_kb, capsys, argv, message):
        argv = [poll_kb if arg == "KB" else arg for arg in argv]
        assert run(argv) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-5", ""])
    def test_malformed_branch_ceiling_is_a_usage_error(self, poll_kb, monkeypatch, capsys, value):
        monkeypatch.setenv("NALC_MAX_BRANCHES", value)
        assert run(["check", poll_kb]) == 2
        assert "NALC_MAX_BRANCHES" in capsys.readouterr().err

    def test_branch_ceiling_from_the_environment(self, poll_kb, monkeypatch, capsys):
        monkeypatch.setenv("NALC_MAX_BRANCHES", "1")
        assert run(["entails", poll_kb, "--query",
                    "assert (some Support War)(p1) >= 0.6 <= 0.5"]) == 3
        assert "branch ceiling 1" in capsys.readouterr().err

    def test_a_changed_branch_ceiling_is_read_again(self, poll_kb, monkeypatch):
        argv = ["entails", poll_kb, "--query", "assert (some Support War)(p1) >= 0.6 <= 0.5"]
        for value, code in (("1", 3), ("abc", 2), ("abc", 2), (None, 0), ("1", 3)):
            if value is None:
                monkeypatch.delenv("NALC_MAX_BRANCHES")
            else:
                monkeypatch.setenv("NALC_MAX_BRANCHES", value)
            assert run(argv) == code, value

    def test_a_library_call_reads_no_branch_ceiling_from_the_environment(
            self, poll_kb, monkeypatch, capsys):
        text = "assert (some Support War)(p1) >= 0.6 <= 0.5"
        unset = entails(parse_kb(POLL_KB), parse_query(text))
        monkeypatch.setenv("NALC_MAX_BRANCHES", "1")
        assert entails(parse_kb(POLL_KB), parse_query(text)) == unset
        assert run(["entails", poll_kb, "--query", text]) == 3

    @pytest.mark.parametrize("argv", [
        ["glb", "KB", "--assertion", "War(p1)"],
        ["lub", "KB", "--assertion", "War(p1)"],
        ["subsumes", "--sub", "A", "--super", "A"],
        ["entails", "KB", "--query", "assert (some Support War)(p1) >= 0.6 <= 0.5"],
    ])
    def test_every_tableau_command_rejects_a_malformed_branch_ceiling(
            self, poll_kb, monkeypatch, capsys, argv):
        monkeypatch.setenv("NALC_MAX_BRANCHES", "abc")
        assert run([poll_kb if arg == "KB" else arg for arg in argv]) == 2
        assert capsys.readouterr().err == (
            "NALC_MAX_BRANCHES must be a positive integer, not 'abc'\n"
        )

    @pytest.mark.parametrize("argv", [["nnf", "A"], ["expand", "KB"]])
    def test_a_command_without_the_tableau_ignores_the_branch_ceiling(
            self, poll_kb, monkeypatch, argv):
        monkeypatch.setenv("NALC_MAX_BRANCHES", "abc")
        assert run([poll_kb if arg == "KB" else arg for arg in argv]) == 0


class TestNoTracebackExits:
    def test_bad_degree_literal_in_a_query_exits_two(self, poll_kb, capsys):
        query = "assert War(p1) >= 1/0 <= 0"
        assert run(["entails", poll_kb, "--query", query]) == 2
        assert capsys.readouterr().err == (
            f"bad query {query!r}: 1:19: syntax: bad degree literal '1/0'\n"
        )

    def test_superscript_digit_is_a_lex_error(self, capsys):
        # str.isdigit accepts '²', but no token starts with it.
        assert run(["nnf", "A²"]) == 2
        assert capsys.readouterr().err == "1:2: lex: unexpected character '²'\n"

    def test_oracle_on_a_ring_of_forty_individuals(self, tmp_path, capsys):
        # One component of about 1 640 cells: the enumerator's depth-first
        # search must not be bounded by the interpreter's recursion limit.
        lines = []
        for k in range(40):
            lines.append(f"assert R(i{k},i{(k + 1) % 40}) >= 0.5 <= 0.5")
            lines.append(f"assert (all R A)(i{k}) >= 0.5 <= 0.5")
        path = tmp_path / "ring.nalc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        query = "assert A(i0) >= 0.5 <= 0.5"
        assert run(["entails", str(path), "--oracle", "--query", query]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{query}: false",
            "oracle agreement: true",
        ]


class TestGridTraceAndQuerySources:
    """Exit codes and lines of ``--grid``, ``check --trace`` and the
    ``entails`` query sources, read through ``run``."""

    def test_a_disjunction_is_not_subsumed_on_any_grid(self):
        for grid in ("0.25,0.75", "0"):
            assert run(["subsumes", "--grid", grid, "--sub", "(or A B)", "--super", "A"]) == 1

    def test_a_grid_degree_above_one_is_a_usage_error(self, capsys):
        assert run(["subsumes", "--grid", "1.5", "--sub", "A", "--super", "A"]) == 2
        assert capsys.readouterr().err == "grid degree 3/2 outside [0, 1]\n"

    def test_a_grid_that_is_no_number_is_a_usage_error(self, capsys):
        assert run(["subsumes", "--grid", "abc", "--sub", "A", "--super", "A"]) == 2
        assert capsys.readouterr().err.startswith("bad grid 'abc': ")

    def test_an_empty_grid_is_a_usage_error(self, poll_kb, capsys):
        # An empty value is checked like any other, not taken as no grid.
        assert run(["subsumes", "--grid", "", "--sub", "A", "--super", "A"]) == 2
        assert capsys.readouterr().err.startswith("bad grid '': ")
        assert run(["entails", poll_kb, "--oracle", "--grid", "",
                    "--query", "assert (some Support War)(p1) >= 0.6 <= 0.5"]) == 2
        assert capsys.readouterr().err.startswith("bad grid '': ")

    def test_the_oracle_agrees_on_a_grid_of_its_own(self, poll_kb, capsys):
        code = run(["entails", poll_kb, "--oracle", "--grid", "0.25,0.75",
                    "--query", "assert (some Support War)(p1) <= 0 >= 0"])
        assert code == 1
        assert "oracle agreement: true" in capsys.readouterr().out.splitlines()

    def test_check_trace_leaves_out_an_undone_branch(self, tmp_path, capsys):
        path = tmp_path / "undo.nalc"
        path.write_text("assert (or A B)(a) >= 1 <= 0\nassert A(a) <= 0.5 >= 0.5\n",
                        encoding="utf-8")
        assert run(["check", "--trace", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "satisfiable: true",
            "(1) (or A B)(a) >= 1 <= 0   [hypothesis]",
            "(2) A(a) <= 0.5 >= 0.5   [hypothesis]",
            "(3) B(a) >= 1 <= 0   (or>=<=) : (1)",
        ]

    def test_entails_needs_a_query(self, poll_kb, capsys):
        assert run(["entails", poll_kb]) == 2
        assert capsys.readouterr().err == "entails needs --query or --queries\n"

    def test_a_missing_queries_file_is_a_usage_error(self, poll_kb, tmp_path, capsys):
        assert run(["entails", poll_kb, "--queries", str(tmp_path / "absent.txt")]) == 2
        assert capsys.readouterr().err.startswith("cannot read ")

    def test_a_statement_other_than_assert_is_a_bad_query(self, poll_kb, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("spec A < B\n", encoding="utf-8")
        assert run(["entails", poll_kb, "--queries", str(queries)]) == 2
        assert capsys.readouterr().err == (
            "bad query 'spec A < B': 1:1: syntax: expected an 'assert' statement\n"
        )


class TestReservedNamesInQueries:
    """A query may not name the starred companion ``A*`` that ``spec A < ...``
    introduces: no statement of the KB as written mentions it."""

    MESSAGE = "invalid query: 'A*' is reserved for expanding 'spec A < ...'\n"

    @pytest.fixture
    def spec_kb(self, tmp_path):
        path = tmp_path / "spec.nalc"
        path.write_text("spec A < B\nassert A(a) >= 1 <= 0\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["entails", "--query", "assert A*(a) >= 1 <= 0"],
        ["entails", "--oracle", "--query", "assert A*(a) >= 1 <= 0"],
        ["entails", "--trace", "--query", "assert A*(a) >= 1 <= 0"],
        ["entails", "--query", "assert (and B A*)(a) >= 1 <= 0"],
        ["glb", "--assertion", "A*(a)"],
        ["lub", "--assertion", "A*(a)"],
    ])
    def test_a_starred_companion_is_an_invalid_query(self, spec_kb, capsys, argv):
        assert run([argv[0], spec_kb, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", self.MESSAGE)

    @pytest.mark.parametrize("with_result", [False, True])
    def test_entails_raises_in_both_modes(self, with_result):
        kb = parse_kb("spec A < B\nassert A(a) >= 1 <= 0\n")
        query = parse_query("assert (or C A*)(a) >= 0.5 <= 0.5")
        with pytest.raises(ValueError, match=r"^invalid query: 'A\*' is reserved"):
            entails(kb, query, with_result=with_result)

    def test_the_kb_answers_its_other_queries_as_before(self, spec_kb, capsys):
        assert run(["entails", spec_kb, "--oracle", "--query", "assert B(a) >= 1 <= 0"]) == 0
        assert run(["entails", spec_kb, "--query", "assert A(a) >= 1 <= 0"]) == 0
        assert run(["entails", spec_kb, "--query", "assert C(a) >= 1 <= 0"]) == 1
        assert run(["glb", spec_kb, "--assertion", "B(a)"]) == 0
        assert run(["lub", spec_kb, "--assertion", "C(a)"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "assert B(a) >= 1 <= 0: true",
            "oracle agreement: true",
            "assert A(a) >= 1 <= 0: true",
            "assert C(a) >= 1 <= 0: false",
            "glb: 1/1 0/1 (1 0)",
            "lub: 1/1 0/1 (1 0)",
        ]

    def test_a_definition_reserves_no_name(self, tmp_path, capsys):
        path = tmp_path / "define.nalc"
        path.write_text("define A = B\nassert A(a) >= 1 <= 0\n", encoding="utf-8")
        assert run(["entails", str(path), "--query", "assert A*(a) >= 1 <= 0"]) == 1
        assert capsys.readouterr().out == "assert A*(a) >= 1 <= 0: false\n"


class TestModuleEntryPoint:
    """``python -m nalc.cli`` runs ``main``, which exits with ``run``'s code."""

    ROOT = Path(__file__).resolve().parents[1]

    def _main(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "nalc.cli", *argv], env=env,
                              cwd=self.ROOT, capture_output=True, text=True)

    def test_nnf_prints_and_exits_zero(self):
        done = self._main("nnf", "(not (and A B))")
        assert (done.returncode, done.stdout, done.stderr) == (0, "(or (not A) (not B))\n", "")

    def test_a_usage_error_exits_two(self):
        done = self._main("entails", "tests/data/polls.nalc")
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "entails needs --query or --queries\n")
