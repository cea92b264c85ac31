"""Command-line front end.

Exit codes: 0 the query holds / the KB is satisfiable, 1 it does not,
2 usage or parse errors (including input nested too deeply to
process), 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .constraints import _check_degree, degree_str
from .kb import KnowledgeBase, expand, resolved_definitions, unfold_constraint
from .parser import (
    BLANKS,
    ConceptSyntaxError,
    KbSyntaxError,
    format_statement,
    parse_assertion,
    parse_concept,
    parse_kb,
    parse_query,
)
from .reasoner import (
    SUBSUMPTION_GRID,
    check_satisfiable,
    entails,
    glb,
    lub,
    subsumes,
)
from .semantics import DegreeGrid, SearchExhausted, oracle_entails
from .syntax import format_concept, nnf
from .tableau import DEFAULT_MAX_BRANCHES, ResourceExhausted, Status

OK, NO, USAGE, EXHAUSTED = 0, 1, 2, 3


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _load_kb(path: str) -> KnowledgeBase:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return parse_kb(text)
    except KbSyntaxError as exc:
        lines = [f"{path}:{err}" for err in exc.errors]
        raise ValueError("\n".join(lines))


def _max_branches() -> int:
    """The branch ceiling ``NALC_MAX_BRANCHES`` sets, else the default;
    read before each reasoner call that runs the tableau."""
    text = os.environ.get("NALC_MAX_BRANCHES")
    if text is None:
        return DEFAULT_MAX_BRANCHES
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"NALC_MAX_BRANCHES must be a positive integer, not {text!r}")
    return int(text)


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad grid {text!r}: {exc}")
    for v in values:
        _check_degree(v, "grid degree")
    return values


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=None, sort_keys=True))
    else:
        for line in human:
            print(line)


def _cmd_check(args) -> int:
    kb = _load_kb(args.kb)
    result = check_satisfiable(kb, _max_branches())
    sat = result.status is Status.SATISFIABLE
    payload = {"query": "satisfiable", "answer": sat}
    human = [f"satisfiable: {str(sat).lower()}"]
    if args.trace:
        payload["trace"] = result.trace
        human += result.trace
    _emit(args, payload, human)
    return OK if sat else NO


def _cmd_entails(args) -> int:
    kb = _load_kb(args.kb)
    queries: list[str] = []
    if args.query:
        queries.append(args.query)
    if args.queries:
        try:
            with open(args.queries, encoding="utf-8") as handle:
                queries += [
                    query
                    for query in (line.strip(BLANKS + "\n") for line in handle)
                    if query and not query.startswith("#")
                ]
        except OSError as exc:
            raise ValueError(f"cannot read {args.queries}: {exc}")
    if not queries:
        raise ValueError("entails needs --query or --queries")
    if args.oracle:
        resolved = resolved_definitions(kb)
        expanded = [unfold_constraint(c, resolved) for c in kb.assertions]
        grid = DegreeGrid.containing(_parse_grid(args.grid)) if args.grid is not None else None
    exit_code = OK
    for text in queries:
        try:
            query = parse_query(text)
        except ConceptSyntaxError as exc:
            raise ValueError(f"bad query {text!r}: {exc.error}")
        max_branches = _max_branches()
        if args.trace:
            answer, result = entails(kb, query, max_branches, with_result=True)
        else:
            answer = entails(kb, query, max_branches)
        payload = {"query": text, "answer": answer}
        human = [f"{text}: {str(answer).lower()}"]
        if args.trace:
            payload["trace"] = result.trace
            human += result.trace
        if args.oracle:
            oracle = oracle_entails(expanded, unfold_constraint(query, resolved),
                                    args.domain_size, grid)
            payload["oracle_agreement"] = agreement = oracle == answer
            human.append(f"oracle agreement: {str(agreement).lower()}")
        _emit(args, payload, human)
        if not answer:
            exit_code = NO
    return exit_code


def _cmd_subsumes(args) -> int:
    kb = _load_kb(args.kb) if args.kb else KnowledgeBase((), ())
    sub = parse_concept(args.sub)
    super_ = parse_concept(args.super)
    grid = _parse_grid(args.grid) if args.grid is not None else SUBSUMPTION_GRID
    answer = subsumes(kb.terminology, sub, super_, grid, _max_branches())
    payload = {"query": f"{args.sub} subsumed-by {args.super}", "answer": answer}
    _emit(args, payload, [f"subsumed: {str(answer).lower()}"])
    return OK if answer else NO


def _cmd_bound(args) -> int:
    kind = args.command
    kb = _load_kb(args.kb)
    assertion = parse_assertion(args.assertion)
    result = (glb if kind == "glb" else lub)(kb, assertion, _max_branches())
    n, m = result.bound.n, result.bound.m
    payload = {
        "query": f"{kind} {args.assertion}",
        "answer": True,
        "bound": {"n": _rational(n), "m": _rational(m)},
    }
    human = [f"{kind}: {_rational(n)} {_rational(m)} ({degree_str(n)} {degree_str(m)})"]
    _emit(args, payload, human)
    return OK


def _cmd_nnf(args) -> int:
    rewritten = format_concept(nnf(parse_concept(args.concept)))
    _emit(args, {"query": args.concept, "answer": rewritten}, [rewritten])
    return OK


def _cmd_expand(args) -> int:
    kb = _load_kb(args.kb)
    expanded = expand(kb)
    lines = [format_statement(c) for c in expanded.assertions]
    _emit(args, {"query": "expand", "answer": lines}, lines)
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nalc",
        description="Reasoner for ALC concepts with paired truth/falsity degree bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kb=True):
        if kb:
            p.add_argument("kb", help="knowledge base file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="KB satisfiability")
    p.set_defaults(run=_cmd_check)
    common(p)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("entails", help="entailment of an assertion")
    p.set_defaults(run=_cmd_entails)
    common(p)
    p.add_argument("--query", help="one 'assert ...' line")
    p.add_argument("--queries", help="file of query lines, run independently")
    p.add_argument("--trace", action="store_true", help="print the derivation")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force model enumeration")
    p.add_argument("--grid", help="comma-separated degrees the oracle adds to its default grid")
    p.add_argument("--domain-size", type=int, help="oracle domain size override")

    p = sub.add_parser("subsumes", help="concept subsumption w.r.t. a terminology")
    p.set_defaults(run=_cmd_subsumes)
    p.add_argument("kb", nargs="?", help="KB file providing the terminology")
    common(p, kb=False)
    p.add_argument("--sub", required=True, help="candidate subsumee concept")
    p.add_argument("--super", required=True, help="candidate subsumer concept")
    p.add_argument("--grid", help="comma-separated degrees, each checked to lie in [0, 1];"
                   " the answer is the same on every grid")

    for kind in ("glb", "lub"):
        p = sub.add_parser(kind, help=f"{kind} of an assertion's degree bounds")
        p.set_defaults(run=_cmd_bound)
        common(p)
        p.add_argument("--assertion", required=True, help="bare assertion C(a) or R(a,b)")

    p = sub.add_parser("nnf", help="negation normal form of a concept")
    p.set_defaults(run=_cmd_nnf)
    p.add_argument("concept")
    common(p, kb=False)

    p = sub.add_parser("expand", help="print the purely assertional expansion")
    p.set_defaults(run=_cmd_expand)
    common(p)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.run(args)
    except (ResourceExhausted, SearchExhausted) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXHAUSTED
    except RecursionError:
        print("input nested too deeply to process", file=sys.stderr)
        return USAGE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
