"""Seeded fuzzing of the command line: every subcommand on random
well-formed and malformed input.

Whatever the input, ``run`` returns an exit code in 0-3 and lets no
exception escape, and each ``--json`` line it prints for a verdict
(exit 0 or 1) is one JSON document.
"""

import collections
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from nalc import format_concept, format_statement
from nalc.cli import run
from genutil import rand_concept, rand_kb_constraint, stable_seed

INVOCATIONS = 2_000
KB_FILES = 40
DEGREES = ("0", "0.25", "0.5", "1", "1.5", "-0.25", "1/3", "x", "")
COMMANDS = ("check", "entails", "subsumes", "glb", "lub", "nnf", "expand")


def _mangle(rng: random.Random, text: str) -> str:
    """``text`` with one fault put in: an unbalanced bracket, a reserved
    starred name, a bad degree or a dropped character."""
    fault = rng.randrange(4)
    if fault == 0:
        i = rng.randint(0, len(text))
        return text[:i] + rng.choice("()") + text[i:]
    if fault == 1 and "A" in text:
        return text.replace("A", "A*", 1)
    if fault == 2:
        words = text.split(" ")
        i = rng.randrange(len(words))
        words[i] = rng.choice(DEGREES)
        return " ".join(words)
    i = rng.randrange(len(text)) if text else 0
    return text[:i] + text[i + 1:]


def _maybe_mangled(rng: random.Random, text: str) -> str:
    return _mangle(rng, text) if rng.random() < 0.3 else text


def _kb_text(rng: random.Random) -> str:
    """At most five statements of quantifier depth at most 1, with the
    odd definition or specialization; half the KBs have one line mangled."""
    lines = [format_statement(rand_kb_constraint(rng, depth=1))
             for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.2:
        lines.insert(0, f"define D = {format_concept(rand_concept(rng, 1))}")
    if rng.random() < 0.2:
        lines.insert(0, "spec A < B")
    if lines and rng.random() < 0.5:
        i = rng.randrange(len(lines))
        lines[i] = _mangle(rng, lines[i])
    return "".join(line + "\n" for line in lines)


def _assertion(rng: random.Random) -> str:
    return str(rand_kb_constraint(rng, depth=1).assertion)


def _query(rng: random.Random) -> str:
    return _maybe_mangled(rng, format_statement(rand_kb_constraint(rng, depth=1)))


def _argv(rng: random.Random, kbs: list[str], queries: str) -> list[str]:
    command = rng.choice(COMMANDS)
    kb = rng.choice(kbs)
    flags = ["--json"] if rng.random() < 0.5 else []
    if command == "check":
        argv = [command, kb] + (["--trace"] if rng.random() < 0.5 else [])
    elif command == "entails":
        if rng.random() < 0.2:
            argv = [command, kb, "--queries", queries]
        else:
            argv = [command, kb, "--query", _query(rng)]
        if rng.random() < 0.5:
            argv.append("--trace")
        if rng.random() < 0.3:
            argv += ["--oracle", "--domain-size", str(rng.choice((-3, 0, 1, 2)))]
            if rng.random() < 0.3:
                argv += ["--grid", rng.choice(("0.5", "0.25,0.75", "1.5", "x"))]
    elif command == "subsumes":
        argv = [command, "--sub", _maybe_mangled(rng, format_concept(rand_concept(rng, 1))),
                "--super", _maybe_mangled(rng, format_concept(rand_concept(rng, 1)))]
        if rng.random() < 0.5:
            argv.insert(1, kb)
        if rng.random() < 0.3:
            argv += ["--grid", rng.choice(("0.5", "0,1", "1.5", "x"))]
    elif command in ("glb", "lub"):
        argv = [command, kb, "--assertion", _maybe_mangled(rng, _assertion(rng))]
    elif command == "nnf":
        argv = [command, _maybe_mangled(rng, format_concept(rand_concept(rng, 1)))]
    else:
        argv = [command, kb]
    if rng.random() < 0.05:
        # A usage error: a required argument or the command itself is gone.
        argv = argv[:rng.randrange(len(argv))]
    return argv + flags


def test_the_command_line_survives_random_input(tmp_path):
    rng = random.Random(stable_seed("cli fuzz"))
    kbs = [str(tmp_path / "missing.nalc")]
    for i in range(KB_FILES):
        path = tmp_path / f"kb{i}.nalc"
        path.write_text(_kb_text(rng), encoding="utf-8")
        kbs.append(str(path))
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(_query(rng) + "\n" for _ in range(3)), encoding="utf-8")
    ran = collections.Counter()  # invocations per command; None for no command
    for _ in range(INVOCATIONS):
        argv = _argv(rng, kbs, str(queries))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        if "--json" in argv and code in (0, 1):
            for line in out.getvalue().splitlines():
                json.loads(line)
        ran[argv[0] if argv and argv[0] in COMMANDS else None] += 1
    assert set(ran) == set(COMMANDS) | {None}, ran
