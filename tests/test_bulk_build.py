"""The one-pass hypothesis build against adding each hypothesis in turn.

``ConstraintSet.from_constraints`` builds a KB's hypothesis set in one
pass.  It must give the set that ``add((c,), "hypothesis", ())`` gives
constraint by constraint: the same constraints, steps, buckets, index,
watch lists and first clash, and heaps that hold the same positions (the
bulk build's hold each once).  A search from either start must then take
the same steps and read off the same model.

The build groups constraints through dicts, so CI also runs this module
under two more hash seeds.
"""

import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from nalc import (
    Atomic,
    BOT,
    Bound,
    ConceptAssertion,
    Constraint,
    Forall,
    Individual,
    Or,
    Rel,
    ResourceExhausted,
    RoleAssertion,
    Status,
    TOP,
    complete,
    extract_model,
)
from nalc.constraints import _refutation
from nalc.tableau import ConstraintSet, Step
from genutil import ATOMS, INDIVIDUALS, QUARTERS, ROLES, rand_assertional_kb, stable_seed

F = Fraction
CHUNKS = 8
PER_CHUNK = 40


def sequential(constraints) -> ConstraintSet:
    """The reference: each constraint added as one hypothesis, in turn."""
    s = ConstraintSet()
    for c in constraints:
        s.add((c,), "hypothesis", ())
    return s


def _insert(rng, h, c, lo=0):
    """Put ``c`` at a random position of ``h`` at or after ``lo``; return it."""
    pos = rng.randint(lo, len(h))
    h.insert(pos, c)
    return pos


def hypotheses(rng: random.Random, index: int) -> list[Constraint]:
    """A random KB's statements, at depth 2 or 3, with the cases the bulk
    build treats apart mixed in."""
    kb = rand_assertional_kb(rng, size=rng.randint(4, 12), depth=2 + index % 2)
    h = list(kb.assertions)
    # A universal whose halves watch an edge: the edge before it on odd
    # indices, after it on even ones.
    subject, target = Individual(rng.choice(INDIVIDUALS)), Individual(rng.choice(INDIVIDUALS))
    role = rng.choice(ROLES)
    watcher = Constraint.geq_leq(
        ConceptAssertion(Forall(role, Atomic(rng.choice(ATOMS))), subject), F(1, 2), F(1, 2))
    edge = Constraint.geq_leq(RoleAssertion(role, subject, target),
                              rng.choice(QUARTERS), rng.choice(QUARTERS))
    first, second = (edge, watcher) if index % 2 else (watcher, edge)
    _insert(rng, h, second, _insert(rng, h, first) + 1)
    # Repeated statements: the same object, or an equal one built anew.
    for _ in range(rng.randint(1, 3)):
        c = rng.choice(h)
        _insert(rng, h, c if rng.random() < 0.5 else pickle.loads(pickle.dumps(c)))
    if rng.random() < 0.3:
        constant = ConceptAssertion(rng.choice((TOP, BOT)), Individual(rng.choice(INDIVIDUALS)))
        _insert(rng, h, Constraint.geq_leq(constant, rng.choice(QUARTERS), rng.choice(QUARTERS)))
    if rng.random() < 0.15:
        assertion = rng.choice(h).assertion
        strict = rng.choice((Constraint(assertion, Bound(Rel.GT, F(1)), None),
                             Constraint(assertion, None, Bound(Rel.LT, F(0)))))
        _insert(rng, h, strict)
    return h


def corpus(chunk: int):
    rng = random.Random(stable_seed(f"bulk-build:{chunk}"))
    for k in range(PER_CHUNK):
        yield hypotheses(rng, chunk * PER_CHUNK + k), rng


def assert_same_set(bulk: ConstraintSet, seq: ConstraintSet) -> None:
    assert bulk.constraints == seq.constraints
    assert bulk.steps == seq.steps
    assert list(bulk.step_of.items()) == list(seq.step_of.items())
    assert list(bulk.by_assertion.items()) == list(seq.by_assertion.items())
    assert list(bulk.successors.items()) == list(seq.successors.items())
    assert list(bulk.watchers.items()) == list(seq.watchers.items())
    assert bulk.clash == seq.clash
    assert bulk.fresh_counter == seq.fresh_counter == 0
    for mine, theirs in ((bulk.agenda, seq.agenda), (bulk.splits, seq.splits),
                         (bulk.gens, seq.gens)):
        assert set(mine) == set(theirs)
        assert mine == sorted(set(mine))  # no duplicate, and a heap


def assert_same_run(bulk: ConstraintSet, seq: ConstraintSet, extra) -> None:
    mine, theirs = complete(extra, base=bulk), complete(extra, base=seq)
    assert mine.status is theirs.status
    assert mine.branch_count == theirs.branch_count
    assert mine.trace == theirs.trace
    if mine.status is Status.SATISFIABLE:
        m, t = extract_model(mine.witness), extract_model(theirs.witness)
        assert m.domain == t.domain
        assert m.individual_map == t.individual_map
        assert list(m.concept_table.items()) == list(t.concept_table.items())
        assert list(m.role_table.items()) == list(t.role_table.items())


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_the_bulk_build_is_the_sequential_one(chunk):
    for h, rng in corpus(chunk):
        bulk, seq = ConstraintSet.from_constraints(h), sequential(h)
        assert_same_set(bulk, seq)
        query = rng.choice(h)
        bound, ch = (query.tbound, "t") if query.tbound is not None else (query.fbound, "f")
        for extra in ([], [_refutation(query.assertion, ch, bound)]):
            assert_same_run(bulk, seq, extra)
        # The runs leave both sets as they were built.
        assert_same_set(bulk, seq)


# A split on names no corpus KB uses: a run that adds it to a satisfiable
# KB must branch.
FRESH_SPLIT = Constraint.geq_leq(ConceptAssertion(Or(Atomic("X"), Atomic("Y")), Individual("z")), 1, 0)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_the_bulk_built_steps_survive_every_path(chunk):
    """Copies, pickles, a run that keeps its witness and a run that
    raises all leave the bulk-built set with the sequential one's steps."""
    witnessed = exhausted = 0
    for h, _ in corpus(chunk):
        bulk, seq = ConstraintSet.from_constraints(h), sequential(h)
        steps = seq.steps
        assert bulk.copy().steps == steps
        assert pickle.loads(pickle.dumps(bulk)).steps == steps
        mine, theirs = complete([], base=bulk), complete([], base=seq)
        assert bulk.steps == steps
        if mine.status is Status.SATISFIABLE:
            witnessed += 1
            assert mine.witness.steps == theirs.witness.steps
            assert mine.witness.copy().steps == theirs.witness.steps
            with pytest.raises(ResourceExhausted):
                complete([FRESH_SPLIT], max_branches=1, base=bulk)
            exhausted += 1
            assert bulk.steps == steps
    assert witnessed >= 5 and exhausted >= 5, (witnessed, exhausted)


def test_each_read_of_the_steps_is_a_fresh_list():
    h = next(corpus(0))[0]
    s = ConstraintSet.from_constraints(h)
    complete([], base=s)
    lines = s.trace_lines()
    first, second = s.steps, s.steps
    assert first == second and first is not second
    first.append(Step(len(first) + 1, (h[0],), "hypothesis", ()))
    assert s.trace_lines() == lines
    assert s.steps == second


def test_a_bulk_built_step_is_a_step():
    c = Constraint.geq_leq(ConceptAssertion(Atomic("A"), Individual("a")), F(1, 2), 0)
    (step,) = ConstraintSet.from_constraints([c, c]).steps
    built = Step(1, (c,), "hypothesis", ())
    assert type(step) is Step
    assert step == built and hash(step) == hash(built)
    assert pickle.loads(pickle.dumps(step)) == built
    with pytest.raises(FrozenInstanceError):
        step.number = 2


def test_the_corpus_holds_each_case_the_build_treats_apart():
    seen = dict.fromkeys(("repeat", "equal copy", "strict", "constant", "edge first",
                          "edge last", "first clash not in the first clashed bucket"), 0)
    for chunk in range(CHUNKS):
        for h, _ in corpus(chunk):
            seq = sequential(h)
            if len(set(h)) < len(h):
                seen["repeat"] += 1
            if len({id(c) for c in h}) > len(set(h)):
                seen["equal copy"] += 1
            if seq.clash is not None and seq.clash.message.startswith("strict"):
                seen["strict"] += 1
            if seq.clash is not None and seq.clash.message.startswith(("top", "bottom")):
                seen["constant"] += 1
            for key, targets in seq.successors.items():
                for pos in seq.watchers.get(key, ()):
                    edge = min(seq.step_of[c] for c in seq.constraints
                               if isinstance(c.assertion, RoleAssertion)
                               and (c.assertion.subject, c.assertion.role) == key)
                    seen["edge first" if edge < pos + 1 else "edge last"] += 1
            clashed = [a for a, bucket in seq.by_assertion.items()
                       if sequential(bucket).clash is not None]
            if len(clashed) > 1 and not seq.clash.message.endswith(f"on {clashed[0]}"):
                seen["first clash not in the first clashed bucket"] += 1
    assert min(seen.values()) >= 3, seen


def _abox(rng: random.Random, size: int) -> list[Constraint]:
    """A clash-free ABox of ``size`` distinct facts and edges over
    individuals ``i<k>``: every assertion is stated once."""
    names = [Individual(f"i{k}") for k in range(size // 4)]
    seen: set = set()
    out = []
    while len(out) < size:
        if rng.random() < 1 / 3:
            a = RoleAssertion(rng.choice(ROLES), rng.choice(names), rng.choice(names))
        else:
            a = ConceptAssertion(Atomic(rng.choice(ATOMS)), rng.choice(names))
        if a in seen:
            continue
        seen.add(a)
        n, m = rng.choice(QUARTERS), rng.choice(QUARTERS)
        out.append(Constraint.geq_leq(a, n, m) if rng.random() < 0.5 else Constraint.leq_geq(a, n, m))
    return out


P = ConceptAssertion(Atomic("P"), Individual("p"))
Q = ConceptAssertion(Atomic("Q"), Individual("q"))
STRICT_LAST = Constraint(ConceptAssertion(Atomic("A"), Individual("i0")), Bound(Rel.GT, F(1)), None)


@pytest.mark.parametrize("pairs, strict_last, clash", [
    # P's pair opens first and closes last; Q's pair closes in between.
    (True, False, "clash : (1001), (2501) : conjugated pair on Q(q)"),
    (False, True, "clash : (5001) : strict bound > 1 is unsatisfiable"),
    (True, True, "clash : (1001), (2501) : conjugated pair on Q(q)"),
])
def test_the_first_clash_is_the_earliest_step(pairs, strict_last, clash):
    h = _abox(random.Random(stable_seed("bulk-build:first-clash")), 5000)
    if pairs:
        for pos, c in ((2, Constraint.geq_leq(P, F(3, 4), F(1, 4))),
                       (1000, Constraint.geq_leq(Q, 1, 0)),
                       (2500, Constraint.leq_geq(Q, F(1, 4), F(3, 4))),
                       (4000, Constraint.leq_geq(P, F(1, 2), F(1, 2)))):
            h[pos] = c
    if strict_last:
        h.append(STRICT_LAST)
    assert ConstraintSet.from_constraints(h).clash.render() == clash
    assert sequential(h).clash.render() == clash
