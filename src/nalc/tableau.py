"""Constraint-propagation calculus deciding constraint-set satisfiability.

The engine saturates a set of signed constraints under decomposition,
propagation and witness-generating rules, branching where a constraint
admits several ways to be realised, until every branch either exposes a
clash or completes clash-free.  A clash-free completion yields an
explicit finite model (``extract_model``), and any assertion's value in
it can be read off the completion directly (``completion_value``).

Rule discipline.  Each channel of a concept reads as a negation-free
fuzzy term in which a conjunction, disjunction or quantifier takes a
minimum or a maximum (``semantics.takes_min``), so one rule serves every
connective, channel and bound direction:

* negation swaps the channels of its bounds;
* a half (bound, channel) goes to *every* part when its channel takes a
  minimum and it bounds from below, or a maximum and it bounds from
  above; otherwise it goes to *some* part;
* on ``and``/``or``, "every" decomposes deterministically and "some"
  branches on the part that realises the half;
* on a quantifier, "every" constrains each role successor: the role side
  or the filler side must meet the bound, and when existing bounds refute
  one side the other follows (the classic conditional propagation),
  otherwise the choice branches.  "Some" generates a witness; a paired
  bound branches between one shared witness and one witness per half.
  The role is read in the falsity channel when the quantifier takes a
  minimum and in the truth channel otherwise;
* the halves ``>= 0`` on truth and ``<= 1`` on falsity take no rule.

Saturation order: deterministic rules to a fixpoint, then branching
decompositions, then generating rules.  Deterministic rules fire one at
a time, always the rule of the earliest constraint in the branch that
can fire, so the derivation is the one a full in-order rescan after
every firing would give.  The rescan is not run: each branch keeps an
agenda of the constraints that may fire and watch lists that put a
successor-wide bound back on it when its successors or their bounds
grow (``ConstraintSet``).  The branching and generating passes work the
same way, each from its own heap of the constraints that may still
choose or generate: the first one that does is the one an in-order
rescan would return.  There a constraint needs no wake-up but a new
successor, because a branch only grows: a split is closed for good once
one of its branches is present, an edge choice once either side is
implied, and a witness demand once a successor meets it; only a new
successor opens new edge choices.  So a witness demand or an
``and``/``or`` split leaves its heap as soon as the search takes one of
its branches, since every branch closes it.  Nor is settled work redone
per visit: a constraint's halves are worked out once per (connective,
bound pair), and each successor-wide half resumes its scan past the
successors it found settled at the front, stops at its first forced
successor, and reads the other halves at that successor only.

Search.  ``complete`` searches depth-first on one constraint set: a
choice marks the set and takes its first branch, and a clash undoes the
set back to the mark of the innermost choice with a branch left
(``ConstraintSet.mark``/``undo``).  Every run starts that way, on a
fresh set or on a shared base such as a KB's saturated hypotheses, and
undoes everything it added when it ends, also when it raises; a run
holds its set's lock, so runs from one base run one at a time.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction

from .constraints import (
    Assertion,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreePair,
    RoleAssertion,
    _BOUND_PAIRS,
    bound_implies,
    bounds_incompatible,
    vacuous,
)
from .semantics import ONE, ZERO, FiniteInterpretation, _objects, takes_min
from .syntax import (
    And,
    Atomic,
    Bottom,
    Exists,
    Forall,
    Individual,
    Not,
    Or,
    Top,
    Variable,
    _WORD,
    frozen_value,
)

DEFAULT_MAX_BRANCHES = 10**6
DEFAULT_MAX_STEPS = 100_000


class ResourceExhausted(RuntimeError):
    """Branch or step ceiling hit before an answer was reached."""


class Status(enum.Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"


@frozen_value
class Step:
    number: int
    constraints: tuple[Constraint, ...]
    rule: str
    premises: tuple[int, ...]

    def render(self) -> str:
        body = ", ".join(str(c) for c in self.constraints)
        if self.rule == "hypothesis":
            return f"({self.number}) {body}   [hypothesis]"
        refs = ", ".join(f"({p})" for p in self.premises)
        return f"({self.number}) {body}   {self.rule} : {refs}"


@dataclass(frozen=True)
class ClashInfo:
    message: str
    steps: tuple[int, ...]

    def render(self) -> str:
        refs = ", ".join(f"({p})" for p in self.steps)
        return f"clash : {refs} : {self.message}"


class ConstraintSet:
    """One tableau branch: ordered constraints plus its derivation trace.

    Besides the constraints, a branch keeps what saturation reads
    repeatedly: the constraints of each assertion, the role successors
    of each (subject, role) in first-seen order, and three min-heaps of
    constraint positions.  The agenda holds the constraints that may
    fire a deterministic rule, ``splits`` those that may branch (every
    ``and``/``or``, and each quantifier with a half for every successor)
    and ``gens`` those that may demand a witness (every quantifier); a
    pass drops a position the first time it finds nothing to do there,
    which is cheaper than sorting out, on adding, the positions that
    never will, and a witness demand or an ``and``/``or`` split drops
    its position at once when the search takes one of its branches.
    ``settled`` maps a successor-wide half, as (constraint, channel), to
    the number of its leading successors where one side already meets
    the bound; a scan of that half starts past them.  ``watchers`` maps a
    (subject, role) pair, and a filler at one of its successors, to the
    existential and universal constraints whose per-successor decisions
    read it; adding a constraint there puts them back on the agenda, and
    a new successor of the pair also puts them back on ``splits``, the
    only event that gives a settled constraint new choices.  The buckets
    and the index entries are tuples, so a branch copy shares them.

    ``from_constraints`` builds a set of hypotheses in one pass.  It
    gives what ``add`` gives when it records each hypothesis in turn:
    the same constraints, steps, buckets, index, watch lists and first
    clash.  Its heaps hold the same positions, each once: ``add`` pushes
    a watcher again each time what it watches grows, which during the
    build only repeats a position already there.  It keeps its steps as
    positions: step n of the first ``hypotheses`` is the hypothesis
    ``constraints[n - 1]``, and ``recorded`` holds the steps ``add``
    makes after them.  ``steps`` builds the whole list on each read.

    While a search runs on the set, ``trail`` records the value each
    bucket, successor-index, watch-list or ``settled`` entry held before
    it was replaced, and ``mark`` saves the lengths of the constraints
    (and so of ``step_of``), of ``recorded`` and of the other four dicts,
    the fresh-variable counter, the clash and the three heaps; ``undo``
    restores all of that.  No mark reaches into the hypotheses.  ``lock``
    is held by every run on the set.
    """

    def __init__(self):
        self.constraints: list[Constraint] = []
        self.step_of: dict[Constraint, int] = {}
        self.hypotheses = 0
        self.recorded: list[Step] = []
        self.by_assertion: dict[Assertion, tuple[Constraint, ...]] = {}
        self.successors: dict[tuple, tuple] = {}
        self.watchers: dict[object, tuple[int, ...]] = {}
        self.settled: dict[tuple[Constraint, str], int] = {}
        self.agenda: list[int] = []
        self.splits: list[int] = []
        self.gens: list[int] = []
        self.fresh_counter = 0
        self.clash: ClashInfo | None = None
        self.trail: list | None = None
        self.lock = threading.Lock()

    @staticmethod
    def from_constraints(constraints) -> "ConstraintSet":
        """The set that adding each constraint in turn as one hypothesis
        (``add((c,), "hypothesis", ())``) gives, built in one pass.

        A repeated constraint takes no step.  Where a clash can occur it
        is checked as ``add`` checks it, against the constraints before
        it in its bucket, so the first clash is the one of the earliest
        step: at a constraint that is not the first of its bucket, at a
        strict bound at 0 or 1, and at a ``top`` or ``bottom`` fact.
        Only role assertions and non-atomic concepts are indexed: an
        atomic fact's index would only wake watchers that are on the
        heaps already, and nothing pops a heap during the build.
        """
        s = ConstraintSet()
        placed, step_of, by_assertion = s.constraints, s.step_of, s.by_assertion
        successors, watchers = s.successors, s.watchers
        clash = None
        for c in constraints:
            number = len(placed) + 1
            if step_of.setdefault(c, number) != number:
                continue
            placed.append(c)
            one = (c,)
            a = c.assertion
            bucket = by_assertion.setdefault(a, one)
            check = bucket is not one
            if check:
                bucket = by_assertion[a] = bucket + one
            if type(a) is RoleAssertion:
                if not check:
                    # ``_index`` of the edge's first constraint, minus the
                    # heap pushes: its watchers are on the heaps already.
                    key, target = (a.subject, a.role), a.target
                    successors[key] = successors.get(key, ()) + (target,)
                    for p in watchers.get(key, ()):
                        filler = ConceptAssertion(placed[p].assertion.concept.filler, target)
                        watchers[filler] = watchers.get(filler, ()) + (p,)
            elif type(a.concept) is not Atomic:
                s._index(c, number - 1)
                check = check or type(a.concept) in (Top, Bottom)
            if clash is None:
                t, f = c.tbound, c.fbound
                if (check or (t is not None and t.rel.is_strict)
                        or (f is not None and f.rel.is_strict)):
                    clash = s._check_clash(c, number, bucket)
        s.hypotheses = len(placed)
        s.agenda, s.splits, s.gens = (sorted(set(heap)) for heap in (s.agenda, s.splits, s.gens))
        s.clash = clash
        return s

    @property
    def steps(self) -> list[Step]:
        """The bulk build's hypothesis steps, then the ``recorded`` ones:
        a new list on each read."""
        hypotheses = [Step(n, (c,), "hypothesis", ())
                      for n, c in enumerate(self.constraints[:self.hypotheses], 1)]
        return hypotheses + self.recorded

    def copy(self) -> "ConstraintSet":
        s = ConstraintSet.__new__(ConstraintSet)
        s.constraints = list(self.constraints)
        s.step_of = dict(self.step_of)
        s.hypotheses = self.hypotheses
        s.recorded = list(self.recorded)
        s.by_assertion = dict(self.by_assertion)
        s.successors = dict(self.successors)
        s.watchers = dict(self.watchers)
        s.settled = dict(self.settled)
        s.agenda = list(self.agenda)
        s.splits = list(self.splits)
        s.gens = list(self.gens)
        s.fresh_counter = self.fresh_counter
        s.clash = self.clash
        s.trail = None
        s.lock = threading.Lock()
        return s

    def __getstate__(self) -> dict:
        # A lock cannot be pickled: an unpickled set gets a lock of its own.
        state = dict(self.__dict__)
        del state["lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()

    def mark(self) -> tuple:
        """A point to ``undo`` back to; the trail must be on."""
        return (len(self.trail), len(self.constraints), len(self.recorded),
                len(self.by_assertion), len(self.successors), len(self.watchers),
                len(self.settled), self.fresh_counter, self.clash,
                self.agenda[:], self.splits[:], self.gens[:])

    def undo(self, mark: tuple) -> None:
        """Restore the set as it was at ``mark``, which stays usable.

        The trail restores the entries that existed at the mark.  Keys
        added since are the last ones of their dicts, so ``popitem``
        removes them and leaves no hole: a dict with holes takes the slow
        path when it is copied.
        """
        (n, n_constraints, n_recorded, n_buckets, n_successors, n_watchers, n_settled,
         self.fresh_counter, self.clash, agenda, splits, gens) = mark
        trail = self.trail
        while len(trail) > n:
            table, key, old = trail.pop()
            table[key] = old
        for table, size in ((self.step_of, n_constraints), (self.by_assertion, n_buckets),
                            (self.successors, n_successors), (self.watchers, n_watchers),
                            (self.settled, n_settled)):
            while len(table) > size:
                table.popitem()
        del self.constraints[n_constraints:]
        del self.recorded[n_recorded:]
        self.agenda[:] = agenda
        self.splits[:] = splits
        self.gens[:] = gens

    def __contains__(self, c: Constraint) -> bool:
        return c in self.step_of

    def objects(self):
        """The individuals and variables the set names, in order of first mention."""
        return list(dict.fromkeys(o for a in self.by_assertion for o in _objects(a)))

    def first_bound(self, assertion: Assertion, ch: str, relation, bound: Bound):
        """The first constraint of the assertion's bucket whose bound on
        channel ``ch`` stands in ``relation`` to ``bound``, or None."""
        truth = ch == "t"
        for c in self.by_assertion.get(assertion, ()):
            own = c.tbound if truth else c.fbound
            if own is not None and relation(own, bound):
                return c
        return None

    def _clashes_with(self, c: Constraint) -> bool:
        """Would adding ``c`` as one more hypothesis clash at once?  The
        set itself is left as it is."""
        if self.clash is not None:
            return True
        return c not in self.step_of and self._check_clash(
            c, self.hypotheses + len(self.recorded) + 1, self.by_assertion.get(c.assertion, ())
        ) is not None

    def _check_clash(self, c: Constraint, step: int, bucket) -> ClashInfo | None:
        """The clash ``c`` exposes on its own or with a constraint of
        ``bucket``, its assertion's: its truth bound is checked before its
        falsity bound."""
        a = c.assertion
        constant = isinstance(a, ConceptAssertion) and isinstance(a.concept, (Top, Bottom))
        for truth in (True, False):
            bound = c.tbound if truth else c.fbound
            if bound is None:
                continue
            rel = bound.rel
            # Strict bounds with no room in [0, 1].
            if rel.is_strict and bound.value == (1 if rel.is_lower else 0):
                return ClashInfo(f"strict bound {bound} is unsatisfiable", (step,))
            if constant:
                ch = "t" if truth else "f"
                fixed = int(isinstance(a.concept, Top) == truth)
                if not bound.holds(fixed):
                    name = "top" if isinstance(a.concept, Top) else "bottom"
                    return ClashInfo(
                        f"{name} concept has {ch}-value {fixed}, violating {bound}", (step,)
                    )
            for other in bucket:
                if other is c:
                    continue
                other_bound = other.tbound if truth else other.fbound
                if other_bound is not None and bounds_incompatible(other_bound, bound):
                    return ClashInfo(
                        f"conjugated pair on {a}", tuple(sorted({self.step_of[other], step}))
                    )
        return None

    def add(self, constraints, rule: str, premises) -> bool:
        """Record one rule firing; returns False when nothing is new."""
        step_of = self.step_of
        new = tuple([c for c in constraints if c not in step_of])
        if not new:
            return False
        number = self.hypotheses + len(self.recorded) + 1
        by_assertion = self.by_assertion
        trail = self.trail
        for c in new:
            if c in step_of:
                continue  # listed twice in this step, as ``(and A A)`` lists its part
            pos = len(self.constraints)
            self.constraints.append(c)
            step_of[c] = number
            a = c.assertion
            bucket = by_assertion.get(a)
            if bucket is None:
                by_assertion[a] = (c,)
            else:
                # ``_set`` inlined: this runs for every constraint a search
                # adds, and the call costs a desk-scale refutation 1-2%
                if trail is not None:
                    trail.append((by_assertion, a, bucket))
                by_assertion[a] = bucket + (c,)
            self._index(c, pos)
        premises = tuple(premises) if len(premises) < 2 else tuple(sorted(set(premises)))
        self.recorded.append(Step(number, new, rule, premises))
        if self.clash is None:
            for c in new:
                info = self._check_clash(c, number, by_assertion[c.assertion])
                if info is not None:
                    self.clash = info
                    break
        return True

    def _index(self, c: Constraint, pos: int) -> None:
        """Update the successor index and the heaps for a new constraint,
        which its bucket already holds.

        Only an existential or universal constraint's successor-wide
        decisions read state that grows (new successors, new bounds on
        their edges and fillers); a negation, conjunction or disjunction
        goes on the agenda once and fires, if at all, on its own
        constraint alone, and once it stops firing it never fires again.
        """
        a = c.assertion
        if isinstance(a, RoleAssertion):
            key = (a.subject, a.role)
            targets = self.successors.get(key, ())
            watching = self.watchers.get(key, ())
            # The edge's first constraint names a new successor.  Asking
            # ``targets`` would compare every earlier successor through
            # the Python-level ``__eq__``: quadratic in a wide fan-out.
            if self.by_assertion[a][0] is c:
                self._set(self.successors, key, targets + (a.target,))
                for p in watching:
                    filler = self.constraints[p].assertion.concept.filler
                    self._watch(ConceptAssertion(filler, a.target), p)
                    heapq.heappush(self.splits, p)
        else:
            watching = self.watchers.get(a, ())
            concept = a.concept
            if isinstance(concept, (Not, And, Or)):
                heapq.heappush(self.agenda, pos)
                if not isinstance(concept, Not):
                    heapq.heappush(self.splits, pos)
            elif isinstance(concept, (Exists, Forall)):
                if _halves(c, every=True):
                    key = (a.subject, concept.role)
                    self._watch(key, pos)
                    for target in self.successors.get(key, ()):
                        self._watch(ConceptAssertion(concept.filler, target), pos)
                    heapq.heappush(self.agenda, pos)
                    heapq.heappush(self.splits, pos)
                heapq.heappush(self.gens, pos)
        for p in watching:
            heapq.heappush(self.agenda, p)

    def _watch(self, key, pos: int) -> None:
        self._set(self.watchers, key, self.watchers.get(key, ()) + (pos,))

    def _set(self, table: dict, key, value) -> None:
        """Set one index entry, recording the value it replaces while the
        trail is on."""
        old = table.get(key)
        if old is not None and self.trail is not None:
            self.trail.append((table, key, old))
        table[key] = value

    def trace_lines(self) -> list[str]:
        lines = [step.render() for step in self.steps]
        if self.clash is not None:
            lines.append(self.clash.render())
        return lines


@dataclass(frozen=True)
class CompletionResult:
    status: Status
    witness: ConstraintSet | None
    clashes: tuple[tuple[ConstraintSet, ClashInfo], ...]
    branch_count: int

    @property
    def trace(self) -> list[str]:
        if self.witness is not None:
            return self.witness.trace_lines()
        return self.clashes[0][0].trace_lines()


def find_clash(constraints) -> ClashInfo | None:
    """Clash check of a constraint collection, independent of any search."""
    s = ConstraintSet.from_constraints(constraints)
    return s.clash


def _label(c: Constraint, halves=None) -> str:
    word = _WORD[type(c.assertion.concept)]
    form = c.form
    if form is not None and (halves is None or len(halves) == 2):
        return f"({word}{''.join(rel.value for rel in form.value)})"
    bound, ch = halves[0][:2] if halves else (c.tbound or c.fbound, "t" if c.tbound else "f")
    return f"({word} {ch}{bound.rel.value})"


def _make(assertion: Assertion, halves) -> Constraint:
    """The constraint putting each (bound, channel) half on its channel."""
    parts = {half[1]: half[0] for half in halves}
    return Constraint(assertion, parts.get("t"), parts.get("f"))


def _halves(c: Constraint, every: bool) -> tuple[tuple[Bound, str, str], ...]:
    """The (bound, channel, role channel) halves of a binary or quantified
    concept constraint that go to every part (``every``) or to some part."""
    return _split_halves(type(c.assertion.concept), c.tbound, c.fbound)[not every]


@functools.lru_cache(maxsize=_BOUND_PAIRS)
def _split_halves(kind: type, tbound: Bound | None, fbound: Bound | None) -> tuple:
    """The halves of a ``kind`` constraint with these bounds that go to
    every part, and those that go to some part.

    A half goes to every part exactly when its channel takes a minimum
    and it bounds from below, or takes a maximum and bounds from above
    (``takes_min``).  A quantifier reads its role in falsity when that
    channel takes a minimum, else in truth.  Vacuous halves take no rule.
    The answer depends on the connective and the bounds only, and a KB
    holds few distinct bound pairs, so it is worked out once per key.
    """
    split = ([], [])
    for bound, ch in ((tbound, "t"), (fbound, "f")):
        if bound is not None and not vacuous(bound):
            least = takes_min(kind, ch)
            split[least != bound.rel.is_lower].append((bound, ch, "f" if least else "t"))
    return tuple(split[0]), tuple(split[1])


def _open_sides(s: ConstraintSet, c: Constraint, half, target):
    """The edge and the filler of a successor-wide half of ``c`` at one
    successor, or None when either side already meets the half's bound,
    each in its own channel."""
    bound, ch, role_ch = half
    concept, subject = c.assertion.concept, c.assertion.subject
    edge = RoleAssertion(concept.role, subject, target)
    filler = ConceptAssertion(concept.filler, target)
    if (s.first_bound(filler, ch, bound_implies, bound)
            or s.first_bound(edge, role_ch, bound_implies, bound)):
        return None
    return edge, filler


class _Engine:
    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps_done = 0

    def _record(self, s: ConstraintSet, additions, label: str, premises) -> bool:
        """Record one rule firing in ``s`` and count it; False, counting nothing, if idle."""
        if not s.add(additions, label, premises):
            return False
        self.steps_done += 1
        if self.steps_done > self.max_steps:
            raise ResourceExhausted(f"step ceiling {self.max_steps} exceeded")
        return True

    # -- deterministic pass -------------------------------------------

    def saturate(self, s: ConstraintSet) -> None:
        """Fire deterministic rules until none fires or the set clashes."""
        while s.clash is None and self.apply_deterministic(s):
            pass

    def apply_deterministic(self, s: ConstraintSet) -> bool:
        """Fire the first deterministic rule in constraint order, if any.

        The agenda holds every position whose rule may fire, so popping
        the lowest one that does fire finds the rule a full in-order
        rescan would find.
        """
        agenda = s.agenda
        while agenda:
            if self.fire(s, s.constraints[_drop(agenda)]):
                return True
        return False

    def fire(self, s: ConstraintSet, c: Constraint) -> bool:
        """Apply the deterministic rule of one constraint; False when idle."""
        if not isinstance(c.assertion, ConceptAssertion):
            return False
        concept = c.assertion.concept
        subject = c.assertion.subject
        if isinstance(concept, Not):
            conclusion = Constraint(ConceptAssertion(concept.inner, subject), c.fbound, c.tbound)
            return self._record(s, [conclusion], _label(c), [s.step_of[c]])
        if isinstance(concept, (And, Or)):
            halves = _halves(c, every=True)
            if not halves:
                return False
            additions = [
                _make(ConceptAssertion(part, subject), halves)
                for part in (concept.left, concept.right)
            ]
            return self._record(s, additions, _label(c, halves), [s.step_of[c]])
        if isinstance(concept, (Exists, Forall)):
            return self._universal_det(s, c)
        return False

    def _universal_actions(self, s: ConstraintSet, c: Constraint):
        """Open per-successor decisions of successor-wide bounds.

        Per successor a successor-wide half holds when the role side or
        the filler side meets the very same bound, each in its own
        channel (``_open_sides``).  Yields (half, target, edge, filler),
        halves major, for each successor where neither side is implied
        yet.  A side once implied stays implied in its branch, so each
        half starts past the successors it last found settled at the
        front, and moves that mark (``s.settled``) before it yields its
        first open decision or, with none, at its end.
        """
        targets = s.successors.get((c.assertion.subject, c.assertion.concept.role), ())
        for half in _halves(c, every=True):
            key = (c, half[1])
            start = s.settled.get(key, 0)
            front = True
            for j in range(start, len(targets)):
                sides = _open_sides(s, c, half, targets[j])
                if sides is None:
                    continue
                if front:
                    front = False
                    if j > start:
                        s._set(s.settled, key, j)
                yield (half, targets[j]) + sides
            if front and len(targets) > start:
                s._set(s.settled, key, len(targets))

    def _universal_det(self, s: ConstraintSet, c: Constraint) -> bool:
        """Fire the forced sides of the first successor that has any,
        halves major: a refuted role side forces the filler side, else a
        refuted filler side forces the role side (when both are refuted,
        the filler side lets the clash surface).  The scan stops at the
        first forced successor, and the later halves are read there
        only: an earlier half forces nothing there, or its scan would
        have stopped first.  ``c`` and each refuter are the premises;
        the filler halves make one constraint."""
        premises = [s.step_of[c]]
        additions, halves = [], []

        def force(half, edge, filler) -> bool:
            bound, ch, role_ch = half
            refuter = s.first_bound(edge, role_ch, bounds_incompatible, bound)
            if refuter is not None:
                halves.append((bound, ch))
            else:
                refuter = s.first_bound(filler, ch, bounds_incompatible, bound)
                if refuter is None:
                    return False
                additions.append(_make(edge, [(bound, role_ch)]))
            premises.append(s.step_of[refuter])
            return True

        for half, first, edge, filler in self._universal_actions(s, c):
            if force(half, edge, filler):
                break
        else:
            return False
        every = _halves(c, every=True)
        for later in every[every.index(half) + 1:]:
            sides = _open_sides(s, c, later, first)
            if sides is not None:
                force(later, *sides)
        if halves:
            additions.append(_make(filler, halves))
        return self._record(s, additions, _label(c, halves or None), premises)

    # -- branching and generating passes --------------------------------

    @staticmethod
    def _first(s: ConstraintSet, heap: list[int], check):
        """The first hit of ``check`` over the positions on ``heap``.

        The heap holds every position whose check may hit, so the lowest
        one that hits is the first hit of an in-order rescan.  A position
        that misses leaves the heap, with its duplicates: it can only hit
        again after ``ConstraintSet._index`` pushes it back.  A position
        that hits stays on the heap; ``_branches`` drops it when every
        branch it offers closes it, as with a witness demand or an
        ``and``/``or`` split.
        """
        while heap:
            found = check(s, s.constraints[heap[0]])
            if found is not None:
                return found
            _drop(heap)
        return None

    def find_branches(self, s: ConstraintSet):
        """The first constraint with an open choice, lowest on ``s.splits``."""
        return self._first(s, s.splits, self.choice)

    def choice(self, s: ConstraintSet, c: Constraint):
        """The open choice of one constraint, as (constraint, label,
        premises, branches), or None.  A choice is closed once the branch
        holds one of its outcomes.  At a deterministic fixpoint no
        per-successor decision is forced, so a quantifier takes its first."""
        if not isinstance(c.assertion, ConceptAssertion):
            return None
        concept = c.assertion.concept
        subject = c.assertion.subject
        if isinstance(concept, (And, Or)):
            halves = _halves(c, every=False)
            if not halves:
                return None
            # Each half picks the part that realises it.
            parts = (ConceptAssertion(concept.left, subject),
                     ConceptAssertion(concept.right, subject))
            branches = []
            for picks in itertools.product(parts, repeat=len(halves)):
                by_part: dict = {}
                for part, half in zip(picks, halves):
                    by_part.setdefault(part, []).append(half)
                branches.append([_make(part, hs) for part, hs in by_part.items()])
            if any(all(a in s for a in branch) for branch in branches):
                return None
            return c, _label(c, halves), [s.step_of[c]], branches
        if isinstance(concept, (Exists, Forall)):
            for (bound, ch, role_ch), target, edge, filler in self._universal_actions(s, c):
                branches = [[_make(edge, [(bound, role_ch)])], [_make(filler, [(bound, ch)])]]
                label = f"({_WORD[type(concept)]} {ch}{bound.rel.value} ?)"
                return c, label, [s.step_of[c]], branches
        return None

    def find_generation(self, s: ConstraintSet):
        """The first constraint with a witness demand, lowest on ``s.gens``."""
        return self._first(s, s.gens, self.demand)

    def demand(self, s: ConstraintSet, c: Constraint):
        """A witness-demanding constraint with halves no successor
        witnesses yet, as (constraint, label, premises, pending halves),
        or None."""
        if not isinstance(c.assertion, ConceptAssertion):
            return None
        concept = c.assertion.concept
        if not isinstance(concept, (Exists, Forall)):
            return None
        subject = c.assertion.subject
        role, filler = concept.role, concept.filler
        pending = [
            (bound, ch, role_ch) for bound, ch, role_ch in _halves(c, every=False)
            if not any(
                s.first_bound(RoleAssertion(role, subject, t), role_ch, bound_implies, bound)
                and s.first_bound(ConceptAssertion(filler, t), ch, bound_implies, bound)
                for t in s.successors.get((subject, role), ())
            )
        ]
        if pending:
            return c, _label(c, pending), [s.step_of[c]], pending
        return None


def _drop(heap: list[int]) -> int:
    """Pop the lowest position off a heap, with its duplicates."""
    pos = heapq.heappop(heap)
    while heap and heap[0] == pos:
        heapq.heappop(heap)
    return pos


def _witness(c: Constraint, var: Variable, halves) -> list[Constraint]:
    """The edge and filler constraints that make ``var`` witness the halves."""
    concept = c.assertion.concept
    return [
        _make(RoleAssertion(concept.role, c.assertion.subject, var),
              [(bound, role_ch) for bound, _, role_ch in halves]),
        _make(ConceptAssertion(concept.filler, var), halves),
    ]


def _split_witness(c: Constraint, fresh: int, pending) -> list[Constraint]:
    """The constraints of a paired witness demand split between two fresh
    variables, numbered after ``fresh``: one witness per half."""
    return (_witness(c, Variable(fresh + 1), pending[:1])
            + _witness(c, Variable(fresh + 2), pending[1:]))


def _branches(s: ConstraintSet, engine: _Engine):
    """The branches of a set at its deterministic fixpoint, or None when
    it is complete.

    A branch is (additions, label, premises, fresh): the constraints it
    adds, with the number of fresh variables they take after the set's
    last one.  Decomposition choices come before witness generation.
    Paired witness halves branch between one shared witness and a
    witness per half.  The search seldom takes the second, so its
    additions are left as a call that builds them (``_take``).
    """
    found = engine.find_branches(s)
    if found is not None:
        c, label, premises, branches = found
        if type(c.assertion.concept) in (And, Or):
            _drop(s.splits)  # each branch holds one of the split's outcomes
        return [(additions, label, premises, 0) for additions in branches]
    found = engine.find_generation(s)
    if found is not None:
        _drop(s.gens)  # each branch witnesses every pending half
        c, label, premises, pending = found
        out = [(_witness(c, Variable(s.fresh_counter + 1), pending), label, premises, 1)]
        if len(pending) == 2:
            split = functools.partial(_split_witness, c, s.fresh_counter, pending)
            out.append((split, label + " split", premises, 2))
        return out
    return None


def _take(s: ConstraintSet, branch) -> None:
    """Add one branch of ``_branches`` to ``s``, building its additions
    first when they are left as a call."""
    additions, label, premises, fresh = branch
    if callable(additions):
        additions = additions()
    s.fresh_counter += fresh
    s.add(additions, label, premises)


def apply_rules(s: ConstraintSet):
    """Apply one rule; returns the branch list or None at a fixpoint.

    The input set is not modified: the rules run on a copy of it.
    Deterministic rules return a single branch; decomposition choices and
    witness generation return several, each a set of its own.
    """
    engine = _Engine(DEFAULT_MAX_STEPS)
    work = s.copy()
    if engine.apply_deterministic(work):
        return [work]
    branches = _branches(work, engine)
    if branches is None:
        return None
    children = [work.copy() for _ in branches[1:]] + [work]
    for child, branch in zip(children, branches):
        _take(child, branch)
    return children


def complete(
    constraints,
    max_branches: int = DEFAULT_MAX_BRANCHES,
    max_steps: int = DEFAULT_MAX_STEPS,
    base: ConstraintSet | None = None,
) -> CompletionResult:
    """Search the completions of a constraint set.

    Depth-first, left branch first; each branch is saturated under the
    deterministic rules before any choice is made.  Returns the first
    clash-free completion, or, when there is none, the first clashed
    branch with its clash (the one ``CompletionResult.trace`` renders);
    ``branch_count`` counts every branch explored.  The search works on
    one constraint set: a choice marks it and takes its first branch, and
    a clash undoes the set back to the mark of the innermost choice with
    a branch left and takes that branch.  The witness and the first
    clashed branch are the only sets it copies.

    ``base`` is a constraint set built once and shared by many runs, such
    as a KB's hypotheses: the search starts from it with each of
    ``constraints`` added as one more hypothesis.  The search works on
    ``base`` itself and undoes what it added when it ends, so ``base`` is
    left as it was, also when the run raises; runs from one base hold its
    lock, so they run one at a time.  For
    ``base = ConstraintSet.from_constraints(h)`` that start is
    ``from_constraints(h + constraints)``, so every step, branch and model
    is the one the longer list gives.  A base may also come already
    saturated under the deterministic rules; the steps that took are not
    counted against ``max_steps``.  Without ``base`` the search starts
    from ``from_constraints(constraints)`` with nothing more to add.
    Past ``max_branches`` branches or ``max_steps`` deterministic rule
    firings it raises ``ResourceExhausted``.  A firing counts when it
    records a step: a rule whose conclusions are all in the set already
    fires idle and counts nothing.
    """
    if base is None:
        base, constraints = ConstraintSet.from_constraints(constraints), ()
    with base.lock:
        return _search(base, constraints, max_branches, max_steps)


def _search(s: ConstraintSet, constraints, max_branches: int, max_steps: int,
            keep: bool = True, read=None) -> CompletionResult:
    """``complete`` on ``s``, whose lock the caller holds.

    Every run starts the same way, with the trail on and a mark of ``s``
    as it came, and ends by undoing to that mark, also when it raises.
    Without ``keep`` the caller reads only the status, so the result
    names no witness and no clashed branch and nothing is copied.
    ``read``, when given, is called with the clash-free completion
    before it is undone, so it can look at the completion in place.
    """
    engine = _Engine(max_steps)
    s.trail = []
    start = s.mark()
    try:
        for c in constraints:
            s.add([c], "hypothesis", [])
        # One entry per open choice: its mark and the branches not taken yet.
        choices: list[tuple[tuple, list]] = []
        clashes: tuple[tuple[ConstraintSet, ClashInfo], ...] = ()
        branch_count = 1
        while True:
            if branch_count > max_branches:
                raise ResourceExhausted(f"branch ceiling {max_branches} exceeded")
            engine.saturate(s)
            if s.clash is None:
                branches = _branches(s, engine)
                if branches is None:
                    if read is not None:
                        read(s)
                    witness = s.copy() if keep else None
                    return CompletionResult(Status.SATISFIABLE, witness, clashes, branch_count)
                choices.append((s.mark(), branches))
            else:
                while choices and not choices[-1][1]:
                    choices.pop()
                if keep and not clashes:
                    clashes = ((s.copy(), s.clash),)
                if not choices:
                    return CompletionResult(Status.UNSATISFIABLE, None, clashes, branch_count)
                s.undo(choices[-1][0])
            branch_count += 1
            _take(s, choices[-1][1].pop(0))
    finally:
        s.undo(start)
        s.trail = None


def _unsatisfiable(c: Constraint, base: ConstraintSet,
                   max_branches: int = DEFAULT_MAX_BRANCHES, read=None) -> bool:
    """Does ``complete([c], max_branches, base=base)`` find no clash-free
    completion?

    The same answer, with the same ceilings, but when ``c`` clashes with
    ``base`` as it is added no run is made: that run would explore one
    branch, which clashes before any rule fires.  Only the status is
    read, so the run copies nothing: no witness and no clashed branch.
    ``read`` sees the clash-free completion, if there is one, in place
    (``_search``).
    """
    base.lock.acquire()  # a third of what ``with`` costs, which shows on tiny runs
    try:
        if max_branches >= 1 and base._clashes_with(c):
            return True
        result = _search(base, [c], max_branches, DEFAULT_MAX_STEPS, keep=False, read=read)
    finally:
        base.lock.release()
    return result.status is Status.UNSATISFIABLE


# --- model extraction ---------------------------------------------------


def _pick(bounds, low: bool) -> Fraction:
    """The value nearest one end of [0, 1] that the bounds allow
    (``None`` entries, the channel a half constraint leaves open, are
    skipped).

    It sits on the strongest bound facing that end (the lower bounds
    for ``low``, else the upper ones); a strict one moves it to the
    midpoint between that bound and the strongest opposite bound (or
    the far end).  The high pick is one minus the low pick of the
    mirrored bounds.  Every pick is 0, 1, a bound's value or the
    midpoint of two values in [0, 1], so it lies in [0, 1] itself.
    """
    lower = upper = None
    for b in bounds:
        if b is None:
            continue
        if b.rel.is_lower:
            if lower is None or not bound_implies(lower, b):
                lower = b
        elif upper is None or not bound_implies(upper, b):
            upper = b
    near, far = (lower, upper) if low else (upper, lower)
    if near is None:
        return ZERO if low else ONE
    if not near.rel.is_strict:
        return near.value
    return (near.value + (far.value if far is not None else (1 if low else 0))) / 2


def _bounds(bucket) -> tuple:
    """The truth and the falsity bound of each constraint, in turn."""
    if len(bucket) == 1:
        return (bucket[0].tbound, bucket[0].fbound)
    return tuple([b for c in bucket for b in (c.tbound, c.fbound)])


@functools.lru_cache(maxsize=_BOUND_PAIRS)
def _bucket_pair(bounds: tuple) -> DegreePair:
    """The model's entry for a bucket with these ``_bounds``.  A KB holds
    few distinct bound tuples, so each pair is built once and shared."""
    return DegreePair(_pick(bounds[0::2], low=True), _pick(bounds[1::2], low=False))


def extract_model(s: ConstraintSet) -> FiniteInterpretation:
    """Read a finite interpretation off a clash-free completion.

    Truth entries take the least value the lower bounds allow (strict
    bounds move to the midpoint of the remaining interval); falsity
    entries take the greatest value the upper bounds allow.  Entries
    nobody constrains stay at the (0, 1) default, so unconstrained
    successors can never break a successor-wide bound.  Each entry is
    ``_bucket_pair`` of its bucket.
    """
    if s.clash is not None:
        raise ValueError("cannot extract a model from a clashed constraint set")
    # '?' cannot occur in identifiers, so variable elements never
    # collide with individual names.
    names: set = set()
    variables: dict = {}
    concepts: dict = {}
    roles: dict = {}
    for a, bucket in s.by_assertion.items():
        subject = a.subject
        if type(subject) is Individual:
            e = subject.name
            names.add(e)
        else:
            e = variables[subject] = f"?{subject}"
        if type(a) is ConceptAssertion:
            if type(a.concept) is not Atomic:
                continue
            table, key = concepts, (a.concept.name, e)
        else:
            target = a.target
            if type(target) is Individual:
                t = target.name
                names.add(t)
            else:
                t = variables[target] = f"?{target}"
            table, key = roles, (a.role, e, t)
        table[key] = _bucket_pair(_bounds(bucket))
    individuals = sorted(names)
    domain = tuple(individuals) + tuple(variables[v] for v in sorted(variables, key=lambda v: v.index))
    return FiniteInterpretation(domain or ("d0",), {name: name for name in individuals},
                                concepts, roles)


def completion_value(s: ConstraintSet, assertion: Assertion, ch: str) -> Fraction:
    """Channel ``ch`` of the value ``assertion_value(extract_model(s),
    assertion)`` gives, read off the clash-free completion ``s`` without
    building the model.

    An atomic fact or a role edge reads the entry ``extract_model``
    makes of its bucket (``_bucket_pair``); a connective reads its
    parts.  A quantifier ranges over the recorded successors only: every
    other edge keeps the default (0, 1), which is neutral for both
    quantifiers in both channels.
    """
    if type(assertion) is RoleAssertion:
        return _bucket_value(s, assertion, ch)
    return _concept_value(s, assertion.concept, assertion.subject, ch)


def _bucket_value(s: ConstraintSet, assertion: Assertion, ch: str) -> Fraction:
    pair = _bucket_pair(_bounds(s.by_assertion.get(assertion, ())))
    return pair.n if ch == "t" else pair.m


def _concept_value(s: ConstraintSet, concept, subject, ch: str) -> Fraction:
    """Channel ``ch`` of ``concept`` at ``subject`` in the model of ``s``.

    As in the tableau's rules, a binary or quantified concept takes a
    minimum or a maximum (``takes_min``); a quantifier's part at a
    successor is the other extreme of its role, read in falsity under a
    minimum and in truth under a maximum, and its filler.
    """
    kind = type(concept)
    if kind is Atomic:
        return _bucket_value(s, ConceptAssertion(concept, subject), ch)
    if kind is Not:
        return _concept_value(s, concept.inner, subject, "f" if ch == "t" else "t")
    if kind is Top or kind is Bottom:
        return ONE if (kind is Top) == (ch == "t") else ZERO
    least = takes_min(kind, ch)
    best = min if least else max
    if kind is And or kind is Or:
        return best(_concept_value(s, concept.left, subject, ch),
                    _concept_value(s, concept.right, subject, ch))
    part, role_ch = (max, "f") if least else (min, "t")
    value = ONE if least else ZERO
    for target in s.successors.get((subject, concept.role), ()):
        edge = RoleAssertion(concept.role, subject, target)
        value = best(value, part(_bucket_value(s, edge, role_ch),
                                 _concept_value(s, concept.filler, target, ch)))
    return value


def variable_assignment(s: ConstraintSet) -> dict:
    """Assignment mapping each tableau variable to its model element."""
    return {
        o: f"?{o}" for o in s.objects() if isinstance(o, Variable)
    }
