"""Concept expressions of neutrosophic ALC and structural utilities.

Concepts are immutable trees built from atomic concept names with
conjunction, disjunction, negation and universal/existential role
restrictions, rendered in the S-expression syntax the parser reads.
Structural (syntactic) equality is the only equality defined here;
semantic equivalence is decided elsewhere, never by term rewriting.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields


class FrozenValue:
    """Base of the frozen value types: concepts, objects, assertions,
    bounds and constraints.

    Each is a slotted frozen dataclass (see ``frozen_value``) whose hash
    is the one ``dataclass(frozen=True)`` defines, the hash of its field
    tuple.  Its constructor computes it once and keeps it in a slot: a
    tableau run hashes the same concepts, assertions and bounds millions
    of times, and a recursive hash would walk the whole concept each time.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # String hashes are salted per process: a copy or an unpickled
        # value is rebuilt through its constructor, which hashes afresh.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def frozen_value(cls):
    """Make a class a slotted frozen dataclass built in one call.

    Its ``__init__`` is generated in place of the dataclass one.  It sets
    each field's slot through the slot's descriptor, runs the class's
    ``_check`` when it has one, and, for a ``FrozenValue``, stores the
    hash of the field tuple.  The dataclass ``__init__`` would take one
    ``object.__setattr__`` call per field and a ``__post_init__`` chain on
    top, and the tableau builds values by the million.  Fields take no
    defaults.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    env = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    body = [f"_set_{name}(self, {name})" for name in names]
    if hasattr(cls, "_check"):
        env["_check"] = cls._check
        body.append("_check(self)")
    if issubclass(cls, FrozenValue):
        env["_set_hash"] = FrozenValue._hash.__set__
        body.append(f"_set_hash(self, hash(({''.join(f'{name}, ' for name in names)})))")
        cls.__hash__ = FrozenValue.__hash__
    exec(f"def __init__({', '.join(['self', *names])}):\n    " + "\n    ".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    # Before Python 3.12 the generated guards of a slotted class refer to
    # the class it replaced and raise TypeError for a non-field name.
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class ConceptExpr(FrozenValue):
    """Base class for concept expressions."""

    __slots__ = ()


@frozen_value
class Top(ConceptExpr):
    pass


@frozen_value
class Bottom(ConceptExpr):
    pass


@frozen_value
class Atomic(ConceptExpr):
    name: str

    def _check(self):
        if not self.name:
            raise ValueError("atomic concept name must be nonempty")


@frozen_value
class And(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@frozen_value
class Or(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@frozen_value
class Not(ConceptExpr):
    inner: ConceptExpr


@frozen_value
class Forall(ConceptExpr):
    role: str
    filler: ConceptExpr


@frozen_value
class Exists(ConceptExpr):
    role: str
    filler: ConceptExpr


TOP = Top()
BOT = Bottom()


@frozen_value
class Individual(FrozenValue):
    """A named individual."""

    name: str

    def __str__(self):
        return self.name


@frozen_value
class Variable(FrozenValue):
    """A variable introduced by a generating tableau rule.

    Variables live in a namespace disjoint from individuals; they are
    identified by their generation index and rendered ``x<index>``.
    """

    index: int

    def __str__(self):
        return f"x{self.index}"


# An object is either an individual or a variable.
Obj = Individual | Variable


# The keyword that heads each composite concept in the concrete syntax: the
# one table the renderer writes and the parser reads.
_WORD = {And: "and", Or: "or", Not: "not", Forall: "all", Exists: "some"}


def format_concept(c: ConceptExpr) -> str:
    """Render a concept so that ``parse_concept`` round-trips it."""
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, (Top, Bottom)):
        return "top" if isinstance(c, Top) else "bot"
    if isinstance(c, (And, Or)):
        return f"({_WORD[type(c)]} {format_concept(c.left)} {format_concept(c.right)})"
    if isinstance(c, Not):
        return f"({_WORD[Not]} {format_concept(c.inner)})"
    if isinstance(c, (Forall, Exists)):
        return f"({_WORD[type(c)]} {c.role} {format_concept(c.filler)})"
    raise TypeError(f"not a concept expression: {c!r}")


def nnf(c: ConceptExpr) -> ConceptExpr:
    """Rewrite a concept into negation normal form.

    Negations end up directly on atomic concepts; the rewrite uses the
    De Morgan and role dualities, which preserve both the truth and the
    falsity component of the semantics.
    """
    return _nnf(c, False)


_DUAL = {And: Or, Or: And, Forall: Exists, Exists: Forall}


def _nnf(c: ConceptExpr, negated: bool) -> ConceptExpr:
    """The negation normal form of ``c``, or of its negation when ``negated``."""
    if isinstance(c, Not):
        return _nnf(c.inner, not negated)
    if isinstance(c, (Top, Bottom)):
        return (BOT if isinstance(c, Top) else TOP) if negated else c
    if isinstance(c, Atomic):
        return Not(c) if negated else c
    if isinstance(c, (And, Or)):
        op = _DUAL[type(c)] if negated else type(c)
        return op(_nnf(c.left, negated), _nnf(c.right, negated))
    if isinstance(c, (Forall, Exists)):
        op = _DUAL[type(c)] if negated else type(c)
        return op(c.role, _nnf(c.filler, negated))
    raise TypeError(f"not a concept expression: {c!r}")


def subconcepts(c: ConceptExpr) -> frozenset[ConceptExpr]:
    """Return the closure of subexpressions of ``c``, including ``c``."""
    acc: set[ConceptExpr] = set()
    stack = [c]
    while stack:
        cur = stack.pop()
        if cur in acc:
            continue
        acc.add(cur)
        if isinstance(cur, (And, Or)):
            stack.append(cur.left)
            stack.append(cur.right)
        elif isinstance(cur, Not):
            stack.append(cur.inner)
        elif isinstance(cur, (Forall, Exists)):
            stack.append(cur.filler)
    return frozenset(acc)


def atomic_names(c: ConceptExpr) -> frozenset[str]:
    """Atomic concept names occurring in ``c``."""
    return frozenset(s.name for s in subconcepts(c) if isinstance(s, Atomic))


def quantifier_depth(c: ConceptExpr) -> int:
    """Maximal nesting depth of role restrictions in ``c``."""
    if isinstance(c, (Top, Bottom, Atomic)):
        return 0
    if isinstance(c, (And, Or)):
        return max(quantifier_depth(c.left), quantifier_depth(c.right))
    if isinstance(c, Not):
        return quantifier_depth(c.inner)
    if isinstance(c, (Forall, Exists)):
        return 1 + quantifier_depth(c.filler)
    raise TypeError(f"not a concept expression: {c!r}")
