"""nalc: reasoning in ALC with paired truth/falsity degree bounds.

The package decides satisfiability, entailment, subsumption and best
truth-value bounds for knowledge bases whose assertions carry exact
rational lower/upper bounds on both a truth and a falsity component.
A constraint-propagation tableau does the deciding; a brute-force
finite-model search over degree grids serves as its ground truth.
"""

from .constraints import (
    Assertion,
    Bound,
    ConceptAssertion,
    Constraint,
    DegreePair,
    Form,
    Rel,
    RoleAssertion,
    conjugated,
    degree_str,
)
from .kb import (
    AxiomKind,
    FuzzyAssertion,
    FuzzyKb,
    FuzzyRel,
    KnowledgeBase,
    TerminologicalAxiom,
    embed_fuzzy,
    expand,
    sharp,
    star,
    validate,
)
from .parser import (
    ConceptSyntaxError,
    KbSyntaxError,
    ParseError,
    SourceSpan,
    format_statement,
    parse_assertion,
    parse_concept,
    parse_kb,
    parse_query,
    try_parse_kb,
)
from .reasoner import (
    BoundKind,
    BtvbResult,
    check_satisfiable,
    entails,
    glb,
    lub,
    lub_via_negation,
    subsumes,
)
from .semantics import (
    DegreeGrid,
    FiniteInterpretation,
    FuzzyInterpretation,
    SearchExhausted,
    eval_concept,
    exists_model,
    fuzzy_entails,
    fuzzy_eval,
    fuzzy_exists_model,
    oracle_entails,
    satisfies,
    satisfies_all,
    satisfies_axiom,
)
from .syntax import (
    And,
    Atomic,
    BOT,
    Bottom,
    ConceptExpr,
    Exists,
    Forall,
    Individual,
    Not,
    Or,
    TOP,
    Top,
    Variable,
    format_concept,
    nnf,
    subconcepts,
)
from .tableau import (
    ClashInfo,
    CompletionResult,
    ConstraintSet,
    ResourceExhausted,
    Status,
    apply_rules,
    complete,
    extract_model,
    find_clash,
    variable_assignment,
)

__version__ = "0.1.0"
