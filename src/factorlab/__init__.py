"""factorlab: factor congruences, central elements and first-coordinate
definability in finitely generated varieties, at desk scale."""

from .congruences import (
    CompactnessReport,
    Congruence,
    FactorPair,
    all_congruences,
    compactness_report,
    congruence_from_partition,
    factor_pairs,
    partition_text,
    principal_congruence,
    quotient,
)
from .core import (
    FiniteAlgebra,
    Signature,
    direct_product,
    eval_term,
    pair_index,
    pair_split,
    subalgebra_generated,
)
from .dfc import (
    CentralElement,
    CorrespondenceReport,
    DfcReport,
    central_elements,
    correspondence_check,
    verify_dfc,
)
from .errors import (
    EvalError,
    FactorLabError,
    FormulaSyntaxError,
    InternalCheckError,
    NoWitnessError,
    ResourceBoundError,
    ValidationError,
)
from .formulas import (
    DnfEvaluator,
    ExistentialDnf,
    Literal,
    PositiveExistential,
    parse_formula,
    parse_term_text,
    strip_to_positive,
)
from .freealg import FreeAlgebra, FreePairContext, free_algebra, free_pair_context
from .positivize import (
    PositivizeResult,
    enumerate_witnesses,
    positivize,
)
from .terms import App, Term, Var, free_vars, is_closed, term_text
from .variety import (
    PoolEntry,
    VarietyContext,
    generate_pool,
    verify_zero_one_condition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
