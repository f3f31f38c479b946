"""Exact differential-algebra kernel: solved-form systems, Riquier-style
rankings, orbit division with unique remainders, syzygy pair generators, and
the passivity decision with its quotient census."""

from .algebra import (
    Context,
    Deriv,
    DiffPoly,
    Indep,
    monomial,
    poly_from_json,
    poly_to_json,
    to_text,
    var_from_json,
    var_to_json,
)
from .errors import ReductionLimitError, StructuralError
from .normal import (
    DEFAULT_MAX_STEPS,
    NormalForm,
    SolvedForm,
    SolvedSystem,
    autoreduce,
    check_conditionally_solvable,
    divide_by_normalized,
    find_principal,
    normalized_slice,
    reduce,
)
from .oracle import Certificate, MembershipInstance, membership, prolong
from .passivity import (
    Census,
    CompatibilityResult,
    PassivityReport,
    check_pair,
    coincident_lead_analysis,
    decide_passivity,
    is_passive,
    quotient_census,
)
from .ranking import BASE, ClassKey, Ranking, audit_compatibility
from .syzygy import (
    ModuleVector,
    TauPair,
    module_apply,
    operator_apply,
    syzygy_oracle,
    tau_generators,
)

__version__ = "0.1.0"

__all__ = [
    "BASE",
    "Census",
    "Certificate",
    "ClassKey",
    "CompatibilityResult",
    "Context",
    "DEFAULT_MAX_STEPS",
    "Deriv",
    "DiffPoly",
    "Indep",
    "MembershipInstance",
    "ModuleVector",
    "NormalForm",
    "PassivityReport",
    "Ranking",
    "ReductionLimitError",
    "SolvedForm",
    "SolvedSystem",
    "StructuralError",
    "TauPair",
    "audit_compatibility",
    "autoreduce",
    "check_conditionally_solvable",
    "check_pair",
    "coincident_lead_analysis",
    "decide_passivity",
    "divide_by_normalized",
    "find_principal",
    "is_passive",
    "membership",
    "module_apply",
    "monomial",
    "normalized_slice",
    "operator_apply",
    "poly_from_json",
    "poly_to_json",
    "prolong",
    "quotient_census",
    "reduce",
    "syzygy_oracle",
    "tau_generators",
    "to_text",
    "var_from_json",
    "var_to_json",
]
