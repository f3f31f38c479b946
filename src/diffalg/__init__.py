"""Exact differential-algebra kernel: solved-form systems, Riquier-style
rankings, orbit division with unique remainders, syzygy pair generators, and
the passivity decision with its quotient census.

Public names load on first access (PEP 562): importing the package loads no
submodule, so a command compiles and runs only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "algebra": ("Context", "Deriv", "DiffPoly", "Indep", "monomial", "poly_from_json", "poly_to_json",
                "to_text", "var_from_json", "var_to_json"),
    "errors": ("EnumerationLimitError", "ReductionLimitError", "StructuralError"),
    "normal": ("Bounds", "SolvedForm", "SolvedSystem", "autoreduce",
               "check_conditionally_solvable", "find_principal", "normalized_slice", "reduce"),
    "passivity": ("Census", "CompatibilityResult", "PassivityReport", "check_pair", "coincident_lead_analysis",
                  "decide_passivity", "is_passive", "quotient_census"),
    "ranking": ("BASE", "Ranking", "audit_compatibility"),
    "syzygy": ("TauPair", "operator_apply", "tau_generators"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
