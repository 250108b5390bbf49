"""Power series of one analytic function in terms of another.

The engine expands f(z) in powers of (s(z) - s(z0)) by iterating the
operator (1/s'(z)) d/dz symbolically and evaluating at z0; an
independent truncated-series oracle cross-checks the coefficients,
remainder bounds estimate truncation error, and classical contour
quadrature provides a further cross-check where it applies.

Only the oracle and the quadrature compute with numpy, so their six
public names (``TruncatedSeries``, ``oracle_coefficients``,
``ContourSpec``, ``TeixeiraExpansion``, ``teixeira_expand``,
``teixeira_partial_sum``) are resolved on first access (PEP 562): an
import of the package, and an expansion, plot or remainder bound, never
loads numpy.
"""

import importlib

from .composite import OperatorChain, composite_derivative, z_derivative_via_s
from .errors import (
    AnnulusViolation,
    CompositeDerivativeZero,
    ConstantComposite,
    DivisionBySingularSeries,
    FuncSeriesError,
    InverseMismatch,
    LeadingCoefficientZero,
    MultipleVariables,
    NonMonotoneComposite,
    ParseError,
    QuadratureSingularity,
    SingularAtExpansionPoint,
    SingularEvaluation,
    UnknownFunction,
)
from .expr import (
    Expr,
    const,
    differentiate,
    evaluate,
    format_expr,
    parse,
    simplify,
    substitute,
    var,
    variables,
)
from .remainder import RemainderEstimate, complex_bound, lagrange_bound, measured_error
from .series import (
    CATALOG,
    ExpansionRequest,
    SeriesExpansion,
    detect_termination,
    expand,
    inverse_composite_expand,
    partial_sum,
    power_expansion_coefficients,
)

__version__ = "0.1.0"

#: what ``from funcseries import *`` binds: the public names, the six
#: numpy-backed ones included (so a star import loads numpy)
__all__ = [
    "AnnulusViolation", "CATALOG", "CompositeDerivativeZero",
    "ConstantComposite", "ContourSpec", "DivisionBySingularSeries", "ExpansionRequest",
    "Expr", "FuncSeriesError", "InverseMismatch", "LeadingCoefficientZero",
    "MultipleVariables", "NonMonotoneComposite", "OperatorChain", "ParseError",
    "QuadratureSingularity", "RemainderEstimate", "SeriesExpansion",
    "SingularAtExpansionPoint", "SingularEvaluation", "TeixeiraExpansion",
    "TruncatedSeries", "UnknownFunction", "complex_bound", "composite_derivative",
    "const", "detect_termination", "differentiate", "evaluate", "expand",
    "format_expr", "inverse_composite_expand", "lagrange_bound", "measured_error",
    "oracle_coefficients", "parse", "partial_sum", "power_expansion_coefficients",
    "simplify", "substitute", "teixeira_expand", "teixeira_partial_sum", "var",
    "variables", "z_derivative_via_s",
]

#: public names whose modules import numpy, by the module that defines them
_LAZY = {
    "TruncatedSeries": "oracle",
    "oracle_coefficients": "oracle",
    "ContourSpec": "teixeira",
    "TeixeiraExpansion": "teixeira",
    "teixeira_expand": "teixeira",
    "teixeira_partial_sum": "teixeira",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
