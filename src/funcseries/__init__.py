"""Power series of one analytic function in terms of another.

The engine expands f(z) in powers of (s(z) - s(z0)) by iterating the
operator (1/s'(z)) d/dz symbolically and evaluating at z0; an
independent truncated-series oracle cross-checks the coefficients,
remainder bounds estimate truncation error, and classical contour
quadrature provides a further cross-check where it applies.
"""

from .composite import OperatorChain, composite_derivative, z_derivative_via_s
from .errors import (
    AnnulusViolation,
    CompositeDerivativeZero,
    CompositionOffsetNonzero,
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
from .oracle import CATALOG, TruncatedSeries, oracle_coefficients
from .remainder import RemainderEstimate, complex_bound, lagrange_bound, measured_error
from .series import (
    ExpansionRequest,
    SeriesExpansion,
    detect_termination,
    expand,
    inverse_composite_expand,
    partial_sum,
    power_expansion_coefficients,
)
from .teixeira import (
    ContourSpec,
    TeixeiraExpansion,
    teixeira_expand,
    teixeira_partial_sum,
)

__version__ = "0.1.0"
