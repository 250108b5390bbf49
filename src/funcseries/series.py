"""Expansion engine: power series of one function in terms of another.

Given analytic f and s and a point z0 with s'(z0) != 0 and s(z0)
finite, :func:`expand` produces coefficients c_n such that

    f(z) = sum_n c_n * (s(z) - s(z0))^n,

where c_n is the n'th composite derivative of f with respect to s,
evaluated at z0 and divided by n!.  With s = z this reduces to the
ordinary Taylor series.  Coefficients are stored numerically; the
operator chain that built them, shared by every expansion of the same
(f, s) through :func:`funcseries.composite.cached_chain`, stays on the
result for remainder bounds.

Some pairs terminate: beyond some index every coefficient vanishes and
the truncated sum is an identity for f.  :func:`detect_termination`
scans for that, and :func:`power_expansion_coefficients` gives the
closed-form coefficients for expanding a function in a power of itself,
which terminate exactly when the power is 1/n.

:func:`inverse_composite_expand` is the alternative route for the rare
case where an explicit inverse g of s is available: it Taylor-expands
h = f(g(.)) at s(z0), which must agree with :func:`expand`.  Its Taylor
coefficients come from the jets of :mod:`funcseries.oracle`, not from a
second symbolic differentiation ladder; the oracle is imported when that
route runs, so this module, like an expansion, never loads numpy.

:data:`CATALOG` is the fixed list of (f, s, z0) pairs that the
engine/oracle checks, the ``check`` subcommand and the benchmark read.

Everything here is thread-safe: a returned SeriesExpansion is frozen,
and its shared chain appends ladder entries, when the bounds ask for
them, under the chain's own lock.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .composite import OperatorChain, cached_chain
from .errors import (
    CompositeDerivativeZero,
    InverseMismatch,
    SingularAtExpansionPoint,
    SingularEvaluation,
)
from .expr import (
    Expr,
    Record,
    evaluate,
    evaluator,
    format_expr,
    substitute,
)

#: |s'(z0)| at or below this is treated as a vanishing derivative
DERIVATIVE_ZERO_TOL = 1e-12

#: relative size under which trailing coefficients count as vanished
TERMINATION_TOL = 1e-10

#: how many consecutive negligible tail coefficients termination needs
TERMINATION_RUN = 3

#: largest expansion order: n! no longer fits a double beyond 170
MAX_ORDER = 170

#: fixed catalog of (label, f text, s text, z0) pairs used by the
#: engine/oracle agreement checks, the CLI `check` subcommand and the
#: remainder soundness sweeps; plain data, so reading it loads no numpy
CATALOG: tuple[tuple[str, str, str, complex], ...] = (
    ("rational-in-sine", "1/(1+z)", "sin(z)", 0.0),
    ("binomial-family", "1/(1-2^(1-z))", "2^(-z)", 0.5),
    ("power-8-in-2", "8^(-z)", "2^(-z)", 0.0),
    ("power-9-in-3", "9^(-z)", "3^(-z)", 0.0),
    ("power-5-in-2", "5^(-z)", "2^(-z)", 0.0),
    ("degenerate-rational", "1/(z-2)^2", "1/(z-2)", 0.0),
    ("square-of-exponential", "exp(2*z)", "exp(z)", 0.0),
)


def check_order(order: int) -> None:
    """Raise ValueError unless 0 <= order <= MAX_ORDER: one limit for every route."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError("order must be >= 0" if order < 0 else f"order must be <= {MAX_ORDER}")


class ExpansionRequest(Record):
    """Inputs for expand(): functions, point, order, and tolerances."""

    _fields = ("f", "s", "z0", "order", "termination_tol", "derivative_zero_tol")

    def __init__(self, f: Expr, s: Expr, z0: complex, order: int,
                 termination_tol: float = TERMINATION_TOL,
                 derivative_zero_tol: float = DERIVATIVE_ZERO_TOL):
        check_order(order)
        if not (0 < termination_tol < math.inf and 0 < derivative_zero_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        vars(self).update(f=f, s=s, z0=complex(z0), order=order, termination_tol=termination_tol,
                          derivative_zero_tol=derivative_zero_tol)


class SeriesExpansion(Record):
    """Result of an expansion.

    ``coefficients[n]`` multiplies (s(z) - s0)^n.  ``terminated_at`` is
    the last index with a non-negligible coefficient when the stored
    tail vanished, else None.  ``chain`` is the operator chain of f and
    s, shared by every expansion of the pair and reused by the remainder
    bounds; it appends ladder entries on demand, safely from any thread.
    It is left out of equality, the hash and the repr.
    """

    _fields = ("f", "s", "z0", "s0", "coefficients", "terminated_at")

    def __init__(self, f: Expr, s: Expr, z0: complex, s0: complex,
                 coefficients: tuple[complex, ...], terminated_at: int | None,
                 chain: OperatorChain):
        vars(self).update(f=f, s=s, z0=z0, s0=s0, coefficients=coefficients,
                          terminated_at=terminated_at, chain=chain)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def as_dict(self) -> dict:
        return {
            "f": format_expr(self.f),
            "s": format_expr(self.s),
            "z0": [self.z0.real, self.z0.imag],
            "s0": [self.s0.real, self.s0.imag],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "terminated_at": self.terminated_at,
        }


def expand(req: ExpansionRequest) -> SeriesExpansion:
    """Compute the expansion of req.f in powers of (req.s - s(z0)).

    Raises ConstantComposite when s' is identically zero (from the
    chain), CompositeDerivativeZero when |s'(z0)| is at or below the
    tolerance, and SingularAtExpansionPoint when f, s, or any ladder
    entry cannot be evaluated at z0.
    """
    chain = cached_chain(req.f, req.s)
    try:
        s0 = evaluate(req.s, req.z0)
        sp0 = evaluate(chain.sprime, req.z0)
    except SingularEvaluation as exc:
        raise SingularAtExpansionPoint(f"inner function at z0={req.z0}: {exc}") from exc
    if abs(sp0) <= req.derivative_zero_tol:
        raise CompositeDerivativeZero(
            f"|s'(z0)| = {abs(sp0):.3g} at z0={req.z0} "
            f"(tolerance {req.derivative_zero_tol:g})")

    coefficients = []
    value_at = evaluator(req.z0)  # the entries share most nodes: each is evaluated once
    for n in range(req.order + 1):
        entry = chain.entry(n)
        try:
            value = value_at(entry)
        except SingularEvaluation as exc:
            raise SingularAtExpansionPoint(
                f"derivative ladder entry {n} at z0={req.z0}: {exc}") from exc
        coefficients.append(value / math.factorial(n))

    terminated = detect_termination(coefficients, req.termination_tol)
    return SeriesExpansion(req.f, req.s, req.z0, s0, tuple(coefficients),
                           terminated, chain)


def check_upto(upto: int, order: int) -> None:
    """Raise ValueError unless a sum or bound over terms 0..upto fits the order."""
    if not 0 <= upto <= order:
        raise ValueError(f"upto must be in [0, {order}]")


def horner(coefficients, u: complex, upto: int) -> complex:
    """Sum of coefficients[n] * u^n for n = 0..upto, by Horner's rule."""
    total = 0j
    for c in reversed(coefficients[: upto + 1]):
        total = total * u + c
    return total


def partial_sum(exp: SeriesExpansion, z: complex, upto: int | None = None) -> complex:
    """Sum of c_n (s(z) - s0)^n for n = 0..upto (defaults to the full order)."""
    upto = exp.order if upto is None else upto
    check_upto(upto, exp.order)
    return horner(exp.coefficients, evaluate(exp.s, z) - exp.s0, upto)


def detect_termination(coefficients, tol: float = TERMINATION_TOL) -> int | None:
    """Smallest index m with every later stored coefficient negligible.

    Negligible means |c_n| < tol * max(1, |c0|), so m is the last index
    n >= 1 whose c_n is not negligible, or 0; at least TERMINATION_RUN
    negligible coefficients must follow it, so fewer than
    TERMINATION_RUN + 1 stored coefficients never report termination.
    """
    n = len(coefficients)
    if n < TERMINATION_RUN + 1:
        return None
    ceiling = tol * max(1.0, abs(coefficients[0]))
    m = next((i for i in range(n - 1, 0, -1) if not abs(coefficients[i]) < ceiling), 0)
    return m if n - 1 - m >= TERMINATION_RUN else None


def power_expansion_coefficients(beta, order: int) -> list[float]:
    """Coefficients for expanding a function in its own beta'th power.

    a0 = 1 and a_n = (1-beta)(1-2*beta)...(1-(n-1)*beta) / (n! beta^n).
    The product keeps the arithmetic type of beta, so passing a
    Fraction makes the terminating zeros (beta = 1/k) exact.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    coefficients = [1.0]
    product = Fraction(1) if isinstance(beta, (int, Fraction)) else 1.0
    factorial = 1
    for n in range(1, order + 1):
        if n >= 2:
            product = product * (1 - (n - 1) * beta)
        factorial *= n
        coefficients.append(float(product / (factorial * beta ** n)))
    return coefficients


#: absolute tolerance (scaled by max(1, |z0|)) for the inverse round-trip check
INVERSE_ROUNDTRIP_TOL = 1e-8


def inverse_composite_expand(f: Expr, s: Expr, g: Expr, z0: complex,
                             order: int,
                             termination_tol: float = TERMINATION_TOL) -> SeriesExpansion:
    """Expansion via an explicit inverse: Taylor coefficients of f(g(.)).

    order is limited as for expand().  g must be written in its own letter
    and satisfy g(s(z0)) = z0 to within the round-trip tolerance, or
    InverseMismatch is raised.  The coefficients are those of the jet of
    f(g(.)) at s(z0), so SingularAtExpansionPoint is raised where that jet
    cannot be formed or leaves double range, and ConstantComposite as in
    expand(), whose result it matches field for field.
    """
    check_order(order)
    from .oracle import jet  # the jets need numpy: load it only here

    z0 = complex(z0)
    chain = cached_chain(f, s)
    try:
        s0 = evaluate(s, z0)
        back = evaluate(g, s0)
    except SingularEvaluation as exc:
        raise SingularAtExpansionPoint(f"inverse route at z0={z0}: {exc}") from exc
    if abs(back - z0) > INVERSE_ROUNDTRIP_TOL * max(1.0, abs(z0)):
        raise InverseMismatch(
            f"g(s(z0)) = {back} does not return to z0 = {z0}")

    h = substitute(f, chain.letter, g)
    coefficients = tuple(map(complex, jet(h, s0, order)))
    if not all(map(cmath.isfinite, coefficients)):
        raise SingularAtExpansionPoint(f"inverse route at z0={z0}: coefficients leave double range")
    terminated = detect_termination(coefficients, termination_tol)
    return SeriesExpansion(f, s, z0, s0, coefficients, terminated, chain)
