"""Brute-force coefficient oracle via truncated power series.

This module is the independent cross-check for the expansion engine.
It never touches symbolic differentiation or the composite-derivative
ladder: it runs the tree's evaluation tape (``expr._tape``, as
:func:`funcseries.expr.evaluate_many` does) on jets, under the
evaluation contract stated in :mod:`funcseries.expr` (tape order,
``DIVISION_FLOOR``, ``PRINCIPAL_BRANCH``; a branch point is singular).
:func:`oracle_coefficients` then matches coefficients in

    F(t) = sum_n c_n * u(t)^n,        u = inner series minus its constant

by forward substitution.  Because u starts at the linear term, u^n has
leading power t^n with coefficient u1^n, so the system is lower
triangular and solvable term by term whenever u1 != 0 (the series-level
restatement of the nonvanishing-derivative requirement).

Inside this module a jet is a complex128 array: the coefficients of
e(z0 + t) in t up to a fixed order.  The tape loop calls three numpy
kernels on them (Cauchy product, long division, Horner composition);
:meth:`TruncatedSeries.from_expr` returns the result as an immutable
:class:`TruncatedSeries`, which does no arithmetic.  The jets are also
the Taylor data for the inverse-composite route in
:mod:`funcseries.series`.  An elementary jet out of double range raises
SingularAtExpansionPoint; arithmetic out of range gives inf or nan
without a warning, which both routes reject.  Nothing here keeps state,
so everything can run concurrently.

With :mod:`funcseries.teixeira` this is the only module that imports
numpy, so the rest of the package imports it lazily: the package
resolves ``TruncatedSeries`` and ``oracle_coefficients`` on first
access, and ``check`` and the inverse route import it when they run.
The pairs it is checked on are ``series.CATALOG``.

    >>> from funcseries.expr import parse
    >>> TruncatedSeries.from_expr(parse("exp(z)"), 0.0, 4).coefficients.real
    array([1.        , 1.        , 0.5       , 0.16666667, 0.04166667])
"""

from __future__ import annotations

import cmath
import operator
from functools import reduce

import numpy as np

from .errors import (
    DivisionBySingularSeries,
    FuncSeriesError,
    LeadingCoefficientZero,
    SingularAtExpansionPoint,
    nested_too_deeply,
)
from .expr import (
    ADD,
    CONST,
    DIVIDE,
    DIVISION_FLOOR,
    MULTIPLY,
    NEGATE,
    POWER,
    PRINCIPAL_BRANCH,
    Expr,
    _on_principal_branch,
    _tape,
)


# --------------------------------------------------------------------------
# array kernels: complex128 arrays of length order + 1 in, a fresh one out
# --------------------------------------------------------------------------

def _series_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of a*b truncated at the given order."""
    return np.convolve(a, b)[: order + 1]


def _series_div(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of a/b truncated at the given order; b[0] must not be ~0."""
    out = np.zeros(order + 1, dtype=np.complex128)
    for n in range(order + 1):
        acc = a[n] - np.dot(out[:n], b[n:0:-1])
        out[n] = acc / b[0]
    return out


def _series_compose(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of outer(inner(t)) truncated; inner[0] must be exactly 0."""
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = outer[order]
    for k in range(order - 1, -1, -1):
        out = np.convolve(out, inner)[: order + 1]
        out[0] += outer[k]
    return out


def _constant(value: complex, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = value
    return out


def _shifted(a: np.ndarray) -> np.ndarray:
    """Copy of a with the constant term replaced by an exact 0."""
    out = a.copy()
    out[0] = 0.0
    return out


def _divide(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    if abs(b[0]) < DIVISION_FLOOR:
        raise DivisionBySingularSeries("divisor series has (near-)zero constant term")
    return _series_div(a, b, order)


def _power(base: np.ndarray, n: int, order: int) -> np.ndarray:
    """base^n for an integer n, by binary powering from 1; n < 0 divides 1 by base^-n."""
    if n < 0:
        return _divide(_constant(1.0, order), _power(base, -n, order), order)
    out = _constant(1.0, order)
    while n:
        if n & 1:
            out = _series_mul(out, base, order)
        base = _series_mul(base, base, order) if n > 1 else base
        n >>= 1
    return out


class TruncatedSeries:
    """Degree-N jet of a function of z0 + t, coefficients a0..aN: the value
    from_expr returns.  It does no arithmetic."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        arr = np.ascontiguousarray(coefficients, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def coefficient(self, i: int) -> complex:
        return complex(self.coefficients[i])

    @classmethod
    @np.errstate(all="ignore")  # a coefficient out of range is the caller's to reject
    def from_expr(cls, e: Expr, z0: complex, order: int) -> "TruncatedSeries":
        """Jet of e(z0 + t), one array operation per step of the tree's
        tape (``expr._tape``), so a shared subtree is expanded once.

        No symbolic differentiation is involved; elementary functions
        contribute closed-form jets at the inner constant term.  Raises
        SingularAtExpansionPoint when a division, log, sqrt, or
        non-integer power is taken at a singular inner value, or an
        elementary jet leaves double range; a coefficient that does so
        in the arithmetic comes back inf or nan, with no numpy warning.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        try:
            return cls(_jet(e, complex(z0), order))
        except DivisionBySingularSeries as exc:
            try:
                where = f"jet of {e}"
            except (FuncSeriesError, ValueError, RecursionError):  # e has no text form
                where = "jet"
            raise SingularAtExpansionPoint(f"{where} at {z0}: {exc}") from exc
        except RecursionError:
            raise nested_too_deeply("build a jet") from None

    def __repr__(self):
        return f"TruncatedSeries({self.coefficients.tolist()!r})"


# --------------------------------------------------------------------------
# elementary jets: coefficients of f(v + w) in w, given the point v
# --------------------------------------------------------------------------

def _cycle_jet(values: list[complex], order: int) -> np.ndarray:
    out = np.empty(order + 1, dtype=np.complex128)
    fact = 1.0
    for k in range(order + 1):
        if k:
            fact *= k
        out[k] = values[k % len(values)] / fact
    return out


def _elementary_jet(name: str, v: complex, order: int) -> np.ndarray:
    if name in PRINCIPAL_BRANCH:
        if abs(v) < DIVISION_FLOOR:
            raise SingularAtExpansionPoint(f"{name} at 0")
        v = _on_principal_branch(v)
    if name == "exp":
        return _cycle_jet([cmath.exp(v)], order)
    if name in ("sin", "cos"):
        s, c = cmath.sin(v), cmath.cos(v)
        return _cycle_jet([s, c, -s, -c] if name == "sin" else [c, -s, -c, s], order)
    if name in ("sinh", "cosh"):
        s, c = cmath.sinh(v), cmath.cosh(v)
        return _cycle_jet([s, c] if name == "sinh" else [c, s], order)
    if name == "log":
        out = np.empty(order + 1, dtype=np.complex128)
        out[0] = cmath.log(v)
        sign = 1.0
        vk = v
        for k in range(1, order + 1):
            out[k] = sign / (k * vk)
            sign = -sign
            vk *= v
        return out
    if name == "sqrt":
        out = np.empty(order + 1, dtype=np.complex128)
        out[0] = cmath.sqrt(v)
        for k in range(1, order + 1):
            out[k] = out[k - 1] * (1.5 - k) / (k * v)
        return out
    raise AssertionError(f"no jet rule for {name}")


def _elementary(name: str, inner: np.ndarray, order: int) -> np.ndarray:
    """Jet of name(inner): name's jet at inner[0] composed with inner shifted to 0."""
    if name == "tan":
        return _divide(_elementary("sin", inner, order), _elementary("cos", inner, order), order)
    v = complex(inner[0])
    try:
        jet = _elementary_jet(name, v, order)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:  # exp(800), log's v^k under range
        raise SingularAtExpansionPoint(f"{name} jet at {v}: {exc}") from exc
    return _series_compose(jet, _shifted(inner), order)


def _jet(e: Expr, z0: complex, order: int) -> np.ndarray:
    jets = [_constant(z0, order)]
    jets[0][1:2] = 1.0  # the variable, z0 + t
    for kind, name, value, inputs in _tape(e):
        args = [jets[i] for i in inputs]
        if kind == CONST:
            try:
                out = _constant(complex(value), order)
            except OverflowError as exc:
                raise SingularAtExpansionPoint(
                    f"constant out of floating-point range: {exc}") from exc
        elif kind == ADD:
            out = reduce(operator.add, args)
        elif kind == MULTIPLY:
            out = reduce(lambda a, b: _series_mul(a, b, order), args)
        elif kind == NEGATE:
            out = -args[0]
        elif kind == DIVIDE:
            out = _divide(args[0], args[1], order)
        elif kind == POWER and value is not None:
            out = _power(args[0], value, order)
        elif kind == POWER:  # through exp(c * log(base)), principal branch
            log_base = _elementary("log", args[0], order)
            out = _elementary("exp", _series_mul(args[1], log_base, order), order)
        else:
            out = _elementary(name, args[0], order)
        jets.append(out)
    return jets[-1]


# --------------------------------------------------------------------------
# coefficient matching
# --------------------------------------------------------------------------

@np.errstate(all="ignore")  # a non-finite coefficient is rejected below
def oracle_coefficients(f: Expr, s: Expr, z0: complex, order: int) -> list[complex]:
    """Expansion coefficients of f in powers of (s - s(z0)), by matching.

    Independent of the differentiation-based engine: both sides become
    jets at z0 and the triangular system is solved by forward
    substitution.  Raises LeadingCoefficientZero when the shifted inner
    series has no linear term, and SingularAtExpansionPoint when a
    coefficient leaves double range.
    """
    residual = TruncatedSeries.from_expr(f, z0, order).coefficients.copy()
    u = _shifted(TruncatedSeries.from_expr(s, z0, order).coefficients)
    if order >= 1 and abs(u[1]) < DIVISION_FLOOR:
        raise LeadingCoefficientZero("inner series has zero linear coefficient")

    power_of_u = _constant(1.0, order)
    coeffs: list[complex] = []
    for n in range(order + 1):
        c_n = residual[n] / power_of_u[n]
        coeffs.append(complex(c_n))
        residual -= c_n * power_of_u
        if n < order:
            power_of_u = _series_mul(power_of_u, u, order)
    if not all(map(cmath.isfinite, coeffs)):
        raise SingularAtExpansionPoint(f"oracle coefficients at z0={z0} leave double range")
    return coeffs
