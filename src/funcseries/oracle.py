"""Brute-force coefficient oracle via truncated power series.

This module is the independent cross-check for the expansion engine.
It never touches symbolic differentiation or the composite-derivative
ladder: Taylor data is produced by running the tree's evaluation tape
(``expr._tape``, the one :func:`funcseries.expr.evaluate_many` runs) with
truncated-series arithmetic (:class:`TruncatedSeries`) and jets of the
elementary functions, and expansion coefficients are recovered by
:func:`oracle_coefficients`, which matches coefficients in the sum

    F(t) = sum_n c_n * u(t)^n,        u = inner series minus its constant

by forward substitution.  Because u starts at the linear term, u^n has
leading power t^n with coefficient u1^n, so the system is lower
triangular and solvable term by term whenever u1 != 0 (the series-level
restatement of the nonvanishing-derivative requirement).

A TruncatedSeries holds the coefficients of e(z0 + t) in t up to a
fixed order; arithmetic never reads beyond the stored coefficients.
Products, quotients and compositions run on three small numpy kernels
(Cauchy product, long division, Horner composition) private to this
module.  The jets are also the Taylor data for the inverse-composite
route in :mod:`funcseries.series`.  An elementary jet out of double
range raises SingularAtExpansionPoint; arithmetic out of range gives
inf or nan without a warning, which both routes reject.  All values are
complex128 and instances are immutable, so everything here can run
concurrently.

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
    CompositionOffsetNonzero,
    DivisionBySingularSeries,
    LeadingCoefficientZero,
    SingularAtExpansionPoint,
    nested_too_deeply,
)
from .expr import (
    ADD,
    CONST,
    DIVIDE,
    MULTIPLY,
    NEGATE,
    POWER,
    Expr,
    _on_principal_branch,
    _tape,
)

#: |constant term| below this makes a series unusable as a divisor
SERIES_DIVISION_FLOOR = 1e-300


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


class TruncatedSeries:
    """Degree-N jet: coefficients a0..aN of a function of z0 + t."""

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
    def constant(cls, value, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = value
        return cls(c)

    @classmethod
    def identity(cls, z0, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = z0
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    @np.errstate(all="ignore")  # a coefficient out of range is the caller's to reject
    def from_expr(cls, e: Expr, z0: complex, order: int) -> "TruncatedSeries":
        """Jet of e(z0 + t), one truncated-series operation per step of the
        tree's tape (``expr._tape``), so a shared subtree is expanded once.

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
            return _jet(e, complex(z0), order)
        except DivisionBySingularSeries as exc:
            raise SingularAtExpansionPoint(f"jet of {e} at {z0}: {exc}") from exc
        except RecursionError:
            raise nested_too_deeply("build a jet") from None

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise ValueError("order mismatch")
            return other
        return TruncatedSeries.constant(other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return TruncatedSeries(self.coefficients + other.coefficients)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return TruncatedSeries(self.coefficients - other.coefficients)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TruncatedSeries(-self.coefficients)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coefficients * complex(other))
        other = self._coerce(other)
        return TruncatedSeries(
            _series_mul(self.coefficients, other.coefficients, self.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if abs(other.coefficients[0]) < SERIES_DIVISION_FLOOR:
            raise DivisionBySingularSeries(
                "divisor series has (near-)zero constant term")
        return TruncatedSeries(
            _series_div(self.coefficients, other.coefficients, self.order))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("series power wants an integer exponent")
        if n < 0:
            return TruncatedSeries.constant(1.0, self.order) / self ** (-n)
        out = TruncatedSeries.constant(1.0, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Jet of self(inner(t)); inner's constant term must be exactly 0."""
        inner = self._coerce(inner)
        if inner.coefficients[0] != 0:
            raise CompositionOffsetNonzero(
                f"inner constant term is {inner.coefficients[0]}, not 0")
        return TruncatedSeries(
            _series_compose(self.coefficients, inner.coefficients, self.order))

    def shift_to_zero(self) -> "TruncatedSeries":
        """Copy with the constant term replaced by an exact 0."""
        c = self.coefficients.copy()
        c[0] = 0.0
        return TruncatedSeries(c)

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
    if name == "exp":
        return _cycle_jet([cmath.exp(v)], order)
    if name == "sin":
        s, c = cmath.sin(v), cmath.cos(v)
        return _cycle_jet([s, c, -s, -c], order)
    if name == "cos":
        s, c = cmath.sin(v), cmath.cos(v)
        return _cycle_jet([c, -s, -c, s], order)
    if name == "sinh":
        s, c = cmath.sinh(v), cmath.cosh(v)
        return _cycle_jet([s, c], order)
    if name == "cosh":
        s, c = cmath.sinh(v), cmath.cosh(v)
        return _cycle_jet([c, s], order)
    if name == "log":
        if abs(v) < SERIES_DIVISION_FLOOR:
            raise SingularAtExpansionPoint("log at 0")
        v = _on_principal_branch(v)
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
        if abs(v) < SERIES_DIVISION_FLOOR:
            raise SingularAtExpansionPoint("sqrt at 0")
        v = _on_principal_branch(v)
        out = np.empty(order + 1, dtype=np.complex128)
        out[0] = cmath.sqrt(v)
        for k in range(1, order + 1):
            out[k] = out[k - 1] * (1.5 - k) / (k * v)
        return out
    raise AssertionError(f"no jet rule for {name}")


def _apply_elementary(name: str, inner: TruncatedSeries) -> TruncatedSeries:
    v = complex(inner.coefficients[0])
    if name == "tan":
        return (_apply_elementary("sin", inner) / _apply_elementary("cos", inner))
    try:
        jet = _elementary_jet(name, v, inner.order)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:  # exp(800), log's v^k under range
        raise SingularAtExpansionPoint(f"{name} jet at {v}: {exc}") from exc
    return TruncatedSeries(jet).compose(inner.shift_to_zero())


def _jet(e: Expr, z0: complex, order: int) -> TruncatedSeries:
    jets = [TruncatedSeries.identity(z0, order)]
    for kind, name, value, inputs, _ in _tape(e):
        args = [jets[i] for i in inputs]
        if kind == CONST:
            try:
                out = TruncatedSeries.constant(complex(value), order)
            except OverflowError as exc:
                raise SingularAtExpansionPoint(
                    f"constant out of floating-point range: {exc}") from exc
        elif kind in (ADD, MULTIPLY):
            out = reduce(operator.add if kind == ADD else operator.mul, args)
        elif kind == NEGATE:
            out = -args[0]
        elif kind == DIVIDE:
            out = args[0] / args[1]
        elif kind == POWER and value is not None:
            out = args[0] ** value
        elif kind == POWER:  # through exp(c * log(base)), principal branch
            out = _apply_elementary("exp", args[1] * _apply_elementary("log", args[0]))
        else:
            out = _apply_elementary(name, args[0])
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
    F = TruncatedSeries.from_expr(f, z0, order)
    S = TruncatedSeries.from_expr(s, z0, order)
    u = S.shift_to_zero()
    if order >= 1 and abs(u.coefficients[1]) < SERIES_DIVISION_FLOOR:
        raise LeadingCoefficientZero("inner series has zero linear coefficient")

    residual = F.coefficients.copy()
    power_of_u = np.zeros(order + 1, dtype=np.complex128)
    power_of_u[0] = 1.0
    coeffs: list[complex] = []
    for n in range(order + 1):
        c_n = residual[n] / power_of_u[n]
        coeffs.append(complex(c_n))
        residual -= c_n * power_of_u
        if n < order:
            power_of_u = _series_mul(power_of_u, u.coefficients, order)
    if not all(map(cmath.isfinite, coeffs)):
        raise SingularAtExpansionPoint(f"oracle coefficients at z0={z0} leave double range")
    return coeffs
