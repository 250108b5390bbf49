"""Classical two-sided expansion with contour-integral coefficients.

For f analytic on a ring and theta analytic inside the outer circle
with a single simple zero at ``a`` there, f expands in positive and
negative powers of theta:

    f(x) = sum_{n>=0} A_n theta(x)^n + sum_{n>=1} B_n / theta(x)^n,

valid for x with |theta(x)| below the smallest |theta| on the outer
circle and above the largest on the inner one.  The coefficients are
contour integrals, computed here by uniform trapezoidal quadrature on
circles (spectrally accurate for analytic integrands):

    A_n = 1/(2 pi i n) * integral over c1 of f'(z) / theta(z)^n dz
    B_n = -1/(2 pi i n) * integral over c2 of f'(z) * theta(z)^n dz

The n = 0 coefficient falls outside those formulas; it is computed as
1/(2 pi i) * integral of f(z) theta'(z)/theta(z) over c1, which equals
f(a) when f is analytic at a and stays correct when f has poles inside
the inner circle.

Each integrand is evaluated once per node, at all nodes of a contour in
one ``expr.evaluate_many`` call: f, theta' and theta on c1 for A_0, f'
on c1 (with theta) for every A_n, and f' and theta on c2 for every B_n;
the number of evaluations does not grow with the order.  A singular
node fails that one call, and its error, naming the node, is raised as
QuadratureSingularity, as is a sum that leaves double range.  The
validity ring is read from the same sweep: the smallest |theta| over
the c1 nodes and the largest over the c2 nodes.  An inner contour whose
largest |theta| is not below the outer contour's smallest leaves no
ring; that raises AnnulusViolation when some B_n is not negligible,
while a purely positive expansion (a nonlinear theta can make the
ranges overlap) stays usable.

This module is the classical cross-check for the expansion engine:
with theta(z) = z - z0 the A_n must match the engine's coefficients
for s = z.  Quadrature sums run in a fixed sequential order, so results
are bit-for-bit reproducible for a given node count.  Whether theta
really has exactly one simple zero inside the outer circle is the
caller's responsibility.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import AnnulusViolation, QuadratureSingularity, SingularEvaluation
from .expr import (DIVISION_FLOOR, Expr, Record, differentiate, evaluate, evaluate_many,
                   sole_variable)
from .series import check_order, check_upto, horner

#: |B_n| below this counts as an absent negative-power term
NEGLIGIBLE_COEFFICIENT = 1e-9

#: most quadrature nodes per contour; every integrand keeps one complex
#: array of this length, and each node costs one tree evaluation
MAX_POINTS = 2**16


class ContourSpec(Record):
    """Circle used for quadrature: center, radius, and node count."""

    _fields = ("center", "radius", "points")

    def __init__(self, center: complex, radius: float, points: int = 512):
        center = complex(center)
        if not cmath.isfinite(center):
            raise ValueError(f"contour center must be finite, got {center}")
        if not 0 < radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not math.isfinite(abs(center) + radius):
            raise ValueError("contour leaves double range: |center| + radius overflows")
        if points < 16:
            raise ValueError("need at least 16 quadrature points")
        if points > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} quadrature points")
        if points & (points - 1):
            raise ValueError("point count must be a power of two")
        vars(self).update(center=center, radius=radius, points=points)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and the unit phases they sit at."""
        phase = np.exp(2j * np.pi * np.arange(self.points) / self.points)
        return self.center + self.radius * phase, phase

    def as_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "points": self.points,
        }


class TeixeiraExpansion(Record):
    """Two-sided expansion data plus the validity ring read at the nodes."""

    _fields = ("zero_point", "theta", "a_coefficients", "b_coefficients", "outer", "inner",
               "outer_theta_min", "inner_theta_max")

    def __init__(self, zero_point: complex, theta: Expr, a_coefficients: tuple[complex, ...],
                 b_coefficients: tuple[complex, ...], outer: ContourSpec,
                 inner: ContourSpec | None, outer_theta_min: float, inner_theta_max: float):
        vars(self).update(zero_point=zero_point, theta=theta, a_coefficients=a_coefficients,
                          b_coefficients=b_coefficients, outer=outer, inner=inner,
                          outer_theta_min=outer_theta_min, inner_theta_max=inner_theta_max)

    def as_dict(self) -> dict:
        return {
            "A": [[c.real, c.imag] for c in self.a_coefficients],
            "B": [[c.real, c.imag] for c in self.b_coefficients],
            "contours": {
                "outer": self.outer.as_dict(),
                "inner": self.inner.as_dict() if self.inner else None,
            },
        }


def _values_on(e: Expr, zs: np.ndarray) -> np.ndarray:
    try:
        return np.array(evaluate_many(e, zs.tolist()), dtype=np.complex128)
    except SingularEvaluation as exc:  # evaluate's own error for the first singular node
        raise QuadratureSingularity(f"integrand at a quadrature node: {exc}") from exc


def _contour_sum(scale: float, integrand: np.ndarray, contour: str) -> complex:
    total = scale * complex(integrand.cumsum()[-1])  # cumulative sum fixes the summation order
    if not (np.all(np.isfinite(integrand)) and cmath.isfinite(total)):
        raise QuadratureSingularity(f"non-finite integrand or sum on the {contour} contour")
    return total


@np.errstate(all="ignore")  # every non-finite value meets _contour_sum's check, not a warning
def teixeira_expand(f: Expr, theta: Expr, zero_point: complex,
                    outer: ContourSpec, inner: ContourSpec | None,
                    order: int) -> TeixeiraExpansion:
    """Compute A_0..A_order and (with an inner contour) B_1..B_order, order as for expand()."""
    check_order(order)
    letter = sole_variable(f, theta)
    zs, phase = outer.nodes()
    fv = _values_on(f, zs)
    tp = _values_on(differentiate(theta, letter), zs)
    th = _values_on(theta, zs)
    outer_min = float(np.abs(th).min())
    if outer_min < DIVISION_FLOOR:
        raise QuadratureSingularity("theta vanishes on the outer contour")
    a = [_contour_sum(outer.radius / outer.points, fv * tp * phase / th, "outer")]
    if order:  # A_0 alone needs no f'
        fprime = differentiate(f, letter)
        weighted = _values_on(fprime, zs) * phase
        for n in range(1, order + 1):
            a.append(_contour_sum(outer.radius / (n * outer.points), weighted / th**n, "outer"))
    b = []
    inner_max = 0.0
    if inner is not None:
        zs, phase = inner.nodes()
        th = _values_on(theta, zs)
        inner_max = float(np.abs(th).max())
        if order:
            weighted = _values_on(fprime, zs) * phase
            for n in range(1, order + 1):
                b.append(_contour_sum(-inner.radius / (n * inner.points),
                                      weighted * th**n, "inner"))
        # an empty ring only matters when there is a negative-power part:
        # with every B_n negligible the expansion is purely positive
        if inner_max >= outer_min and any(abs(c) > NEGLIGIBLE_COEFFICIENT
                                          for c in b):
            raise AnnulusViolation(
                f"empty annulus: the largest |theta| on the inner contour, "
                f"{inner_max:.6g}, is not below the smallest on the outer, "
                f"{outer_min:.6g}, and some B_n is not negligible")
    return TeixeiraExpansion(complex(zero_point), theta, tuple(a), tuple(b),
                             outer, inner, outer_min, inner_max)


def teixeira_partial_sum(tx: TeixeiraExpansion, x: complex, upto: int) -> complex:
    """Two-sided sum at x, after checking the validity ring.

    Sums A_0..A_upto and B_1..B_upto; upto must lie in [0, order].
    Negative-power terms below the negligible-coefficient threshold are
    dropped, so purely positive expansions remain usable where theta
    vanishes.
    """
    check_upto(upto, len(tx.a_coefficients) - 1)
    x = complex(x)
    tv = evaluate(tx.theta, x)
    size = abs(tv)
    if size >= tx.outer_theta_min and upto >= 1:
        raise AnnulusViolation(
            f"|theta(x)| = {size:.6g} >= {tx.outer_theta_min:.6g}, the smallest "
            f"|theta| sampled on the outer contour")

    total = horner(tx.a_coefficients, tv, upto)
    significant = [(n, c) for n, c in enumerate(tx.b_coefficients[:upto], start=1)
                   if abs(c) > NEGLIGIBLE_COEFFICIENT]
    if significant:
        if size <= tx.inner_theta_max:
            raise AnnulusViolation(
                f"|theta(x)| = {size:.6g} <= {tx.inner_theta_max:.6g}, the largest "
                f"|theta| sampled on the inner contour")
        for n, c in significant:
            total += c / tv**n
    return total
