"""Truncation-error machinery for the functional expansions.

Three estimates are provided for the error after summing the first
N + 1 terms:

* :func:`measured_error` -- the exact |f(z) - partial_sum(z, N)|;
* :func:`lagrange_bound` -- real-segment bound in the mean-value style:
  |s(z) - s0|^(N+1)/(N+1)! times the largest magnitude of ladder entry
  N + 1 over sampled preimages of the s-segment.  The inner function
  must be monotone between z0 and z (checked by sampling the sign of
  the simplified s' the expansion's chain holds); the intermediate
  point is unknown, so the bound maximizes over a sampled grid, which
  in principle can under-estimate.  s' and the entry are each read at
  every grid point in one ``expr.evaluate_many`` call.  The grid is
  built in plain Python with ``np.linspace``'s arithmetic, so its
  points, and the bound, are bit for bit those of linspace without
  loading numpy.  The sample count, at most MAX_SAMPLES, is recorded on
  the result.
* :func:`complex_bound` -- bound for complex arguments treating the
  unknown mean-value rotation adversarially inside its unit disk, which
  makes it |s(z) - s0|^(N+1)/(N+1)! times |ladder entry N+1 at z0|.

Both bounds raise ValueError unless 0 <= N <= the expansion's order and
N + 1 <= series.MAX_ORDER, beyond which (N+1)! no longer fits a float,
and when |s(z) - s0|^(N+1), or the bound itself, leaves double range;
a ladder entry N + 1 that is 0 there makes the bound 0 however far out
z is.

All functions are pure over their inputs.  The bounds extend the ladder
of the expansion's shared ``chain``, which is thread-safe, so one
SeriesExpansion may be bounded from several threads at once.
"""

from __future__ import annotations

import math

from .errors import NonMonotoneComposite
from .expr import Record, evaluate, evaluate_many
from .series import MAX_ORDER, SeriesExpansion, partial_sum

#: grid size used for monotonicity checking and the intermediate-point scan
DEFAULT_SAMPLES = 64

#: most grid points lagrange_bound accepts; each costs two tree evaluations
MAX_SAMPLES = 2**16


class RemainderEstimate(Record):
    """A truncation-error number: exact measurement or upper bound
    (``kind`` "measured", "real-lagrange" or "complex-theta")."""

    _fields = ("order", "bound", "kind", "z", "samples")

    def __init__(self, order: int, bound: float, kind: str, z: complex,
                 samples: int | None = None):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        vars(self).update(order=order, bound=bound, kind=kind, z=z, samples=samples)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "z": [self.z.real, self.z.imag],
            "bound": self.bound,
            "samples": self.samples,
        }


def _check_upto(exp: SeriesExpansion, upto: int) -> None:
    if not 0 <= upto <= exp.order:
        raise ValueError(f"upto must be in [0, {exp.order}]")
    if upto + 1 > MAX_ORDER:
        raise ValueError(f"bounds need upto < {MAX_ORDER}: (upto + 1)! must fit a float")


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """The n >= 2 points of ``np.linspace(start, stop, n)``, bit for bit."""
    div = n - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # a subnormal span underflows the step: linspace scales i/div instead
        grid = [i / div * delta + start for i in range(n)]
    else:
        grid = [i * step + start for i in range(n)]
    grid[-1] = stop
    return grid


def _mean_value_bound(span: float, upto: int, size: float) -> float:
    """span^(upto+1)/(upto+1)! * size; 0 when the entry factor size is 0."""
    if size == 0:
        return 0.0
    try:
        bound = span ** (upto + 1) / math.factorial(upto + 1) * size
    except OverflowError:
        raise ValueError(f"|s(z) - s0|^{upto + 1} = {span:.6g}^{upto + 1} "
                         "overflows a float") from None
    if not math.isfinite(bound):
        raise ValueError(f"the bound {span:.6g}^{upto + 1}/{upto + 1}! * {size:.6g} "
                         "overflows a float")
    return bound


def measured_error(exp: SeriesExpansion, z: complex, upto: int) -> RemainderEstimate:
    """Exact truncation error |f(z) - partial_sum(z, upto)|."""
    value = abs(evaluate(exp.f, z) - partial_sum(exp, z, upto))
    return RemainderEstimate(upto, value, "measured", complex(z))


def lagrange_bound(exp: SeriesExpansion, z: float, upto: int,
                   samples: int = DEFAULT_SAMPLES) -> RemainderEstimate:
    """Mean-value style bound on the real segment from z0 to z.

    Raises NonMonotoneComposite when the sampled s' changes sign (or
    vanishes) on the segment, since then the preimage of an
    intermediate s-value is ill-defined.
    """
    _check_upto(exp, upto)
    z = complex(z)
    if z.imag != 0 or exp.z0.imag != 0:
        raise ValueError("the real-segment bound needs real z and z0")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples")

    grid = [complex(x) for x in _linspace(exp.z0.real, z.real, samples)]
    # monotonicity of s: sample s' and require one strict sign
    slopes = [v.real for v in evaluate_many(exp.chain.sprime, grid)]
    if not (all(v > 0 for v in slopes) or all(v < 0 for v in slopes)):
        raise NonMonotoneComposite(
            f"s' changes sign on [{exp.z0.real}, {z.real}] "
            f"({samples} samples)")

    largest = max(map(abs, evaluate_many(exp.chain.entry(upto + 1), grid)))
    span = abs(evaluate(exp.s, z) - exp.s0)
    bound = _mean_value_bound(span, upto, largest)
    return RemainderEstimate(upto, bound, "real-lagrange", z, samples)


def complex_bound(exp: SeriesExpansion, z: complex, upto: int) -> RemainderEstimate:
    """Bound valid for complex arguments, evaluated at the expansion point.

    Depends only on |s(z) - s0| and the (upto+1)'th ladder entry at z0;
    the unknown unit-disk rotation contributes its supremum 1.
    """
    _check_upto(exp, upto)
    z = complex(z)
    entry_value = abs(evaluate(exp.chain.entry(upto + 1), exp.z0))
    span = abs(evaluate(exp.s, z) - exp.s0)
    bound = _mean_value_bound(span, upto, entry_value)
    return RemainderEstimate(upto, bound, "complex-theta", z)
