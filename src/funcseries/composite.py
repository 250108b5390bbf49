"""Derivatives through a composite: d^n k / d s^n from z-derivatives only.

For k written as a function of z with inner function s(z), each
application of

    e  |->  (1 / s'(z)) * de/dz

lowers one s-derivative, so n applications starting from f give the
n'th derivative of f with respect to s without ever inverting s or
expanding the classical combinatoric formulas.  :class:`OperatorChain`
owns s'(z), simplified once as ``sprime`` for every consumer, and
caches the ladder of intermediate expressions, each simplified once on
creation to keep growth in check.

The reverse direction, :func:`z_derivative_via_s`, produces the n'th
z-derivative of k(s(z)) from an expression for k in the s-variable by
stepping with s'(z) * d/ds and substituting s := s(z) at the end.
While stepping, the working tree mixes the s- and z-letters; d/ds acts
as the total derivative along the curve (z moves with s), i.e.

    g  |->  s'(z) * dg/ds + dg/dz.

Chains mutate only by appending to their private cache; do not share a
single chain between threads.  Everything else here is pure.
"""

from __future__ import annotations

from .errors import ConstantComposite
from .expr import (
    Expr,
    add,
    const,
    differentiate,
    divide,
    multiply,
    simplify,
    sole_variable,
    substitute,
    variables,
)


class OperatorChain:
    """Ladder f, D f, D^2 f, ... for D = (1/s'(z)) d/dz.

    Entry i+1 is simplify(divide(differentiate(entry i), sprime)) for
    sprime = simplify(differentiate(s)), which must not be 0; entry 0
    is f itself.  The cache is append-only.
    """

    def __init__(self, f: Expr, s: Expr):
        self.letter = sole_variable(f, s)
        self.f = f
        self.s = s
        self.sprime = simplify(differentiate(s, self.letter))
        if self.sprime == const(0):
            raise ConstantComposite("inner function has identically zero derivative")
        self._entries: list[Expr] = [f]

    def entry(self, n: int) -> Expr:
        if n < 0:
            raise ValueError("order must be >= 0")
        while len(self._entries) <= n:
            prev = self._entries[-1]
            self._entries.append(
                simplify(divide(differentiate(prev, self.letter), self.sprime)))
        return self._entries[n]

    def __len__(self) -> int:
        return len(self._entries)


def composite_derivative(f: Expr, s: Expr, n: int) -> Expr:
    """d^n f / d s^n as an expression in the z-letter; n = 0 returns f."""
    return OperatorChain(f, s).entry(n)


def z_derivative_via_s(k: Expr, s: Expr, n: int, s_letter: str = "s") -> Expr:
    """n'th z-derivative of k(s(z)) built from k given in the s-letter.

    k must use only ``s_letter``; s must use only the z-letter.  The
    result equals the direct n'th z-derivative of the substituted
    composite, but is computed by stepping in s-space and substituting
    last, which keeps k's structure visible until the end.
    """
    extra = variables(k) - {s_letter}
    if extra:
        raise ValueError(f"k may only use variable {s_letter!r}, found {sorted(extra)}")
    chain = OperatorChain(s, s)
    if chain.letter == s_letter:
        raise ValueError("inner and outer variables must differ")
    g = k
    for _ in range(n):
        g = simplify(add(multiply(chain.sprime, differentiate(g, s_letter)),
                         differentiate(g, chain.letter)))
    return simplify(substitute(g, s_letter, s))
