"""Immutable expression trees over one complex variable.

An :class:`Expr` is a finite tree whose nodes are constants, a single
variable, arithmetic operators (add, negate, multiply, divide, power),
or applications of the supported elementary functions.  The module
provides the five operations everything else is built on:

* :func:`parse` -- text to tree, under the grammar
  ``^ (right-assoc) > unary - > * / > + -`` with ``name(arg)`` calls,
  integer / decimal / ``p/q`` literals and one single-letter variable;
* :func:`differentiate` -- symbolic derivative by the standard rules;
* :func:`simplify` -- best-effort constant folding and identity
  elimination (idempotent, value-preserving; a non-finite float
  constant raises);
* :func:`evaluate` -- complex-number evaluation on the principal branch
  of log / sqrt / non-integer powers at one point, and
  :func:`evaluate_many`, the same bits at many points from the tree's
  tape: one plain-data step per distinct node, which the oracle's jets
  run too;
* :func:`format_expr` -- minimal-parenthesis text such that
  ``parse(format_expr(e))`` is structurally equal to ``simplify(e)``.

Integer and ``p/q`` literals are kept as exact rationals; decimals are
IEEE doubles.  Expressions are immutable after construction and all
operations here are pure functions, so trees may be shared freely
between threads.
"""

from __future__ import annotations

import cmath
import re
from collections import Counter
from contextvars import ContextVar
from fractions import Fraction
from functools import reduce
from itertools import repeat
from typing import Callable, Union

from .errors import (
    MultipleVariables,
    ParseError,
    SingularEvaluation,
    UnknownFunction,
    nested_too_deeply,
)

Number = Union[int, float, complex, Fraction]

#: node kind tags
CONST = "const"
VAR = "var"
ADD = "add"
NEGATE = "negate"
MULTIPLY = "multiply"
DIVIDE = "divide"
POWER = "power"
CALL = "call"

#: the one singularity floor: a divisor below it in modulus is singular
DIVISION_FLOOR = 1e-300

#: simplify folds an exact constant power (p/q)^n only while
#: |n| * max(bit_length(p), bit_length(q)) is at most this; larger
#: powers stay POWER nodes instead of building huge integers
MAX_FOLD_BITS = 4096


class Record:
    """Frozen value type: equality, hash and repr over the fields a subclass
    names in ``_fields``.  Assigning or deleting an attribute raises, so a
    subclass's ``__init__`` stores its fields with ``vars(self).update``."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Expr(Record):
    """One node of an expression tree.

    ``kind`` selects the interpretation: constants carry ``value``
    (a Fraction, float, or complex), variables and function
    applications carry ``name``, and the remaining kinds carry child
    nodes in ``args`` (n-ary for add/multiply, binary for
    divide/power, unary for negate and calls).  Nodes are slotted (no
    per-node ``__dict__``), which keeps the ladders a cache holds small.
    ``__init__``, equality, the hash and the repr (the ladder cache's key)
    are written out for speed.  The hash, that of the field tuple, is
    computed on first use and kept in a slot; nodes that hash apart are
    unequal, so equality of distinct trees mostly stops at the root.
    """

    __slots__ = ("kind", "args", "name", "value", "_hash")
    _fields = ("kind", "args", "name", "value")

    def __init__(self, kind: str, args: tuple[Expr, ...] = (), name: str = "",
                 value: Number | None = None):
        _set_kind(self, kind)
        _set_args(self, args)
        _set_name(self, name)
        _set_value(self, value)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (
                (self._hash or hash(self)) == (other._hash or hash(other))
                and (self.kind, self.args, self.name, self.value)
                == (other.kind, other.args, other.name, other.value))
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.args, self.name, self.value))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return (f"Expr(kind={self.kind!r}, args={self.args!r}, "
                f"name={self.name!r}, value={self.value!r})")

    def __reduce__(self):
        return Expr, (self.kind, self.args, self.name, self.value)

    def __add__(self, other):
        return Expr(ADD, (self, _coerce(other)))

    def __radd__(self, other):
        return Expr(ADD, (_coerce(other), self))

    def __sub__(self, other):
        return Expr(ADD, (self, negate(_coerce(other))))

    def __rsub__(self, other):
        return Expr(ADD, (_coerce(other), negate(self)))

    def __mul__(self, other):
        return Expr(MULTIPLY, (self, _coerce(other)))

    def __rmul__(self, other):
        return Expr(MULTIPLY, (_coerce(other), self))

    def __truediv__(self, other):
        return divide(self, _coerce(other))

    def __rtruediv__(self, other):
        return divide(_coerce(other), self)

    def __pow__(self, other):
        return Expr(POWER, (self, _coerce(other)))

    def __neg__(self):
        return negate(self)

    def __str__(self):
        return format_expr(self)


# the slots' own setters: Record.__setattr__ raises
_set_kind, _set_args, _set_name, _set_value, _set_hash = [
    vars(Expr)[name].__set__ for name in Expr.__slots__]


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


def const(value: Number) -> Expr:
    """Constant node; ints become exact Fractions, real complexes floats.
    An integer in -64..64 gets one shared node."""
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric constant")
    if isinstance(value, int):
        if -64 <= value <= 64:
            return _SMALL_INTS[value + 64]
        value = Fraction(value)
    elif value.__class__ is Fraction and value.denominator == 1 and -64 <= value.numerator <= 64:
        return _SMALL_INTS[value.numerator + 64]
    elif isinstance(value, complex) and value.imag == 0.0:
        value = value.real
    return Expr(CONST, value=value)


_SMALL_INTS = [Expr(CONST, value=Fraction(n)) for n in range(-64, 65)]
#: id of each shared node -> its value as an int (the nodes live as long as
#: the module, so no other node has their ids)
_SMALL_EXPONENTS = {id(c): n for n, c in enumerate(_SMALL_INTS, -64)}


def var(letter: str) -> Expr:
    if len(letter) != 1 or not letter.isalpha():
        raise ValueError(f"variable must be a single letter, got {letter!r}")
    return Expr(VAR, name=letter)


def add(*terms: Expr) -> Expr:
    return Expr(ADD, tuple(terms))


def negate(e: Expr) -> Expr:
    # fold constants so "-2" and unary minus of 2 are one node
    if e.kind == CONST:
        return Expr(CONST, value=-e.value)
    return Expr(NEGATE, (e,))


def multiply(*factors: Expr) -> Expr:
    return Expr(MULTIPLY, tuple(factors))


def divide(num: Expr, den: Expr) -> Expr:
    # fold exact rational quotients so "7/6" is a single constant
    if (
        num.kind == CONST
        and den.kind == CONST
        and isinstance(num.value, Fraction)
        and isinstance(den.value, Fraction)
        and den.value != 0
    ):
        return Expr(CONST, value=num.value / den.value)
    return Expr(DIVIDE, (num, den))


def power(base: Expr, exponent: Expr) -> Expr:
    return Expr(POWER, (base, exponent))


def call(fname: str, arg: Expr) -> Expr:
    if fname not in FUNCTIONS:
        raise ValueError(f"unsupported function {fname!r}")
    return Expr(CALL, (arg,), name=fname)


# --------------------------------------------------------------------------
# supported elementary functions: name -> (numeric rule, derivative builder)
# The derivative builder returns d(f(u))/du as an expression in u.  A new
# function is one row here, its branch flag (membership of PRINCIPAL_BRANCH)
# and one jet rule in the oracle module.
# --------------------------------------------------------------------------

FUNCTIONS: dict[str, tuple[Callable[[complex], complex], Callable[[Expr], Expr]]] = {
    "exp": (cmath.exp, lambda u: call("exp", u)),
    "log": (cmath.log, lambda u: divide(const(1), u)),
    "sin": (cmath.sin, lambda u: call("cos", u)),
    "cos": (cmath.cos, lambda u: negate(call("sin", u))),
    "tan": (cmath.tan, lambda u: add(const(1), power(call("tan", u), const(2)))),
    "sinh": (cmath.sinh, lambda u: call("cosh", u)),
    "cosh": (cmath.cosh, lambda u: call("sinh", u)),
    "sqrt": (cmath.sqrt, lambda u: divide(const(1), multiply(const(2), call("sqrt", u)))),
}

#: functions with a branch point at 0 and a cut along the negative reals: their
#: argument, like a non-integer power's base, goes through _on_principal_branch
PRINCIPAL_BRANCH = frozenset({"log", "sqrt"})


def variables(e: Expr) -> set[str]:
    """Set of variable letters appearing in the tree."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.kind == VAR:
            out.add(node.name)
        stack.extend(node.args)
    return out


def sole_variable(*exprs: Expr, default: str = "z") -> str:
    """The unique variable letter used by the given expressions.

    Constant-only expressions contribute nothing; if no expression names
    a variable the default is returned.
    """
    seen: set[str] = set()
    for e in exprs:
        seen |= variables(e)
    if len(seen) > 1:
        raise ValueError(f"expressions mix distinct variables {sorted(seen)}")
    return seen.pop() if seen else default


def substitute(e: Expr, letter: str, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable ``letter`` by ``replacement``."""
    def walk(e: Expr) -> Expr:
        if e.kind == VAR:
            return replacement if e.name == letter else e
        if not e.args:
            return e
        return Expr(e.kind, tuple(walk(a) for a in e.args), e.name, e.value)

    try:
        return walk(e)
    except RecursionError:
        raise nested_too_deeply("substitute") from None


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------

def differentiate(e: Expr, letter: str = "z") -> Expr:
    """Symbolic derivative d e / d letter (unsimplified).  A subtree shared
    within e is differentiated once: its occurrences share one derivative."""
    try:
        return _differentiate(e, letter, {})
    except RecursionError:
        raise nested_too_deeply("differentiate") from None


def _differentiate(e: Expr, letter: str, memo: dict) -> Expr:
    if e.kind == CONST:
        return const(0)
    if e.kind == VAR:
        return const(1) if e.name == letter else const(0)
    out = memo.get(id(e))
    if out is not None:
        return out
    if e.kind == ADD:
        out = add(*[_differentiate(t, letter, memo) for t in e.args])
    elif e.kind == NEGATE:
        out = negate(_differentiate(e.args[0], letter, memo))
    elif e.kind == MULTIPLY:
        terms = []
        for i, a in enumerate(e.args):
            terms.append(multiply(*e.args[:i], _differentiate(a, letter, memo), *e.args[i + 1:]))
        out = add(*terms)
    elif e.kind == DIVIDE:
        a, b = e.args
        num = add(multiply(_differentiate(a, letter, memo), b),
                  negate(multiply(a, _differentiate(b, letter, memo))))
        out = divide(num, power(b, const(2)))
    elif e.kind == POWER:
        b, c = e.args
        if letter not in variables(c):
            # d(b^c) = c * b^(c-1) * b'
            if c.kind == CONST:
                cm1 = const(c.value - 1)
            else:
                cm1 = add(c, const(-1))
            out = multiply(c, power(b, cm1), _differentiate(b, letter, memo))
        else:
            # exponent depends on the variable: b^c = exp(c*log b)
            inner = add(multiply(_differentiate(c, letter, memo), call("log", b)),
                        divide(multiply(c, _differentiate(b, letter, memo)), b))
            out = multiply(power(b, c), inner)
    elif e.kind == CALL:
        u = e.args[0]
        out = multiply(FUNCTIONS[e.name][1](u), _differentiate(u, letter, memo))
    else:
        raise AssertionError(f"unreachable node kind {e.kind}")
    memo[id(e)] = out
    return out


# --------------------------------------------------------------------------
# simplification
#
# One bottom-up pass of local rewrites: constant folding, 0/1 identity
# elimination, flattening of nested add/multiply, merging of repeated
# integer-power factors, and x/x -> 1 by structural equality.  Each
# subtree of a result is its own simplified form, but quotients iterate:
# _divide_core simplifies its rewrite again, and stops where _settled
# shows that the next call would return its input unchanged.
#
# Node shapes the rules share have one builder each: _power_of (base^k
# for an integer k), _negated (minus a simplified node) and _node (a
# signed product with its coefficient).  They have one reader each:
# _split_quotient reads a term's numerator and denominator factors and
# its signed constant, and _split_power reads a factor's base and integer
# exponent.  A builder keeps the node it was given where the rebuild
# would have the same repr (== is not enough): _merge a factor whose base
# met no other, _collect a term that met no like term.  Three rebuilds
# change the repr and still run: an integral float exponent (x^2.0 ->
# x^2), a NEGATE term (-(-3*x) -> 3*x) and a non-Fraction coefficient
# ((-0-1.5j) -> -1.5j).
#
# A product is a term until it is kept: _product_term folds it
# (_flatten, _merge) to what _split_quotient would read back from its
# node, and _node builds that node only for a term that survives.  A
# quotient's numerator is expanded (_expand), collected (_collect) and
# has common factors taken out (_extract_common_factors) as terms, so
# only the terms of its final sum become nodes.  A raw sum is collected
# once (_raw_terms): a raw sum in it is collected first and its terms go
# into the outer collect as they are, never flattened again, and a raw
# product goes in as its term; a sum _sum_node built is distributed over
# those terms too.  A _divide_core pass hands a sum it has not settled to
# the next pass as its _collect list; a sum it settles is recorded with
# the bases no term shares, so dividing it once more (a ladder step's s')
# scans only the new bases and keeps its node.  Every coefficient goes
# through the same products and sums, in the same order, as when each
# node was built and read back (an integral one as an int, see
# _rational), so results are bit for bit the same.
#
# A simplify call memoizes in one dict that lives for that call only and
# is passed down: threads share trees (and ladders), never a memo.
# _simplify maps the id of each input node it has rewritten to the
# result, and each node of the trees passed as ``simplified`` to itself;
# for a raw sum or product that _raw_terms spliced in, it keeps the terms
# instead, and _simplify builds their node if the node is met elsewhere.
# _power_of keeps one node per (base, k), and _sum_node one node per list
# with its terms, in a table that simplify sets for the call in a context
# variable (one per thread), so a dict of factors finds a power by
# identity, and _split_power reads a shared small exponent node by
# identity too.
# differentiate shares one derivative among the occurrences of a shared
# subtree, so that derivative too is simplified once.
#
# A float or complex constant out of double range would print as inf or
# nan.  _in_range raises on one where simplify reads it (a leaf) or folds
# it: a sum's constant, a product's coefficient, a constant quotient or
# power.  Every other folded value reaches _term's check.
# --------------------------------------------------------------------------

#: the classes of an exact coefficient
_EXACT = (int, Fraction)


def _rational(c: Number) -> Number:
    """c, an int as the Fraction it stands for.  An exact coefficient is a
    (cheap) int while it is integral and a Fraction once a denominator
    appears; a node holds the Fraction const makes of it.  An int meets a
    float or complex as that Fraction: the step rounds, and fails past
    double range with the same message, as when every one was a Fraction."""
    return Fraction(c) if c.__class__ is int else c


def _times(c: Number, v: Number) -> Number:
    """c * v for a coefficient c and a coefficient or constant's value v."""
    if v.__class__ is Fraction and v.denominator == 1:
        v = v.numerator
    if (c.__class__ in _EXACT) is not (v.__class__ in _EXACT):
        return _rational(c) * _rational(v)
    return v if c.__class__ is int and c == 1 else c * v


def _plus(c: Number, v: Number) -> Number:
    """c + v, as _times reads them."""
    if v.__class__ is Fraction and v.denominator == 1:
        v = v.numerator
    if (c.__class__ in _EXACT) is not (v.__class__ in _EXACT):
        return _rational(c) + _rational(v)
    return c + v


def _in_range(c: Expr) -> Expr:
    """The constant c; SingularEvaluation if its value is a float or complex
    out of double range, which simplify must not keep."""
    v = c.value
    if isinstance(v, (float, complex)) and not cmath.isfinite(v):
        raise SingularEvaluation(f"constant out of floating-point range: {v}")
    return c


def _is_const(e: Expr, v=None) -> bool:
    return e.kind == CONST and (v is None or e.value == v)


def _int_exponent(e: Expr) -> int | None:
    """The exponent as a Python int when it is an integer-valued constant."""
    if e.kind != CONST:
        return None
    v = e.value
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return None


def _power_of(base: Expr, k: int) -> Expr:
    """base^k for an integer k, or base itself when k is 1; one node per
    (base, k) in a simplify call."""
    if k == 1:
        return base
    powers = _BUILT.get()
    p = powers.get((id(base), k))  # the node holds base, so its id stays its own
    if p is None:
        p = powers[id(base), k] = Expr(POWER, (base, const(k)))
    return p


#: what this simplify call built: the powers _power_of built, by
#: (id(base), k), and each sum _sum_node built, by its id, as (node, the
#: _collect list it was built from, the bases no term shares once
#: _divide_core settled it or None), and by that list's id as the node;
#: the values keep the ids their own
_BUILT: ContextVar[dict] = ContextVar("_BUILT")


def _negated(e: Expr) -> Expr:
    """-e for a simplified e: constants fold and a double minus cancels."""
    if e.kind == CONST:
        return const(-e.value)
    if e.kind == NEGATE:
        return e.args[0]
    return Expr(NEGATE, (e,))


def _split_power(f: Expr) -> tuple[Expr, int]:
    """(base, k) when f is base^k with k an integer, else (f, 1)."""
    if f.kind == POWER:
        e = f.args[1]
        k = _SMALL_EXPONENTS.get(id(e))  # a shared node: read by identity
        if k is None:
            if e.value.__class__ is Fraction and e.kind == CONST:  # exact: read inline
                k = e.value.numerator if e.value.denominator == 1 else None
            else:
                k = _int_exponent(e)
        if k is not None:
            return f.args[0], k
    return f, 1


def _is_quotient(t: Expr) -> bool:
    return t.kind == DIVIDE or (t.kind == NEGATE and t.args[0].kind == DIVIDE)


def simplify(e: Expr, simplified: tuple[Expr, ...] = ()) -> Expr:
    """The simplified tree of e.  Each subtree of the trees in ``simplified``
    must be its own simplified form, as each subtree of a simplify result
    is: such subtrees of e are kept as they are, not simplified again.
    A non-finite float or complex constant, in e or folded from it,
    raises SingularEvaluation: inf and nan have no text form."""
    memo: dict = {}
    stack = list(simplified)
    while stack:
        node = stack.pop()
        if node.args and id(node) not in memo:  # a leaf is never looked up
            memo[id(node)] = node
            stack.extend(node.args)
    token = _BUILT.set({})
    try:
        return _simplify(e, memo)
    except (OverflowError, ZeroDivisionError) as exc:  # a constant over or under range
        raise SingularEvaluation(f"constant out of floating-point range: {exc}") from exc
    except RecursionError:
        raise nested_too_deeply("simplify") from None
    finally:
        _BUILT.reset(token)


def _simplify(e: Expr, memo: dict) -> Expr:
    if e.kind in (CONST, VAR):
        return _in_range(e) if e.kind == CONST else e
    out = memo.get(id(e))
    if out is not None:
        if out.__class__ is not Expr:  # what _raw_terms kept: build its node
            out = memo[id(e)] = _node(out) if out.__class__ is tuple else _sum_node(out)
        return out
    if e.kind == ADD:
        memo[id(e)] = out = _sum_node(_collect(_raw_terms(e, memo)))
        return out
    args = tuple([_simplify(a, memo) for a in e.args])

    if e.kind == NEGATE:
        out = _negated(args[0])
    elif e.kind == MULTIPLY:
        out = _simplify_multiply(args)
    elif e.kind == DIVIDE:
        out = _simplify_divide(*args)
    elif e.kind == POWER:
        out = _simplify_power(*args)
    elif e.kind == CALL:
        out = _simplify_call(e.name, args[0])
    else:
        raise AssertionError(f"unreachable node kind {e.kind}")
    memo[id(e)] = out
    return out


def _raw_terms(e: Expr, memo: dict) -> list:
    """_flat of the simplified arguments of the raw sum e, as terms: a raw
    sum's collected terms are spliced in without building its node, and a
    raw product is its product term.  memo keeps what was spliced in (the
    collect's entries, or the product term) under the node's id, so a
    shared raw sum or product is collected once."""
    terms: list = []
    for a in e.args:
        out = memo.get(id(a))
        if out is None:
            if a.kind == ADD:
                out = _collect(_raw_terms(a, memo))
                if out.__class__ is not list or len(out) == 1:
                    out = _sum_node(out)
                memo[id(a)] = out
            elif a.kind == MULTIPLY:
                out = memo[id(a)] = _product_term(tuple([_simplify(f, memo) for f in a.args]))
            else:
                out = _simplify(a, memo)
        if out.__class__ is list:
            terms.extend([t for _, _, t in out])  # none is a sum
        elif out.__class__ is tuple:
            terms.append(out)
        else:
            terms.extend(out.args if out.kind == ADD else (out,))
    return terms


def _flat(terms) -> list:
    """The terms, each sum node replaced by its terms."""
    return [u for t in terms for u in (t.args if t.__class__ is Expr and t.kind == ADD else (t,))]


def _collect(terms: list) -> list | Expr:
    """Combine like terms (nodes or product terms) of a sum exactly.

    Returns the surviving terms in order as (factors, coefficient, term),
    the folded constant last when it is nonzero or nothing else survives;
    factors and coefficient are what _split_quotient reads from the term's
    node, or None for a rebuilt node, read when needed.  A sum that keeps a
    quotient beside another term is returned as one quotient node instead.
    """
    # factor multiset -> [summed coefficient, factors as first seen, term to
    # keep, whether those factors are a product term's (stable, see _merge)]
    like: dict[frozenset, list] = {}
    constant: Number = 0
    for t in terms:
        if t.__class__ is Expr:
            kind = t.kind
            if kind == CONST:
                constant = _plus(constant, t.value)
                continue
            if kind == DIVIDE:  # a quotient stays whole
                coeff, factors = 1, [t]
            elif kind == NEGATE and t.args[0].kind == DIVIDE:
                coeff, factors = -1, [t.args[0]]
            else:
                factors, _, coeff = _split_quotient(t)
            keep = t if kind != NEGATE and coeff.__class__ in _EXACT else None
        else:
            coeff, factors, sign, _ = t
            keep = t if sign != -1 and coeff.__class__ in _EXACT else None
        key = frozenset(factors)
        if len(key) < len(factors):  # a factor repeats: key the multiset
            key = frozenset(Counter(factors).items())
        entry = like.get(key)
        if entry is not None:
            entry[0] = _plus(entry[0], coeff)
            entry[2] = None
        else:
            like[key] = [coeff, factors, keep, t.__class__ is tuple]

    out: list[tuple] = []
    quotients = False
    for coeff, factors, t, stable in like.values():
        if coeff == 0:
            continue
        if t is None:  # _simplify_multiply((const(coeff), *factors)), as a term
            if coeff == 1 and len(factors) == 1:
                t = factors[0]
            elif stable:  # which _flatten and _merge keep as they are
                t = _term(coeff if coeff.__class__ in _EXACT else 1 * const(coeff).value,
                          factors)
            else:
                t = _product_term((const(coeff), *factors))
            factors, coeff = (None, None) if t.__class__ is Expr else (t[1], t[0])
        quotients = quotients or (t.__class__ is Expr and _is_quotient(t))
        out.append((factors, coeff, t))

    # bring sums of quotients over one denominator so like terms can meet
    if quotients and len(out) + (constant != 0) > 1:
        combined = [_node(t) for _, _, t in out]
        if constant != 0:
            combined.append(_in_range(const(constant)))
        return _combine_quotients(combined)
    if constant != 0 or not out:
        out.append((None, None, _in_range(const(constant))))
    return out


def _sum_node(collected: list | Expr) -> Expr:
    """The node of what _collect returns, one per list in a simplify call."""
    if collected.__class__ is Expr:
        return collected
    if len(collected) == 1:
        return _node(collected[0][2])
    built = _BUILT.get()
    out = built.get(id(collected))
    if out is None:
        out = built[id(collected)] = Expr(ADD, tuple([_node(t) for _, _, t in collected]))
        built[id(out)] = out, collected, None
    return out


def _tally_factors(parts) -> tuple[dict[Expr, int], list[Expr]]:
    """Split factors into (base -> positive int exponent, opaque leftovers)."""
    exps: dict[Expr, int] = {}
    opaque: list[Expr] = []
    for f in parts:
        base, exp = _split_power(f)
        if base.kind == CONST or exp < 1 or (base is f and f.kind == POWER):
            opaque.append(f)
        else:
            exps[base] = exps.get(base, 0) + exp
    return exps, opaque


def _combine_quotients(terms: list[Expr]) -> Expr:
    """Rewrite t1 + t2 + ... as one quotient over the least common denominator."""
    info = []
    lcd_exps: Counter = Counter()
    lcd_opaque: Counter = Counter()
    for t in terms:
        nums, dens, cst = _split_quotient(t)
        exps, opaque = _tally_factors(dens)
        opq = Counter(opaque)
        info.append((nums, cst, exps, opq))
        lcd_exps |= exps
        lcd_opaque |= opq

    new_terms = []
    for nums, cst, exps, opq in info:
        extra: list[Expr] = []
        for b, k in lcd_exps.items():
            missing = k - exps.get(b, 0)
            if missing:
                extra.append(_power_of(b, missing))
        for o, k in lcd_opaque.items():
            extra.extend([o] * (k - opq[o]))
        new_terms.append(_simplify_multiply((const(cst), *nums, *extra)))

    den_factors = [_power_of(b, k) for b, k in lcd_exps.items()]
    den_factors.extend(lcd_opaque.elements())
    num_node = _sum_node(_collect(_flat(new_terms)))
    den_node = _simplify_multiply(tuple(den_factors)) if den_factors else const(1)
    return _simplify_divide(num_node, den_node)


def _flatten(args) -> tuple:
    """(coefficient, factors, denominators) of the product of args, which
    are simplified nodes or terms (read as their nodes): nested products
    flatten, a negation flips the sign, constants multiply in and a
    quotient's denominator is set aside."""
    constant: Number = 1
    factors: list[Expr] = []
    denominators: list[Expr] = []
    stack = list(reversed(args))
    while stack:
        f = stack.pop()
        if f.__class__ is tuple:  # a term: its node's sign, coefficient and factors
            _, parts, sign, v = f
            constant = -constant if sign == -1 else _times(constant, v) if not sign else constant
            factors.extend(parts)  # stable: none of them is taken apart
            continue
        kind = f.kind
        if kind == MULTIPLY:
            stack.extend(reversed(f.args))
        elif kind == NEGATE:
            constant = -constant
            stack.append(f.args[0])
        elif kind == CONST:
            constant = _times(constant, f.value)
        elif kind == DIVIDE:
            stack.append(f.args[0])
            denominators.append(f.args[1])
        else:
            factors.append(f)
    return constant, factors, denominators


def _simplify_multiply(args: tuple[Expr, ...]) -> Expr:
    """Flatten and fold a product of already-simplified factors.

    Quotient factors are lifted (a * (b/c) -> a*b / c) so a simplified
    multiply never directly contains a divide; repeated bases merge
    into integer powers.
    """
    return _node(_product_term(args))


def _product_term(args):
    """_simplify_multiply(args) as a term (see _term)."""
    constant, factors, denominators = _flatten(args)
    if constant == 0:
        return const(0)
    if denominators:
        return _simplify_divide(_rebuild_product(constant, factors),
                                _simplify_multiply(tuple(denominators)))
    return _term(*_merge(constant, factors))


def _rebuild_product(constant: Number, factors: list[Expr]) -> Expr:
    """constant times the factors as one node (see _merge)."""
    return _node(_term(*_merge(constant, factors)))


def _merge(constant: Number, factors: list[Expr]) -> tuple[Number, list[Expr], bool]:
    """(coefficient, factors, stable) of constant times the factors.

    Repeated bases merge into integer powers (x * x^2 -> x^3) and constant
    factors fold into the coefficient.  A power with a non-integer
    exponent merges into an earlier entry of that whole power as base, but
    never starts an entry.  A factor whose base meets no other is kept as
    it is unless its exponent is not a Fraction (x^2.0 is rebuilt as x^2),
    as _collect keeps a term that meets no like term unless it is negated
    or its coefficient is not a Fraction.  The factors are stable
    (_flatten and _merge return them as they are) unless one is a product,
    a negation or a quotient, or is a base that is a power, left alone by
    exponents that sum to 1.
    """
    merged: list[list] = []  # [base, summed exponent or None (kept whole), factor to keep]
    open_entries: dict[Expr, list] = {}  # base -> its entry with an exponent
    stable = True
    for f in factors:
        if f.kind == POWER:
            base, k = _split_power(f)
        else:
            base, k = f, 1
            stable = stable and f.kind not in _UNSTABLE
        if base is f and f.kind == POWER:  # kept whole
            entry = open_entries.get(base)
            if entry is None:
                merged.append([f, None, f])
                continue
        else:  # one hash of base for a new entry
            keep = f if base is f or f.args[1].value.__class__ is Fraction else None
            new = [base, k, keep]
            entry = open_entries.setdefault(base, new)
            if entry is new:
                merged.append(entry)
                continue
        entry[1] += k
        entry[2] = None
    rest: list[Expr] = []
    for base, k, f in merged:
        if k == 0:
            continue
        if f is None:
            f = _power_of(base, k)
            stable = stable and (f is not base or base.kind not in _UNSTABLE)
        if f.kind == CONST:
            constant = _times(constant, f.value)
        else:
            rest.append(f)
    return constant, rest, stable


#: kinds of a factor that _flatten or _split_power takes apart
_UNSTABLE = (MULTIPLY, NEGATE, DIVIDE, POWER)


def _term(constant: Number, factors: list[Expr], stable: bool = True):
    """constant times merged factors as a term: the node _node builds where
    that node costs nothing, is a constant or has unstable factors (see
    _merge), else (coefficient as _split_quotient reads it from that node,
    factors, sign, coefficient value).  The node is 0 or the constant
    without factors, a lone factor times 1, or the product of the factors
    after a coefficient node (sign 0); a coefficient of 1 or -1 gets none
    (sign 1 or -1), and -1 negates the product.
    """
    exact = constant.__class__ in _EXACT  # tested through numerator and denominator
    n = constant.numerator if exact else constant
    if n == 0:
        return const(0)
    if not factors:
        return _in_range(const(constant))
    if (n == 1 or n == -1) and (not exact or constant.denominator == 1):
        if n == 1 and len(factors) == 1:
            return factors[0]
        t = (1, factors, 1, None) if n == 1 else (-1, factors, -1, None)
    elif exact:  # const(constant) holds an equal Fraction
        t = constant, factors, 0, constant
    else:
        v = _in_range(const(constant)).value
        t = 1 * (1 * v), factors, 0, v
    return t if stable else _node(t)


def _node(t) -> Expr:
    """The node of a term."""
    if t.__class__ is Expr:
        return t
    _, factors, sign, v = t
    if not sign:
        factors = (const(v), *factors)
    out = factors[0] if len(factors) == 1 else Expr(MULTIPLY, tuple(factors))
    return Expr(NEGATE, (out,)) if sign == -1 else out


def _expand(t, out: list) -> None:
    """Append the terms of t (a node or a term), each product distributed
    over its sum factors and each minus carried into a coefficient, as
    _simplify_multiply would build them.  Powers of sums stay atomic; the
    terms add up to t exactly."""
    if t.__class__ is Expr:
        kind = t.kind
        if kind == ADD:
            for a in t.args:
                _expand(a, out)
            return
        if kind != NEGATE:
            if kind == MULTIPLY and any([f.kind == ADD for f in t.args]):
                _distribute(t.args, out)
            else:
                out.append(t)
            return
        inner = t.args[0]
    else:
        _, factors, sign, v = t
        if sign != -1:
            if any([f.kind == ADD for f in factors]):
                _distribute(factors, out, () if sign else ((v, (), 0, v),))
            else:
                out.append(t)
            return
        inner = factors[0] if len(factors) == 1 else (1, factors, 1, None)
    negated: list = []
    _expand(inner, negated)
    out.extend([_negated_term(u) for u in negated])


def _negated_term(t):
    """_simplify_multiply((const(-1), node of t)) as a term."""
    if t.__class__ is Expr:
        return _product_term((const(-1), t))
    _, factors, sign, v = t  # stable: _flatten and _merge keep them
    return _term(-1 * v if not sign else -sign, factors)


def _distribute(factors, out: list, lead: tuple = ()) -> None:
    """Append the terms of the product of lead (terms) and the factors, some
    of them sums: each product of one term per sum, expanded in turn.  A
    sum _sum_node built gives the terms it was built from, which _flatten
    reads without taking their nodes apart."""
    head = [f for f in factors if f.kind != ADD]
    combos: list[tuple] = [()]
    for f in factors:
        if f.kind == ADD:
            built = _BUILT.get().get(id(f))
            terms = f.args if built is None else [t for _, _, t in built[1]]
            combos = [c + (t,) for c in combos for t in terms]
    for picks in combos:
        _expand(_product_term((*lead, *head, *picks)), out)


def _simplify_divide(num: Expr, den: Expr) -> Expr:
    negated = (num.kind == NEGATE) != (den.kind == NEGATE)
    if num.kind == NEGATE:
        num = num.args[0]
    if den.kind == NEGATE:
        den = den.args[0]
    out = _divide_core(num, den)
    return _negated(out) if negated else out


def _split_quotient(e: Expr) -> tuple[list[Expr], list[Expr], Number]:
    """Decompose into (numerator factors, denominator factors, constant)."""
    nums: list[Expr] = []
    dens: list[Expr] = []
    constant: Number = 1
    sign = 1
    if e.kind == NEGATE:
        sign = -1
        e = e.args[0]
    if e.kind == DIVIDE:
        top, bottom = e.args
    else:
        top, bottom = e, None
    for part, sink in ((top, nums), (bottom, dens)):
        if part is None:
            continue
        for f in (part.args if part.kind == MULTIPLY else (part,)):
            if f.kind == CONST:
                if sink is nums:
                    constant = _times(constant, f.value)
                elif f.value != 0:
                    constant = (constant if f.value.__class__ is Fraction else _rational(constant)
                                ) / f.value
                else:
                    sink.append(f)
            else:
                sink.append(f)
    if sign == 1 and constant.__class__ in _EXACT:
        return nums, dens, constant
    return nums, dens, sign * constant


def _common_bases(total, wanted: set[Expr]) -> tuple | None:
    """(common, terms, read) for the bases in wanted that every term of
    total (a sum node or a _collect list) holds, or None if there is none.
    common maps the id of each, as wanted holds it, to [the base as the
    last term holds it, its least exponent], in that term's order; terms
    are (factors, coefficient, term) as _split_quotient reads them; read
    maps the id of each factor to (base, exponent, that base's id in wanted
    or None, whether _tally_factors counts it).  The terms are read from
    the last, which most often is the first to share nothing."""
    canon = {b: id(b) for b in wanted}
    read: dict[int, tuple] = {}
    terms = []
    common: dict | None = None
    for factors, coeff, t in reversed(total if total.__class__ is list
                                      else [(None, None, t) for t in total.args]):
        if factors is None:
            factors, _, coeff = _split_quotient(t)
        terms.append((factors, coeff, t))
        tally: dict[int, list] = {}
        for f in factors:
            r = read.get(id(f))
            if r is None:
                base, exp = _split_power(f) if f.kind == POWER else (f, 1)
                r = read[id(f)] = (base, exp, canon.get(base),
                                   exp >= 1 and not (base is f and f.kind == POWER))
            if r[3] and r[2] is not None and (common is None or r[2] in common):
                tally.setdefault(r[2], [r[0], 0])[1] += r[1]
        common = tally if common is None else {
            c: [b, min(k, tally[c][1])] for c, (b, k) in common.items() if c in tally}
        if not common:
            return None
    return common, terms[::-1], read


def _extract_common_factors(total, wanted: set[Expr]) -> tuple | None:
    """Pull factors shared by every term of a sum, restricted to wanted bases.

    total is a sum node or a _collect list.  Returns (factor nodes, reduced
    sum as _collect returns it), whose product equals the sum exactly, or
    None when no factor is shared.  Used so a sum-numerator can cancel
    against the denominator of the enclosing quotient.  No two reduced
    terms can meet, and they are not collected again, when total is a
    _collect list whose terms keep the factors they were keyed by (product
    terms: _merge gives back a simplified node's factors; and nodes kept
    as read), each with each shared base (read as itself) in one factor:
    the reduced factors then give back the original ones.
    """
    found = _common_bases(total, wanted)
    if found is None:
        return None
    common, terms, read = found
    direct = (total.__class__ is list and all([e[0] is not None for e in total])
              and all([_split_power(b)[0] is b for b, _ in common.values()]))
    reduced_terms = []
    for parts, constant, t in terms:
        # a product term's factors stay stable with lower powers of their
        # bases, unless a base left alone is a power
        stable = t.__class__ is tuple
        remaining = {c: k for c, (_, k) in common.items()}
        kept: list[Expr] = []
        held = 0  # factors on a shared base
        for f in parts:
            base, exp, c, _ = read[id(f)]
            take = remaining.get(c, 0)
            held += c in remaining
            if take:
                drop = min(take, exp)
                remaining[c] = take - drop
                if exp > drop:
                    kept.append(_power_of(base, exp - drop))
                    stable = stable and (exp - drop > 1 or base.kind not in _UNSTABLE)
            else:
                kept.append(f)
        r = _term(constant, kept) if stable else _term(*_merge(constant, kept))
        # as _collect keeps it: a product term with an exact coefficient (a
        # negated one rebuilt equal), a factor, or an exact constant, put last
        direct = direct and held == len(common) and (
            r[0].__class__ in _EXACT if r.__class__ is tuple else r.kind in (POWER, CALL, VAR)
            or (r.kind == CONST and r.value.__class__ is Fraction))
        reduced_terms.append(r)
    factors = [_power_of(b, k) for b, k in common.values()]
    if not direct:
        return factors, _collect(_flat(reduced_terms))
    last = [(None, None, r) for r in reduced_terms if r.__class__ is Expr and r.kind == CONST]
    return factors, [(r[1], r[0], r) if r.__class__ is tuple else ([r], 1, r)
                     for r in reduced_terms if r.__class__ is tuple or r.kind != CONST] + last


def _divide_core(num, den: Expr) -> Expr:
    """num / den for simplified nodes.  num may be a sum as the _collect list
    (of two or more terms) that the pass before hands on unbuilt, over a
    product, power, call or variable: its terms expand as its node's
    would, and the node is built only where it is kept or compared."""
    lazy = num.__class__ is list
    if lazy:
        n_nums, n_dens, n_const = [], [], 1
    else:
        if _is_const(den, 1):
            return num
        if _is_const(num, 0) and not _is_const(den, 0):
            return const(0)
        if num.kind == CONST and den.kind == CONST and den.value != 0:
            return _in_range(const(num.value / den.value))
        if num.kind == den.kind and num == den and not _is_const(num, 0):
            return const(1)
        # flatten nested quotients into one numerator/denominator factor list
        n_nums, n_dens, n_const = _split_quotient(num)
    d_nums, d_dens, d_const = _split_quotient(den)
    num_parts: list = n_nums + d_dens
    den_parts = n_dens + d_nums
    divide_by: Number = d_const

    # normalize the numerator to a collected sum of monomial terms so the
    # cancellation below can see every factor; a sum stays a _collect list.
    # A sum settled over D and now over D times more (see _settled) is
    # that list already, sharing no factor on the bases in unshared
    built = (len(n_nums) == 1 and not d_dens and n_const.__class__ is int and n_const == 1
             and _BUILT.get().get(id(n_nums[0])))
    if built and built[2] is not None:
        total, unshared = built[1], built[2]
    else:
        terms: list = []
        for t in [e[2] for e in num] if lazy else [_product_term((const(n_const), *num_parts))]:
            _expand(t, terms)
        total, unshared = _collect(_flat(terms)) if len(terms) > 1 else _node(terms[0]), set()
    whole = total.__class__ is list and len(total) > 1
    if whole:
        num_parts, constant = [total], 1
    else:
        num_parts, stray_dens, constant = _split_quotient(_sum_node(total))
        den_parts = den_parts + stray_dens

    # a sum-numerator can still cancel if all its terms share denominator
    # bases; summed is the last such sum, built from collected, which
    # shares none of the bases in scanned.  If the numerator was one sum,
    # summed stays its _collect list until it is kept
    den_bases = set(_tally_factors(den_parts)[0])
    wanted = den_bases - unshared
    summed = None
    expanded: list[Expr] = []
    for part in num_parts:
        if part.__class__ is list or (den_bases and part.kind == ADD):
            got = _extract_common_factors(part, wanted) if wanted else None
            if got is not None:
                expanded.extend(got[0])
                part = got[1]
            if part.__class__ is list:
                collected, scanned = part, (den_bases if got is None else set())
                summed = part if len(part) > 1 and whole else (
                    _sum_node(part) if len(part) > 1 else None)
                if summed is part:
                    continue
                part = summed or _sum_node(part)
        expanded.append(part)

    # cancel shared bases power-aware and multiset-wise: keys are bases,
    # values are accumulated integer exponents
    num_exps, num_opaque = _tally_factors(expanded)
    den_exps, den_opaque = _tally_factors(den_parts)
    if summed.__class__ is list and any([_same(b, summed) for b in (*num_exps, *den_exps)]):
        summed = _sum_node(summed)  # it meets a base
        num_exps[summed] = num_exps.get(summed, 0) + 1
    for base in den_exps:
        if base in num_exps:
            k = min(num_exps[base], den_exps[base])
            num_exps[base] -= k
            den_exps[base] -= k
    num_powers = [_power_of(b, k) for b, k in num_exps.items() if k]
    den_powers = [_power_of(b, k) for b, k in den_exps.items() if k]
    new_den = _rebuild_product(divide_by, den_powers + den_opaque)
    alone = summed.__class__ is list and not (num_powers or num_opaque)
    if summed.__class__ is list and not alone:
        summed = _sum_node(summed)
        num_powers.append(summed)
    new_num = summed if alone else _rebuild_product(constant, num_powers + num_opaque)

    if new_den == den and _same(new_num, num):
        return Expr(DIVIDE, (_sum_node(num), den))
    if new_num is summed:  # stop where the next call would return its input
        unsigned = new_den.args[0] if new_den.kind == NEGATE else new_den
        settled = _settled(unsigned, collected, scanned)
        if settled is not None:
            summed = _sum_node(summed)
            if settled[1]:
                _BUILT.get()[id(summed)] = summed, collected, {*scanned, *settled[0]}
            out = Expr(DIVIDE, (summed, unsigned))
            return out if unsigned is new_den else Expr(NEGATE, (out,))
        if alone:  # the next pass reads the sum's terms
            out = _divide_core(summed if unsigned.kind in (MULTIPLY, POWER, CALL, VAR)
                               else _sum_node(summed), unsigned)
            return out if unsigned is new_den else _negated(out)
    return _simplify_divide(new_num, new_den)


def _same(a, b) -> bool:
    """a == b for nodes or sums as _collect lists (of two or more terms),
    whose nodes are built only to meet a sum of as many terms."""
    if list in (a.__class__, b.__class__):
        n = [len(x) if x.__class__ is list else len(x.args) if x.kind == ADD else 0
             for x in (a, b)]
        if n[0] != n[1]:
            return False
        a, b = _sum_node(a), _sum_node(b)
    return a == b


def _settled(den: Expr, collected: list, scanned: set) -> tuple | None:
    """None unless _divide_core(sum of collected, den) returns its input,
    for a _collect list of two or more terms that shares no factor on the
    bases in scanned; else (den's bases, whether that call gives back each
    term's node as it is or with the same repr).

    That call reads den, which has no sign and no constant factor, as its
    own factors, and returns its input when:
    - expanding and collecting the sum gives an equal sum: no term holds a
      sum factor (or is a sum, a quotient, a negated constant or a constant
      before the last), the terms' factor sets differ and each is kept or
      rebuilt equal.  A term comes back as it is, or with the same repr,
      when it keeps the factors it was collected under: a product term with
      an exact coefficient, a node kept as read, or an exact constant;
    - the sum is not a base of den, and den tallies and rebuilds to itself;
    - no base of den is a factor of every term, so none is taken out.
    """
    kind = den.kind
    if kind in (CONST, NEGATE, DIVIDE) or _same(den, collected):
        return None
    factors = den.args if kind == MULTIPLY else (den,)
    if any([f.kind == CONST for f in factors]):
        return None
    exps, opaque = _tally_factors(factors)
    if any([_same(b, collected) for b in exps]) or _rebuild_product(
            1, [_power_of(b, k) for b, k in exps.items()] + opaque) != den:
        return None
    last, same = len(collected) - 1, True
    for i, (parts, _, t) in enumerate(collected):
        if t.__class__ is tuple:  # its node: a product, or one factor and a sign
            same = same and t[0].__class__ in _EXACT
            if not t[2] or len(t[1]) > 1:
                if any([f.kind == ADD for f in t[1]]):
                    return None
                continue
            t, negated = t[1][0], t[2] == -1
        else:
            same = same and (parts is not None or t.value.__class__ is Fraction)
            negated = t.kind == NEGATE
            if negated:
                t = t.args[0]
        kind = t.kind
        if kind == MULTIPLY:
            if any([f.kind == ADD for f in t.args]):
                return None
        elif kind in (ADD, DIVIDE, NEGATE) or (kind == CONST and (negated or i < last)):
            return None
    if exps.keys() <= scanned or _common_bases(collected, exps) is None:
        return exps.keys(), same
    return None


def _simplify_power(base: Expr, exponent: Expr) -> Expr:
    if _is_const(exponent, 0):
        return const(1)
    if _is_const(exponent, 1):
        return base
    if _is_const(base, 1):
        return const(1)
    n = _int_exponent(exponent)
    if _is_const(base, 0):
        ev = exponent.value if exponent.kind == CONST else None
        if ev is not None and not isinstance(ev, complex) and ev > 0:
            return const(0)
    if base.kind == CONST and n is not None and _fold_fits(base.value, n):
        try:
            return _in_range(const(base.value ** n))
        except (ZeroDivisionError, OverflowError):
            pass
    if n is not None:
        # integer powers distribute exactly over signs, products, quotients
        if base.kind == NEGATE:
            inner = _simplify_power(base.args[0], const(n))
            return inner if n % 2 == 0 else _negated(inner)
        if base.kind == MULTIPLY:
            return _simplify_multiply(
                tuple(_simplify_power(f, const(n)) for f in base.args))
        if base.kind == DIVIDE:
            top = _simplify_power(base.args[0], const(n))
            bottom = _simplify_power(base.args[1], const(n))
            return _simplify_divide(top, bottom)
        if base.kind == POWER:
            m = _int_exponent(base.args[1])
            if m is not None:
                return _simplify_power(base.args[0], const(m * n))
    return Expr(POWER, (base, exponent))


def _fold_fits(v: Number, n: int) -> bool:
    """Whether v**n may fold: a float always, a Fraction within MAX_FOLD_BITS."""
    return not isinstance(v, Fraction) or abs(n) * max(
        v.numerator.bit_length(), v.denominator.bit_length()) <= MAX_FOLD_BITS


_EXACT_CALLS = {
    ("exp", Fraction(0)): const(1),
    ("log", Fraction(1)): const(0),
    ("sin", Fraction(0)): const(0),
    ("cos", Fraction(0)): const(1),
    ("tan", Fraction(0)): const(0),
    ("sinh", Fraction(0)): const(0),
    ("cosh", Fraction(0)): const(1),
    ("sqrt", Fraction(0)): const(0),
    ("sqrt", Fraction(1)): const(1),
}


def _simplify_call(name: str, arg: Expr) -> Expr:
    if arg.kind == CONST:
        folded = _EXACT_CALLS.get((name, arg.value))
        if folded is not None:
            return folded
    return Expr(CALL, (arg,), name=name)


# --------------------------------------------------------------------------
# evaluation: evaluate, evaluate_many's block steps and the oracle's jets keep
# one contract: _tape's order, DIVISION_FLOOR and PRINCIPAL_BRANCH
# --------------------------------------------------------------------------

def _on_principal_branch(u: complex) -> complex:
    # pin the branch cut to the limit from above: -0.0 imaginary parts
    # would otherwise flip log/sqrt/power across the cut depending on
    # how a real value was computed
    return complex(u.real, 0.0) if u.imag == 0.0 else u


def evaluate(e: Expr, at: complex) -> complex:
    """Evaluate the tree at a complex point.

    log, sqrt and non-integer powers use the principal branch.
    SingularEvaluation is raised by a constant beyond double range, a
    division with |denominator| < DIVISION_FLOOR, a power or function
    that fails, a function value that is not finite, and a result that
    is not finite; of several, the first in tape order (a quotient's
    numerator before its denominator).  Other intermediates may be
    infinite: exp(z - 1e308*10) is 0j at z = 0.  A non-finite point
    raises ValueError.
    """
    return evaluator(at)(e)


def evaluator(at: complex) -> Callable[[Expr], complex]:
    """``lambda e: evaluate(e, at)`` bit for bit, exceptions too, for trees
    that share nodes (a ladder's entries share most of theirs): a node
    shared by identity is evaluated once over all the calls.  The trees
    are kept alive with the function, so their ids stay their own."""
    z = complex(at)
    if not cmath.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {at!r}")
    memo: dict[int, complex] = {}
    kept: list[Expr] = []

    def value(e: Expr) -> complex:
        kept.append(e)
        try:
            out = _eval(e, z, memo)
        except RecursionError:
            raise nested_too_deeply("evaluate") from None
        if not cmath.isfinite(out):
            raise SingularEvaluation(f"non-finite value at z={z}")
        return out
    return value


def _eval(e: Expr, z: complex, memo: dict[int, complex]) -> complex:
    kind = e.kind
    if kind == CONST:
        try:
            return complex(e.value)
        except OverflowError as exc:
            raise SingularEvaluation(f"constant out of floating-point range: {exc}") from exc
    if kind == VAR:
        return z
    out = memo.get(id(e))
    if out is not None:
        return out
    if kind == ADD:
        out = sum((_eval(a, z, memo) for a in e.args), complex(0))
    elif kind == NEGATE:
        out = -_eval(e.args[0], z, memo)
    elif kind == MULTIPLY:
        out = complex(1)
        for a in e.args:
            out *= _eval(a, z, memo)
    elif kind == DIVIDE:
        num, den = _eval(e.args[0], z, memo), _eval(e.args[1], z, memo)
        if abs(den) < DIVISION_FLOOR:
            raise SingularEvaluation(f"division by ~0 at z={z}")
        out = num / den
    elif kind == POWER:
        base = _eval(e.args[0], z, memo)
        n = _int_exponent(e.args[1])
        try:
            out = base ** n if n is not None else (
                _on_principal_branch(base) ** _eval(e.args[1], z, memo))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise SingularEvaluation(f"power undefined at z={z}: {exc}") from exc
    elif kind == CALL:
        u = _eval(e.args[0], z, memo)
        if e.name in PRINCIPAL_BRANCH:
            u = _on_principal_branch(u)
        try:
            out = FUNCTIONS[e.name][0](u)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise SingularEvaluation(f"{e.name} undefined at z={z}: {exc}") from exc
        if not cmath.isfinite(out):
            raise SingularEvaluation(f"{e.name} non-finite at z={z}")
    else:
        raise AssertionError(f"unreachable node kind {kind}")
    memo[id(e)] = out
    return out


#: points evaluate_many runs each tape step over at once
BLOCK = 256


def evaluate_many(e: Expr, points: list) -> list[complex]:
    """``[evaluate(e, z) for z in points]`` bit for bit, exceptions too.

    Each step of the tree's tape is bound once to a closure that runs it
    over a block of at most BLOCK points.  A block where a check of
    evaluate could fire (a divisor under DIVISION_FLOOR, a value that is
    not finite) runs again point by point through evaluate, so the first
    failing point raises evaluate's exception, the first in tape order."""
    try:
        steps = _tape(e)
    except RecursionError:
        raise nested_too_deeply("evaluate") from None
    last = {i: n for n, step in enumerate(steps) for i in step[3]}  # each slot's last reader
    dead: list[list[int]] = [[] for _ in steps]
    for i, n in last.items():
        if i:  # slot 0, the variable's, stays
            dead[n].append(i)
    tape = [(_block_step(*step), d) for step, d in zip(steps, dead)]
    out: list[complex] = []
    for start in range(0, len(points), BLOCK):
        block = points[start:start + BLOCK]
        try:
            values = [_finite([complex(p) for p in block])]
            for step, dead in tape:
                values.append(step(values))
                for i in dead:
                    values[i] = None
            out += _finite(values[-1])
        except (ArithmeticError, ValueError, TypeError):  # a check could fire
            out += [evaluate(e, z) for z in block]
    return out


def _tape(e: Expr) -> list[tuple]:
    """e as plain data that each number model runs its own way: one step
    ``(kind, name, value, inputs)`` per distinct node (by identity), children
    first and left to right; every route reports the first step to fail in
    this order (a quotient's numerator before its denominator).  value is a
    constant's value, an integer power's exponent (its subtree is never
    read) or None; inputs are the slots read, slot 0 the variable's and
    slot i step i-1's.  A RecursionError on a too-deep tree propagates."""
    steps: list[tuple] = []
    slots: dict[int, int] = {}

    def slot(e: Expr) -> int:  # one frame per tree level
        if e.kind == VAR or id(e) in slots:  # the variable's slot is 0
            return slots.get(id(e), 0)
        value, args = e.value, e.args
        if e.kind == POWER:
            value = _int_exponent(args[1])
            if value is not None:
                args = args[:1]
        steps.append((e.kind, e.name, value, tuple(map(slot, args))))
        slots[id(e)] = len(steps)
        return len(steps)

    slot(e)
    return steps


def _block_step(kind: str, name: str, value, inputs: tuple[int, ...]) -> Callable:
    """A step as _eval runs its node, over a block: v[i] is slot i's values."""
    a = inputs[0] if inputs else 0
    if kind == CONST:  # converted per block: one beyond double range fails it
        return lambda v: [complex(value)] * len(v[0])
    if kind == ADD:
        return lambda v: list(map(sum, zip(*[v[t] for t in inputs]), repeat(complex(0))))
    if kind == NEGATE:
        return lambda v: [-x for x in v[a]]
    if kind == MULTIPLY:
        return lambda v: reduce(lambda out, f: [p * x for p, x in zip(out, v[f])],
                                inputs, [complex(1)] * len(v[0]))
    if kind == DIVIDE:
        def divide(v):
            _check(min(map(abs, v[inputs[1]])) >= DIVISION_FLOOR)  # a nan min fails it
            return [x / y for x, y in zip(v[a], v[inputs[1]])]
        return divide
    if kind == POWER and value is not None:
        return lambda v: [x ** value for x in v[a]]
    if kind == POWER:
        return lambda v: [x ** y for x, y in zip(map(_on_principal_branch, v[a]), v[inputs[1]])]
    rule, pin = FUNCTIONS[name][0], name in PRINCIPAL_BRANCH
    return lambda v: _finite(list(map(rule, map(_on_principal_branch, v[a]) if pin else v[a])))


def _check(ok: bool) -> None:
    if not ok:
        raise ArithmeticError("a check of evaluate could fire in this block")


def _finite(values: list[complex]) -> list[complex]:
    _check(all(map(cmath.isfinite, values)))
    return values


# --------------------------------------------------------------------------
# formatting
#
# Precedence levels used for parenthesization; higher binds tighter.
# add=1, multiply/divide=2, unary minus=3, power=4, atom=5.  Constants
# printed as "p/q" act like level 2, negative ones like level 3.
# --------------------------------------------------------------------------

def format_expr(e: Expr) -> str:
    """Render the simplified tree as grammar text.

    The output re-parses to a tree structurally equal to
    ``simplify(e)``.  Constants with a nonzero imaginary part have no
    literal syntax and are rejected.
    """
    return _fmt(simplify(e), 0)


def _const_text(v: Number) -> tuple[str, int]:
    if isinstance(v, complex):
        if v.imag != 0.0:
            raise ValueError(f"complex constant {v!r} has no text form")
        v = v.real
    if isinstance(v, Fraction):
        text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    else:
        text = repr(float(v))
    level = 5
    if "/" in text:
        level = 2
    if text.startswith("-"):
        level = 3
    return text, level


def _fmt(e: Expr, need: int) -> str:
    text, level = _fmt_node(e)
    if level < need:
        return f"({text})"
    return text


def _fmt_node(e: Expr) -> tuple[str, int]:
    if e.kind == CONST:
        return _const_text(e.value)
    if e.kind == VAR:
        return e.name, 5
    if e.kind == CALL:
        return f"{e.name}({_fmt(e.args[0], 0)})", 5
    if e.kind == NEGATE:
        return f"-{_fmt(e.args[0], 4)}", 3
    if e.kind == POWER:
        base, exponent = e.args
        return f"{_fmt(base, 5)}^{_fmt(exponent, 4)}", 4
    if e.kind == DIVIDE:
        num, den = e.args
        return f"{_fmt(num, 2)}/{_fmt(den, 4)}", 2
    if e.kind == MULTIPLY:
        parts = [_fmt(e.args[0], 2)]
        parts += [_fmt(a, 4) for a in e.args[1:]]
        return "*".join(parts), 2
    if e.kind == ADD:
        out = _fmt(e.args[0], 2)
        for t in e.args[1:]:
            if t.kind == NEGATE:
                out += f" - {_fmt(t.args[0], 2)}"
            elif t.kind == CONST and _const_text(t.value)[0].startswith("-"):
                neg_text, _ = _const_text(-t.value)
                out += f" - {neg_text}" if "/" not in neg_text else f" - ({neg_text})"
            else:
                out += f" + {_fmt(t, 2)}"
        return out, 1
    raise AssertionError(f"unreachable node kind {e.kind}")


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

#: deepest nesting of parentheses, calls, unary minus and ``^`` that
#: parse() accepts; deeper input raises ParseError instead of exhausting
#: the interpreter stack
MAX_NESTING = 100

_TOKEN = re.compile(r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        self.depth = 0
        self.seen_vars: set[str] = set()
        self._tokenize()

    def _tokenize(self):
        i = 0
        while i < len(self.text):
            if self.text[i].isspace():
                i += 1
                continue
            m = _TOKEN.match(self.text, i)
            if m is None:
                raise ParseError(f"unexpected character {self.text[i]!r}", i)
            number, ident, op = m.groups()
            if number:
                self.tokens.append(("num", number, i))
            elif ident:
                self.tokens.append(("name", ident, i))
            else:
                self.tokens.append(("op", op, i))
            i = m.end()
        self.tokens.append(("end", "", len(self.text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def nested(self, parse_part: Callable[[], Expr], at: int) -> Expr:
        """Run parse_part one nesting level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", at)
        self.depth += 1
        e = parse_part()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self.parse_add()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", at)
        return e

    def parse_add(self) -> Expr:
        terms = [self.parse_mul()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_mul()
                terms.append(term if value == "+" else negate(term))
            else:
                break
        return terms[0] if len(terms) == 1 else Expr(ADD, tuple(terms))

    def parse_mul(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in "*/":
                break
            if value == "*":
                factors = [node]
                while self.peek()[:2] == ("op", "*"):
                    self.advance()
                    factors.append(self.parse_unary())
                node = Expr(MULTIPLY, tuple(factors))
            else:
                self.advance()
                node = divide(node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return negate(self.nested(self.parse_unary, at))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Expr(POWER, (base, self.nested(self.parse_unary, at)))
        return base

    def parse_atom(self) -> Expr:
        kind, value, at = self.advance()
        if kind == "num":
            if "." in value or "e" in value or "E" in value:
                return const(float(value))
            return const(int(value))
        if kind == "op" and value == "(":
            e = self.nested(self.parse_add, at)
            self.expect_op(")")
            return e
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {value!r}", at)
                self.advance()
                arg = self.nested(self.parse_add, at)
                self.expect_op(")")
                return Expr(CALL, (arg,), name=value)
            if len(value) == 1:
                self.seen_vars.add(value)
                if len(self.seen_vars) > 1:
                    raise MultipleVariables(
                        f"multiple variables {sorted(self.seen_vars)}", at)
                return Expr(VAR, name=value)
            raise ParseError(f"unknown name {value!r}", at)
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", at)


def parse(text: str) -> Expr:
    """Parse grammar text into an expression tree.

    Raises ParseError (with position) on malformed input or on nesting
    deeper than MAX_NESTING levels, UnknownFunction for calls outside the
    supported set, and MultipleVariables if two distinct variable letters
    appear.
    """
    return _Parser(text).parse()
