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

#: |denominator| below this raises SingularEvaluation
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
                hash(self) == hash(other)
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
# The derivative builder returns d(f(u))/du as an expression in u.
# Extending the function set means adding one row here plus a jet rule in
# the oracle module.
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
# _divide_core simplifies its rewrite again until a call returns its
# input unchanged (three calls deep on rational-in-sine's ladder).
#
# Node shapes the rules share have one builder each: _power_of (base^k
# for an integer k), _negated (minus a simplified node) and
# _rebuild_product (a signed product with repeated bases merged).  They
# have one reader each: _split_quotient reads a term's numerator and
# denominator factors and its signed constant, and _split_power reads a
# factor's base and integer exponent.  A builder keeps the node it was
# given where the rebuild would have the same repr (== is not enough):
# _rebuild_product a factor whose base met no other, _simplify_add a term
# that met no like term.  Three rebuilds change the repr and still run:
# an integral float exponent (x^2.0 -> x^2), a NEGATE term (-(-3*x) ->
# 3*x) and a non-Fraction coefficient ((-0-1.5j) -> -1.5j).
#
# A simplify call memoizes in one dict that lives for that call only and
# is passed down: threads share trees (and ladders), never a memo.
# _simplify maps the id of each input node it has rewritten to the
# result, and each node of the trees passed as ``simplified`` to itself.
# differentiate shares one derivative among the occurrences of a shared
# subtree, so that derivative too is simplified once.
#
# A float or complex constant out of double range would print as inf or
# nan.  _in_range raises on one where simplify reads it (a leaf) or folds
# it: a sum's constant, a product's coefficient, a constant quotient or
# power.  Every other folded value reaches _rebuild_product's check.
# --------------------------------------------------------------------------

#: the exact 1 a product's coefficient starts from: a Fraction times it
#: is that Fraction, so the (slow) Fraction product is skipped
_ONE = Fraction(1)


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
    """base^k for an integer k, or base itself when k is 1."""
    return base if k == 1 else Expr(POWER, (base, const(k)))


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
        k = _int_exponent(f.args[1])
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
        if id(node) not in memo:
            memo[id(node)] = node
            stack.extend(node.args)
    try:
        return _simplify(e, memo)
    except (OverflowError, ZeroDivisionError) as exc:  # a constant over or under range
        raise SingularEvaluation(f"constant out of floating-point range: {exc}") from exc
    except RecursionError:
        raise nested_too_deeply("simplify") from None


def _simplify(e: Expr, memo: dict) -> Expr:
    if e.kind in (CONST, VAR):
        return _in_range(e) if e.kind == CONST else e
    out = memo.get(id(e))
    if out is not None:
        return out
    args = tuple([_simplify(a, memo) for a in e.args])

    if e.kind == ADD:
        out = _simplify_add(args)
    elif e.kind == NEGATE:
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


def _simplify_add(args: tuple[Expr, ...]) -> Expr:
    """Flatten a sum, fold constants, and combine like terms exactly."""
    # factor multiset -> [summed coefficient, factors as first seen, term to keep]
    like: dict[frozenset, list] = {}
    constant: Number = Fraction(0)
    for a in args:
        for t in (a.args if a.kind == ADD else (a,)):
            if t.kind == CONST:
                constant = constant + t.value
                continue
            if not _is_quotient(t):
                factors, _, coeff = _split_quotient(t)
            elif t.kind == NEGATE:  # a quotient stays whole
                coeff, factors = -_ONE, [t.args[0]]
            else:
                coeff, factors = _ONE, [t]
            key = frozenset(Counter(factors).items())
            if key in like:
                like[key][0] += coeff
                like[key][2] = None
            else:
                keep = t if t.kind != NEGATE and coeff.__class__ is Fraction else None
                like[key] = [coeff, factors, keep]

    terms: list[Expr] = []
    for coeff, factors, t in like.values():
        if coeff == 0:
            continue
        if t is None:
            t = (factors[0] if coeff == 1 and len(factors) == 1
                 else _simplify_multiply((const(coeff), *factors)))
        terms.append(t)

    # bring sums of quotients over one denominator so like terms can meet
    if any(_is_quotient(t) for t in terms) and len(terms) + (constant != 0) > 1:
        combined = list(terms)
        if constant != 0:
            combined.append(_in_range(const(constant)))
        return _combine_quotients(combined)

    if constant != 0 or not terms:
        terms.append(_in_range(const(constant)))
    if len(terms) == 1:
        return terms[0]
    return Expr(ADD, tuple(terms))


def _tally_factors(parts) -> tuple[Counter, list[Expr]]:
    """Split factors into (base -> positive int exponent, opaque leftovers)."""
    exps: Counter = Counter()
    opaque: list[Expr] = []
    for f in parts:
        base, exp = _split_power(f)
        if base.kind == CONST or exp < 1 or (base is f and f.kind == POWER):
            opaque.append(f)
        else:
            exps[base] += exp
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
            missing = k - exps[b]
            if missing:
                extra.append(_power_of(b, missing))
        for o, k in lcd_opaque.items():
            extra.extend([o] * (k - opq[o]))
        new_terms.append(_simplify_multiply((const(cst), *nums, *extra)))

    den_factors = [_power_of(b, k) for b, k in lcd_exps.items()]
    den_factors.extend(lcd_opaque.elements())
    num_node = _simplify_add(tuple(new_terms))
    den_node = _simplify_multiply(tuple(den_factors)) if den_factors else const(1)
    return _simplify_divide(num_node, den_node)


def _simplify_multiply(args: tuple[Expr, ...]) -> Expr:
    """Flatten and fold a product of already-simplified factors.

    Quotient factors are lifted (a * (b/c) -> a*b / c) so a simplified
    multiply never directly contains a divide; repeated bases merge
    into integer powers.
    """
    factors: list[Expr] = []
    denominators: list[Expr] = []
    constant: Number = _ONE
    stack = list(reversed(args))
    while stack:
        f = stack.pop()
        if f.kind == MULTIPLY:
            stack.extend(reversed(f.args))
        elif f.kind == NEGATE:
            constant = -constant
            stack.append(f.args[0])
        elif f.kind == CONST:
            v = f.value
            constant = v if constant is _ONE and v.__class__ is Fraction else constant * v
        elif f.kind == DIVIDE:
            stack.append(f.args[0])
            denominators.append(f.args[1])
        else:
            factors.append(f)
    if constant == 0:
        return const(0)
    num = _rebuild_product(constant, factors)
    if denominators:
        return _simplify_divide(num, _simplify_multiply(tuple(denominators)))
    return num


def _rebuild_product(constant: Number, factors: list[Expr]) -> Expr:
    """constant times the factors as one node.

    Repeated bases merge into integer powers (x * x^2 -> x^3), constant
    factors fold into the coefficient, and a coefficient of -1 becomes a
    negation.  A power with a non-integer exponent merges into an earlier
    entry of that whole power as base, but never starts an entry.  A
    factor whose base meets no other is kept as it is unless its exponent
    is not a Fraction (x^2.0 is rebuilt as x^2), as _simplify_add keeps a
    term that meets no like term unless it is a NEGATE or its coefficient
    is not a Fraction.
    """
    merged: list[list] = []  # [base, summed exponent or None (kept whole), factor to keep]
    open_entries: dict[Expr, list] = {}  # base -> its entry with an exponent
    for f in factors:
        base, k = _split_power(f)
        entry = open_entries.get(base)
        if entry is not None:
            entry[1] += k
            entry[2] = None
        elif base is f and f.kind == POWER:
            merged.append([f, None, f])
        else:
            keep = f if base is f or f.args[1].value.__class__ is Fraction else None
            merged.append(open_entries.setdefault(base, [base, k, keep]))
    rest: list[Expr] = []
    for base, k, f in merged:
        if k == 0:
            continue
        if f is None:
            f = _power_of(base, k)
        if f.kind == CONST:
            constant = constant * f.value
        else:
            rest.append(f)
    if constant == 0:
        return const(0)
    if not rest:
        return _in_range(const(constant))
    if constant != 1 and constant != -1:
        rest.insert(0, _in_range(const(constant)))
    out = rest[0] if len(rest) == 1 else Expr(MULTIPLY, tuple(rest))
    return Expr(NEGATE, (out,)) if constant == -1 else out


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
    constant: Number = _ONE
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
                    v = f.value
                    constant = v if constant is _ONE and v.__class__ is Fraction else constant * v
                elif f.value != 0:
                    constant = constant / f.value
                else:
                    sink.append(f)
            else:
                sink.append(f)
    if sign == 1 and constant.__class__ is Fraction:
        return nums, dens, constant
    return nums, dens, sign * constant


def _extract_common_factors(addnode: Expr, wanted: set[Expr]) -> tuple[list[Expr], Expr]:
    """Pull factors shared by every term of a sum, restricted to wanted bases.

    Returns (factor nodes, reduced sum); the product of both equals the
    input exactly.  Used so a sum-numerator can cancel against the
    denominator of the enclosing quotient.
    """
    term_info = []
    common: dict[Expr, int] | None = None
    for t in addnode.args:
        parts, _, constant = _split_quotient(t)
        tally = _tally_factors(parts)[0]
        term_info.append((parts, constant))
        common = tally if common is None else {
            b: min(k, common[b]) for b, k in tally.items() if b in common}
        if not common:
            return [], addnode
    common = {b: k for b, k in common.items() if b in wanted}
    if not common:
        return [], addnode

    reduced_terms = []
    for parts, constant in term_info:
        remaining = dict(common)
        kept: list[Expr] = []
        for f in parts:
            base, exp = _split_power(f)
            take = remaining.get(base, 0)
            if take:
                drop = min(take, exp)
                remaining[base] = take - drop
                if exp > drop:
                    kept.append(_power_of(base, exp - drop))
            else:
                kept.append(f)
        reduced_terms.append(_rebuild_product(constant, kept))
    factors = [_power_of(b, k) for b, k in common.items()]
    return factors, _simplify_add(tuple(reduced_terms))


def _expand_terms(e: Expr) -> list[Expr]:
    """Distribute products over sums, returning flat monomial-like terms.

    Powers of sums stay atomic; only explicit sum factors multiply out.
    The returned terms add up to e exactly.
    """
    if e.kind == ADD:
        out: list[Expr] = []
        for t in e.args:
            out.extend(_expand_terms(t))
        return out
    if e.kind == NEGATE:
        return [_simplify_multiply((const(-1), t)) for t in _expand_terms(e.args[0])]
    if e.kind == MULTIPLY and any(f.kind == ADD for f in e.args):
        rest = [f for f in e.args if f.kind != ADD]
        combos: list[list[Expr]] = [[]]
        for f in e.args:
            if f.kind == ADD:
                combos = [c + [t] for c in combos for t in f.args]
        out = []
        for picks in combos:
            out.extend(_expand_terms(_simplify_multiply((*rest, *picks))))
        return out
    return [e]


def _divide_core(num: Expr, den: Expr) -> Expr:
    if _is_const(den, 1):
        return num
    if _is_const(num, 0) and not _is_const(den, 0):
        return const(0)
    if num.kind == CONST and den.kind == CONST and den.value != 0:
        return _in_range(const(num.value / den.value))
    if num == den and not _is_const(num, 0):
        return const(1)

    # flatten nested quotients into one numerator/denominator factor list
    n_nums, n_dens, n_const = _split_quotient(num)
    d_nums, d_dens, d_const = _split_quotient(den)
    num_parts = n_nums + d_dens
    den_parts = n_dens + d_nums
    constant: Number = n_const
    divide_by: Number = d_const

    # normalize the numerator to a collected sum of monomial terms so the
    # cancellation below can see every factor
    num_product = _simplify_multiply((const(constant), *num_parts))
    expanded_terms = _expand_terms(num_product)
    if len(expanded_terms) > 1:
        num_product = _simplify_add(tuple(expanded_terms))
    else:
        num_product = expanded_terms[0]
    num_parts, stray_dens, constant = _split_quotient(num_product)
    den_parts = den_parts + stray_dens

    # a sum-numerator can still cancel if all its terms share denominator bases
    den_bases = set(_tally_factors(den_parts)[0])
    if den_bases:
        expanded: list[Expr] = []
        for part in num_parts:
            if part.kind == ADD:
                got, reduced = _extract_common_factors(part, den_bases)
                expanded.extend(got)
                expanded.append(reduced)
            else:
                expanded.append(part)
        num_parts = expanded

    # cancel shared bases power-aware and multiset-wise: keys are bases,
    # values are accumulated integer exponents
    num_exps, num_opaque = _tally_factors(num_parts)
    den_exps, den_opaque = _tally_factors(den_parts)
    for base in den_exps:
        if base in num_exps:
            k = min(num_exps[base], den_exps[base])
            num_exps[base] -= k
            den_exps[base] -= k
    num_powers = [_power_of(b, k) for b, k in num_exps.items() if k]
    den_powers = [_power_of(b, k) for b, k in den_exps.items() if k]
    new_num = _rebuild_product(constant, num_powers + num_opaque)
    new_den = _rebuild_product(divide_by, den_powers + den_opaque)

    if new_num == num and new_den == den:
        return Expr(DIVIDE, (num, den))
    return _simplify_divide(new_num, new_den)


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
# evaluation
# --------------------------------------------------------------------------

def _on_principal_branch(u: complex) -> complex:
    # pin the branch cut to the limit from above: -0.0 imaginary parts
    # would otherwise flip log/sqrt/power across the cut depending on
    # how a real value was computed
    if u.imag == 0.0:
        return complex(u.real, 0.0)
    return u


def evaluate(e: Expr, at: complex) -> complex:
    """Evaluate the tree at a complex point.

    log, sqrt and non-integer powers use the principal branch.
    SingularEvaluation is raised by a constant beyond double range, a
    division with |denominator| < 1e-300, a power or function that
    fails, a function value that is not finite, and a result that is
    not finite.  Other intermediates may be: exp(z - 1e308*10) is 0j at
    z = 0.  A non-finite point raises ValueError.
    """
    z = complex(at)
    if not cmath.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {at!r}")
    try:
        out = _eval(e, z)
    except RecursionError:
        raise nested_too_deeply("evaluate") from None
    if not cmath.isfinite(out):
        raise SingularEvaluation(f"non-finite value at z={z}")
    return out


def _eval(e: Expr, z: complex) -> complex:
    if e.kind == CONST:
        try:
            return complex(e.value)
        except OverflowError as exc:
            raise SingularEvaluation(f"constant out of floating-point range: {exc}") from exc
    if e.kind == VAR:
        return z
    if e.kind == ADD:
        return sum((_eval(a, z) for a in e.args), complex(0))
    if e.kind == NEGATE:
        return -_eval(e.args[0], z)
    if e.kind == MULTIPLY:
        out = complex(1)
        for a in e.args:
            out *= _eval(a, z)
        return out
    if e.kind == DIVIDE:
        den = _eval(e.args[1], z)
        if abs(den) < DIVISION_FLOOR:
            raise SingularEvaluation(f"division by ~0 at z={z}")
        return _eval(e.args[0], z) / den
    if e.kind == POWER:
        base = _eval(e.args[0], z)
        n = _int_exponent(e.args[1])
        try:
            if n is not None:
                return base ** n
            return _on_principal_branch(base) ** _eval(e.args[1], z)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise SingularEvaluation(f"power undefined at z={z}: {exc}") from exc
    if e.kind == CALL:
        u = _eval(e.args[0], z)
        if e.name in ("log", "sqrt"):
            u = _on_principal_branch(u)
        try:
            out = FUNCTIONS[e.name][0](u)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise SingularEvaluation(f"{e.name} undefined at z={z}: {exc}") from exc
        if not cmath.isfinite(out):
            raise SingularEvaluation(f"{e.name} non-finite at z={z}")
        return out
    raise AssertionError(f"unreachable node kind {e.kind}")


#: points evaluate_many runs each tape step over at once
BLOCK = 256


def evaluate_many(e: Expr, points: list) -> list[complex]:
    """``[evaluate(e, z) for z in points]`` bit for bit, exceptions too.

    Each step of the tree's tape is bound once to a closure that runs it
    over a block of at most BLOCK points.  A block where a check of
    evaluate could fire runs again point by point through evaluate,
    which raises what it raises, its denominator check first."""
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
    first and left to right.  value is a constant's value, an integer power's
    exponent (its subtree is never read) or None; inputs are the slots read,
    slot 0 the variable's and slot i step i-1's.  A RecursionError on a
    too-deep tree propagates."""
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
    rule, pin = FUNCTIONS[name][0], name in ("log", "sqrt")
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
