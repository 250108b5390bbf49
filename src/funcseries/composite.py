"""Derivatives through a composite: d^n k / d s^n from z-derivatives only.

For k written as a function of z with inner function s(z), each
application of

    e  |->  (1 / s'(z)) * de/dz

lowers one s-derivative, so n applications starting from f give the
n'th derivative of f with respect to s without ever inverting s or
expanding the classical combinatoric formulas.  :class:`OperatorChain`
owns s'(z), simplified once as ``sprime`` for every consumer, and
caches the ladder of intermediate expressions, each simplified once on
creation to keep growth in check.  A new entry then shares every
subtree equal to one of its own or of the entry before (:func:`_shared`):
the ladder prints and evaluates as before in a fraction of the memory
(entries 0-8 of ``1/(1+z)`` in ``sin(z)`` hold 476 nodes, where their
trees have 2539).

The ladder depends only on (f, s), not on the expansion point, the
order or where a bound is read, so :func:`cached_chain` shares one
chain per pair across requests: a process-wide cache keyed by
``(repr(f), repr(s))`` (``Expr`` equality would merge ``2`` with ``2.0``
and ``0.0`` with ``-0.0``, whose ladders print differently).  It keeps
whole ladders in least-recently-used order while they hold at most
:data:`LADDER_CACHE_NODES` nodes; a ladder that alone holds more is not
kept.  Only built chains are cached, so a failed build is tried again
on the next call.  :func:`ladder_cache_info` reads its counters.

The reverse direction, :func:`z_derivative_via_s`, produces the n'th
z-derivative of k(s(z)) from an expression for k in the s-variable by
stepping with s'(z) * d/ds and substituting s := s(z) at the end.
While stepping, the working tree mixes the s- and z-letters; d/ds acts
as the total derivative along the curve (z moves with s), i.e.

    g  |->  s'(z) * dg/ds + dg/dz.

Everything here is thread-safe.  A chain extends its append-only ladder
under its own lock and reads built entries without one; the cache sits
under a module lock, which is never held while a ladder is built.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from typing import NamedTuple

from .errors import ConstantComposite, FuncSeriesError
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

#: most nodes the chain cache keeps over all its ladders, each counted
#: where it first appears (about 150 bytes each with its args and value)
LADDER_CACHE_NODES = 8_000


class OperatorChain:
    """Ladder f, D f, D^2 f, ... for D = (1/s'(z)) d/dz.

    Entry i+1 is simplify(divide(differentiate(entry i), sprime)) for
    sprime = simplify(differentiate(s)), which must not be 0; entry 0
    is f itself.  The ladder is append-only: new entries are built under
    the chain's lock, built ones are read without it.
    """

    def __init__(self, f: Expr, s: Expr):
        self.letter = sole_variable(f, s)
        self.f = f
        self.s = s
        self.sprime = simplify(differentiate(s, self.letter))
        if self.sprime == const(0):
            raise ConstantComposite("inner function has identically zero derivative")
        self._entries: list[Expr] = [f]
        self._lock = threading.Lock()
        #: the _LadderCache holding this chain, and the nodes it counts there
        self._cache: _LadderCache | None = None
        self._nodes = 0

    def entry(self, n: int) -> Expr:
        if n < 0:
            raise ValueError("order must be >= 0")
        entries = self._entries
        if n < len(entries):
            return entries[n]
        with self._lock:
            while len(entries) <= n:
                prev = entries[-1]
                built = simplify(divide(differentiate(prev, self.letter), self.sprime))
                nodes: dict[tuple, Expr] = {}
                memo: dict[int, Expr] = {}
                _shared(prev, nodes, memo)
                seen = len(nodes)
                entries.append(_shared(built, nodes, memo))
                cache = self._cache
                if cache is not None:
                    cache.grew(self, len(nodes) - seen)
        return entries[n]

    def __len__(self) -> int:
        return len(self._entries)


def _shared(e: Expr, nodes: dict[tuple, Expr], memo: dict[int, Expr]) -> Expr:
    """e with each subtree replaced by the equal one in nodes, if any.

    Subtrees not in nodes are added, so a tree shares every repeated
    subtree with itself and with the trees walked before it into the
    same dict.  A constant keys on its type and repr, which keeps 2, 2.0,
    0.0 and -0.0 apart; the result prints and evaluates exactly as e.
    memo maps the id of each node walked to its result, so walks may share
    it only while the trees they walked are alive.
    """
    out = memo.get(id(e))
    if out is None:
        if e.args:
            args = tuple([_shared(a, nodes, memo) for a in e.args])
            key = (e.kind, e.name, *map(id, args))
            out = nodes.get(key)
            if out is None:
                same = all(map(operator.is_, args, e.args))
                out = nodes[key] = e if same else Expr(e.kind, args, e.name, e.value)
        else:
            out = nodes.setdefault((e.kind, e.name, type(e.value), repr(e.value)), e)
        memo[id(e)] = out
    return out


class LadderCacheInfo(NamedTuple):
    """Counters of the chain cache: lookups that found a chain or built
    one, and the ladders and nodes it holds now."""

    hits: int
    misses: int
    ladders: int
    nodes: int


class _LadderCache:
    """(repr(f), repr(s)) -> OperatorChain, LRU over whole ladders."""

    def __init__(self):
        self._lock = threading.Lock()
        self._chains: OrderedDict[tuple[str, str], OperatorChain] = OrderedDict()
        self.hits = self.misses = self.nodes = 0

    def chain(self, f: Expr, s: Expr) -> OperatorChain:
        key = (repr(f), repr(s))
        with self._lock:
            chain = self._chains.get(key)
            if chain is not None:
                self.hits += 1
                self._chains.move_to_end(key)
                return chain
            self.misses += 1
        chain = OperatorChain(f, s)  # raises before anything is cached
        nodes: dict[tuple, Expr] = {}
        _shared(f, nodes, {})
        with self._lock:
            if key in self._chains:  # another thread built it meanwhile
                self._chains.move_to_end(key)
                return self._chains[key]
            chain._cache = self
            self._chains[key] = chain
            self._add(chain, len(nodes))
        return chain

    def grew(self, chain: OperatorChain, nodes: int) -> None:
        """Count a new entry of chain, if this cache still holds it."""
        with self._lock:
            if chain._cache is self:
                self._add(chain, nodes)

    def _add(self, chain: OperatorChain, nodes: int) -> None:
        chain._nodes += nodes
        self.nodes += nodes
        while self.nodes > LADDER_CACHE_NODES:
            _, evicted = self._chains.popitem(last=False)
            evicted._cache = None
            self.nodes -= evicted._nodes

    def info(self) -> LadderCacheInfo:
        with self._lock:
            return LadderCacheInfo(self.hits, self.misses, len(self._chains), self.nodes)


_LADDERS = _LadderCache()


def cached_chain(f: Expr, s: Expr) -> OperatorChain:
    """The shared operator chain of (f, s), built on first use.

    Raises as OperatorChain does; a chain that failed to build is not
    cached.
    """
    try:
        return _LADDERS.chain(f, s)
    except RecursionError:  # repr(f), the cache key, recurses once per level
        raise FuncSeriesError("expression nested too deeply to expand") from None


def ladder_cache_info() -> LadderCacheInfo:
    """Hits, misses, ladders and nodes of the shared chain cache."""
    return _LADDERS.info()


def composite_derivative(f: Expr, s: Expr, n: int) -> Expr:
    """d^n f / d s^n as an expression in the z-letter; n = 0 returns f."""
    chain = cached_chain(f, s)
    return f if n == 0 else chain.entry(n)


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
