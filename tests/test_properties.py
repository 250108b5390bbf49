"""Generated-input checks: the three coefficient routes agree, ladder and
jets also agree for inner functions other than z, and the simplifier
and formatter keep their contracts on random trees.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from funcseries.expr import (
    add,
    call,
    const,
    differentiate,
    divide,
    format_expr,
    multiply,
    negate,
    parse,
    power,
    simplify,
    var,
)
from funcseries.oracle import oracle_coefficients
from funcseries.series import ExpansionRequest, expand
from funcseries.teixeira import ContourSpec, teixeira_expand

Z = var("z")
ORDER = 5
AGREEMENT_TOL = 1e-8


def _binary(children, build):
    return st.tuples(children, children).map(lambda ab: build(*ab))


def _entire(children):
    return st.one_of(
        _binary(children, lambda a, b: add(a, b)),
        _binary(children, lambda a, b: add(a, negate(b))),
        _binary(children, lambda a, b: multiply(a, b)),
        st.tuples(children, st.sampled_from([2, 3])).map(
            lambda ak: power(ak[0], const(ak[1]))),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "sinh", "cosh"]), children).map(
            lambda fa: call(*fa)),
    )


#: entire functions of z with at most five leaves
ENTIRE = st.recursive(
    st.sampled_from([Z, const(1), const(2), const(Fraction(1, 2)), const(3)]),
    _entire, max_leaves=5)


def _any(children):
    return st.one_of(
        _entire(children),
        _binary(children, divide),
        st.tuples(children, st.integers(-3, 3)).map(
            lambda ak: power(ak[0], const(ak[1]))),
        st.tuples(st.sampled_from(["log", "sqrt", "tan"]), children).map(
            lambda fa: call(*fa)),
        children.map(negate),
    )


#: trees over the whole grammar
TREES = st.recursive(
    st.one_of(st.just(Z), st.integers(-3, 3).map(const),
              st.sampled_from([Fraction(1, 2), Fraction(-3, 2), 0.25]).map(const)),
    _any, max_leaves=12)


#: inner functions with s'(z0) != 0 at every expansion point drawn below
INNERS = [parse(text) for text in
          ("sin(z)", "exp(z)", "z + z^2/4", "sinh(z)", "2^(-z)", "z/(1+z)")]


def _deviation(got, want) -> float:
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(f=ENTIRE, z0=st.sampled_from([0.0, 0.25, -0.5]))
def test_three_routes_agree_on_entire_functions(f, z0):
    engine = expand(ExpansionRequest(f, Z, z0, ORDER)).coefficients
    oracle = oracle_coefficients(f, Z, z0, ORDER)
    quadrature = teixeira_expand(f, Z - z0, z0, ContourSpec(z0, 1.0, 512), None,
                                 ORDER).a_coefficients
    assert len(engine) == len(oracle) == len(quadrature) == ORDER + 1
    assert _deviation(oracle, engine) < AGREEMENT_TOL, format_expr(f)
    assert _deviation(quadrature, engine) < AGREEMENT_TOL, format_expr(f)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(f=ENTIRE, s=st.sampled_from(INNERS), z0=st.sampled_from([0.0, 0.25, -0.5]))
def test_ladder_and_jets_agree_for_generated_inner_functions(f, s, z0):
    engine = expand(ExpansionRequest(f, s, z0, ORDER)).coefficients
    oracle = oracle_coefficients(f, s, z0, ORDER)
    assert len(engine) == len(oracle) == ORDER + 1
    assert _deviation(oracle, engine) < AGREEMENT_TOL, (format_expr(f), format_expr(s))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(e=TREES)
def test_simplify_is_idempotent_and_round_trips(e):
    once = simplify(e)
    assert simplify(once) == once
    assert parse(format_expr(e)) == once


def _distinct_subtrees(e):
    seen, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.args)
    return seen.values()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(e=TREES)
def test_cached_hash_is_the_field_tuple_hash(e):
    for node in _distinct_subtrees(simplify(differentiate(e))):
        want = hash((node.kind, node.args, node.name, node.value))
        assert hash(node) == want and hash(node) == want


@settings(max_examples=500, derandomize=True, deadline=None)
@given(e=TREES)
def test_every_subtree_of_a_simplified_tree_is_a_fixed_point(e):
    # the assumption behind the trees simplify takes as ``simplified``
    for t in _distinct_subtrees(simplify(e)):
        assert repr(simplify(t)) == repr(t), (format_expr(e), format_expr(t))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(e=TREES)
def test_seeding_a_simplified_tree_changes_nothing(e):
    # one ladder step: the derivative of a simplified tree over that tree
    once = simplify(e)
    step = divide(differentiate(once), once)
    assert repr(simplify(step, simplified=(once,))) == repr(simplify(step))
