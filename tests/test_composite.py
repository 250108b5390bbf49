"""Iterated composite-derivative operator and its reverse direction."""

import hashlib
import math

import numpy as np
import pytest

from funcseries import CATALOG
from funcseries.composite import (
    OperatorChain,
    composite_derivative,
    z_derivative_via_s,
)
from funcseries.errors import ConstantComposite
from funcseries.expr import (
    const,
    differentiate,
    divide,
    evaluate,
    format_expr,
    parse,
    simplify,
    substitute,
)

RNG = np.random.default_rng(907)

#: one drawn member of each benchmark family, as (f, s)
FAMILY_PAIRS = (
    ("1/((7/3)+z)", "sin(z)"),
    ("1/(1-(5/2)^(1-z))", "(5/2)^(-z)"),
    ("(7/2)^(-z)", "(3/2)^(-z)"),
    ("1/((9/4)+z)", "exp(z)"),
    ("exp((5/3)*z)", "exp(z)"),
    ("exp((3/2)*z)", "sin(z)"),
    ("cos((5/2)*z)", "sinh(z)"),
    ("1/(z-(7/2))^2", "1/(z-(7/2))"),
    ("exp(3*z)", "z+2*z^2"),
)

#: sha256 of repr(entry) + "\n" over entries 0..9 of every FAMILY_PAIRS pair
FAMILY_LADDER_SHA256 = "595682b9167aa6e45ae822c371c714879a5a47967343d13a3d7217972c42f71c"

#: sha256 of the text of ladder entries 0..9 of every CATALOG pair
LADDER_TEXT_SHA256 = {
    "rational-in-sine": "cb9b6790fc66cb9c8d9cbdc6a5c4a5a378af36ba793561e777db089823fcb4fd",
    "binomial-family": "6404541fc7f166494ff76c136d4c2e530812883d29553334ef446d87d43d32d6",
    "power-8-in-2": "bd5b6707e3e502337e02adc3bdfa506aa842ad670575d06d3648bfc5f6a88d02",
    "power-9-in-3": "1162aff164e1a74b9fa1509ba630d20c193712189d95e014a8668dcf2ffd74f0",
    "power-5-in-2": "6e18613b625fdf84e246e76c53429f47664404b9cc7a4a5dcb976d24a28b5fb5",
    "degenerate-rational": "d331f4a20a5354090b3ca47374f8df2943f254a062c539925cf8e36206b5046e",
    "square-of-exponential":
        "61841bc01cb8d4315e26134355f13d10fcb1cba289c5f4997f486334f3a22982",
}

#: inner functions paired with sample points where they are well-behaved
INNERS = {
    "exp(z)": [0.0, 0.3, -0.4, 0.2 + 0.1j],
    "sin(z)": [0.0, 0.4, -0.3, 0.1 - 0.2j],
    "1/(z-2)": [0.0, 0.5, -1.0, 0.3 + 0.4j],
}


def central_difference(e, z, n, h=1e-5):
    """n'th derivative by repeated central differences (n <= 2 only)."""
    if n == 0:
        return evaluate(e, z)
    if n == 1:
        return (evaluate(e, z + h) - evaluate(e, z - h)) / (2 * h)
    return (evaluate(e, z + h) - 2 * evaluate(e, z) + evaluate(e, z - h)) / h**2


class TestSingleApplication:
    def test_square_of_inner(self):
        # f = exp(2z) is s^2 for s = exp(z); d(s^2)/ds = 2s = 2 exp(z)
        got = composite_derivative(parse("exp(2*z)"), parse("exp(z)"), 1)
        want = parse("2*exp(z)")
        for z in (0.0, 0.5, -0.3):
            assert evaluate(got, z) == pytest.approx(evaluate(want, z), rel=1e-12)

    def test_inner_with_itself(self):
        s = parse("sin(z)")
        assert composite_derivative(s, s, 1) == const(1)

    def test_constant_numerator(self):
        assert composite_derivative(const(5), parse("sin(z)"), 1) == const(0)

    def test_constant_inner_rejected(self):
        with pytest.raises(ConstantComposite):
            composite_derivative(parse("exp(z)"), const(3), 1)


class TestChain:
    def test_entries_match_defining_recurrence(self):
        f, s = parse("1/(1+z)"), parse("sin(z)")
        chain = OperatorChain(f, s)
        for i in range(4):
            want = simplify(divide(differentiate(chain.entry(i)), differentiate(s)))
            assert chain.entry(i + 1) == want

    def test_sprime_is_simplified_once_on_the_chain(self):
        s = parse("sin(z)*exp(z)")
        chain = OperatorChain(parse("1/(1+z)"), s)
        assert chain.sprime == simplify(differentiate(s))

    def test_cache_returns_identical_objects(self):
        f, s = parse("exp(2*z)"), parse("exp(z)")
        chain = OperatorChain(f, s)
        high = chain.entry(5)
        assert chain.entry(3) is chain.entry(3)
        assert chain.entry(5) is high

    def test_fresh_chain_reproduces_structurally(self):
        f, s = parse("1/(1+z)"), parse("sin(z)")
        a = composite_derivative(f, s, 3)
        b = composite_derivative(f, s, 3)
        assert a == b

    @pytest.mark.parametrize("label,f_text,s_text,z0", CATALOG)
    def test_ladder_text_matches_recorded_digest(self, label, f_text, s_text, z0):
        # sha256 of format_expr of entries 0..9, one per line; any change to
        # how the simplifier shapes a ladder entry moves these digests
        chain = OperatorChain(parse(f_text), parse(s_text))
        text = "\n".join(format_expr(chain.entry(n)) for n in range(10))
        assert hashlib.sha256(text.encode()).hexdigest() == LADDER_TEXT_SHA256[label]

    def test_family_ladders_match_recorded_digest(self):
        # the trees themselves, not their text, of entries 0..9 of one
        # member of each benchmark family
        digest = hashlib.sha256()
        for f_text, s_text in FAMILY_PAIRS:
            chain = OperatorChain(parse(f_text), parse(s_text))
            for n in range(10):
                digest.update((repr(chain.entry(n)) + "\n").encode())
        assert digest.hexdigest() == FAMILY_LADDER_SHA256


class TestCompositeDerivative:
    def test_second_derivative_of_square_is_two(self):
        got = composite_derivative(parse("exp(2*z)"), parse("exp(z)"), 2)
        for z in (0.0, 0.4, -0.2, 0.1 + 0.3j):
            assert evaluate(got, z) == pytest.approx(2.0, rel=1e-10)

    def test_zero_order_returns_input(self):
        f = parse("cos(z)*exp(z)")
        assert composite_derivative(f, parse("sin(z)"), 0) is f

    def test_first_coefficient_of_rational_in_sine(self):
        got = composite_derivative(parse("1/(1+z)"), parse("sin(z)"), 1)
        assert evaluate(got, 0) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("s_text", sorted(INNERS))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_monomials_in_inner_give_falling_factorials(self, s_text, m):
        # f = s^m: d^n f/ds^n = m!/(m-n)! s^(m-n) for n <= m, 0 beyond
        s = parse(s_text)
        f = simplify(s**m)
        for n in range(m + 3):
            e_n = composite_derivative(f, s, n)
            for p in INNERS[s_text]:
                sval = evaluate(s, p)
                if n <= m:
                    want = math.factorial(m) / math.factorial(m - n) * sval ** (m - n)
                else:
                    want = 0.0
                got = evaluate(e_n, p)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (s_text, m, n, p)


class TestReverseDirection:
    def test_square_of_exponential(self):
        got = z_derivative_via_s(parse("s^2"), parse("exp(z)"), 1)
        want = parse("2*exp(2*z)")
        for z in (0.0, 0.3, -0.5):
            assert evaluate(got, z) == pytest.approx(evaluate(want, z), rel=1e-12)

    def test_identity_outer_gives_inner_derivative(self):
        for s_text in INNERS:
            s = parse(s_text)
            got = z_derivative_via_s(parse("s"), s, 1)
            want = simplify(differentiate(s))
            for p in (0.0, 0.4):
                assert evaluate(got, p) == pytest.approx(evaluate(want, p), rel=1e-12)

    def test_cubed_sine_second_derivative_matches_differences(self):
        got = z_derivative_via_s(parse("s^3"), parse("sin(z)"), 2)
        z = 0.4
        want = central_difference(parse("sin(z)^3"), z, 2)
        assert abs(evaluate(got, z) - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("s_text", sorted(INNERS))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_agrees_with_direct_differentiation(self, s_text, m):
        s = parse(s_text)
        k = parse("s") ** m
        for n in range(5):
            via_s = z_derivative_via_s(simplify(k), s, n)
            direct = substitute(simplify(k), "s", s)
            for _ in range(n):
                direct = simplify(differentiate(direct))
            for p in INNERS[s_text]:
                want = evaluate(direct, p)
                got = evaluate(via_s, p)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (s_text, m, n, p)

    def test_rejects_stray_variables(self):
        with pytest.raises(ValueError):
            z_derivative_via_s(parse("w^2"), parse("exp(z)"), 1)

    def test_rejects_constant_inner(self):
        with pytest.raises(ConstantComposite):
            z_derivative_via_s(parse("s"), const(2), 1)
