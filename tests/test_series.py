"""Expansion engine: coefficients, termination, partial sums, inverse route."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from funcseries import CATALOG
from funcseries.errors import (
    CompositeDerivativeZero,
    ConstantComposite,
    InverseMismatch,
    SingularAtExpansionPoint,
    UnknownFunction,
)
from funcseries.expr import evaluate, parse
from funcseries.oracle import oracle_coefficients
from funcseries.series import (
    MAX_ORDER,
    TERMINATION_RUN,
    TERMINATION_TOL,
    ExpansionRequest,
    detect_termination,
    expand,
    inverse_composite_expand,
    partial_sum,
    power_expansion_coefficients,
)

RNG = np.random.default_rng(5150)


def expand_pair(f_text, s_text, z0, order, **kw):
    return expand(ExpansionRequest(parse(f_text), parse(s_text), z0, order, **kw))


class TestExpand:
    def test_rational_in_sine(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        np.testing.assert_allclose(exp.coefficients, [1, -1, 1, -7 / 6], atol=1e-13)

    def test_inner_in_itself_is_linear(self):
        exp = expand_pair("sin(z)", "sin(z)", 0.2, 5)
        assert exp.coefficients[0] == pytest.approx(math.sin(0.2), rel=1e-13)
        assert exp.coefficients[1] == pytest.approx(1.0, rel=1e-13)
        assert max(abs(c) for c in exp.coefficients[2:]) < 1e-13

    def test_degenerate_rational_identity(self):
        exp = expand_pair("1/(z-2)^2", "1/(z-2)", 0.0, 6)
        np.testing.assert_allclose(
            exp.coefficients[:3], [0.25, -1.0, 1.0], atol=1e-13)
        assert max(abs(c) for c in exp.coefficients[3:]) < 1e-13
        assert exp.terminated_at == 2

    def test_power_in_power_terminates(self):
        exp = expand_pair("8^(-z)", "2^(-z)", 0.0, 6)
        assert exp.terminated_at == 3
        assert max(abs(c) for c in exp.coefficients[4:]) < 1e-12

    def test_vanishing_inner_derivative_rejected(self):
        with pytest.raises(CompositeDerivativeZero):
            expand_pair("exp(z)", "z^2", 0.0, 3)

    def test_constant_inner_rejected_by_the_chain(self):
        with pytest.raises(ConstantComposite):
            expand_pair("exp(z)", "2+0*z", 0.0, 3)

    def test_result_is_frozen(self):
        exp = expand_pair("exp(z)", "z", 0.0, 3)
        with pytest.raises(AttributeError):
            exp.coefficients = (1.0,)
        with pytest.raises(AttributeError):
            exp.chain = None

    def test_singular_function_at_point_rejected(self):
        with pytest.raises(SingularAtExpansionPoint):
            expand_pair("1/(1+z)", "sin(z)", -1.0, 3)

    def test_singular_inner_at_point_rejected(self):
        with pytest.raises(SingularAtExpansionPoint):
            expand_pair("exp(z)", "1/(z-2)", 2.0, 3)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ExpansionRequest(parse("z"), parse("z"), 0.0, -1)
        with pytest.raises(ValueError):
            ExpansionRequest(parse("z"), parse("z"), 0.0, 2, termination_tol=0.0)


class TestLadderEvaluation:
    """expand evaluates a ladder's entries through one memo, each shared
    node once; a coefficient is still evaluate(entry n, z0) / n! bit for bit."""

    #: the benchmark's ladder-build families, over drawn {a} and {b} in [2, 9]
    FAMILIES = [("1/({a}+z)", "sin(z)", 0.0), ("1/(1-{a}^(1-z))", "{a}^(-z)", 0.5),
                ("{a}^(-z)", "{b}^(-z)", 0.0), ("1/({a}+z)", "exp(z)", 0.3),
                ("exp({a}*z)", "exp(z)", 0.0), ("exp({a}*z)", "sin(z)", -0.2),
                ("cos({a}*z)", "sinh(z)", 0.1)]

    def pairs(self):
        rng = np.random.default_rng(20261024)
        pairs = [(f, s, z0) for _, f, s, z0 in CATALOG]
        for f, s, z0 in self.FAMILIES:
            for _ in range(2):
                d = [int(rng.integers(1, 31)) for _ in "ab"]
                p = {k: f"({int(rng.integers(2 * e, 9 * e + 1))}/{e})" for k, e in zip("ab", d)}
                pairs.append((f.format(**p), s.format(**p), z0))
        return pairs

    def test_coefficients_are_entry_values_over_factorials(self):
        for f, s, z0 in self.pairs():
            exp = expand_pair(f, s, z0, 14)
            want = tuple(evaluate(exp.chain.entry(n), z0) / math.factorial(n) for n in range(15))
            assert repr(exp.coefficients) == repr(want), (f, s, z0)

    def test_an_entry_that_fails_at_z0_is_named(self):
        # entries 0 and 1 (z^(3/2), 3/2*z^(1/2)) are 0 at z0 = 0; entry 2 divides by 0
        with pytest.raises(SingularAtExpansionPoint, match=re.escape(
                "derivative ladder entry 2 at z0=0j: power undefined at z=0j: ")):
            expand_pair("z^(3/2)", "z", 0.0, 5)


class TestRegressionCorpus:
    """Closed-form families checked numerically against the engine."""

    def test_binomial_family_coefficients(self):
        # f = 1/(1 - 2^(1-z)) in s = 2^(-z): c_n = 2^n / (1 - 2 s0)^(n+1)
        z0 = 0.5
        s0 = 2.0 ** (-z0)
        exp = expand_pair("1/(1-2^(1-z))", "2^(-z)", z0, 8)
        for n, c in enumerate(exp.coefficients):
            want = 2.0**n / (1 - 2 * s0) ** (n + 1)
            assert c == pytest.approx(want, rel=1e-11), n

    def test_reciprocal_binomial_family_coefficients(self):
        # f = r^(-z) in s = 1/(1 - r^(1-z)) at r = 2:
        # c0 = r^(-z0), c_n = (-1)^(n+1) / (r s0^(n+1)) for n >= 1
        r, z0 = 2.0, 0.5
        s0 = 1.0 / (1 - r ** (1 - z0))
        exp = expand_pair("2^(-z)", "1/(1-2^(1-z))", z0, 7)
        assert exp.coefficients[0] == pytest.approx(r ** (-z0), rel=1e-12)
        for n in range(1, 8):
            want = (-1) ** (n + 1) / (r * s0 ** (n + 1))
            assert exp.coefficients[n] == pytest.approx(want, rel=1e-10), n

    def test_log_ratio_family_coefficients(self):
        # f = k^(-z) in s = M^(-z): c_n has the product of log(k/M^j) factors
        k, M, z0 = 5.0, 2.0, 0.0
        exp = expand_pair("5^(-z)", "2^(-z)", z0, 6)
        s0 = M ** (-z0)
        for n, c in enumerate(exp.coefficients):
            prod = 1.0
            for j in range(n):
                prod *= math.log(k / M**j)
            want = k ** (-z0) * prod / (math.factorial(n) * math.log(M) ** n * s0**n)
            assert c == pytest.approx(want, rel=1e-10), n

    def test_log_ratio_termination_index(self):
        # termination hits exactly at n = log k / log M when that is integral
        for k, M, stop in [(8, 2, 3), (9, 3, 2)]:
            exp = expand_pair(f"{k}^(-z)", f"{M}^(-z)", 0.0, stop + 4)
            assert exp.terminated_at == stop
            assert max(abs(c) for c in exp.coefficients[stop + 1:]) < 1e-10

    def test_approximation_quality_shrinks_with_order(self):
        # partial sums of the sine expansion improve on [-0.5, 0.5]
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        zs = np.linspace(-0.5, 0.5, 41)
        errs = []
        for upto in range(4):
            errs.append(max(abs(evaluate(exp.f, z) - partial_sum(exp, z, upto))
                            for z in zs))
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestPartialSum:
    def test_value_at_expansion_point(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        for upto in range(4):
            assert partial_sum(exp, 0.0, upto) == pytest.approx(1.0, abs=1e-14)

    def test_explicit_third_order_value(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        z = 0.5
        sz = math.sin(z)
        want = 1 - sz + sz**2 - 7 / 6 * sz**3
        assert partial_sum(exp, z, 3) == pytest.approx(want, rel=1e-13)

    def test_terminated_sum_is_identity(self):
        exp = expand_pair("1/(z-2)^2", "1/(z-2)", 0.0, 6)
        pts = [1.0] + list(RNG.uniform(-1.5, 1.5, 16))
        for z in pts:
            want = 1.0 / (z - 2) ** 2
            got = partial_sum(exp, z, exp.order)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_complex_expansion_point(self):
        z0 = 0.2 + 0.1j
        exp = expand_pair("exp(z)", "z", z0, 6)
        import cmath

        for n in range(7):
            want = cmath.exp(z0) / math.factorial(n)
            assert abs(exp.coefficients[n] - want) <= 1e-11 * abs(want)

    def test_upto_out_of_range(self):
        exp = expand_pair("exp(z)", "z", 0.0, 2)
        with pytest.raises(ValueError):
            partial_sum(exp, 0.1, 5)


class TestDetectTermination:
    def test_scaled_tail(self):
        assert detect_termination([1, -1, 1, 0, 0, 0, 0]) == 2

    def test_nonterminating(self):
        c = [1, -1, 1, -7 / 6, 4 / 3, -1.575]
        assert detect_termination(c) is None

    def test_requires_three_tail_terms(self):
        assert detect_termination([1, 0, 0]) is None
        assert detect_termination([1, 0, 0, 0]) == 0

    def test_relative_to_leading(self):
        assert detect_termination([1e8, 1e-4, 1e-4, 1e-4, 1e-4]) == 0

    @staticmethod
    def rescanning_termination(coefficients, tol=TERMINATION_TOL):
        """The reference: test each candidate index against its whole tail."""
        n = len(coefficients)
        if n < TERMINATION_RUN + 1:
            return None
        ceiling = tol * max(1.0, abs(coefficients[0]))
        small = [abs(c) < ceiling for c in coefficients]
        for m in range(0, n - TERMINATION_RUN):
            if all(small[m + 1:]):
                return m
        return None

    def test_one_scan_matches_the_rescanning_loop(self):
        # every pattern of negligible (1e-20), non-negligible (1.0) and NaN
        # coefficients up to length 10, after a leading 1 or 1e8
        for n in range(11):
            for pattern in itertools.product((1e-20, 1.0, math.nan), repeat=max(n - 1, 0)):
                for c0 in (1.0, 1e8):
                    c = [c0, *pattern][:n]
                    assert detect_termination(c) == self.rescanning_termination(c), c


class TestOwnPowerCoefficients:
    def test_half_power_terminates_at_two(self):
        got = power_expansion_coefficients(Fraction(1, 2), 4)
        assert got == [1.0, 2.0, 1.0, 0.0, 0.0]

    def test_unit_power(self):
        assert power_expansion_coefficients(1, 5) == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_third_power_zeroes_from_four(self):
        got = power_expansion_coefficients(Fraction(1, 3), 5)
        assert got[3] != 0.0
        assert got[4] == 0.0 and got[5] == 0.0

    @pytest.mark.parametrize("beta_num,beta_den", [(1, 2), (1, 3)])
    def test_matches_engine_on_exponential(self, beta_num, beta_den):
        beta = Fraction(beta_num, beta_den)
        got = power_expansion_coefficients(beta, 5)
        exp = expand_pair("exp(z)", f"exp(z/{beta_den})", 0.0, 5)
        for n in range(6):
            assert abs(exp.coefficients[n] - got[n]) <= 1e-10 * max(1.0, abs(got[n]))

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            power_expansion_coefficients(0, 3)


class TestEngineInvariants:
    @pytest.mark.parametrize("f_text", ["exp(z)", "sin(z)", "1/(1+z)"])
    @pytest.mark.parametrize("z0", [0.0, 0.3])
    def test_taylor_reduction(self, f_text, z0):
        exp = expand_pair(f_text, "z", z0, 8)
        want = {
            "exp(z)": lambda n: math.exp(z0) / math.factorial(n),
            "sin(z)": lambda n: [math.sin(z0), math.cos(z0),
                                 -math.sin(z0), -math.cos(z0)][n % 4] / math.factorial(n),
            "1/(1+z)": lambda n: (-1.0) ** n / (1 + z0) ** (n + 1),
        }[f_text]
        for n in range(9):
            assert abs(exp.coefficients[n] - want(n)) <= 1e-10 * max(1.0, abs(want(n)))

    def test_linearity_in_expanded_function(self):
        a, b = 2.5, -1.25
        s_text, z0, order = "sin(z)", 0.0, 6
        cf = expand_pair("exp(z)", s_text, z0, order).coefficients
        cg = expand_pair("1/(1+z)", s_text, z0, order).coefficients
        mix = expand_pair("2.5*exp(z) - 1.25/(1+z)", s_text, z0, order).coefficients
        for n in range(order + 1):
            want = a * cf[n] + b * cg[n]
            assert abs(mix[n] - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("label,f_text,s_text,z0", CATALOG)
    def test_oracle_equivalence(self, label, f_text, s_text, z0):
        order = 10
        exp = expand_pair(f_text, s_text, z0, order)
        oracle = oracle_coefficients(parse(f_text), parse(s_text), z0, order)
        for n in range(order + 1):
            dev = abs(exp.coefficients[n] - oracle[n]) / max(1.0, abs(oracle[n]))
            assert dev <= 1e-8, (label, n)


#: explicit inverses g of the catalog's inner functions, written in s
CATALOG_INVERSES = {
    "power-8-in-2": "-log(s)/log(2)",
    "power-9-in-3": "-log(s)/log(3)",
    "binomial-family": "-log(s)/log(2)",
    "square-of-exponential": "log(s)",
    "degenerate-rational": "2+1/s",
}


class TestInverseCompositeRoute:
    @pytest.mark.parametrize(
        "label,f_text,s_text,z0", [p for p in CATALOG if p[0] in CATALOG_INVERSES])
    def test_agrees_with_expand_on_catalog(self, label, f_text, s_text, z0):
        order = 8
        direct = expand_pair(f_text, s_text, z0, order)
        via_inverse = inverse_composite_expand(
            parse(f_text), parse(s_text), parse(CATALOG_INVERSES[label]), z0, order)
        for n in range(order + 1):
            dev = abs(direct.coefficients[n] - via_inverse.coefficients[n])
            assert dev <= 1e-12 * max(1.0, abs(direct.coefficients[n])), (label, n)

    @pytest.mark.parametrize("order,message", [
        (-1, "order must be >= 0"), (MAX_ORDER + 1, f"order must be <= {MAX_ORDER}")])
    def test_order_outside_the_limit_rejected(self, order, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            inverse_composite_expand(parse("exp(2*z)"), parse("exp(z)"), parse("log(s)"), 0.0, order)

    def test_square_through_logarithm(self):
        exp = inverse_composite_expand(
            parse("exp(2*z)"), parse("exp(z)"), parse("log(s)"), 0.0, 5)
        np.testing.assert_allclose(exp.coefficients[:3], [1, 2, 1], atol=1e-10)
        assert max(abs(c) for c in exp.coefficients[3:]) < 1e-9
        assert exp.s0 == pytest.approx(1.0)

    def test_identity_functions(self):
        exp = inverse_composite_expand(parse("z"), parse("z"), parse("s"), 0.7, 4)
        np.testing.assert_allclose(exp.coefficients[:2], [0.7, 1.0], atol=1e-14)
        assert max(abs(c) for c in exp.coefficients[2:]) < 1e-14

    def test_agrees_with_direct_expansion(self):
        direct = expand_pair("exp(2*z)", "exp(z)", 0.3, 6)
        via_inverse = inverse_composite_expand(
            parse("exp(2*z)"), parse("exp(z)"), parse("log(s)"), 0.3, 6)
        for n in range(7):
            dev = abs(direct.coefficients[n] - via_inverse.coefficients[n])
            assert dev <= 1e-8 * max(1.0, abs(direct.coefficients[n]))

    def test_constant_inner_rejected(self):
        # the same s that expand() rejects
        with pytest.raises(ConstantComposite):
            inverse_composite_expand(
                parse("exp(z)"), parse("2+0*z"), parse("0*s"), 0.0, 3)

    def test_unavailable_inverse_has_no_syntax(self):
        # the sine inverse is outside the function set: it cannot be written
        with pytest.raises(UnknownFunction):
            parse("arcsin(s)")

    def test_wrong_inverse_detected(self):
        with pytest.raises(InverseMismatch):
            inverse_composite_expand(
                parse("exp(2*z)"), parse("exp(z)"), parse("s"), 1.0, 4)

    def test_jet_overflow_is_a_singularity(self):
        # exp(exp(10)) leaves double range in the jet of exp
        with pytest.raises(SingularAtExpansionPoint,
                           match=r"^exp jet at \(22026\.465794806718\+0j\): math range error$"):
            inverse_composite_expand(parse("exp(exp(z))"), parse("z"), parse("w"), 10, 3)

    def test_singular_inner_function_at_the_point(self):
        with pytest.raises(SingularAtExpansionPoint, match=r"^inverse route at z0=0j: "):
            inverse_composite_expand(parse("exp(z)"), parse("1/z"), parse("1/s"), 0.0, 3)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_coefficients_are_a_singularity(self):
        # sqrt's jet at 1e-290 overflows in the arithmetic, without a warning
        with pytest.raises(SingularAtExpansionPoint,
                           match=r"^inverse route at z0=\(1e-290\+0j\): coefficients leave double range$"):
            inverse_composite_expand(parse("sqrt(z)"), parse("z"), parse("w"), 1e-290, 3)

    def test_serialization_shape(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        d = exp.as_dict()
        assert list(d) == ["f", "s", "z0", "s0", "coefficients", "terminated_at"]
        assert d["coefficients"][3][0] == pytest.approx(-7 / 6, abs=1e-13)
        assert d["terminated_at"] is None
