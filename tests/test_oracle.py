"""Jet arithmetic and triangular coefficient matching."""

import numpy as np
import pytest

from funcseries import CATALOG
from funcseries.errors import (
    CompositionOffsetNonzero,
    DivisionBySingularSeries,
    LeadingCoefficientZero,
    SingularAtExpansionPoint,
)
from funcseries.expr import differentiate, evaluate, parse, simplify
from funcseries.oracle import (
    TruncatedSeries,
    oracle_coefficients,
    reconstruct,
)

RNG = np.random.default_rng(1123)


class TestFromExpr:
    def test_exponential_jet(self):
        ts = TruncatedSeries.from_expr(parse("exp(z)"), 0.0, 4)
        np.testing.assert_allclose(
            ts.coefficients, [1, 1, 1 / 2, 1 / 6, 1 / 24], atol=1e-15)

    def test_geometric_jet(self):
        ts = TruncatedSeries.from_expr(parse("1/(1+z)"), 0.0, 3)
        np.testing.assert_allclose(ts.coefficients, [1, -1, 1, -1], atol=1e-15)

    def test_sine_jet(self):
        ts = TruncatedSeries.from_expr(parse("sin(z)"), 0.0, 3)
        np.testing.assert_allclose(ts.coefficients, [0, 1, 0, -1 / 6], atol=1e-15)

    def test_pole_at_point_raises(self):
        with pytest.raises(SingularAtExpansionPoint):
            TruncatedSeries.from_expr(parse("1/(1+z)"), -1.0, 3)

    def test_log_branch_point_raises(self):
        with pytest.raises(SingularAtExpansionPoint):
            TruncatedSeries.from_expr(parse("log(z)"), 0.0, 3)

    def test_constant_beyond_double_range_raises(self):
        with pytest.raises(SingularAtExpansionPoint, match="floating-point range"):
            oracle_coefficients(parse("z*1" + "0" * 400), parse("z"), 0.0, 1)

    @pytest.mark.parametrize("text,z0", [
        ("exp(z)", 0.3), ("sin(z)", -0.2), ("cos(z)", 0.7), ("tan(z)", 0.4),
        ("sinh(z)", 0.5), ("cosh(z)", -0.4), ("sqrt(1+z)", 0.2),
        ("log(1+z)", 0.1), ("2^(-z)", 0.25), ("1/(z-2)^2", 0.5),
        ("exp(z)/(2-sin(z))", 0.3),
    ])
    def test_agrees_with_scaled_symbolic_derivatives(self, text, z0):
        # deliberate cross-module check: jets vs n!-scaled derivatives
        e = parse(text)
        ts = TruncatedSeries.from_expr(e, z0, 8)
        d = e
        fact = 1.0
        for n in range(9):
            if n:
                d = simplify(differentiate(d))
                fact *= n
            want = evaluate(d, z0) / fact
            got = ts.coefficient(n)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (text, n)


class TestArithmetic:
    def test_multiply(self):
        a = TruncatedSeries([1.0, 1.0, 0.0])
        b = TruncatedSeries([1.0, -1.0, 0.0])
        np.testing.assert_allclose((a * b).coefficients, [1, 0, -1], atol=1e-15)

    def test_divide(self):
        num = TruncatedSeries([1.0, 0.0, 0.0])
        den = TruncatedSeries([1.0, 1.0, 0.0])
        np.testing.assert_allclose((num / den).coefficients, [1, -1, 1], atol=1e-15)

    def test_compose_exp_with_2t(self):
        exp_jet = TruncatedSeries.from_expr(parse("exp(z)"), 0.0, 2)
        inner = TruncatedSeries([0.0, 2.0, 0.0])
        np.testing.assert_allclose(
            exp_jet.compose(inner).coefficients, [1, 2, 2], atol=1e-15)

    def test_mul_then_div_round_trip(self):
        rng = np.random.default_rng(4242)
        order = 12
        a = TruncatedSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        b = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        b[0] += 2.0
        b = TruncatedSeries(b)
        np.testing.assert_allclose(((a * b) / b).coefficients, a.coefficients, atol=1e-10)

    def test_divide_by_singular_series(self):
        a = TruncatedSeries([1.0, 0.0])
        b = TruncatedSeries([0.0, 1.0])
        with pytest.raises(DivisionBySingularSeries):
            a / b

    def test_compose_requires_zero_offset(self):
        a = TruncatedSeries([1.0, 1.0])
        with pytest.raises(CompositionOffsetNonzero):
            a.compose(TruncatedSeries([0.5, 1.0]))

    def test_integer_powers(self):
        s = TruncatedSeries.from_expr(parse("1+z"), 0.0, 3)
        np.testing.assert_allclose((s**3).coefficients, [1, 3, 3, 1], atol=1e-14)
        np.testing.assert_allclose(
            (s**-1).coefficients, [1, -1, 1, -1], atol=1e-14)

    def test_immutability(self):
        ts = TruncatedSeries([1.0, 2.0])
        with pytest.raises((ValueError, AttributeError)):
            ts.coefficients[0] = 5.0


class TestOracleCoefficients:
    def test_rational_in_sine(self):
        c = oracle_coefficients(parse("1/(1+z)"), parse("sin(z)"), 0.0, 3)
        np.testing.assert_allclose(c, [1, -1, 1, -7 / 6], atol=1e-13)

    def test_inner_expanded_in_itself(self):
        for s_text, z0 in [("sin(z)", 0.2), ("exp(z)", -0.3), ("2^(-z)", 0.4)]:
            s = parse(s_text)
            c = oracle_coefficients(s, s, z0, 5)
            assert c[0] == pytest.approx(evaluate(s, z0), rel=1e-12)
            assert c[1] == pytest.approx(1.0, rel=1e-12)
            assert max(abs(x) for x in c[2:]) < 1e-12

    def test_power_of_power_terminates(self):
        c = oracle_coefficients(parse("8^(-z)"), parse("2^(-z)"), 0.0, 5)
        np.testing.assert_allclose(c[:4], [1, 3, 3, 1], atol=1e-12)
        assert abs(c[4]) < 1e-12 and abs(c[5]) < 1e-12

    def test_zero_linear_term_rejected(self):
        with pytest.raises(LeadingCoefficientZero):
            oracle_coefficients(parse("exp(z)"), parse("z^2"), 0.0, 3)

    @pytest.mark.parametrize("label,f_text,s_text,z0", CATALOG)
    def test_reconstruction_round_trip(self, label, f_text, s_text, z0):
        # rebuilding sum c_n u^n must reproduce the jet of f
        f, s = parse(f_text), parse(s_text)
        order = 10
        c = oracle_coefficients(f, s, z0, order)
        rebuilt = reconstruct(c, s, z0, order)
        want = TruncatedSeries.from_expr(f, z0, order).coefficients
        got = rebuilt.coefficients
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, atol=1e-11 * max(1.0, scale))
