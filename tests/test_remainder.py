"""Truncation error: exact measurement and the two bounds."""

import math

import numpy as np
import pytest

import funcseries.remainder as remainder
from funcseries.errors import NonMonotoneComposite
from funcseries.expr import evaluate, parse
from funcseries.remainder import (
    MAX_SAMPLES,
    complex_bound,
    lagrange_bound,
    measured_error,
)
from funcseries.series import MAX_ORDER, ExpansionRequest, expand

#: real-z sweep points per catalog pair with a monotone inner segment
REAL_CASES = [
    ("1/(1+z)", "sin(z)", 0.0, [-0.3, 0.2, 0.4]),
    ("1/(1-2^(1-z))", "2^(-z)", 0.5, [0.2, 0.8]),
    ("8^(-z)", "2^(-z)", 0.0, [-0.5, 0.5]),
    ("9^(-z)", "3^(-z)", 0.0, [-0.4, 0.6]),
    ("5^(-z)", "2^(-z)", 0.0, [-0.5, 0.5]),
    ("1/(z-2)^2", "1/(z-2)", 0.0, [-0.5, 0.5, 1.0]),
    ("exp(2*z)", "exp(z)", 0.0, [-0.4, 0.6]),
]


def expand_pair(f_text, s_text, z0, order):
    return expand(ExpansionRequest(parse(f_text), parse(s_text), z0, order))


class TestMeasuredError:
    def test_zero_on_terminated_expansion(self):
        exp = expand_pair("1/(z-2)^2", "1/(z-2)", 0.0, 6)
        for z in (0.5, -1.0, 1.2):
            assert measured_error(exp, z, 6).bound < 1e-12

    def test_zero_at_expansion_point(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        assert measured_error(exp, 0.0, 3).bound < 1e-14

    def test_decreases_with_order_at_half(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        e2 = measured_error(exp, 0.5, 2).bound
        e3 = measured_error(exp, 0.5, 3).bound
        assert 0 < e3 < e2

    def test_monotone_improvement_on_interval(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 6)
        for z in np.linspace(-0.5, 0.5, 11):
            if z == 0:
                continue
            errs = [measured_error(exp, z, n).bound for n in range(7)]
            for n in range(6):
                assert errs[n + 1] <= errs[n] * (1 + 1e-12), (z, n)


class TestLagrangeBound:
    def test_classical_taylor_case(self):
        # f = exp, s = z: the bound is the textbook Lagrange remainder
        exp = expand_pair("exp(z)", "z", 0.0, 3)
        est = lagrange_bound(exp, 0.5, 3)
        classical = math.exp(0.5) * 0.5**4 / math.factorial(4)
        assert est.bound == pytest.approx(classical, rel=1e-9)
        assert measured_error(exp, 0.5, 3).bound <= est.bound

    def test_dominates_measured_error(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        est = lagrange_bound(exp, 0.4, 3)
        err = measured_error(exp, 0.4, 3)
        assert err.bound <= est.bound * (1 + 1e-9)

    def test_terminated_case_gives_zero(self):
        exp = expand_pair("1/(z-2)^2", "1/(z-2)", 0.0, 6)
        est = lagrange_bound(exp, 0.5, 4)
        assert est.bound < 1e-12

    def test_nonmonotone_inner_rejected(self):
        exp = expand_pair("exp(z)", "sin(z)", 0.0, 2)
        with pytest.raises(NonMonotoneComposite):
            lagrange_bound(exp, 3.0, 2)  # cos changes sign before z = 3

    def test_complex_z_rejected(self):
        exp = expand_pair("exp(z)", "z", 0.0, 2)
        with pytest.raises(ValueError):
            lagrange_bound(exp, 0.5 + 0.2j, 2)

    def test_upto_outside_expansion_rejected(self):
        exp = expand_pair("exp(z)", "z", 0.0, 3)
        for upto in (-1, exp.order + 1):
            with pytest.raises(ValueError, match="upto must be in"):
                lagrange_bound(exp, 0.5, upto)

    def test_upto_at_order_limit_rejected(self):
        exp = expand_pair("exp(z)", "z", 0.0, MAX_ORDER)
        with pytest.raises(ValueError, match="fit a float"):
            lagrange_bound(exp, 0.5, MAX_ORDER)

    def test_records_sample_count(self):
        exp = expand_pair("exp(z)", "z", 0.0, 2)
        assert lagrange_bound(exp, 0.5, 2, samples=48).samples == 48

    def test_sample_count_capped(self):
        exp = expand_pair("exp(z)", "z", 0.0, 2)
        with pytest.raises(ValueError, match="at most 65536 samples"):
            lagrange_bound(exp, 0.5, 2, samples=MAX_SAMPLES + 1)

    def test_compiles_sprime_and_entry_once(self, monkeypatch):
        # s' and ladder entry upto + 1 are each compiled once and read at
        # every grid point
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        compiled, calls = [], []
        real_evaluate_many = remainder.evaluate_many

        def counting(e, points):
            compiled.append(e)
            calls.extend(points)
            return real_evaluate_many(e, points)

        monkeypatch.setattr(remainder, "evaluate_many", counting)
        lagrange_bound(exp, 0.4, 2, samples=48)
        assert compiled == [exp.chain.sprime, exp.chain.entry(3)]
        assert len(calls) == 2 * 48

    @pytest.mark.parametrize("n", [2, 3, 64, MAX_SAMPLES])
    def test_grid_is_linspace_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        ends = [tuple(rng.uniform(-3, 3, 2).tolist()) for _ in range(8)]
        ends += [(b, a) for a, b in ends]  # both directions
        ends += [(0.4, 0.4), (-0.0, 0.7), (-0.0, -0.5), (-0.0, -0.0)]
        # subnormal spans: the step underflows to 0 and linspace scales i/div
        ends += [(0.0, 5e-324), (1e-310, 1e-310 + 5e-324), (5e-324, -5e-324)]
        for start, stop in ends:
            got = remainder.linspace(start, stop, n)
            want = np.linspace(start, stop, n).tolist()
            assert [x.hex() for x in got] == [x.hex() for x in want], (start, stop, n)

    @pytest.mark.parametrize("f_text,s_text,z0,zs", REAL_CASES)
    def test_soundness_sweep(self, f_text, s_text, z0, zs):
        exp = expand_pair(f_text, s_text, z0, 7)
        for z in zs:
            # both sides carry double-precision dust once the true error
            # vanishes, so allow an absolute floor at measurement accuracy
            floor = 1e-13 * max(1.0, abs(evaluate(exp.f, z)))
            for upto in range(7):
                measured = measured_error(exp, z, upto).bound
                bound = lagrange_bound(exp, z, upto).bound
                assert measured <= bound * (1 + 1e-9) + floor, (f_text, z, upto)


class TestComplexBound:
    def test_taylor_shape(self):
        exp = expand_pair("exp(z)", "z", 0.0, 4)
        for z in (0.3, 0.5j, 0.2 + 0.4j):
            est = complex_bound(exp, z, 4)
            assert est.bound == pytest.approx(abs(z) ** 5 / math.factorial(5), rel=1e-12)

    def test_zero_at_expansion_point(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        assert complex_bound(exp, 0.0, 3).bound == 0.0

    def test_positive_off_point(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        assert complex_bound(exp, 0.3, 3).bound > 0

    def test_evaluation_point_recipes_agree(self):
        # ladder entry at z0 equals the entry at g(s(z0)) when the inverse
        # returns to the expansion point
        exp = expand_pair("exp(2*z)", "exp(z)", 0.3, 3)
        g = parse("log(s)")
        s0 = evaluate(exp.s, 0.3)
        back = evaluate(g, s0)
        assert abs(back - 0.3) < 1e-8
        entry = exp.chain.entry(4)
        assert evaluate(entry, back) == pytest.approx(evaluate(entry, 0.3), rel=1e-9)

    def test_upto_outside_expansion_rejected(self):
        exp = expand_pair("exp(z)", "z", 0.0, 3)
        for upto in (-1, exp.order + 1):
            with pytest.raises(ValueError, match="upto must be in"):
                complex_bound(exp, 0.5, upto)

    def test_upto_at_order_limit_rejected(self):
        # (MAX_ORDER + 1)! overflows a float
        exp = expand_pair("exp(z)", "z", 0.0, MAX_ORDER)
        with pytest.raises(ValueError, match="fit a float"):
            complex_bound(exp, 0.5, MAX_ORDER)
        assert complex_bound(exp, 0.5, MAX_ORDER - 1).bound >= 0

    def test_power_beyond_double_range_is_a_value_error(self):
        # |s(z) - s0|^3 = 1e465 leaves double range; the bound names it
        exp = expand_pair("sin(z)", "z", 0.0, 2)
        with pytest.raises(ValueError, match=r"\|s\(z\) - s0\|\^3 = 1e\+155\^3 overflows"):
            complex_bound(exp, 1e155, 2)
        with pytest.raises(ValueError, match="overflows a float"):
            lagrange_bound(exp, 1e155, 2)

    def test_product_beyond_double_range_is_a_value_error(self):
        # 709^2 / 2! fits a float, but times max |exp| on [0, 709] it does not
        exp = expand_pair("exp(z)", "z", 0.0, 1)
        with pytest.raises(ValueError, match=r"^the bound 709\^2/2! \* 8\.2\d+e\+307 overflows"):
            lagrange_bound(exp, 709, 1)
        assert complex_bound(exp, 709, 1).bound == 709.0 ** 2 / 2

    def test_vanishing_entry_gives_zero_however_far_out(self):
        # entry 4 of exp(2z) in exp(z) is identically 0; (e^300)^4 overflows
        exp = expand_pair("exp(2*z)", "exp(z)", 0.0, 3)
        assert complex_bound(exp, 300, 3).bound == 0.0
        assert lagrange_bound(exp, 300, 3).bound == 0.0

    def test_finite_bound_keeps_its_arithmetic(self):
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        span = abs(evaluate(exp.s, 0.3) - exp.s0)
        entry = abs(evaluate(exp.chain.entry(4), 0.0))
        want = span ** 4 / math.factorial(4) * entry
        assert complex_bound(exp, 0.3, 3).bound.hex() == want.hex()

    def test_serialization(self):
        exp = expand_pair("exp(z)", "z", 0.0, 2)
        d = complex_bound(exp, 0.5, 2).as_dict()
        assert d["kind"] == "complex-theta"
        assert d["order"] == 2
        assert d["samples"] is None
