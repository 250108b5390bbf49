"""Contour-quadrature coefficients and the two-sided partial sum."""

import math
from collections import Counter

import numpy as np
import pytest

from funcseries.errors import AnnulusViolation, QuadratureSingularity
from funcseries.expr import const, differentiate, evaluate, parse
from funcseries.series import MAX_ORDER, ExpansionRequest, expand
import funcseries.teixeira as teixeira
from funcseries.teixeira import (
    MAX_POINTS,
    ContourSpec,
    teixeira_expand,
    teixeira_partial_sum,
)

UNIT = ContourSpec(0.0, 1.0)
HALF = ContourSpec(0.0, 0.5)


def a_coefficients(f, theta, outer, order):
    return teixeira_expand(f, theta, 0.0, outer, None, order).a_coefficients


def b_coefficients(f, theta, inner, order):
    return teixeira_expand(f, theta, 0.0, UNIT, inner, order).b_coefficients


class TestContourSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0.0, -1.0)
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                ContourSpec(0.0, radius)
        with pytest.raises(ValueError):
            ContourSpec(0.0, 1.0, points=8)
        with pytest.raises(ValueError):
            ContourSpec(0.0, 1.0, points=100)
        assert ContourSpec(0.0, 1.0, points=MAX_POINTS).points == 2**16
        with pytest.raises(ValueError, match="at most 65536 quadrature points"):
            ContourSpec(0.0, 1.0, points=2 * MAX_POINTS)

    @pytest.mark.parametrize("inner", [None, HALF])
    def test_negative_order_rejected(self, inner):
        with pytest.raises(ValueError, match="order must be >= 0"):
            teixeira_expand(parse("exp(z)"), parse("z"), 0.0, UNIT, inner, -1)

    @pytest.mark.parametrize("inner", [None, HALF])
    def test_order_above_the_limit_rejected(self, inner):
        with pytest.raises(ValueError, match=f"^order must be <= {MAX_ORDER}$"):
            teixeira_expand(parse("exp(z)"), parse("z"), 0.0, UNIT, inner, MAX_ORDER + 1)

    def test_nodes_lie_on_circle(self):
        zs, phase = ContourSpec(1.0 + 1.0j, 2.0, 64).nodes()
        np.testing.assert_allclose(np.abs(zs - (1 + 1j)), 2.0, atol=1e-12)
        assert len(phase) == 64


class TestPositiveCoefficients:
    def test_taylor_values_for_exponential(self):
        # with theta = z the coefficients are 1/n!, from residue calculus
        a = a_coefficients(parse("exp(z)"), parse("z"), UNIT, 4)
        for n in (2, 4):
            assert a[n] == pytest.approx(1 / math.factorial(n), abs=1e-8)

    def test_constant_function_gives_zero(self):
        for got in a_coefficients(const(3), parse("z"), UNIT, 4)[1:]:
            assert abs(got) < 1e-14

    def test_topmost_coefficient_via_function_value(self):
        got = a_coefficients(parse("exp(z)"), parse("z"), UNIT, 0)[0]
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_theta_zero_on_contour_rejected(self):
        with pytest.raises(QuadratureSingularity):
            a_coefficients(parse("exp(z)"), parse("z - 1"), UNIT, 1)

    def test_pole_on_contour_rejected(self):
        with pytest.raises(QuadratureSingularity):
            a_coefficients(parse("1/(z-1)"), parse("z"), UNIT, 1)


class TestNegativeCoefficients:
    def test_entire_function_has_none(self):
        for got in b_coefficients(parse("exp(z)"), parse("z"), HALF, 4):
            assert abs(got) < 1e-10

    def test_simple_pole_residue(self):
        # f = 1/z: f' theta = -1/z integrates to -2 pi i, so B_1 = 1
        got = b_coefficients(parse("1/z"), parse("z"), HALF, 1)[0]
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_constant_function_gives_zero(self):
        assert abs(b_coefficients(const(2), parse("z"), HALF, 1)[0]) < 1e-14

    @pytest.mark.parametrize("inner_radius", [1.0, 2.0])
    def test_inner_contour_not_inside_outer_rejected(self, inner_radius):
        # the largest |theta| inside is not below the smallest outside, so
        # the ring the B_n describe is empty
        with pytest.raises(AnnulusViolation, match="empty annulus"):
            teixeira_expand(parse("1/z + exp(z)"), parse("z"), 0.0,
                            UNIT, ContourSpec(0.0, inner_radius), 4)

    @pytest.mark.parametrize("f, theta", [("exp(2*z)", "exp(z) - 1"),
                                          ("9^(-z)", "3^(-z) - 1")])
    def test_empty_ring_allowed_without_negative_part(self, f, theta):
        # a nonlinear theta makes the two contours' |theta| ranges overlap,
        # but with every B_n negligible the expansion is purely positive
        tx = teixeira_expand(parse(f), parse(theta), 0.0, UNIT, HALF, 4)
        assert tx.inner_theta_max >= tx.outer_theta_min
        assert all(abs(b) < 1e-14 for b in tx.b_coefficients)
        assert teixeira_partial_sum(tx, 0.3, 4) == pytest.approx(
            evaluate(parse(f), 0.3), abs=1e-12)


class TestQuadratureQuality:
    def test_doubling_nodes_changes_nothing_measurable(self):
        f, theta = parse("exp(z)"), parse("z")
        at256 = a_coefficients(f, theta, ContourSpec(0, 1.0, 256), 5)
        at512 = a_coefficients(f, theta, ContourSpec(0, 1.0, 512), 5)
        for n in range(1, 6):
            assert abs(at512[n] - at256[n]) <= 1e-10 * max(1.0, abs(at512[n]))

    def test_contour_independence(self):
        f, theta = parse("exp(z)"), parse("z")
        small = a_coefficients(f, theta, ContourSpec(0, 0.8), 5)
        large = a_coefficients(f, theta, ContourSpec(0, 1.2), 5)
        for n in range(1, 6):
            assert abs(large[n] - small[n]) <= 1e-9 * max(1.0, abs(small[n]))

    def test_bitwise_deterministic(self):
        f, theta = parse("exp(z)/(2-sin(z))"), parse("z")
        a = teixeira_expand(f, theta, 0.0, UNIT, HALF, 3)
        b = teixeira_expand(f, theta, 0.0, UNIT, HALF, 3)
        assert a.a_coefficients == b.a_coefficients
        assert a.b_coefficients == b.b_coefficients

    def test_cross_method_agreement_with_engine(self):
        # theta = z - z0 with a simple zero at z0 must reproduce the
        # engine's coefficients for s = z
        z0 = 0.4
        f = parse("exp(z)")
        tx = teixeira_expand(f, parse(f"z - {z0}"), z0,
                             ContourSpec(z0, 1.0), None, 8)
        eng = expand(ExpansionRequest(f, parse("z"), z0, 8))
        for n in range(1, 9):
            dev = abs(tx.a_coefficients[n] - eng.coefficients[n])
            assert dev <= 1e-7 * max(1.0, abs(eng.coefficients[n])), n

    @pytest.mark.parametrize("order", [3, 12])
    def test_node_values_computed_once_per_contour(self, monkeypatch, order):
        # f, theta', theta and f' compiled for the outer nodes and f' and
        # theta for the inner ones, whatever the order; the validity ring
        # reuses theta
        compiled, calls = [], []
        real_evaluate_many = teixeira.evaluate_many

        def counting(e, points):
            compiled.append(e)
            calls.extend(points)
            return real_evaluate_many(e, points)

        monkeypatch.setattr(teixeira, "evaluate_many", counting)
        f, theta = parse("exp(z)/(2-sin(z))"), parse("z")
        teixeira_expand(f, theta, 0.0, UNIT, HALF, order)
        fprime, tprime = differentiate(f, "z"), differentiate(theta, "z")
        assert Counter(compiled) == Counter([f, tprime, theta, fprime, theta, fprime])
        assert len(compiled) == 6
        assert len(calls) == 6 * UNIT.points == 3072

    @pytest.mark.parametrize("order", [0, 3])
    def test_validity_ring_read_at_quadrature_nodes(self, order):
        # off-center circles put the extremes of |theta| between every
        # eighth node, where a coarser sampling would miss them
        outer, inner = ContourSpec(0.1 + 0.05j, 1.0), ContourSpec(0.1 + 0.05j, 0.5)
        theta = parse("z")
        tx = teixeira_expand(parse("exp(z)"), theta, 0.0, outer, inner, order)
        outer_min = min(abs(evaluate(theta, complex(z))) for z in outer.nodes()[0])
        inner_max = max(abs(evaluate(theta, complex(z))) for z in inner.nodes()[0])
        assert (tx.outer_theta_min, tx.inner_theta_max) == (outer_min, inner_max)
        alone = teixeira_expand(parse("exp(z)"), theta, 0.0, outer, None, order)
        assert alone.inner_theta_max == 0.0


class TestPartialSum:
    def test_taylor_reduction(self):
        tx = teixeira_expand(parse("exp(z)"), parse("z"), 0.0, UNIT, HALF, 8)
        got = teixeira_partial_sum(tx, 0.3, 8)
        assert got == pytest.approx(math.exp(0.3), abs=1e-6)

    def test_two_sided_laurent_case(self):
        tx = teixeira_expand(parse("1/z + exp(z)"), parse("z"), 0.0,
                             ContourSpec(0.0, 2.0), ContourSpec(0.0, 0.5), 12)
        assert tx.b_coefficients[0] == pytest.approx(1.0, abs=1e-7)
        got = teixeira_partial_sum(tx, 1.0, 12)
        want = 1.0 + math.e
        assert got == pytest.approx(want, abs=1e-6)

    def test_zero_of_theta_returns_constant_term(self):
        tx = teixeira_expand(parse("exp(z)"), parse("z"), 0.0, UNIT, HALF, 6)
        got = teixeira_partial_sum(tx, 0.0, 6)
        assert got == pytest.approx(tx.a_coefficients[0], abs=1e-12)

    def test_outside_outer_ring_rejected(self):
        tx = teixeira_expand(parse("exp(z)"), parse("z"), 0.0, UNIT, None, 6)
        with pytest.raises(AnnulusViolation):
            teixeira_partial_sum(tx, 1.5, 6)

    def test_inside_inner_ring_rejected(self):
        tx = teixeira_expand(parse("1/z + exp(z)"), parse("z"), 0.0,
                             ContourSpec(0.0, 2.0), ContourSpec(0.0, 0.5), 6)
        with pytest.raises(AnnulusViolation):
            teixeira_partial_sum(tx, 0.2, 6)

    @pytest.mark.parametrize("upto", [-1, 40])
    def test_upto_outside_order_rejected(self, upto):
        tx = teixeira_expand(parse("1/z + exp(z)"), parse("z"), 0.0,
                             ContourSpec(0.0, 2.0), ContourSpec(0.0, 0.5), 4)
        with pytest.raises(ValueError, match=r"upto must be in \[0, 4\]"):
            teixeira_partial_sum(tx, 1.0, upto)

    def test_serialization_shape(self):
        tx = teixeira_expand(parse("exp(z)"), parse("z"), 0.0, UNIT, HALF, 3)
        d = tx.as_dict()
        assert list(d) == ["A", "B", "contours"]
        assert len(d["A"]) == 4 and len(d["B"]) == 3
        assert d["contours"]["outer"]["points"] == 512
