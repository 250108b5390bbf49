"""Jets built on the evaluation tape, and triangular coefficient matching."""

import cmath
import hashlib
import warnings

import numpy as np
import pytest
import test_expr
from hypothesis import given, settings
from hypothesis import strategies as st

from funcseries import CATALOG
from funcseries.composite import OperatorChain
from funcseries.errors import (
    DivisionBySingularSeries,
    FuncSeriesError,
    LeadingCoefficientZero,
    SingularAtExpansionPoint,
)
from funcseries.expr import ADD, DIVIDE, Expr, const, differentiate, evaluate, parse, simplify, var
from funcseries.oracle import (
    TruncatedSeries,
    _divide,
    _series_div,
    _series_mul,
    oracle_coefficients,
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
        with pytest.raises(SingularAtExpansionPoint,
                           match=r"^jet of 1/\(z \+ 1\) at -1\.0: divisor series"):
            TruncatedSeries.from_expr(parse("1/(1+z)"), -1.0, 3)

    @pytest.mark.parametrize("run", [
        # a complex constant has no text form
        lambda: TruncatedSeries.from_expr(Expr(DIVIDE, (const(1j), parse("z-1"))), 1.0, 2),
        # simplify rejects the out-of-range 1e400 while formatting the message
        lambda: oracle_coefficients(parse("1/(z-1) + 1e400"), var("z"), 1.0, 2),
    ], ids=["complex-constant", "constant-out-of-range"])
    def test_pole_in_an_expression_without_text_is_still_singular(self, run):
        with pytest.raises(SingularAtExpansionPoint,
                           match=r"^jet at 1\.0: divisor series has \(near-\)zero constant term$"):
            run()

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
    """The array arithmetic the tape loop runs, and the value from_expr returns."""

    def jet(self, text, order=3):
        return TruncatedSeries.from_expr(parse(text), 0.5, order).coefficients

    def test_multiply(self):
        got = TruncatedSeries.from_expr(parse("(1+z)*(1-z)"), 0.0, 2).coefficients
        np.testing.assert_allclose(got, [1, 0, -1], atol=1e-15)

    def test_divide(self):
        got = TruncatedSeries.from_expr(parse("(1-z)/(1+z)"), 0.0, 2).coefficients
        np.testing.assert_allclose(got, [1, -2, 2], atol=1e-15)

    def test_subtract_and_negate(self):
        a, b = self.jet("exp(z)"), self.jet("2 + sin(z)")
        np.testing.assert_array_equal(self.jet("exp(z) - (2 + sin(z))"), a - b)
        np.testing.assert_array_equal(self.jet("-exp(z)"), -a)

    def test_number_over_series(self):
        b = self.jet("2 + sin(z)")
        np.testing.assert_array_equal(
            self.jet("2/(2 + sin(z))"), _series_div(np.r_[2, 0, 0, 0].astype(complex), b, 3))

    def test_compose_exp_with_2t(self):
        got = TruncatedSeries.from_expr(parse("exp(2*z)"), 0.0, 2).coefficients
        np.testing.assert_allclose(got, [1, 2, 2], atol=1e-15)

    def test_mul_then_div_round_trip(self):
        rng = np.random.default_rng(4242)
        order = 12
        a = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        b = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        b[0] += 2.0
        np.testing.assert_allclose(
            _series_div(_series_mul(a, b, order), b, order), a, atol=1e-10)

    def test_divide_by_singular_series(self):
        a = np.array([1.0, 0.0], dtype=np.complex128)
        b = np.array([0.0, 1.0], dtype=np.complex128)
        with pytest.raises(DivisionBySingularSeries,
                           match="^divisor series has \\(near-\\)zero constant term$"):
            _divide(a, b, 1)

    def test_integer_powers(self):
        cube = TruncatedSeries.from_expr(parse("(1+z)^3"), 0.0, 3)
        np.testing.assert_allclose(cube.coefficients, [1, 3, 3, 1], atol=1e-14)
        inverse = TruncatedSeries.from_expr(parse("(1+z)^(-1)"), 0.0, 3)
        np.testing.assert_allclose(inverse.coefficients, [1, -1, 1, -1], atol=1e-14)

    def test_immutability(self):
        ts = TruncatedSeries([1.0, 2.0])
        with pytest.raises((ValueError, AttributeError)):
            ts.coefficients[0] = 5.0

    @pytest.mark.parametrize("build,error,message", [
        (lambda: TruncatedSeries.from_expr(parse("exp(z)"), 0.0, -1),
         ValueError, "order must be >= 0"),
        (lambda: TruncatedSeries([]), ValueError, "coefficients must be a non-empty 1-d sequence"),
        (lambda: setattr(TruncatedSeries([1.0]), "coefficients", [2.0]),
         AttributeError, "TruncatedSeries is immutable"),
    ], ids=["negative-order", "empty", "rebind-coefficients"])
    def test_invalid_use_is_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_repr_lists_the_coefficients(self):
        assert repr(TruncatedSeries([1.0, 2.0])) == "TruncatedSeries([(1+0j), (2+0j)])"


class TestOracleCoefficients:
    def test_too_deep_a_tree_is_a_funcseries_error(self):
        # z + 1 + ... + 1 nested past the interpreter stack
        deep = var("z")
        for _ in range(2000):
            deep = Expr(ADD, (deep, const(1)))
        for f, s in [(deep, var("z")), (var("z"), deep)]:
            with pytest.raises(FuncSeriesError,
                               match="^expression nested too deeply to build a jet$"):
                oracle_coefficients(f, s, 0.5, 2)

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

    def test_exp_jet_overflow_is_a_singularity(self):
        with pytest.raises(SingularAtExpansionPoint,
                           match=r"^exp jet at \(800\+0j\): math range error$"):
            oracle_coefficients(parse("exp(z)"), parse("z"), 800, 4)

    def test_log_jet_underflow_is_a_singularity(self):
        # v^2 underflows to 0 in the jet of log at 1e-200
        with pytest.raises(SingularAtExpansionPoint,
                           match=r"^log jet at \(1e-200\+0j\): complex division by zero$"):
            oracle_coefficients(parse("log(z)"), parse("z"), 1e-200, 3)


#: jets whose values or coefficients leave double range somewhere in 1e-300..1e300
F_TEXTS = ["exp(z)", "log(z)", "sqrt(z)", "sin(z)", "cosh(z)", "tan(z)", "1/z", "z^3",
           "2^(-z)", "log(1+z)/z"]
S_TEXTS = ["z", "exp(z)", "sqrt(z)", "z^2 + z", "sin(z)", "log(z)"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(f=st.sampled_from(F_TEXTS), s=st.sampled_from(S_TEXTS),
       size=st.floats(1e-300, 1e300), direction=st.sampled_from([1, -1, 1j]),
       order=st.integers(0, 8))
def test_oracle_over_the_double_range(f, s, size, direction, order):
    # finite coefficients or a FuncSeriesError, never a bare error or a warning
    # (warnings turn to errors here, not by a mark: a failing example's report
    # imports modules that warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            coefficients = oracle_coefficients(parse(f), parse(s), size * direction, order)
        except FuncSeriesError:
            return
    assert len(coefficients) == order + 1
    assert all(map(cmath.isfinite, coefficients))


def _jet_outcome(fn, *args) -> str:
    """float.hex of every coefficient, or the fault a raise comes from: the
    type and message at the root of its __cause__ chain."""
    try:
        value = fn(*args)
    except Exception as exc:
        while exc.__cause__ is not None:
            exc = exc.__cause__
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, TruncatedSeries):
        value = value.coefficients.tolist()
    return " ".join(f"{c.real.hex()},{c.imag.hex()}" for c in map(complex, value))


class TestRecordedJets:
    #: sha256 of _jet_outcome, one line each, for: the jets of f and s and
    #: the oracle coefficients of each CATALOG pair at orders 0/3/8/14/40;
    #: the order-6 jets of its ladder entries 0-7; and the order-4 jets of
    #: 3000 random trees (seed 20261019) at six points each.  18161
    #: outcomes, about a fifth of them raising
    JET_DIGEST = "23c4f97222a1659a06c1799634640f9dc9b9757cc93bd957cd9b7bf9be9f8512"

    #: 0, both sides of the log/sqrt cut, a pole of many random trees, a
    #: generic point, and a point whose powers underflow
    POINTS = [0.0, -2.0, complex(-2.0, -0.0), 1.0, 0.5 + 0.25j, 1e-200j]

    def test_jets_match_recorded_digest(self):
        outcomes = []
        for _, f_text, s_text, z0 in CATALOG:
            f, s = parse(f_text), parse(s_text)
            for order in (0, 3, 8, 14, 40):
                outcomes.append(_jet_outcome(TruncatedSeries.from_expr, f, z0, order))
                outcomes.append(_jet_outcome(TruncatedSeries.from_expr, s, z0, order))
                outcomes.append(_jet_outcome(oracle_coefficients, f, s, z0, order))
            chain = OperatorChain(f, s)
            for n in range(8):
                outcomes.append(_jet_outcome(TruncatedSeries.from_expr, chain.entry(n), z0, 6))
        rng = np.random.default_rng(20261019)
        for _ in range(3000):
            e = test_expr.TestRandomizedTrees.random_tree(rng, int(rng.integers(2, 6)))
            for z in self.POINTS:
                outcomes.append(_jet_outcome(TruncatedSeries.from_expr, e, z, 4))
        assert sum(": " in o for o in outcomes) > 3000  # the failing paths run too
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.JET_DIGEST

    def test_numerator_fault_reported_first(self):
        # both fail at 0; the jet of the numerator is built first
        with pytest.raises(SingularAtExpansionPoint, match="^log at 0$"):
            TruncatedSeries.from_expr(parse("log(z)/sqrt(z)"), 0, 3)
