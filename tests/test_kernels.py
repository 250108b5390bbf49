"""Array kernels the oracle's tape loop calls, checked against direct formulas."""

import numpy as np

from funcseries.oracle import _series_compose, _series_div, _series_mul


class TestAgainstDirectFormulas:
    def test_mul_geometric_times_alternating(self):
        one_minus = np.array([1.0, -1.0, 0.0], dtype=np.complex128)
        one_plus = np.array([1.0, 1.0, 0.0], dtype=np.complex128)
        got = _series_mul(one_plus, one_minus, 2)
        np.testing.assert_allclose(got, [1.0, 0.0, -1.0], atol=1e-15)

    def test_div_geometric(self):
        num = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        den = np.array([1.0, 1.0, 0.0], dtype=np.complex128)
        got = _series_div(num, den, 2)
        np.testing.assert_allclose(got, [1.0, -1.0, 1.0], atol=1e-15)

    def test_compose_exp_double(self):
        exp_jet = np.array([1.0, 1.0, 0.5], dtype=np.complex128)
        inner = np.array([0.0, 2.0, 0.0], dtype=np.complex128)
        got = _series_compose(exp_jet, inner, 2)
        np.testing.assert_allclose(got, [1.0, 2.0, 2.0], atol=1e-15)
