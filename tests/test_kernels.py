"""Array kernels behind TruncatedSeries, checked against direct formulas."""

import numpy as np
import pytest

from funcseries import oracle

KERNELS = {
    "numpy": {
        "series_mul": oracle._series_mul,
        "series_div": oracle._series_div,
        "series_compose": oracle._series_compose,
    },
}


@pytest.mark.parametrize("backend", sorted(KERNELS))
class TestAgainstDirectFormulas:
    def test_mul_geometric_times_alternating(self, backend):
        impl = KERNELS[backend]
        one_minus = np.array([1.0, -1.0, 0.0], dtype=np.complex128)
        one_plus = np.array([1.0, 1.0, 0.0], dtype=np.complex128)
        got = impl["series_mul"](one_plus, one_minus, 2)
        np.testing.assert_allclose(got, [1.0, 0.0, -1.0], atol=1e-15)

    def test_div_geometric(self, backend):
        impl = KERNELS[backend]
        num = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        den = np.array([1.0, 1.0, 0.0], dtype=np.complex128)
        got = impl["series_div"](num, den, 2)
        np.testing.assert_allclose(got, [1.0, -1.0, 1.0], atol=1e-15)

    def test_compose_exp_double(self, backend):
        impl = KERNELS[backend]
        exp_jet = np.array([1.0, 1.0, 0.5], dtype=np.complex128)
        inner = np.array([0.0, 2.0, 0.0], dtype=np.complex128)
        got = impl["series_compose"](exp_jet, inner, 2)
        np.testing.assert_allclose(got, [1.0, 2.0, 2.0], atol=1e-15)
