"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s``
or ``-v`` to see them).  Tolerances are pinned here and nowhere else.
"""

import csv
import io
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from funcseries import CATALOG
from funcseries.cli import main as cli_main
from funcseries.composite import composite_derivative, z_derivative_via_s
from funcseries.expr import differentiate, evaluate, parse, simplify, substitute
from funcseries.oracle import oracle_coefficients
from funcseries.remainder import lagrange_bound, measured_error
from funcseries.series import (
    ExpansionRequest,
    expand,
    partial_sum,
    power_expansion_coefficients,
)
from funcseries.teixeira import ContourSpec, teixeira_expand, teixeira_partial_sum

RNG = np.random.default_rng(60601)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def expand_pair(f_text, s_text, z0, order):
    return expand(ExpansionRequest(parse(f_text), parse(s_text), z0, order))


def test_01_rational_in_sine_coefficients():
    with criterion(1, "rational-in-sine coefficients"):
        t0 = time.monotonic()
        exp = expand_pair("1/(1+z)", "sin(z)", 0.0, 3)
        elapsed = time.monotonic() - t0
        want = [1.0, -1.0, 1.0, -7 / 6]
        for n in range(4):
            assert abs(exp.coefficients[n] - want[n]) <= 1e-12, n
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_02_taylor_reduction():
    with criterion(2, "Taylor reduction with s = z"):
        t0 = time.monotonic()
        known = {
            "exp(z)": lambda z0, n: math.exp(z0) / math.factorial(n),
            "sin(z)": lambda z0, n: [math.sin(z0), math.cos(z0), -math.sin(z0),
                                     -math.cos(z0)][n % 4] / math.factorial(n),
            "1/(1+z)": lambda z0, n: (-1.0) ** n / (1 + z0) ** (n + 1),
        }
        for f_text, coefficient in known.items():
            for z0 in (0.0, 0.3):
                exp = expand_pair(f_text, "z", z0, 8)
                for n in range(9):
                    want = coefficient(z0, n)
                    got = exp.coefficients[n]
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), \
                        (f_text, z0, n)
        assert time.monotonic() - t0 < 1.0


def test_03_termination():
    with criterion(3, "termination of power-in-power and own-power series"):
        for k, m in ((8, 2), (9, 3)):
            stop = round(math.log(k) / math.log(m))
            exp = expand_pair(f"{k}^(-z)", f"{m}^(-z)", 0.0, stop + 4)
            for n in range(stop + 1, exp.order + 1):
                assert abs(exp.coefficients[n]) < 1e-10, (k, m, n)
        for denom in (2, 3):
            beta = Fraction(1, denom)
            a = power_expansion_coefficients(beta, 6)
            for n in range(denom + 1, 7):
                assert a[n] == 0.0, (beta, n)
            exp = expand_pair("exp(z)", f"exp(z/{denom})", 0.0, 6)
            for n in range(7):
                assert abs(exp.coefficients[n] - a[n]) <= 1e-10 * max(1.0, abs(a[n]))


def test_04_degenerate_rational_identity():
    with criterion(4, "degenerate rational pair becomes an identity"):
        exp = expand_pair("1/(z-2)^2", "1/(z-2)", 0.0, 6)
        assert exp.terminated_at == 2
        points = [complex(a, b) for a, b in RNG.uniform(-1.4, 1.4, size=(16, 2))]
        for z in points:
            want = 1.0 / (z - 2) ** 2
            got = partial_sum(exp, z, exp.order)
            assert abs(got - want) <= 1e-11 * abs(want), z


def test_05_oracle_equivalence(capsys):
    with criterion(5, "engine matches the independent oracle"):
        t0 = time.monotonic()
        for label, f_text, s_text, z0 in CATALOG:
            exp = expand_pair(f_text, s_text, z0, 10)
            oracle = oracle_coefficients(parse(f_text), parse(s_text), z0, 10)
            for n in range(11):
                dev = abs(exp.coefficients[n] - oracle[n]) / max(1.0, abs(oracle[n]))
                assert dev <= 1e-8, (label, n)
        code = cli_main(["check"])
        capsys.readouterr()
        assert code == 0
        assert time.monotonic() - t0 < 10.0


def test_06_remainder_soundness():
    with criterion(6, "real-segment remainder bound dominates measured error"):
        sweep = [
            ("1/(1+z)", "sin(z)", 0.0, [-0.3, 0.2, 0.4]),
            ("1/(1-2^(1-z))", "2^(-z)", 0.5, [0.2, 0.8]),
            ("8^(-z)", "2^(-z)", 0.0, [-0.5, 0.5]),
            ("9^(-z)", "3^(-z)", 0.0, [-0.4, 0.6]),
            ("5^(-z)", "2^(-z)", 0.0, [-0.5, 0.5]),
            ("1/(z-2)^2", "1/(z-2)", 0.0, [-0.5, 0.5, 1.0]),
            ("exp(2*z)", "exp(z)", 0.0, [-0.4, 0.6]),
        ]
        for f_text, s_text, z0, zs in sweep:
            exp = expand_pair(f_text, s_text, z0, 7)
            for z in zs:
                # both sides sit at double-precision dust once the true
                # error vanishes; allow the measurement floor
                floor = 1e-13 * max(1.0, abs(evaluate(exp.f, z)))
                for upto in range(7):
                    measured = measured_error(exp, z, upto).bound
                    bound = lagrange_bound(exp, z, upto, samples=64).bound
                    assert measured <= bound + floor, (f_text, z, upto)
        exp = expand_pair("exp(z)", "z", 0.0, 3)
        got = lagrange_bound(exp, 0.5, 3, samples=64).bound
        classical = math.exp(0.5) * 0.5**4 / math.factorial(4)
        assert abs(got - classical) <= 1e-9 * classical


def test_07_contour_cross_check():
    with criterion(7, "contour-integral coefficients cross-check"):
        tx = teixeira_expand(parse("exp(z)"), parse("z"), 0.0,
                             ContourSpec(0.0, 1.0, 512), ContourSpec(0.0, 0.5, 512), 8)
        for n in range(1, 9):
            assert abs(tx.a_coefficients[n] - 1 / math.factorial(n)) <= 1e-8, n
        for n in range(1, 5):
            assert abs(tx.b_coefficients[n - 1]) <= 1e-10, n

        two_sided = teixeira_expand(parse("1/z + exp(z)"), parse("z"), 0.0,
                                    ContourSpec(0.0, 2.0, 512),
                                    ContourSpec(0.0, 0.5, 512), 12)
        assert abs(two_sided.b_coefficients[0] - 1.0) <= 1e-7
        got = teixeira_partial_sum(two_sided, 1.0, 12)
        assert abs(got - (1.0 + math.e)) <= 1e-6


def test_08_partial_sum_errors_shrink(capsys, tmp_path):
    with criterion(8, "successive partial sums improve near the origin"):
        target = tmp_path / "grid.csv"
        code = cli_main(["plot", "--f", "1/(1+z)", "--s", "sin(z)", "--z0", "0",
                         "--order", "3", "--grid=-1.2:1.2:121",
                         "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0] == ["z", "f", "S0", "S1", "S2", "S3"]
        max_err = [0.0] * 4
        for row in rows[1:]:
            z = float(row[0])
            if abs(z) > 0.5 or not row[1]:
                continue
            f_val = float(row[1])
            for k in range(4):
                max_err[k] = max(max_err[k], abs(float(row[2 + k]) - f_val))
        assert max_err[0] > max_err[1] > max_err[2] > max_err[3]


def test_09_composite_derivative_identities():
    with criterion(9, "composite-derivative identities both directions"):
        inners = {
            "exp(z)": [0.0, 0.3, -0.4, 0.6, 0.2 + 0.1j, -0.3 + 0.2j, 0.5j, 0.8],
            "sin(z)": [0.0, 0.4, -0.3, 0.7, 0.1 - 0.2j, 0.3 + 0.3j, -0.6, 0.2],
            "1/(z-2)": [0.0, 0.5, -1.0, 1.0, 0.3 + 0.4j, -0.5 - 0.5j, 0.9, -0.2],
        }
        for s_text, points in inners.items():
            s = parse(s_text)
            for m in range(1, 5):
                f = simplify(s**m)
                for n in range(m + 3):
                    entry = composite_derivative(f, s, n)
                    for p in points:
                        sval = evaluate(s, p)
                        if n <= m:
                            want = (math.factorial(m) / math.factorial(m - n)
                                    * sval ** (m - n))
                        else:
                            want = 0.0
                        got = evaluate(entry, p)
                        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), \
                            (s_text, m, n, p)
                k = parse("s") ** m
                for n in range(5):
                    via_s = z_derivative_via_s(simplify(k), s, n)
                    direct = substitute(simplify(k), "s", s)
                    for _ in range(n):
                        direct = simplify(differentiate(direct))
                    for p in points:
                        want = evaluate(direct, p)
                        got = evaluate(via_s, p)
                        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), \
                            (s_text, m, n, p)
