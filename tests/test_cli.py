"""Command-line interface: reports, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import re
import time
from pathlib import Path

import pytest

from funcseries.cli import main
from funcseries.expr import parse
from funcseries.series import ExpansionRequest, expand

#: sha256 of the stdout of each benchmark CLI call, keyed by its arguments
CLI_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The one error line of an argparse usage error (exit 2, no stdout)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse prints its usage lines, then one error line
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")
    return errors[0]


class TestExpand:
    def test_rational_in_sine_report(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--f", "1/(1+z)", "--s", "sin(z)",
            "--z0", "0", "--order", "3")
        assert code == 0 and err == ""
        report = json.loads(out)
        coeffs = [complex(re, im) for re, im in report["coefficients"]]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-13)
        assert coeffs[3] == pytest.approx(-7 / 6, abs=1e-13)
        assert report["terminated"] is False
        assert report["magnitudes"][3] == pytest.approx(7 / 6, abs=1e-13)

    def test_taylor_reduction(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--f", "exp(z)", "--s", "z",
            "--z0", "0", "--order", "4")
        assert code == 0
        coeffs = [re for re, _ in json.loads(out)["coefficients"]]
        want = [1, 1, 1 / 2, 1 / 6, 1 / 24]
        assert coeffs == pytest.approx(want, abs=1e-12)

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--f", "1 + @", "--s", "z")
        assert code == 2
        assert out == "" and "parse error" in err

    def test_vanishing_derivative_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--f", "exp(z)", "--s", "z^2", "--z0", "0")
        assert code == 3
        assert out == "" and "derivative" in err

    def test_singularity_exit_4(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--f", "1/(1+z)", "--s", "sin(z)", "--z0", "-1")
        assert code == 4
        assert out == "" and "singular" in err.lower()

    def test_tiny_constant_inner_derivative_exit_4(self, capsys):
        # s' = 2^-600 meets a float constant in simplify and underflows
        code, out, err = run_cli(
            capsys, "expand", "--f", "0.5*exp(z)", "--s", "z/2^600", "--order", "2",
            "--tol-deriv-zero", "1e-300")
        assert code == 4 and out == ""
        assert err == ("singularity: constant out of floating-point range: "
                       "float division by zero\n")

    def test_complex_z0_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--f", "exp(z)", "--s", "z", "--z0", "0.1,0.2")
        assert code == 0
        report = json.loads(out)
        want = expand(ExpansionRequest(parse("exp(z)"), parse("z"), 0.1 + 0.2j, 6))
        assert report["z0"] == [0.1, 0.2]
        assert report["coefficients"] == want.as_dict()["coefficients"]

    def test_deterministic_output(self, capsys):
        args = ("expand", "--f", "1/(1+z)", "--s", "sin(z)", "--order", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "expand", "--f", "exp(z)", "--s", "z", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["terminated_at"] is None


class TestPlot:
    def test_csv_shape_and_values(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "plot", "--f", "1/(1+z)", "--s", "sin(z)", "--z0", "0",
            "--order", "3", "--grid=-1.2:1.2:121", "--out", str(target))
        assert code == 0
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0] == ["z", "f", "S0", "S1", "S2", "S3"]
        assert len(rows) == 122
        for row in rows[1:]:
            z = float(row[0])
            if not row[5]:
                continue
            sz = math.sin(z)
            want = 1 - sz + sz**2 - 7 / 6 * sz**3
            assert float(row[5]) == pytest.approx(want, abs=1e-12)

    def test_singular_cell_left_empty(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "plot", "--f", "1/(1+z)", "--s", "sin(z)",
            "--grid=-2:2:5", "--order", "2", "--out", str(target))
        assert code == 0
        rows = list(csv.reader(io.StringIO(target.read_text())))
        singular = [r for r in rows[1:] if float(r[0]) == -1.0]
        assert singular and singular[0][1] == ""
        assert singular[0][2] != ""

    def test_singular_inner_function_leaves_partial_sums_empty(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--f", "exp(z)", "--s", "1/z", "--z0", "1",
                               "--order", "2", "--grid=-1:1:3")
        assert code == 0
        rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(out))}
        assert rows["0.0"][0] == "1.0" and rows["0.0"][1:] == ["", "", ""]
        assert all(rows["-1.0"]) and all(rows["1.0"])

    def test_grid_ends_exactly_at_stop(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--f", "exp(z)", "--s", "z", "--order", "1",
                               "--grid=0.2:0.9:8")
        assert code == 0
        zs = [row[0] for row in csv.reader(io.StringIO(out))][1:]
        assert len(zs) == 8 and zs[0] == "0.2" and zs[-1] == "0.9"

    def test_order_zero_column_is_constant(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        run_cli(capsys, "plot", "--f", "exp(z)", "--s", "z",
                "--order", "0", "--grid", "0:1:3", "--out", str(target))
        rows = list(csv.reader(io.StringIO(target.read_text())))
        s0_values = {row[2] for row in rows[1:]}
        assert len(s0_values) == 1


class TestCheck:
    def test_catalog_passes(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == 0, err
        report = json.loads(out)
        assert report["ok"] is True
        assert report["max_relative_deviation"] < 1e-8
        assert len(report["pairs"]) == 7

    def test_single_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--f", "1/(1+z)", "--s", "sin(z)",
            "--z0", "0", "--order", "10")
        assert code == 0
        assert json.loads(out)["pairs"][0]["max_relative_deviation"] < 1e-8

    def test_termination_reported_on_both_routes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--f", "8^(-z)", "--s", "2^(-z)",
            "--z0", "0", "--order", "6")
        assert code == 0
        pair = json.loads(out)["pairs"][0]
        assert pair["terminated_at"] == 3
        tail = [complex(re, im) for re, im in pair["oracle"]][4:]
        assert max(abs(c) for c in tail) < 1e-10

    def test_corrupted_coefficient_exits_5(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--f", "exp(z)", "--s", "z", "--corrupt", "2")
        assert code == 5
        assert "disagreement" in err
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("argv,want", [
        (("--order", "2"), 0),
        (("--order", "8"), 0),
        (("--order", "8", "--corrupt", "2"), 5),
        (("--order", "2", "--tol-deriv-zero", "1e9"), 3),
        (("--order", "-1"), 1),
    ])
    def test_catalog_exit_code_and_streams(self, capsys, argv, want):
        # a failure is one stderr line; a report is written only once every pair is done
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == want
        assert err.count("\n") == (code != 0)
        assert (out == "") is (code in (1, 3))

    def test_help_says_a_catalog_check_ignores_z0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert "--z0 is ignored" in " ".join(capsys.readouterr().out.split())


class TestRemainder:
    def test_measured_below_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "remainder", "--f", "1/(1+z)", "--s", "sin(z)",
            "--z0", "0", "--order", "3", "--z", "0.4")
        assert code == 0
        report = json.loads(out)
        by_kind = {e["kind"]: e for e in report["estimates"]}
        assert by_kind["measured"]["bound"] <= by_kind["real-lagrange"]["bound"]
        assert by_kind["real-lagrange"]["samples"] == 64

    def test_at_expansion_point_both_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "remainder", "--f", "exp(z)", "--s", "z",
            "--z0", "0", "--order", "3", "--z", "0")
        report = json.loads(out)
        by_kind = {e["kind"]: e for e in report["estimates"]}
        assert by_kind["measured"]["bound"] < 1e-14
        assert by_kind["complex-theta"]["bound"] < 1e-14


    def test_bound_beyond_double_range_is_an_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "remainder", "--f", "sin(z)", "--s", "z", "--order", "2",
            "--z", "1e155")
        assert code == 1 and out == ""
        assert err == "error: |s(z) - s0|^3 = 1e+155^3 overflows a float\n"

    def test_bound_product_beyond_double_range_is_an_error_line(self, capsys):
        # 709^2 fits a float, but times max |exp| on [0, 709] it does not;
        # a bound of inf would print as Infinity, which is not JSON
        code, out, err = run_cli(
            capsys, "remainder", "--f", "exp(z)", "--s", "z", "--order", "1",
            "--z", "709")
        assert code == 1 and out == ""
        assert err.startswith("error: the bound 709^2/2! * ")
        assert err.endswith(" overflows a float\n") and err.count("\n") == 1

    def test_non_monotone_inner_function_skips_lagrange(self, capsys):
        code, out, err = run_cli(capsys, "remainder", "--f", "exp(z)", "--s", "z^2",
                                 "--z0", "-0.5", "--z", "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out)["estimates"][-1] == {
            "kind": "real-lagrange", "order": 6, "z": [0.5, 0.0], "bound": None,
            "skipped": "s' changes sign on [-0.5, 0.5] (64 samples)"}

    def test_vanishing_entry_bounds_are_zero_far_out(self, capsys):
        code, out, err = run_cli(
            capsys, "remainder", "--f", "exp(2*z)", "--s", "exp(z)", "--order", "3",
            "--z", "300")
        assert code == 0 and err == ""
        bounds = {e["kind"]: e["bound"] for e in json.loads(out)["estimates"]}
        assert bounds["complex-theta"] == 0.0 and bounds["real-lagrange"] == 0.0


class TestTeixeira:
    def test_taylor_coefficient_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "teixeira", "--f", "exp(z)", "--s", "z", "--z0", "0",
            "--order", "6", "--contour", "0:1.0")
        assert code == 0
        report = json.loads(out)
        a = [complex(re, im) for re, im in report["A"]]
        for n in range(7):
            assert abs(a[n] - 1 / math.factorial(n)) < 1e-8, n
        b = [complex(re, im) for re, im in report["B"]]
        assert max(abs(c) for c in b) < 1e-10
        assert report["contours"]["inner"]["radius"] == 0.5

    def test_two_contours_and_partial_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "teixeira", "--f", "1/z + exp(z)", "--s", "z", "--z0", "0",
            "--order", "12", "--contour", "0:2.0", "--contour", "0:0.5",
            "--x", "1")
        assert code == 0
        report = json.loads(out)
        b1 = complex(*report["B"][0])
        assert b1 == pytest.approx(1.0, abs=1e-7)
        value = complex(*report["partial_sum"]["value"])
        assert value == pytest.approx(1 + math.e, abs=1e-6)


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f=exp(z)\ns=z\norder=2\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "expand", "--order", "4")
        assert code == 0
        report = json.loads(out)
        assert len(report["coefficients"]) == 5  # flag overrode config order
        assert report["s"] == "z"

    def test_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# one pair\n\nf = exp(z)\n   \ns=z\n# order=9\norder=2\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "expand")
        assert code == 0
        report = json.loads(out)
        assert len(report["coefficients"]) == 3 and report["f"] == "exp(z)"


    def test_value_starting_with_minus(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f=-z^2\ns=z\norder=2\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "expand")
        assert (code, err) == (0, "")
        assert json.loads(out)["f"] == "-z^2"

    def test_config_without_command_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f=exp(z)\n")
        assert "required: command" in usage_error(capsys, "--config", str(cfg))

    def test_config_equals_path_applies_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f=exp(z)\ns=z\norder=2\n")
        code, out, err = run_cli(capsys, f"--config={cfg}", "expand")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["coefficients"]) == 3

    @pytest.mark.parametrize("contour", [("--contour=0:0.5",), ("--contour", "0:0.5")])
    def test_explicit_contour_replaces_config_contour(self, capsys, tmp_path, contour):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("contour=0:1\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "teixeira",
                                 "--f", "exp(z)", "--s", "z", "--order", "2", *contour)
        assert (code, err) == (0, "")
        contours = json.loads(out)["contours"]
        assert (contours["outer"]["radius"], contours["inner"]["radius"]) == (0.5, 0.25)

    def test_config_after_the_command_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=2\n")
        line = usage_error(capsys, "expand", "--config", str(cfg), "--f", "exp(z)", "--s", "z")
        assert line == f"funcseries: error: unrecognized arguments: --config {cfg}"

    def test_abbreviated_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f=exp(z)\ns=z\nord=2\n")
        line = usage_error(capsys, "--config", str(cfg), "expand")
        assert line == "funcseries: error: unrecognized arguments: --ord=2"

    #: one config key for every flag of the five commands
    EVERY_KEY = {"f": "1/(1+z)", "s": "sin(z)", "z0": "0.1", "order": "3",
                 "tol_termination": "1e-9", "tol_deriv_zero": "1e-13",
                 "grid": "-0.5:0.5:5", "z": "0.3", "samples": "16", "contour": "0.1:0.5",
                 "quadrature_points": "64", "x": "0.2"}

    @pytest.mark.parametrize("command,keys", [
        ("expand", ["f", "s", "z0", "order", "tol_termination", "tol_deriv_zero"]),
        ("plot", ["f", "s", "z0", "order", "tol_deriv_zero", "grid"]),
        ("check", ["f", "s", "z0", "order", "tol_termination", "tol_deriv_zero"]),
        ("remainder", ["f", "s", "z0", "order", "tol_termination", "tol_deriv_zero",
                       "z", "samples"]),
        ("teixeira", ["f", "s", "z0", "order", "contour", "quadrature_points", "x"]),
    ])
    def test_one_file_serves_every_command(self, capsys, tmp_path, command, keys):
        # each command takes the keys of its own flags and leaves the others
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in self.EVERY_KEY.items()))
        code, out, err = run_cli(capsys, "--config", str(cfg), command)
        assert (code, err) == (0, "")
        flags = [f"--{key.replace('_', '-')}={self.EVERY_KEY[key]}" for key in keys]
        assert run_cli(capsys, command, *flags) == (0, out, "")


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ("expand", "--f", "exp(z)", "--s", "z", "--order", "-1"),
        ("expand", "--f", "exp(z)", "--s", "z", "--order", "180"),
        ("expand", "--f", "exp(z)", "--s", "z", "--tol-termination", "0"),
        ("remainder", "--f", "exp(z)", "--s", "z", "--z", "0.5", "--samples", "1"),
        ("remainder", "--f", "exp(z)", "--s", "z", "--z", "0.5", "--samples", "65537"),
        ("remainder", "--f", "exp(z)", "--s", "z", "--order", "170", "--z", "0.5"),
        ("teixeira", "--f", "exp(z)", "--s", "z", "--quadrature-points", "10"),
        ("teixeira", "--f", "exp(z)", "--s", "z", "--quadrature-points", "131072"),
        ("teixeira", "--f", "exp(z)", "--s", "z", "--contour", "0:-1"),
        ("teixeira", "--f", "exp(z)", "--s", "z", "--order", "171"),
        ("check", "--order", "-1"),
    ])
    def test_invalid_value_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("argv,message", [
        (("expand", "--f", "exp(2*z)", "--s", "exp(z)", "--order", "6",
          "--tol-termination", "nan"), "tolerances must be positive and finite"),
        (("expand", "--f", "exp(z)", "--s", "z^2", "--order", "3",
          "--tol-deriv-zero", "nan"), "tolerances must be positive and finite"),
        (("teixeira", "--f", "exp(z)", "--s", "z", "--contour", "0:nan"),
         "radius must be positive and finite"),
        (("teixeira", "--f", "exp(z)", "--s", "z", "--contour", "nan:1"),
         "contour center must be finite, got (nan+0j)"),
        (("teixeira", "--f", "exp(z)", "--s", "z", "--contour", "1e308:1e308"),
         "contour leaves double range: |center| + radius overflows"),
    ])
    def test_non_finite_tolerance_or_radius_exits_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("expand", "--f", "z*1" + "0" * 400, "--s", "z", "--order", "1"),
        ("check", "--f", "z*1" + "0" * 400, "--s", "z", "--order", "1"),
        ("teixeira", "--f", "z*1" + "0" * 400, "--s", "z", "--order", "1"),
        ("expand", "--f", "z", "--s", "2^1100*z + 0.5*z"),
    ])
    def test_literal_beyond_double_range_exits_4(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("singularity: ") and err.count("\n") == 1
        assert "floating-point range" in err

    @pytest.mark.parametrize("f", ["(1/3)^(10^8)*z", "(1/3)^(10^6)*z"])
    def test_huge_exact_power_expands_promptly(self, capsys, f):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "expand", "--f", f, "--s", "z", "--order", "1")
        assert (code, err) == (0, "")
        assert time.perf_counter() - start < 5.0

    def test_plot_grid_count_capped(self, capsys):
        line = usage_error(capsys, "plot", "--f", "exp(z)", "--s", "z", "--grid", "0:1:65537")
        assert line == "funcseries plot: error: argument --grid: grid count must be <= 65536"

    @pytest.mark.parametrize("grid,message", [
        ("0:inf:5", "grid start and stop must be finite"),
        ("nan:1:5", "grid start and stop must be finite"),
        ("-inf:0:5", "grid start and stop must be finite"),
        ("-1e308:1e308:3", "grid span stop - start overflows a float"),
    ])
    def test_plot_grid_not_finite_is_usage_error(self, capsys, grid, message):
        line = usage_error(capsys, "plot", "--f", "exp(z)", "--s", "z", f"--grid={grid}")
        assert line == f"funcseries plot: error: argument --grid: {message}"

    @pytest.mark.parametrize("grid,message", [
        ("0:1", "grid must be start:stop:count"),
        ("0:1:1", "grid count must be >= 2"),
    ])
    def test_plot_grid_malformed_is_usage_error(self, capsys, grid, message):
        line = usage_error(capsys, "plot", "--f", "exp(z)", "--s", "z", f"--grid={grid}")
        assert line == f"funcseries plot: error: argument --grid: {message}"

    @pytest.mark.parametrize("argv", [
        ("expand", "--f", "exp(z)", "--s", "z", "--ord", "3"),
        ("expand", "--f", "exp(z)", "--s", "z", "--ord=3"),
        ("teixeira", "--f", "exp(z)", "--s", "z", "--cont", "0:0.5"),
    ])
    def test_abbreviated_flag_is_usage_error(self, capsys, argv):
        line = usage_error(capsys, *argv)
        assert line == "funcseries: error: unrecognized arguments: " + " ".join(argv[5:])

    def test_contour_without_colon_is_usage_error(self, capsys):
        line = usage_error(capsys, "teixeira", "--f", "exp(z)", "--s", "z", "--contour", "1")
        assert line == ("funcseries teixeira: error: argument --contour: "
                        "contour must be center:radius")

    def test_third_contour_is_usage_error(self, capsys):
        line = usage_error(capsys, "teixeira", "--f", "1/z + exp(z)", "--s", "z",
                           "--contour", "0:1", "--contour", "0:0.5", "--contour", "0:0.2")
        assert line == ("funcseries teixeira: error: argument --contour: "
                        "give at most two contours: outer, then inner")

    @pytest.mark.parametrize("x", [[], ["--x", "0.3"]])
    def test_inner_contour_outside_outer_exits_1(self, capsys, x):
        code, out, err = run_cli(
            capsys, "teixeira", "--f", "1/z + exp(z)", "--s", "z",
            "--contour", "0:0.5", "--contour", "0:1", "--order", "4", *x)
        assert (code, out) == (1, "")
        assert err == ("error: empty annulus: the largest |theta| on the inner "
                       "contour, 1, is not below the smallest on the outer, 0.5, "
                       "and some B_n is not negligible\n")

    @pytest.mark.parametrize("argv,turns", [
        (("--s", "z^2", "--z0", "0", "--order", "3", "--contour", "0:4"), 2),
        (("--s", "sin(z)", "--order", "2", "--contour", "0:4"), 3),
        (("--s", "z-3", "--z0", "3", "--order", "2", "--contour", "0:1"), 0),
    ], ids=["z^2", "sin", "zero-outside"])
    def test_theta_not_winding_once_exits_1(self, capsys, argv, turns):
        # theta must have exactly one zero inside the outer contour
        code, out, err = run_cli(capsys, "teixeira", "--f", "exp(z)", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: theta winds {turns} times around 0 on the outer contour, not once\n"

    @pytest.mark.parametrize("x", [[], ["--x", "0.3"]])
    def test_overlapping_contours_without_negative_part_exit_0(self, capsys, x):
        # theta = exp(z) - 1 on the default contours: the inner |theta|
        # reaches 0.6487, above the outer minimum 0.6321, yet every B_n is ~0
        code, out, err = run_cli(
            capsys, "teixeira", "--f", "exp(2*z)", "--s", "exp(z) - 1",
            "--order", "4", *x)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert all(abs(complex(*b)) < 1e-14 for b in report["B"])
        if x:
            assert complex(*report["partial_sum"]["value"]) == pytest.approx(
                math.exp(0.6), abs=1e-12)

    def test_check_s_without_f_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--s", "sin(z)", "--order", "2")
        assert (code, out) == (2, "")
        assert err == "parse error: --f is required when --s is given (at position 0)\n"

    def test_check_f_without_s_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--f", "exp(z)", "--order", "2")
        assert (code, out) == (2, "")
        assert err == "parse error: --s is required when --f is given (at position 0)\n"

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "expand", "--f", "exp(z)", "--s", "z",
                                 "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--conf", "run.cfg", "expand"),
        ("-c", "run.cfg", "expand"),
        ("--conf=run.cfg", "expand"),
    ])
    def test_unknown_flag_before_the_command_is_named(self, capsys, argv):
        line = usage_error(capsys, *argv)
        assert line == f"funcseries: error: unrecognized arguments: {argv[0]}"

    @pytest.mark.parametrize("argv", [
        ("teixeira", "--tol-deriv-zero", "-5"),
        ("teixeira", "--tol-termination", "nan"),
        ("plot", "--tol-termination", "1e-3"),
    ])
    def test_tolerance_a_command_does_not_use_is_usage_error(self, capsys, argv):
        line = usage_error(capsys, argv[0], "--f", "exp(z)", "--s", "z", *argv[1:])
        assert line == "funcseries: error: unrecognized arguments: " + " ".join(argv[1:])

    @pytest.mark.parametrize("command,tolerances", [
        ("expand", {"--tol-termination", "--tol-deriv-zero"}),
        ("plot", {"--tol-deriv-zero"}),
        ("check", {"--tol-termination", "--tol-deriv-zero"}),
        ("remainder", {"--tol-termination", "--tol-deriv-zero"}),
        ("teixeira", set()),
    ])
    def test_help_lists_only_the_tolerances_a_command_uses(self, capsys, command, tolerances):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--tol-[a-z-]+", capsys.readouterr().out))
        assert flags == tolerances

    @pytest.mark.parametrize("argv,message", [
        (("expand", "--z0", "abc"), "argument --z0: expected a number or re,im"),
        (("remainder", "--z", "1,x"), "argument --z: expected a number or re,im"),
        (("teixeira", "--x", "1,"), "argument --x: expected a number or re,im"),
        (("plot", "--grid", "0:1:x"), "argument --grid: grid must be start:stop:count"),
        (("plot", "--grid", "0:1:0.5"), "argument --grid: grid must be start:stop:count"),
        (("teixeira", "--contour", "0:x"), "argument --contour: contour must be center:radius"),
        (("teixeira", "--contour", "x,0:1"),
         "argument --contour: contour must be center:radius"),
    ], ids=["z0", "z", "x", "grid", "grid-count", "contour-radius", "contour-center"])
    def test_malformed_value_names_the_expected_form(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--f", "exp(z)", "--s", "z", *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "_parse_" not in err
        assert err.endswith(f"funcseries {argv[0]}: error: {message}\n")

    def test_teixeira_at_the_order_limit_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "teixeira", "--f", "exp(z)", "--s", "z", "--order", "170")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["A"]) == 171

    def test_config_without_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_deep_nesting_is_parse_error(self, capsys):
        deep = "(" * 3000 + "z" + ")" * 3000
        code, out, err = run_cli(capsys, "expand", "--f", deep, "--s", "z")
        assert code == 2
        assert out == "" and "nesting deeper than 100 levels (at position 100)" in err


class TestValueStartingWithMinus:
    @pytest.mark.parametrize("argv,flag,value", [
        (("expand", "--f", "exp(z)", "--s", "z"), "--z0", "-0.5,1"),
        (("expand", "--f", "exp(z)", "--s", "z"), "--z0", "-1e-3"),
        (("plot", "--f", "exp(z)", "--s", "z"), "--grid", "-1:1:3"),
        (("teixeira", "--f", "exp(z)", "--s", "z+1", "--z0", "-1"), "--contour", "-1:0.5"),
        (("expand", "--s", "z"), "--f", "-z^2"),
    ])
    def test_prints_what_the_joined_form_prints(self, capsys, argv, flag, value):
        joined = run_cli(capsys, *argv, f"{flag}={value}")
        assert joined[0] == 0 and joined[1]
        assert run_cli(capsys, *argv, flag, value) == joined

    def test_config_file_before_the_command(self, capsys, tmp_path):
        path = tmp_path / "defaults.cfg"
        path.write_text("order=3\n", encoding="utf-8")
        joined = run_cli(capsys, "--config", str(path), "expand", "--s", "z", "--f=-z^2")
        assert joined[0] == 0
        assert run_cli(capsys, "--config", str(path), "expand", "--s", "z", "--f", "-z^2") == joined

    def test_flag_after_a_flag_is_still_a_missing_value(self, capsys):
        error = usage_error(capsys, "expand", "--f", "--s", "z")
        assert error.endswith("error: argument --f: expected one argument")


class TestRecordedOutput:
    def test_stdout_matches_recorded_digests(self, capsys):
        digests = json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))
        assert digests
        for argv, want in digests.items():
            code, out, err = run_cli(capsys, *argv.split(" "))
            assert code == 0, (argv, err)
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv
