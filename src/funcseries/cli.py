"""Command-line front-end.

Subcommands:

* ``expand``    -- coefficient report as JSON
* ``plot``      -- CSV grid of f and its partial sums over real z
* ``check``     -- engine vs. jet-oracle comparison (exit 5 on mismatch)
* ``remainder`` -- measured error and bounds at a point
* ``teixeira``  -- two-sided contour-coefficient report (--s supplies theta)

Diagnostics go to stderr only.  Exit codes: 0 success, 1 invalid values
(a negative or too large order, a tolerance or radius that is not
positive and finite, too few or too many samples or quadrature points,
an inner contour not inside the outer one when some B_n is not
negligible) and other errors, 2 parse and usage errors (a plot grid of
fewer than 2 or more than 65536 points, or with a start, stop or span
that is not finite, and a third teixeira --contour, included), 3
vanishing inner derivative at the expansion point, 4 singularities, 5
oracle disagreement.  Output is deterministic for a fixed
configuration: floats print as their shortest round-trip decimal and
JSON key order is fixed.

``check`` and ``teixeira`` import the numpy-backed oracle and quadrature
modules when they run, so ``expand``, ``plot`` and ``remainder`` start
without loading numpy.

A catalog ``check`` (no ``--f``/``--s``) checks each pair at its own
point, so ``--z0`` is ignored.  A command takes only the flags that
change its result: ``plot`` takes ``--tol-deriv-zero`` but not
``--tol-termination``, and ``teixeira`` takes neither.

A flag is ``--name value`` or ``--name=value``, never abbreviated, and a
value may start with ``-`` either way.  A config file of ``key=value``
lines (keys named like the flags), given before the command as
``--config path`` or ``--config=path``, supplies each flag the command
line omits.  A key goes only to the commands that take its flag, so one
file serves all five; a key no command takes is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    CompositeDerivativeZero,
    ConstantComposite,
    FuncSeriesError,
    LeadingCoefficientZero,
    ParseError,
    QuadratureSingularity,
    SingularAtExpansionPoint,
    SingularEvaluation,
)
from .expr import Expr, evaluate, evaluate_many, parse
from .remainder import complex_bound, lagrange_bound, linspace, measured_error
from .series import (
    CATALOG,
    DERIVATIVE_ZERO_TOL,
    TERMINATION_TOL,
    ExpansionRequest,
    SeriesExpansion,
    expand,
)

#: engine/oracle agreement threshold for the check subcommand
CHECK_TOL = 1e-8

#: most points a plot grid may have
MAX_GRID_COUNT = 2**16


def _parse_complex(text: str) -> complex:
    re_part, comma, im_part = text.partition(",")
    try:
        return complex(float(re_part), float(im_part) if comma else 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number or re,im") from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must be start:stop:count") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError("grid start and stop must be finite")
    if not math.isfinite(stop - start):
        raise argparse.ArgumentTypeError("grid span stop - start overflows a float")
    if count < 2:
        raise argparse.ArgumentTypeError("grid count must be >= 2")
    if count > MAX_GRID_COUNT:
        raise argparse.ArgumentTypeError(f"grid count must be <= {MAX_GRID_COUNT}")
    return start, stop, count


def _parse_contour(text: str) -> tuple[complex, float]:
    center_text, _, radius_text = text.rpartition(":")
    try:
        return _parse_complex(center_text), float(radius_text)
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError("contour must be center:radius") from None


class _AppendContour(argparse.Action):
    """Collect --contour values: the outer contour, then at most one inner."""

    def __call__(self, parser, namespace, value, option_string=None):
        contours = getattr(namespace, self.dest) or []
        if len(contours) == 2:
            raise argparse.ArgumentError(self, "give at most two contours: outer, then inner")
        setattr(namespace, self.dest, contours + [value])


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="funcseries", allow_abbrev=False,
        description="Expand a function as a power series in another function.")
    top.add_argument("--config", default=None,
                     help="key=value file of flag defaults")
    sub = top.add_subparsers(dest="command", required=True)
    tolerances = {"--tol-termination": TERMINATION_TOL, "--tol-deriv-zero": DERIVATIVE_ZERO_TOL}

    def common(p, pair_required: bool, *tols: str):
        p.add_argument("--f", required=pair_required, help="function to expand")
        p.add_argument("--s", required=pair_required, help="inner function (theta for teixeira)")
        p.add_argument("--z0", type=_parse_complex, default=0j,
                       help="expansion point, real or re,im")
        p.add_argument("--order", type=int, default=6)
        for flag in tols:
            p.add_argument(flag, type=float, default=tolerances[flag])
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("expand", allow_abbrev=False, help="JSON coefficient report")
    common(p, True, *tolerances)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("plot", allow_abbrev=False, help="CSV of f and partial sums on a real grid")
    common(p, True, "--tol-deriv-zero")
    p.add_argument("--grid", type=_parse_grid, default=(-1.2, 1.2, 121),
                   help="real grid as start:stop:count")
    p.set_defaults(func=cmd_plot, tol_termination=TERMINATION_TOL)

    p = sub.add_parser(
        "check", help="engine vs independent oracle, on the catalog or one pair",
        description="Compare the engine's coefficients with the jet oracle's. "
                    "--f and --s together check that pair at --z0. Without them, "
                    "each catalog pair is checked at its own expansion point, so "
                    "--z0 is ignored.", allow_abbrev=False)
    common(p, False, *tolerances)
    p.add_argument("--corrupt", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check, order=10)

    p = sub.add_parser("remainder", allow_abbrev=False, help="measured error and bounds at a point")
    common(p, True, *tolerances)
    p.add_argument("--z", type=_parse_complex, default=None, required=True,
                   help="evaluation point, real or re,im")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_remainder)

    p = sub.add_parser("teixeira", allow_abbrev=False, help="two-sided contour coefficients")
    common(p, True)
    p.add_argument("--quadrature-points", type=int, default=512)
    p.add_argument("--contour", type=_parse_contour, action=_AppendContour, default=None,
                   help="center:radius; give at most twice: outer, then inner")
    p.add_argument("--x", type=_parse_complex, default=None,
                   help="optionally evaluate the partial sum at this point")
    p.set_defaults(func=cmd_teixeira)
    top.command_flags = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    return top


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Splice config-file values in as defaults, for the flags the command line does not name."""
    head = argv[0].split("=", 1) if argv else [""]
    if head[0] != "--config":  # argparse reads it only first
        if head[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"unrecognized arguments: {argv[0]}")  # argparse names the next token
        return argv
    argv = head + argv[1:]  # --config=path: --config path
    if len(argv) < 3:  # no path or no command: argparse reports the usage error
        return argv
    path, rest = argv[1], argv[3:]
    # a key only other commands take is left out; argparse rejects one no command takes
    by_command = parser.command_flags
    elsewhere = set().union(*by_command.values()) - by_command.get(argv[2], set())
    given = {tok.split("=", 1)[0] for tok in rest}  # --name and --name=value both name --name
    injected: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in given and flag not in elsewhere:
                # one --key=value token, so a value may start with "-"
                injected.append(f"{flag}={value.strip()}")
    return argv[:3] + injected + rest


def _join_dash_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Join a flag to a following value that starts with "-" and is no flag of
    the command, as "--name=value": argparse takes only "-1"-like ones."""
    at = 2 if argv[:1] == ["--config"] else 0  # where _apply_config leaves the command
    flags = parser.command_flags.get(argv[at] if len(argv) > at else "", set())
    out = argv[:at + 1]
    for tok in argv[at + 1:]:
        if out[-1] in flags - {"-h", "--help"} and tok[:1] == "-" and tok.split("=")[0] not in flags:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _request_from(args, f: Expr, s: Expr, z0: complex) -> ExpansionRequest:
    return ExpansionRequest(f, s, z0, args.order,
                            termination_tol=args.tol_termination,
                            derivative_zero_tol=args.tol_deriv_zero)


def _expansion_from(args) -> SeriesExpansion:
    return expand(_request_from(args, parse(args.f), parse(args.s), args.z0))


def cmd_expand(args) -> int:
    exp = _expansion_from(args)
    report = exp.as_dict()
    report["magnitudes"] = [abs(complex(re, im)) for re, im in report["coefficients"]]
    report["terminated"] = exp.terminated_at is not None
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _values_or_blank(e: Expr, zs: list[float]) -> list[complex | None]:
    """e at each point, None where it is singular."""
    try:
        return evaluate_many(e, zs)
    except SingularEvaluation:
        pass  # some points are singular: find them one by one
    out = []
    for z in zs:
        try:
            out.append(evaluate(e, z))
        except SingularEvaluation:
            out.append(None)
    return out


def cmd_plot(args) -> int:
    exp = _expansion_from(args)
    zs = linspace(*args.grid)
    f_values, s_values = _values_or_blank(exp.f, zs), _values_or_blank(exp.s, zs)
    # every field is a name, repr(float) text or blank: none needs CSV quoting
    rows = [["z", "f"] + [f"S{k}" for k in range(exp.order + 1)]]
    for z, f_at, s_at in zip(zs, f_values, s_values):
        row = [_fmt_float(z), "" if f_at is None else _fmt_float(f_at.real)]
        if s_at is None:
            row += [""] * (exp.order + 1)
        else:
            u = s_at - exp.s0
            total = exp.coefficients[0]
            sums = [total]
            u_power = 1.0 + 0j
            for c in exp.coefficients[1:]:
                u_power *= u
                total = total + c * u_power
                sums.append(total)
            row += [_fmt_float(v.real) for v in sums]
        rows.append(row)
    _emit("".join(",".join(row) + "\n" for row in rows), args.out)
    return 0


def cmd_check(args) -> int:
    if args.f is not None and args.s is None:
        raise ParseError("--s is required when --f is given", 0)
    if args.s is not None and args.f is None:
        raise ParseError("--f is required when --s is given", 0)
    from .oracle import oracle_coefficients

    pairs = CATALOG if args.f is None else [("user", args.f, args.s, args.z0)]
    reports = []
    worst = 0.0
    for label, f_text, s_text, z0 in pairs:
        f, s = parse(f_text), parse(s_text)
        exp = expand(_request_from(args, f, s, z0))
        engine = list(exp.coefficients)
        if args.corrupt is not None and 0 <= args.corrupt < len(engine):
            engine[args.corrupt] += 1.0
        oracle = oracle_coefficients(f, s, z0, args.order)
        deviation = max(abs(e - o) / max(1.0, abs(o))
                        for e, o in zip(engine, oracle))
        worst = max(worst, deviation)
        reports.append({
            "pair": label,
            "f": f_text,
            "s": s_text,
            "z0": [complex(z0).real, complex(z0).imag],
            "order": args.order,
            "engine": [[c.real, c.imag] for c in engine],
            "oracle": [[c.real, c.imag] for c in oracle],
            "max_relative_deviation": deviation,
            "terminated_at": exp.terminated_at,
        })
    ok = worst < CHECK_TOL
    out = {"pairs": reports, "max_relative_deviation": worst,
           "tolerance": CHECK_TOL, "ok": ok}
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    if not ok:
        print(f"oracle disagreement: max relative deviation {worst:.3g} "
              f"exceeds {CHECK_TOL:g}", file=sys.stderr)
        return 5
    return 0


def cmd_remainder(args) -> int:
    exp = _expansion_from(args)
    z = args.z
    estimates = [measured_error(exp, z, args.order).as_dict(),
                 complex_bound(exp, z, args.order).as_dict()]
    if z.imag == 0 and exp.z0.imag == 0:
        try:
            estimates.append(lagrange_bound(exp, z, args.order, args.samples).as_dict())
        except FuncSeriesError as exc:
            estimates.append({"kind": "real-lagrange", "order": args.order,
                              "z": [z.real, z.imag], "bound": None,
                              "skipped": str(exc)})
    report = exp.as_dict()
    report["estimates"] = estimates
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_teixeira(args) -> int:
    from .teixeira import ContourSpec, teixeira_expand, teixeira_partial_sum

    f = parse(args.f)
    theta = parse(args.s)
    contours = args.contour or [(complex(args.z0), 1.0)]
    if len(contours) == 1:  # the default inner contour: half the outer radius
        contours.append((contours[0][0], contours[0][1] / 2))
    outer, inner = (ContourSpec(center, radius, args.quadrature_points)
                    for center, radius in contours)
    tx = teixeira_expand(f, theta, args.z0, outer, inner, args.order)
    report = tx.as_dict()
    if args.x is not None:
        value = teixeira_partial_sum(tx, args.x, args.order)
        report["partial_sum"] = {"x": [args.x.real, args.x.imag],
                                 "value": [value.real, value.imag]}
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(_join_dash_values(_apply_config(argv, parser), parser))
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (CompositeDerivativeZero, ConstantComposite, LeadingCoefficientZero) as exc:
        print(f"vanishing inner derivative: {exc}", file=sys.stderr)
        return 3
    except (SingularEvaluation, SingularAtExpansionPoint, QuadratureSingularity) as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return 4
    except (FuncSeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
