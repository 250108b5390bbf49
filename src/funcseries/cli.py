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
modules, and ``plot`` the csv module, when they run, so ``expand``,
``plot`` and ``remainder`` start without loading numpy.

A catalog ``check`` (no ``--f``/``--s``; each pair at its own point, so
``--z0`` is ignored) builds its pairs' ladders in up to one forked worker
process per CPU while this process imports numpy; stdout, stderr and
the exit code are byte for byte those of building them one after
another, which it does on one CPU, for a single pair, or when other
threads are running.  No option selects this.

A config file of ``key=value`` lines (keys named like the long flags,
e.g. ``order=6``) supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import threading

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
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
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
    if not center_text:
        raise argparse.ArgumentTypeError("contour must be center:radius")
    return _parse_complex(center_text), float(radius_text)


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
        prog="funcseries",
        description="Expand a function as a power series in another function.")
    top.add_argument("--config", default=None,
                     help="key=value file of flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, pair_required: bool):
        p.add_argument("--f", required=pair_required, help="function to expand")
        p.add_argument("--s", required=pair_required, help="inner function (theta for teixeira)")
        p.add_argument("--z0", type=_parse_complex, default=0j,
                       help="expansion point, real or re,im")
        p.add_argument("--order", type=int, default=6)
        p.add_argument("--tol-termination", type=float, default=TERMINATION_TOL)
        p.add_argument("--tol-deriv-zero", type=float, default=DERIVATIVE_ZERO_TOL)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("expand", help="JSON coefficient report")
    common(p, True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("plot", help="CSV of f and partial sums on a real grid")
    common(p, True)
    p.add_argument("--grid", type=_parse_grid, default=(-1.2, 1.2, 121),
                   help="real grid as start:stop:count")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser(
        "check", help="engine vs independent oracle, on the catalog or one pair",
        description="Compare the engine's coefficients with the jet oracle's. "
                    "--f and --s together check that pair at --z0. Without them, "
                    "each catalog pair is checked at its own expansion point, so "
                    "--z0 is ignored, and the pairs' ladders are built in up to "
                    "one worker process per CPU.")
    common(p, False)
    p.add_argument("--corrupt", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check, order=10)

    p = sub.add_parser("remainder", help="measured error and bounds at a point")
    common(p, True)
    p.add_argument("--z", type=_parse_complex, default=None, required=True,
                   help="evaluation point, real or re,im")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_remainder)

    p = sub.add_parser("teixeira", help="two-sided contour coefficients")
    common(p, True)
    p.add_argument("--quadrature-points", type=int, default=512)
    p.add_argument("--contour", type=_parse_contour, action=_AppendContour, default=None,
                   help="center:radius; give at most twice: outer, then inner")
    p.add_argument("--x", type=_parse_complex, default=None,
                   help="optionally evaluate the partial sum at this point")
    p.set_defaults(func=cmd_teixeira)
    return top


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file values in as defaults (before explicit flags)."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):  # no path: argparse reports the usage error
        return argv
    path = argv[at + 1]
    head, tail = argv[: at + 2], argv[at + 2:]
    if not tail:
        return argv
    command, rest = tail[0], tail[1:]
    injected: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in rest:
                injected += [flag, value.strip()]
    return head + [command] + injected + rest


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
    import csv
    import io

    exp = _expansion_from(args)
    zs = linspace(*args.grid)
    f_values, s_values = _values_or_blank(exp.f, zs), _values_or_blank(exp.s, zs)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["z", "f"] + [f"S{k}" for k in range(exp.order + 1)])
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
        writer.writerow(row)
    _emit(buffer.getvalue(), args.out)
    return 0


def _engine_coefficients(args, pair) -> tuple[tuple[complex, ...], int | None]:
    """The engine's coefficients and terminated_at for one check pair.

    A catalog check runs this in worker processes, so it takes and returns
    only values that pickle.
    """
    _, f_text, s_text, z0 = pair
    exp = expand(_request_from(args, parse(f_text), parse(s_text), z0))
    return exp.coefficients, exp.terminated_at


def _check_report(args, pairs, engine_results) -> int:
    """Compare each pair's engine result, read in order from engine_results,
    with the oracle's jets and write the report."""
    from .oracle import oracle_coefficients

    reports = []
    worst = 0.0
    for (label, f_text, s_text, z0), (coefficients, terminated_at) in zip(pairs, engine_results):
        engine = list(coefficients)
        if args.corrupt is not None and 0 <= args.corrupt < len(engine):
            engine[args.corrupt] += 1.0
        oracle = oracle_coefficients(parse(f_text), parse(s_text), z0, args.order)
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
            "terminated_at": terminated_at,
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


def cmd_check(args) -> int:
    if args.f is not None and args.s is None:
        raise ParseError("--s is required when --f is given", 0)
    if args.s is not None and args.f is None:
        raise ParseError("--f is required when --s is given", 0)
    pairs = CATALOG if args.f is None else [("user", args.f, args.s, args.z0)]
    engine_of = functools.partial(_engine_coefficients, args)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(pairs), cpus)
    # forking is unsafe while another thread may hold a lock the worker needs
    if workers == 1 or threading.active_count() > 1:
        return _check_report(args, pairs, map(engine_of, pairs))

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Forked workers start with funcseries already imported; spawned ones
    # would pay interpreter start-up and these imports again, which costs
    # most of the gain.  A forked worker flushes the stdio buffers it
    # inherits when it exits, so they must be empty now.
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        # the workers build the ladders while this process imports numpy
        return _check_report(args, pairs, pool.map(engine_of, pairs))
    except BrokenProcessPool as exc:
        raise FuncSeriesError(f"a check worker process stopped: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


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
        argv = _apply_config(argv)
        args = _build_parser().parse_args(argv)
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
