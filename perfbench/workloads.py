"""Seeded workloads: inputs, the timed request, and untimed checks.

Every workload is a stream of *cycles*.  A cycle holds one request per
stratum (family x order, or catalog pair x subcommand), shuffled by the
seed, so every cycle has the same cost profile whatever the seed: the
seed only picks the numeric parameters and the order within a cycle.
The run measures whole cycles, which keeps medians and tail percentiles
from depending on which requests a time cut happened to fall on.

The e2e requests touch only names exported from ``funcseries`` and the
``funcseries`` command line, so refactors behind that API are measured
without editing the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import funcseries as fs
from cli_stamp import peak_rss_kib
from funcseries.cli import CHECK_TOL

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"

#: seconds a child process may take before it is killed (a CLI call then fails)
CHILD_TIMEOUT = 120


def _num(x: float) -> str:
    """Shortest text for a real number as the grammar and CLI read it."""
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def _theta(z0: float) -> str:
    return "z" if z0 == 0 else f"z-{_num(z0)}"


def _param(value: int | Fraction) -> str:
    """Grammar text of a drawn parameter: an integer or a bracketed fraction."""
    if isinstance(value, int) or value.denominator == 1:
        return str(int(value))
    return f"({value.numerator}/{value.denominator})"


@dataclass(frozen=True)
class Family:
    """A paper family: f and s templates over parameters in [lo, hi].

    Parameters are integers, or with ``denominator`` > 1 fractions n/d
    with d up to ``denominator``, which gives a family thousands of
    distinct (f, s) instead of tens.  ``z0`` maps the drawn parameters to
    the expansion point; ``offsets`` are real query points relative to z0
    and ``radius`` is a Teixeira contour radius around z0 inside f's disk
    of analyticity.
    """

    name: str
    f: str
    s: str
    params: tuple[tuple[str, int, int], ...]
    z0: Callable[[dict], float] = lambda p: 0.0
    offsets: tuple[float, ...] = (-0.5, 0.4, 0.9, 1.5)
    radius: float = 1.0
    denominator: int = 1

    def value(self, rng: random.Random, lo: int, hi: int) -> int | Fraction:
        if self.denominator == 1:
            return rng.randint(lo, hi)
        d = rng.randint(1, self.denominator)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def draw(self, rng: random.Random) -> tuple[str, str, float]:
        while True:
            values = {name: self.value(rng, lo, hi) for name, lo, hi in self.params}
            texts = {name: _param(v) for name, v in values.items()}
            f, s = self.f.format(**texts), self.s.format(**texts)
            if f != s:
                return f, s, float(self.z0(values))


@dataclass(frozen=True)
class Request:
    stratum: str
    f: str | None
    s: str | None
    z0: float
    order: int
    family: Family | None = None
    teixeira: bool = False
    argv: tuple[str, ...] = ()


@dataclass
class Record:
    """One timed request: its latency, outcome or error, and (traced runs
    only) the tree size of every ladder entry it built."""

    request: Request
    seconds: float
    outcome: dict | None
    error: str | None = None
    ladder_sizes: list[int] | None = None


class InputsSpent(Exception):
    """A family has no unused (f, s) left to draw."""


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, corrupt: int | None = None):
        self.corrupt = corrupt
        self.rng = random.Random(seed)
        self.tracer = None
        #: the family whose inputs ran out, which ended the run early
        self.spent: str | None = None

    def cycles(self):
        """Whole cycles of requests; ends when a family's inputs are spent."""
        index = 0
        while True:
            try:
                requests = self.cycle(index)
            except InputsSpent as exc:
                self.spent = str(exc)
                return
            self.rng.shuffle(requests)
            yield requests
            index += 1

    def cycle(self, index: int) -> list[Request]:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def run(self, req: Request) -> dict:
        raise NotImplementedError

    def check(self, record: Record) -> list[str]:
        raise NotImplementedError

    def texts(self, req: Request) -> list[str]:
        return [t for t in (req.f, req.s) if t is not None]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that did the work."""
        return peak_rss_kib() / 1024

    def _corrupted(self, coefficients) -> list[complex]:
        out = list(coefficients)
        if self.corrupt is not None and 0 <= self.corrupt < len(out):
            out[self.corrupt] += 1.0
        return out


def _max_deviation(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))


# --------------------------------------------------------------------------
# ladder-build
# --------------------------------------------------------------------------

#: fractions with denominators up to 30 give each family at least 5005
#: distinct (f, s) (a in [2, 20]); a cycle uses three per family
LADDER_DENOMINATOR = 30

_D = LADDER_DENOMINATOR
LADDER_FAMILIES = (
    Family("rational-in-sine", "1/({a}+z)", "sin(z)", (("a", 2, 99),), denominator=_D),
    Family("binomial", "1/(1-{q}^(1-z))", "{q}^(-z)", (("q", 2, 30),),
           z0=lambda p: 0.5, denominator=_D),
    Family("power", "{p}^(-z)", "{q}^(-z)", (("p", 2, 30), ("q", 2, 9)), denominator=_D),
    Family("rational-in-exp", "1/({a}+z)", "exp(z)", (("a", 2, 99),), denominator=_D),
    Family("exponential", "exp({a}*z)", "exp(z)", (("a", 2, 99),), denominator=_D),
    Family("exp-in-sine", "exp({a}*z)", "sin(z)", (("a", 2, 20),), denominator=_D),
    Family("cos-in-sinh", "cos({a}*z)", "sinh(z)", (("a", 2, 20),), denominator=_D),
)

LADDER_ORDERS = (8, 11, 14)
#: draws in a row that all repeat an earlier (f, s) before a family counts
#: as spent, which ends the run after its last whole cycle
MAX_DRAWS = 1000

#: where each CATALOG pair stands in for a family draw in the first cycle.
#: Seeded 1/(z-a)^2 in 1/(z-a) pairs are left out because the engine and
#: the jet oracle disagree on them beyond CHECK_TOL at orders 8-14 (a=99,
#: z0=97, order 8: engine c_8 = -0.10, true 0; z0=0, a=20, order 14: the
#: oracle is off by 1e4), so the catalog pair of that family takes a
#: rational slot.
CATALOG_SLOTS = {
    "rational-in-sine": ("rational-in-sine", 14),
    "binomial-family": ("binomial", 14),
    "power-8-in-2": ("power", 8),
    "power-9-in-3": ("power", 11),
    "power-5-in-2": ("power", 14),
    "degenerate-rational": ("rational-in-exp", 14),
    "square-of-exponential": ("exponential", 14),
}


class LadderBuild(Workload):
    name = "ladder-build"
    why = ("one expand per request at orders 8-14, no repeated (f, s): "
           "building the symbolic ladder (simplify) is nearly all the work")

    def __init__(self, seed, corrupt=None):
        super().__init__(seed, corrupt)
        # every (f, s) is used once in a run, catalog pairs included
        self.seen: set[tuple[str, str]] = {(f, s) for _, f, s, _ in fs.CATALOG}

    def cycle(self, index):
        slots = {}
        if index == 0:
            for label, f, s, z0 in fs.CATALOG:
                if label in CATALOG_SLOTS:
                    slots[CATALOG_SLOTS[label]] = (f, s, complex(z0).real)
        requests = []
        for family in LADDER_FAMILIES:
            for order in LADDER_ORDERS:
                if (family.name, order) in slots:
                    f, s, z0 = slots[family.name, order]
                else:
                    f, s, z0 = self.fresh(family)
                requests.append(Request(f"{family.name}@{order}", f, s, z0, order,
                                        family))
        return requests

    def fresh(self, family: Family) -> tuple[str, str, float]:
        for _ in range(MAX_DRAWS):
            f, s, z0 = family.draw(self.rng)
            if (f, s) not in self.seen:
                self.seen.add((f, s))
                return f, s, z0
        raise InputsSpent(family.name)

    def warm_up(self):
        for family in LADDER_FAMILIES:
            f, s, z0 = family.draw(random.Random(-1))
            fs.expand(fs.ExpansionRequest(fs.parse(f), fs.parse(s), z0, 3))

    def run(self, req):
        exp = fs.expand(fs.ExpansionRequest(fs.parse(req.f), fs.parse(req.s),
                                            req.z0, req.order))
        return {"coefficients": exp.coefficients,
                "terminated": exp.terminated_at is not None}

    def check(self, record):
        want = fs.oracle_coefficients(fs.parse(record.request.f),
                                      fs.parse(record.request.s),
                                      record.request.z0, record.request.order)
        deviation = _max_deviation(self._corrupted(record.outcome["coefficients"]), want)
        if not deviation < CHECK_TOL:
            return [f"engine/oracle deviation {deviation:.3g} >= {CHECK_TOL:g}"]
        return []


# --------------------------------------------------------------------------
# bounds-eval
# --------------------------------------------------------------------------

BOUNDS_FAMILIES = (
    Family("rational-in-sine", "1/({a}+z)", "sin(z)", (("a", 2, 99),),
           offsets=(-0.5, 0.4, 0.9, 1.9)),
    Family("exp-in-sine", "exp({a}*z)", "sin(z)", (("a", 2, 9),),
           offsets=(-0.5, 0.4, 0.9, 1.9)),
    Family("power", "{p}^(-z)", "{q}^(-z)", (("p", 2, 30), ("q", 2, 9))),
    Family("binomial", "1/(1-{q}^(1-z))", "{q}^(-z)", (("q", 2, 30),),
           z0=lambda p: 0.5, offsets=(-0.4, -0.2, 0.2, 0.3), radius=0.25),
    Family("degenerate-rational", "1/(z-{a})^2", "1/(z-{a})", (("a", 3, 99),),
           z0=lambda p: p["a"] - 2),
    Family("cos-in-sinh", "cos({a}*z)", "sinh(z)", (("a", 2, 9),)),
    Family("exp-in-quadratic", "exp({a}*z)", "z+{b}*z^2", (("a", 2, 9), ("b", 2, 9)),
           offsets=(-0.5, 0.2, 0.4, 0.6)),
)

BOUNDS_ORDERS = (3, 4, 5)
#: requests at this order also run the Teixeira quadrature
TEIXEIRA_ORDER = 4
QUADRATURE_POINTS = 512
LAGRANGE_SAMPLES = 64
COMPLEX_OFFSET = 0.2 + 0.2j
GRID = tuple(-0.5 + i / 32 for i in range(33))


class BoundsEval(Workload):
    name = "bounds-eval"
    why = ("low-order expansions read at many points (bounds, partial sums, oracle, "
           "some 512-node quadratures): ladder evaluation dominates")

    def cycle(self, index):
        requests = []
        for family in BOUNDS_FAMILIES:
            for order in BOUNDS_ORDERS:
                f, s, z0 = family.draw(self.rng)
                requests.append(Request(f"{family.name}@{order}", f, s, z0, order,
                                        family, teixeira=order == TEIXEIRA_ORDER))
        return requests

    def warm_up(self):
        for family in BOUNDS_FAMILIES:
            f, s, z0 = family.draw(random.Random(-1))
            self.run(Request("warm-up", f, s, z0, 2, family, teixeira=True))

    def texts(self, req):
        return [req.f, req.s] + ([_theta(req.z0)] if req.teixeira else [])

    def run(self, req):
        family = req.family
        f, s = fs.parse(req.f), fs.parse(req.s)
        exp = fs.expand(fs.ExpansionRequest(f, s, req.z0, req.order))
        bounds, attempts, skips = [], 0, 0
        for offset in family.offsets:
            z = req.z0 + offset
            bounds.append(fs.measured_error(exp, z, req.order).bound)
            bounds.append(fs.complex_bound(exp, z, req.order).bound)
            attempts += 1
            try:
                bounds.append(fs.lagrange_bound(exp, z, req.order, LAGRANGE_SAMPLES).bound)
            except fs.NonMonotoneComposite:
                skips += 1
        z = req.z0 + COMPLEX_OFFSET
        bounds.append(fs.measured_error(exp, z, req.order).bound)
        bounds.append(fs.complex_bound(exp, z, req.order).bound)
        sums = [fs.partial_sum(exp, req.z0 + x) for x in GRID]
        oracle = fs.oracle_coefficients(f, s, req.z0, req.order)
        a_coefficients = None
        if req.teixeira:
            outer = fs.ContourSpec(req.z0, family.radius, QUADRATURE_POINTS)
            inner = fs.ContourSpec(req.z0, family.radius / 2, QUADRATURE_POINTS)
            a_coefficients = fs.teixeira_expand(f, fs.parse(_theta(req.z0)), req.z0,
                                                outer, inner, req.order).a_coefficients
        return {"coefficients": exp.coefficients,
                "terminated": exp.terminated_at is not None,
                "bounds": bounds, "sums": sums, "oracle": oracle,
                "teixeira": a_coefficients,
                "lagrange_attempts": attempts, "lagrange_skips": skips}

    def check(self, record):
        req, out = record.request, record.outcome
        errors = []
        if not all(math.isfinite(b) and b >= 0 for b in out["bounds"]):
            errors.append("a remainder estimate is negative or not finite")
        if not all(math.isfinite(abs(v)) for v in out["sums"]):
            errors.append("a partial sum is not finite")
        deviation = _max_deviation(self._corrupted(out["coefficients"]), out["oracle"])
        if not deviation < CHECK_TOL:
            errors.append(f"engine/oracle deviation {deviation:.3g} >= {CHECK_TOL:g}")
        if out["teixeira"] is not None:
            f, theta = fs.parse(req.f), fs.parse(_theta(req.z0))
            taylor = fs.expand(fs.ExpansionRequest(f, theta, req.z0, req.order))
            deviation = _max_deviation(out["teixeira"], taylor.coefficients)
            if not deviation < CHECK_TOL:
                errors.append(f"Teixeira/expand deviation {deviation:.3g} >= {CHECK_TOL:g}")
        return errors


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------

#: Teixeira contour radius per catalog pair: inside the disk where f is
#: analytic around z0
CLI_RADIUS = {"rational-in-sine": 0.5, "binomial-family": 0.25}
CLI_ORDERS = {"expand": (2, 3, 4), "plot": (2, 3), "remainder": (2, 3),
              "teixeira": (3, 5)}
#: six `check --order 8` calls per cycle are the slowest 17.6% of calls.
#: They do the same work every time, so the tail latency (ten or more
#: samples beyond it) lands on one band of checks at any cycle count
CHECK_ORDER = 8
CHECKS_PER_CYCLE = 6


def cli_argv(command: str, label: str, f: str, s: str, z0: float, order: int) -> tuple:
    """Arguments of one CLI call on a catalog pair."""
    if command == "teixeira":
        contour = f"{_num(z0)}:{CLI_RADIUS.get(label, 1.0)}"
        return ("teixeira", "--f", f, "--s", _theta(z0), "--z0", _num(z0),
                "--order", str(order), "--contour", contour)
    argv = (command, "--f", f, "--s", s, "--z0", _num(z0), "--order", str(order))
    if command == "remainder":
        argv += ("--z", _num(z0 + 0.3))
    return argv


def cli_pool() -> list[tuple[str, ...]]:
    """Every CLI call the workload can make; cli_digests.json covers each."""
    pool = [("check", "--order", str(CHECK_ORDER))]
    for label, f, s, z0 in fs.CATALOG:
        for command, orders in CLI_ORDERS.items():
            pool += [cli_argv(command, label, f, s, complex(z0).real, order)
                     for order in orders]
    return pool


def cli_env() -> dict:
    src = str(HERE.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_cli(argv, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run one CLI call in a fresh interpreter, through cli_stamp.py: it
    calls ``funcseries.cli.main`` as the ``funcseries`` command does and
    reports its time in ``main`` and its peak memory on its last stderr
    line."""
    return subprocess.run([sys.executable, str(HERE / "cli_stamp.py"), *argv],
                          env=env or cli_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT)


class CliCold(Workload):
    name = "cli-cold"
    why = ("a fresh funcseries CLI process per call over the catalog: interpreter "
           "start-up and import are paid every call, no cache survives")

    def __init__(self, seed, corrupt=None):
        super().__init__(seed, corrupt)
        self.env = cli_env()
        self.peak_rss_kib = 0
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))

    def cycle(self, index):
        requests = [Request(f"check@{CHECK_ORDER}", None, None, 0.0, CHECK_ORDER,
                            argv=("check", "--order", str(CHECK_ORDER)))
                    for _ in range(CHECKS_PER_CYCLE)]
        for label, f, s, z0 in fs.CATALOG:
            z0 = complex(z0).real
            for command, orders in CLI_ORDERS.items():
                order = self.rng.choice(orders)
                requests.append(Request(f"{command}:{label}", f, s, z0, order,
                                        argv=cli_argv(command, label, f, s, z0, order)))
        return requests

    def warm_up(self):
        run_cli(("expand", "--f", "exp(z)", "--s", "z", "--order", "1"), env=self.env)

    def run(self, req):
        argv = req.argv
        if self.corrupt is not None and argv[0] == "check":
            argv += ("--corrupt", str(self.corrupt))
        start = time.perf_counter()
        proc = run_cli(argv, env=self.env)
        end = time.perf_counter()
        stamp = json.loads(proc.stderr.decode().splitlines()[-1])
        self.peak_rss_kib = max(self.peak_rss_kib, stamp["peak_rss_kib"])
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            parent = tracer.add(f"cli.{argv[0]}", start, end)
            tracer.add("cli.startup", start, end - stamp["main_s"], parent)
        return {"code": proc.returncode, "digest": hashlib.sha256(proc.stdout).hexdigest(),
                "stdout": proc.stdout}

    def peak_rss_mb(self):
        """The largest peak RSS of any CLI call."""
        return self.peak_rss_kib / 1024

    def check(self, record):
        out = record.outcome
        errors = []
        if out["code"] != 0:
            errors.append(f"exit code {out['code']}")
        want = self.digests.get(" ".join(record.request.argv))
        if out["digest"] != want:
            errors.append("stdout differs from the recorded digest")
        # traffic properties come from the JSON report, outside the timing
        try:
            report = json.loads(out["stdout"]) if record.request.argv[0] != "plot" else {}
        except ValueError:
            report = {}
        if "terminated_at" in report:
            out["terminated"] = report["terminated_at"] is not None
        estimates = report.get("estimates", [])
        if any(e.get("kind") == "real-lagrange" for e in estimates):
            out["lagrange_attempts"] = 1
            out["lagrange_skips"] = int(any("skipped" in e for e in estimates))
        return errors


WORKLOADS = {w.name: w for w in (LadderBuild, BoundsEval, CliCold)}


def traffic(records: list[Record]) -> dict:
    """Input properties of the requests a run made."""
    seen: set[tuple[str, str]] = set()
    repeats = with_pair = 0
    for r in records:
        if r.request.f is None:
            continue
        key = (r.request.f, r.request.s)
        with_pair += 1
        repeats += key in seen
        seen.add(key)
    outcomes = [r.outcome for r in records if r.outcome is not None]
    terminating = [o["terminated"] for o in outcomes if "terminated" in o]
    attempts = sum(o.get("lagrange_attempts", 0) for o in outcomes)
    skips = sum(o.get("lagrange_skips", 0) for o in outcomes)
    sizes = [sum(r.ladder_sizes) for r in records if r.ladder_sizes is not None]
    return {
        "requests": len(records),
        "order_mix": dict(sorted(Counter(r.request.order for r in records).items())),
        "repeat_share": repeats / with_pair if with_pair else 0.0,
        "terminating_share": sum(terminating) / len(terminating) if terminating else 0.0,
        "lagrange_skip_share": skips / attempts if attempts else 0.0,
        "ladder_nodes_per_request": sizes,
    }
