#!/usr/bin/env python3
"""Layered benchmark for funcseries.

    python3 perfbench/run.py --workload ladder-build --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from
``src/``.  Each workload runs in its own fresh process: one client, a
closed loop, no worker threads.  After a warm-up it times whole cycles of
seeded requests for about ``--seconds`` at a reference machine speed
(see ``Speed``), then checks every output (untimed).  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run times half its cycles untraced
and half with spans at the layer boundaries, and reports the ratio of
the two medians.

Details, environment stamp and spans go to ``.perfbench/`` in the
checkout.  ``--corrupt N`` adds 1 to coefficient N before every check
(and passes ``--corrupt N`` to ``funcseries check``) to show the checks
fire.  ``--record-cli-digests`` rewrites ``cli_digests.json`` from the
current code; run it only on a commit whose CLI output is the reference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: mean ms of one reference_loop() on the host the bounds were tuned on
#: (2-vCPU Xeon, Python 3.11); timings are reported at that speed
REFERENCE_LOOP_MS = 30.0
#: a reference loop is timed after the first request that ends this many
#: measured seconds after the last one (about 8% of a run)
REFERENCE_EVERY = 0.4
#: share of the reference-loop times cut from each end before averaging
REFERENCE_TRIM = 0.1
#: a run stops measuring at this many times ``--seconds`` of wall time,
#: however slow the machine
WALL_LIMIT = 1.3
#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 11
#: cycles whose inputs a setup probe generates and parses
SETUP_CYCLES = 3
#: the tail latency is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10

E2E_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "requests_per_s": "1/s",
             "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    if not (SRC / "funcseries" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'funcseries'} is missing")
    sys.path.insert(0, str(SRC))
    try:
        import funcseries
    except ImportError as exc:
        fail(f"cannot import funcseries from {SRC}: {exc}")
    if Path(funcseries.__file__).resolve().parent != (SRC / "funcseries").resolve():
        fail(f"imported funcseries from {funcseries.__file__}, not from {SRC}")
    return funcseries


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of the values."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it; the
    median when there are too few samples for that."""
    if count <= 2 * TAIL_BEYOND:
        return 50.0
    return 100 * (count - 1 - TAIL_BEYOND) / (count - 1)


# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

class _Node:
    __slots__ = ("op", "args", "value")

    def __init__(self, op, args=(), value=0):
        self.op, self.args, self.value = op, args, value


def _build(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node("leaf", value=seed % 11)
    return _Node("add" if seed % 3 else "mul",
                 (_build(depth - 1, seed * 7 + 1), _build(depth - 1, seed * 5 + 2)))


def _fold(node: _Node) -> _Node:
    if node.op == "leaf":
        return node
    a, b = _fold(node.args[0]), _fold(node.args[1])
    if a.op == "leaf" and b.op == "leaf":
        value = a.value + b.value if node.op == "add" else a.value * b.value
        return _Node("leaf", value=value % 101)
    return _Node(node.op, (a, b))


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop that touches nothing of
    funcseries: integer arithmetic, integer-tuple keys counted in a dict
    and sorted, and a small expression tree built and folded.  The
    collector is off while it runs, so the program's heap cannot slow it
    down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        counts: dict = {}
        for i in range(15_000):
            key = (i % 977, i % 313)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        for seed in range(3):
            _fold(_build(11, seed))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Reference-loop times sampled through a run, between requests.

    The host's speed drifts by 20-30% over minutes: a neighbour's load
    slows CPU time itself, not only wall time, and it slows the reference
    loop and the program alike.  Dividing the run's timings by its
    slowdown, the mean reference loop over REFERENCE_LOOP_MS, reports them
    at the reference speed and removes most of that drift.  The mean, not
    the median: single loops are either slowed by a neighbour or not, and
    a median flips between the two as the share of slow ones crosses a
    half, while a request's latency, like the mean, moves with the share."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        self.samples.append(reference_loop())

    def slowdown(self) -> float:
        ordered = sorted(self.samples)
        cut = int(len(ordered) * REFERENCE_TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut]) * 1e3 / REFERENCE_LOOP_MS


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def environment() -> dict:
    import importlib.util

    import numpy

    try:
        from funcseries import _kernels
        backend = getattr(_kernels, "BACKEND", None)
    except ImportError:
        backend = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "funcseries").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": backend,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def timed_cycles(workload, cycles, seconds: float, speed: Speed, tracer=None,
                 after_cycle=None) -> list:
    """Run whole cycles until the measured time at the reference speed is
    within half a cycle of ``seconds`` (or the wall time reaches
    WALL_LIMIT times that), or the workload's inputs are spent; returns
    one Record per request.  Counting time at the reference speed keeps
    the number of cycles, and so the requests a percentile lands on, the
    same on a slow and a fast machine.  ``speed`` is sampled first, then
    between requests every REFERENCE_EVERY measured seconds.
    ``after_cycle`` is called with the measured time so far, outside the
    timing."""
    from workloads import Record

    records = []
    elapsed = sampled = 0.0
    done = 0
    speed.sample()
    while done == 0 or (elapsed < WALL_LIMIT * seconds and
                        (elapsed + elapsed / done / 2) / speed.slowdown() < seconds):
        cycle = next(cycles, None)
        if cycle is None:
            break
        for req in cycle:
            if tracer is not None:
                tracer.request = len(records)
                tracer.enabled = True
                root = tracer.open("request")
            start = time.perf_counter()
            error = outcome = None
            try:
                outcome = workload.run(req)
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            record = Record(req, end - start, outcome, error)
            if tracer is not None:
                tracer.close(root, end)
                tracer.enabled = False
                record.ladder_sizes = tracer.take_ladder_sizes()
            records.append(record)
            elapsed += end - start
            if elapsed >= sampled + REFERENCE_EVERY:
                speed.sample()
                sampled = elapsed
        done += 1
        if after_cycle is not None:
            after_cycle(elapsed)
    return records


def check_all(workload, records) -> list[str]:
    """Untimed output checks; returns one line per failed request."""
    failures = []
    for i, record in enumerate(records):
        errors = [record.error] if record.error else []
        if not errors:
            try:
                errors = workload.check(record)
            except Exception as exc:  # a check that cannot run is a failure
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            failures.append(f"#{i} {record.request.stratum} "
                            f"{record.request.f} | {record.request.s}: {'; '.join(errors)}")
    return failures


def setup_once(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports funcseries and parses
    the workload's inputs."""
    from workloads import CHILD_TIMEOUT

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                           "--workload", name, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    end = time.perf_counter()
    if proc.returncode != 0:
        fail(f"setup probe exited with {proc.returncode}: {proc.stderr}")
    return end - start


def setup_probe(name: str, seed: int):
    import_program()
    import funcseries as fs
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    cycles = workload.cycles()
    for _ in range(SETUP_CYCLES):
        for req in next(cycles):
            for text in workload.texts(req):
                fs.parse(text)


def e2e_metrics(workload, records, setup_times, speed: Speed) -> tuple[dict, dict]:
    """Timings divided by the run's slowdown, which puts them at the
    reference speed; the wall-clock figures go into the notes."""
    slow = speed.slowdown()
    latencies = [r.seconds for r in records]
    tail = tail_percentile(len(latencies))
    wall = {"latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_tail_ms": percentile(latencies, tail) * 1e3,
            "requests_per_s": len(latencies) / sum(latencies),
            "setup_s": statistics.median(setup_times)}
    values = {k: v * slow if k == "requests_per_s" else v / slow for k, v in wall.items()}
    values["peak_rss_mb"] = workload.peak_rss_mb()
    metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return metrics, {"latency_tail_pct": tail, "samples": len(latencies),
                     "slowdown": slow, "wall_clock": wall, "setup_s_samples": setup_times,
                     "reference_loop_ms": [t * 1e3 for t in speed.samples]}


def layer_metrics(tracer, untraced, traced) -> dict:
    from tracer import LAYERS, self_times
    from workloads import traffic

    per_layer = self_times(tracer.spans)
    metrics = {}
    for layer in LAYERS:
        calls, self_s = per_layer.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.ms"] = (self_s * 1e3, "ms")
    sizes = [n for r in traced if r.ladder_sizes for n in r.ladder_sizes]
    props = traffic(traced)
    metrics["composite.ladder_nodes"] = (sum(sizes), "count")
    metrics["composite.ladder_nodes_max"] = (max(sizes, default=0), "count")
    metrics["series.terminated_ratio"] = (props["terminating_share"], "ratio")
    metrics["remainder.lagrange.skipped_ratio"] = (props["lagrange_skip_share"], "ratio")
    metrics["teixeira.node_evals"] = (tracer.node_evals, "count")
    metrics["trace.overhead_ratio"] = (
        percentile([r.seconds for r in traced], 50)
        / percentile([r.seconds for r in untraced], 50), "ratio")
    metrics["trace.absent_layers"] = (len(tracer.absent), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_spans(path: Path, tracer):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[index[layer], round((start - origin) * 1e9), round((end - origin) * 1e9),
             parent, request, count, round(busy * 1e9)]
            for layer, start, end, parent, request, count, busy in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["layer", "start_ns", "end_ns", "parent", "request",
                              "count", "busy_ns"],
                   "layers": names, "spans": rows}, fh, separators=(",", ":"))


def run_workload(args) -> int:
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS, traffic

    env = environment()
    workload = WORKLOADS[args.workload](args.seed, args.corrupt)
    workload.warm_up()
    cycles = workload.cycles()
    speed = Speed()
    tracer = None
    if args.trace:
        untraced = timed_cycles(workload, cycles, args.seconds / 2, speed)
        tracer = workload.tracer = Tracer()
        tracer.install()
        try:
            traced = timed_cycles(workload, cycles, args.seconds / 2, speed, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
    else:
        # setup probes are spread over the run, between cycles, so that a
        # few seconds of machine noise cannot move their median
        setup_times = []

        def probe(elapsed):
            if (len(setup_times) < SETUP_PROBES and elapsed / speed.slowdown()
                    >= len(setup_times) * args.seconds / SETUP_PROBES):
                setup_times.append(setup_once(args.workload, args.seed))

        records = timed_cycles(workload, cycles, args.seconds, speed, after_cycle=probe)
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_once(args.workload, args.seed))
    failures = check_all(workload, records)
    if args.trace:
        metrics, notes = layer_metrics(tracer, untraced, traced), {
            "absent_layers": tracer.absent, "missing_sites": tracer.missing_sites}
    else:
        metrics, notes = e2e_metrics(workload, records, setup_times, speed)
    # a family that ran out of unused inputs ends the run early
    notes["inputs_spent"] = workload.spent

    props = traffic(records)
    result = {"correct": not failures, "attempted": len(records),
              "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "why": workload.why, "seed": args.seed,
               "seconds": args.seconds, "corrupt": args.corrupt, "environment": env,
               "traffic": props, "notes": notes, "failures": failures, "result": result,
               "requests": [[r.request.stratum, r.request.f, r.request.s,
                             r.request.order, r.seconds * 1e3] for r in records]}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if tracer is not None:
        write_spans(OUT / f"{stem}-spans.json", tracer)

    print(f"workload {args.workload}: {workload.why}")
    print("environment " + json.dumps(env))
    summary = {k: v for k, v in props.items() if k != "ladder_nodes_per_request"}
    sizes = props["ladder_nodes_per_request"]
    if sizes:
        summary["ladder_nodes_per_request"] = {"mean": sum(sizes) / len(sizes),
                                               "max": max(sizes)}
    print("traffic " + json.dumps(summary))
    print("notes " + json.dumps(notes))
    for line in failures[:10]:
        print("FAILED " + line)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {len(failures) / len(records):14.6g} ratio")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    import_program()
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.corrupt is not None:
            argv += ["--corrupt", str(args.corrupt)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def record_cli_digests() -> int:
    import_program()
    from workloads import DIGESTS, cli_pool, run_cli

    digests = {}
    for argv in cli_pool():
        proc = run_cli(argv)
        if proc.returncode != 0:
            fail(f"funcseries {' '.join(argv)} exited with {proc.returncode}: "
                 f"{proc.stderr.decode()}")
        digests[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "ladder-build", "bounds-eval", "cli-cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=None,
                        help="perturb coefficient N before checks (shows checks fire)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-cli-digests", action="store_true",
                        help="rewrite cli_digests.json from the current code")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_cli_digests:
        return record_cli_digests()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
