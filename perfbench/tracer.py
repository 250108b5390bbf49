"""In-memory span recorder for the traced benchmark run.

Spans are recorded at layer boundaries by wrapping names where the
*calling* module looks them up: ``simplify`` in ``composite``'s
namespace, ``evaluate`` in ``series``/``remainder``/``teixeira``, the
public API in the ``funcseries`` package namespace the benchmark calls
through, and so on.  Recursion inside ``expr`` (``simplify`` calling
itself, ``_eval`` walking a tree) therefore stays one span per call from
outside the module.

A wrapped name that no longer exists is skipped and its layer reported
absent, so refactors that move or delete functions do not crash the run.
"""

from __future__ import annotations

import functools
import importlib
import time

#: (layer, module, attribute path).  A layer is absent when none of its
#: sites can be found.
SITES = (
    ("expr.parse", "funcseries", "parse"),
    ("expr.differentiate", "funcseries.composite", "differentiate"),
    ("expr.differentiate", "funcseries.series", "differentiate"),
    ("expr.differentiate", "funcseries.remainder", "differentiate"),
    ("expr.differentiate", "funcseries.teixeira", "differentiate"),
    ("expr.simplify", "funcseries.composite", "simplify"),
    ("expr.simplify", "funcseries.series", "simplify"),
    ("expr.evaluate", "funcseries.series", "evaluate"),
    ("expr.evaluate", "funcseries.remainder", "evaluate"),
    ("expr.evaluate", "funcseries.teixeira", "evaluate"),
    ("composite.entry", "funcseries.composite", "OperatorChain.entry"),
    ("series.expand", "funcseries", "expand"),
    ("series.partial_sum", "funcseries", "partial_sum"),
    ("series.partial_sum", "funcseries.remainder", "partial_sum"),
    ("oracle.coefficients", "funcseries", "oracle_coefficients"),
    ("oracle.jet", "funcseries.oracle", "TruncatedSeries.from_expr"),
    ("kernels.series", "funcseries._kernels", "series_mul"),
    ("kernels.series", "funcseries._kernels", "series_div"),
    ("kernels.series", "funcseries._kernels", "series_compose"),
    ("remainder.measured", "funcseries", "measured_error"),
    ("remainder.complex", "funcseries", "complex_bound"),
    ("remainder.lagrange", "funcseries", "lagrange_bound"),
    ("teixeira.expand", "funcseries", "teixeira_expand"),
)

#: spans the CLI workload records around child processes
CLI_LAYERS = ("cli.startup", "cli.expand", "cli.plot", "cli.check",
              "cli.remainder", "cli.teixeira")

LAYERS = tuple(dict.fromkeys([s[0] for s in SITES] + list(CLI_LAYERS)))

#: evaluate calls made from this module count as Teixeira quadrature nodes
NODE_EVAL_SITE = ("funcseries.teixeira", "evaluate")

_LADDER_SITE = ("funcseries.composite", "OperatorChain.entry")


class Tracer:
    """Span store plus the installed wrappers.

    A span is ``[layer, start, end, parent, request, count, busy]``:
    ``parent`` is the index of the enclosing span or -1, and ``count``
    calls spent ``busy`` seconds inside it (count is 1 unless merged).
    Spans are only recorded while ``enabled`` is true, so untimed
    correctness checks leave no trace.
    """

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.request = -1
        self.node_evals = 0
        self.chains: dict[int, object] = {}
        self.absent: list[str] = []
        self.missing_sites: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._entry = None

    # -- recording ------------------------------------------------------

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, parent, self.request, 1, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int, end: float | None = None):
        """End a span.  A leaf that directly follows a finished leaf sibling
        of the same layer is merged into it (count and busy time add up),
        which keeps quadrature loops from storing one span per node."""
        self._stack.pop()
        spans = self.spans
        span = spans[index]
        span[2] = time.perf_counter() if end is None else end
        span[6] = span[2] - span[1]
        if index == len(spans) - 1 and index > 0:
            prev = spans[index - 1]
            if prev[0] == span[0] and prev[3] == span[3] and prev[2] is not None:
                prev[2] = span[2]
                prev[5] += 1
                prev[6] += span[6]
                spans.pop()

    def add(self, layer: str, start: float, end: float, parent: int | None = None):
        """Record a finished span measured elsewhere, by default as a child
        of the innermost open span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, start, end, parent, self.request, 1, end - start])
        return len(self.spans) - 1

    def _wrap(self, layer: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            index = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        found = set()
        for layer, module_name, path in SITES:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing_sites.append(f"{module_name}.{path}")
                continue
            found.add(layer)
            on_call = None
            if (module_name, path) == NODE_EVAL_SITE:
                on_call = self._count_node_eval
            elif (module_name, path) == _LADDER_SITE:
                on_call = self._remember_chain
                self._entry = raw
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, raw.__func__, on_call))
            else:
                wrapped = self._wrap(layer, raw, on_call)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
        self.absent = [layer for layer in LAYERS
                       if layer not in found and layer not in CLI_LAYERS]

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _count_node_eval(self, args):
        self.node_evals += 1

    def _remember_chain(self, args):
        self.chains[id(args[0])] = args[0]

    # -- work counts ----------------------------------------------------

    def take_ladder_sizes(self) -> list[int] | None:
        """Tree sizes of every entry of the chains seen since the last call.

        Runs untraced, after the request's latency was taken.  Returns
        None when the ladder can no longer be inspected (absent layer).
        """
        chains, self.chains = list(self.chains.values()), {}
        if self._entry is None:
            return None
        sizes: list[int] = []
        memo: dict[int, int] = {}
        try:
            for chain in chains:
                for n in range(len(chain)):
                    sizes.append(tree_size(self._entry(chain, n), memo))
        except (AttributeError, TypeError):
            return None
        return sizes


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
    if not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        raise AttributeError(path)
    return owner, attr, raw


def tree_size(e, memo: dict[int, int]) -> int:
    """Node count of the expression viewed as a tree (shared subtrees
    count once per occurrence); linear in the number of distinct nodes."""
    key = id(e)
    size = memo.get(key)
    if size is None:
        size = 1 + sum(tree_size(a, memo) for a in e.args)
        memo[key] = size
    return size


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds).  Self time is a span's busy time
    minus the busy time of its child spans; children of one span never
    overlap because the benchmark runs one request at a time."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[6]
    out: dict[str, tuple[int, float]] = {}
    for i, span in enumerate(spans):
        calls, seconds = out.get(span[0], (0, 0.0))
        out[span[0]] = (calls + span[5], seconds + span[6] - child[i])
    return out
