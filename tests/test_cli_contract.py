"""The CLI's error contract on generated input: every call of ``cli.main``
exits with a documented code, prints a strict-JSON (or, for ``plot``, CSV)
report on success, whose ``f`` and ``s`` re-parse, and otherwise prints no
stdout and one stderr line.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import csv
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcseries.cli import main
from funcseries.expr import parse

#: leaves of the grammar, with constants at the edges of double range
LEAVES = ["z", "1", "2", "3", "1/2", "0.25", "1e308", "1e-320", "2^1100"]

FUNCTION_NAMES = ["exp", "log", "sin", "cos", "tan", "sinh", "cosh", "sqrt"]


def _node(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(children, st.integers(-2, 3)).map(lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(st.sampled_from(FUNCTION_NAMES), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda a: f"-({a})"),
    )


#: expression text over the whole grammar, at most four leaves
TEXTS = st.recursive(st.sampled_from(LEAVES), _node, max_leaves=4)

#: per command, the options besides --f, --s, --z0 and --order
COMMANDS = {
    "expand": [],
    "plot": ["--grid=-1:1:5"],
    "check": [],
    "remainder": ["--z=0.3"],
    "teixeira": ["--quadrature-points=16", "--x=0.1"],
}


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), f=TEXTS, s=TEXTS,
       z0=st.sampled_from(["0", "0.5", "-1", "0.1,0.2", "1e308", "1e-320"]),
       order=st.integers(0, 3))
# each once printed NaN in a report that exited 0, after numpy warnings
@example(command="teixeira", f="z", s="1e308", z0="0", order=1)
@example(command="check", f="log(1e308)", s="z", z0="0", order=2)
@example(command="check", f="tan(log(1e308))", s="z", z0="0", order=2)
# exact coefficients, but u^2 overflows in the oracle's matching
@example(command="check", f="1", s="(z)^(2)", z0="1e154", order=2)
# simplify folded 1e308*10 to inf and the report printed "exp(z - inf)"
@example(command="expand", f="exp(z-1e308*10)", s="z", z0="0", order=2)
def test_every_call_keeps_the_contract(command, f, s, z0, order):
    argv = [command, f"--f={f}", f"--s={s}", f"--z0={z0}", f"--order={order}",
            *COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")  # in a process, a warning is more stderr lines
        mp.setattr("sys.stdout", out)
        mp.setattr("sys.stderr", err)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in {0, 1, 2, 3, 4, 5}, (argv, code)
    if code in (0, 5):  # 5 reports the disagreement it found, then says so
        if command == "plot":
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(row) == order + 3 for row in rows), argv
        else:
            report = _strict_json(out)
            if command in ("expand", "remainder") and code == 0:
                parse(report["f"]), parse(report["s"])  # format_expr's text re-parses
        assert err == "" if code == 0 else err.count("\n") == 1, (argv, err)
    else:
        assert out == "", argv
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
