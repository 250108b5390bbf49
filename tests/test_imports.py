"""Import boundary: numpy, csv, the process pool and the modules
dataclasses pulls in are loaded only by the code that needs them."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import funcseries
from funcseries import CATALOG

SRC = Path(funcseries.__file__).resolve().parents[1]

_, F, S, Z0 = CATALOG[0]
PAIR = ("--f", F, "--s", S, "--z0", repr(Z0), "--order", "3")

RUN_CLI = ("import contextlib, io, sys\n"
           "from funcseries.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main(sys.argv[1:]) == 0\n")

#: the modules the import tests look for
WATCHED = ("numpy", "csv", "dataclasses", "inspect", "ast",
           "multiprocessing", "concurrent.futures")


def loaded_modules(code: str, *argv: str) -> set[str]:
    """Which WATCHED modules are in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    report = f"print(*sorted(set({WATCHED!r}) & set(sys.modules)))\n"
    child = subprocess.run([sys.executable, "-c", code + report, *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


#: (code, argv) of each fresh-interpreter case, by test id
CASES = {
    "package": ("import sys, funcseries\n", ()),
    "cli": ("import sys, funcseries.cli\n", ()),
    "expand": (RUN_CLI, ("expand", *PAIR)),
    "plot": (RUN_CLI, ("plot", *PAIR)),
    "remainder": (RUN_CLI, ("remainder", *PAIR, "--z", "0.4")),
    "check": (RUN_CLI, ("check", *PAIR)),
    "check-catalog": (RUN_CLI, ("check", "--order", "2")),
    "teixeira": (RUN_CLI, ("teixeira", *PAIR)),
}


@pytest.fixture(scope="module")
def loaded():
    """Case id -> the WATCHED modules it loads, one fresh interpreter per case."""
    return {case: loaded_modules(code, *argv) for case, (code, argv) in CASES.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_loaded_only_where_used(loaded, case):
    assert ("numpy" in loaded[case]) is (case in ("check", "check-catalog", "teixeira"))


@pytest.mark.parametrize("case", ["package", "cli", "expand", "plot", "remainder"])
def test_numpy_free_paths_load_no_dataclasses(loaded, case):
    # dataclasses imports inspect, which imports ast, dis and tokenize
    assert not loaded[case] & {"dataclasses", "inspect", "ast"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_loaded_only_by_plot(loaded, case):
    assert ("csv" in loaded[case]) is (case == "plot")


@pytest.mark.parametrize("case", sorted(CASES))
def test_process_pool_loaded_only_by_catalog_check(loaded, case):
    # a one-CPU host builds the catalog's ladders in-process
    pooled = case == "check-catalog" and len(os.sched_getaffinity(0)) > 1
    assert ("multiprocessing" in loaded[case]) is pooled
    assert ("concurrent.futures" in loaded[case]) is pooled


@pytest.mark.parametrize("name,module", [
    ("TruncatedSeries", "oracle"),
    ("oracle_coefficients", "oracle"),
    ("ContourSpec", "teixeira"),
    ("TeixeiraExpansion", "teixeira"),
    ("teixeira_expand", "teixeira"),
    ("teixeira_partial_sum", "teixeira"),
])
def test_lazy_name_is_the_module_attribute(name, module):
    owner = importlib.import_module(f"funcseries.{module}")
    assert getattr(funcseries, name) is getattr(owner, name)
    assert name in dir(funcseries)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        funcseries.no_such_name  # noqa: B018
    assert not hasattr(funcseries, "no_such_name")


def test_star_import_binds_the_public_names():
    # __all__ names the six numpy-backed names too, so a star import loads numpy;
    # importlib and the submodules stay out
    code = ("import sys\n"
            "from funcseries import *\n"
            "import funcseries\n"
            "names = {n for n in dir() if not n.startswith('_')} - {'sys', 'funcseries'}\n"
            "assert names == set(funcseries.__all__), names ^ set(funcseries.__all__)\n"
            "assert {'TruncatedSeries', 'teixeira_partial_sum', 'expand'} <= names\n"
            "assert not names & {'importlib', 'composite', 'expr', 'series', 'remainder'}\n")
    assert "numpy" in loaded_modules(code)


def test_all_lists_every_public_name():
    public = {name for name, value in vars(funcseries).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | set(funcseries._LAZY) == set(funcseries.__all__)
