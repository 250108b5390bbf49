"""Import boundary: numpy is loaded only by the code that computes with it."""

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


def numpy_loaded(code: str, *argv: str) -> bool:
    """Whether numpy is in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code + "print('numpy' in sys.modules)\n",
                            *argv], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    return {"True": True, "False": False}[child.stdout.strip()]


@pytest.mark.parametrize("code,argv,loaded", [
    ("import sys, funcseries\n", (), False),
    ("import sys, funcseries.cli\n", (), False),
    (RUN_CLI, ("expand", *PAIR), False),
    (RUN_CLI, ("plot", *PAIR), False),
    (RUN_CLI, ("remainder", *PAIR, "--z", "0.4"), False),
    (RUN_CLI, ("check", *PAIR), True),
    (RUN_CLI, ("teixeira", *PAIR), True),
], ids=["package", "cli", "expand", "plot", "remainder", "check", "teixeira"])
def test_numpy_loaded_only_where_used(code, argv, loaded):
    assert numpy_loaded(code, *argv) is loaded


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
    assert numpy_loaded(code) is True


def test_all_lists_every_public_name():
    public = {name for name, value in vars(funcseries).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | set(funcseries._LAZY) == set(funcseries.__all__)
