"""Every FuncSeriesError pickles, as it must to cross from one process to another."""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from funcseries import errors
from funcseries.errors import MultipleVariables, ParseError, UnknownFunction
from funcseries.expr import parse

CLASSES = sorted((value for value in vars(errors).values()
                  if isinstance(value, type) and issubclass(value, errors.FuncSeriesError)),
                 key=lambda cls: cls.__name__)


def instance(cls):
    if issubclass(cls, ParseError):
        return cls("unexpected token", 7)
    return cls("no series here")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    exc = instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))


@pytest.mark.parametrize("text,cls", [
    ("1+", ParseError),
    ("foo(z)", UnknownFunction),
    ("x+y", MultipleVariables),
])
def test_parse_error_comes_back_from_another_process(text, cls):
    with pytest.raises(cls) as local:
        parse(text)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        with pytest.raises(cls) as remote:
            pool.submit(parse, text).result(timeout=60)
    assert type(remote.value) is cls
    assert str(remote.value) == str(local.value)
    assert remote.value.position == local.value.position
