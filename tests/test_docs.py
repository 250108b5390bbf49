"""The documented library examples run as written: every ```python block
of README.md, and the doctests in the library's docstrings."""

import doctest
import re
from pathlib import Path

import funcseries.oracle
from funcseries.composite import LADDER_CACHE_NODES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_oracle_doctests_pass():
    result = doctest.testmod(funcseries.oracle)
    assert result.failed == 0 and result.attempted > 0


def test_readme_quotes_the_ladder_cache_budget():
    # the cache paragraph names the budget and its memory, at most 200
    # bytes a node (test_composite pins that figure)
    quoted = re.search(r"`composite\.LADDER_CACHE_NODES` \((\d+)\) nodes, about ([\d.]+) MB",
                       README.read_text(encoding="utf-8"))
    assert quoted, "README no longer quotes the ladder cache budget"
    nodes, megabytes = int(quoted[1]), float(quoted[2])
    assert nodes == LADDER_CACHE_NODES
    assert megabytes * 1e6 <= 200 * nodes
