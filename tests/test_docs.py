"""The documented library examples run as written: every ```python block
of README.md, and the doctests in the library's docstrings."""

import doctest
import re
from pathlib import Path

import funcseries.oracle

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
