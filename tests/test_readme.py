"""The README's fenced ``python`` examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text()
# (first line number, source) of every fenced python block
BLOCKS = [
    (_TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.S | re.M)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line + 1}" for line, _ in BLOCKS])
def test_readme_example_runs(line, source):
    # pad with blank lines so tracebacks point at the README's own line numbers
    code = compile("\n" * line + source, str(README), "exec")
    exec(code, {"__name__": "readme_example"})
