"""The README's fenced ``python`` examples run as written, and its
``$ streamcode ...`` examples print what the README shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from streamcode import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text()
# (first line number, source) of every fenced python block
BLOCKS = [
    (_TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.S | re.M)
]


def _cli_example(block: str) -> tuple[list[str], list[str], bool]:
    """(argv, shown output lines, whether the whole output is shown)."""
    command, *shown = re.sub(r"\\\n\s*", "", block).splitlines()
    whole = "..." not in shown
    if not whole:
        shown = shown[: shown.index("...")]
    return shlex.split(command), shown, whole


CLI_EXAMPLES = [
    _cli_example(m.group(1))
    for m in re.finditer(r"^```text\n\$ streamcode (.*?)^```", _TEXT, re.S | re.M)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line + 1}" for line, _ in BLOCKS])
def test_readme_example_runs(line, source):
    # pad with blank lines so tracebacks point at the README's own line numbers
    code = compile("\n" * line + source, str(README), "exec")
    exec(code, {"__name__": "readme_example"})


def test_readme_has_cli_examples():
    assert CLI_EXAMPLES


@pytest.mark.parametrize(
    "argv, shown, whole", CLI_EXAMPLES, ids=[argv[0] for argv, _, _ in CLI_EXAMPLES]
)
def test_readme_cli_example_prints_what_it_shows(argv, shown, whole, capsys):
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert (printed if whole else printed[: len(shown)]) == shown
