"""The README's examples run: the Python one as a doctest, and every
`kostka ...` line of its shell blocks through the CLI, so they stay true."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from kostka.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_LINES = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    for line in block.splitlines()
    if line.startswith("kostka ")
]


def test_readme_example_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line, capsys):
    # a trailing `# {...}` comment is exactly what the line prints
    assert main(shlex.split(line, comments=True)[1:]) == 0
    comment = line.partition("# ")[2]
    if comment.startswith("{"):
        assert capsys.readouterr().out.strip() == comment
