"""The README's Python example runs as a doctest, so it stays true."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
