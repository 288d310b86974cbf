"""Importing the package loads nothing but the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The standard-library modules the package imports today are loaded first,
# so a new one (a module that is not loaded at interpreter start costs its
# own import on every `import kostka`) shows up in the difference.
PROBE = """
import sys
import collections, functools, itertools, math, operator, typing
before = set(sys.modules)
import kostka
print(*sorted(set(sys.modules) - before))
"""


def test_import_adds_only_package_modules():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    added = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "kostka.counting" in added
    assert all(name == "kostka" or name.startswith("kostka.") for name in added), added
