"""Importing the package loads nothing but the package, and only what is used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kostka

SRC = Path(__file__).resolve().parent.parent / "src"

ENGINE = ["counting", "errors", "ggg", "partitions", "tableaux", "wreath"]

# The standard-library modules the engine and the package's lazy
# `__getattr__` import today are loaded first, so a new one (a module that is
# not loaded at interpreter start costs its own import on every use of the
# package) shows up in the difference. Only the steps after CLI_STDLIB may
# rely on the two modules `kostka.cli` adds.
PRELUDE = """
import sys
import collections, functools, importlib, itertools, math, operator, typing
before = set(sys.modules)
"""
CLI_STDLIB = "import argparse, json"
ADDED = (
    'print("added:", *sorted(set(sys.modules) - before))\n'
    "before = set(sys.modules)\n"
)


def _added(*steps):
    """The modules each step of code adds to sys.modules, the steps run one
    after another in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = PRELUDE + "".join(f"{step}\n{ADDED}" for step in steps)
    lines = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    # a step may print too (a CLI's JSON result): keep the ADDED lines only
    return [line.split()[1:] for line in lines if line.startswith("added:")]


def test_import_adds_only_package_modules():
    [added] = _added("import kostka\nkostka.kostka((2, 1), (1, 1, 1))")
    assert "kostka.counting" in added
    assert all(name == "kostka" or name.startswith("kostka.") for name in added), added


def test_bare_import_adds_only_the_package():
    assert _added("import kostka") == [["kostka"]]


COUNTING = {"kostka.counting", "kostka.partitions"}
TABLEAUX = {"kostka.tableaux", "kostka.partitions"}
WREATH = {"kostka.wreath"} | COUNTING
GGG = {"kostka.ggg"} | COUNTING
ENTRIES = ["--entries", '[{"size": 2, "partition": [1]}]', "--mu", "1,1"]


# every subcommand, and the modules of the package its run adds
SUBCOMMANDS = [
    (["count", "--shape", "3,1", "--weight", "2,2"], COUNTING),
    (["count-multi", "--shape", "[[1],[1]]", "--weight", "1,1"], COUNTING),
    (["positive", "--shape", "3,1", "--weight", "2,2"], COUNTING),
    (["mult-one", "--shape", "3,1", "--weight", "2,2"], COUNTING),
    (["mult-one-multi", "--shape", "[[1],[1]]", "--weight", "1,1"], COUNTING),
    (["unique", "--shape", "3,1"], COUNTING),
    (["unique-multi", "--shape", "[[1],[1]]"], COUNTING),
    (["count", "--shape", "3,1", "--weight", "2,2", "--oracle"], TABLEAUX),
    (["enumerate", "--shape", "3,1", "--weight", "2,2"], TABLEAUX),
    (["greedy", "--shape", "3,1", "--weight", "2,2"], TABLEAUX),
    (["wreath-decompose", "--r", "2", "--d", "1", "--mu", "2"], WREATH),
    (["ggg-count", *ENTRIES], GGG),
    (["ggg-positive", *ENTRIES], GGG),
    (["ggg-mult-one", *ENTRIES], GGG),
]


@pytest.mark.parametrize(
    "argv, loaded", SUBCOMMANDS, ids=[" ".join(argv) for argv, _ in SUBCOMMANDS]
)
def test_subcommand_loads_only_what_it_runs(argv, loaded):
    _, cli, run = _added(CLI_STDLIB, "import kostka.cli", f"kostka.cli.main({argv!r})")
    assert set(cli) == {"kostka", "kostka.cli", "kostka.errors"}
    assert {name for name in run if name.startswith("kostka.")} == loaded, run


def test_every_public_and_submodule_name_resolves():
    engine, _, cli = _added(
        "import kostka\n"
        "for name in kostka.__all__:\n"
        "    value = getattr(kostka, name)\n"
        "    assert getattr(sys.modules[value.__module__], name) is value",
        CLI_STDLIB,
        f"for name in {ENGINE + ['cli']!r}:\n"
        "    assert getattr(kostka, name) is sys.modules['kostka.' + name]",
    )
    assert set(engine) == {"kostka"} | {"kostka." + name for name in ENGINE}
    assert cli == ["kostka.cli"]
    assert set(kostka.__all__) | set(ENGINE) | {"cli"} <= set(dir(kostka))


def test_star_import():
    namespace = {}
    exec("from kostka import *", namespace)
    assert set(kostka.__all__) <= set(namespace)
    assert namespace["kostka"]((6, 3, 3), (5, 4, 3)) == 1


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        kostka.no_such_name
    assert not hasattr(kostka, "no_such_name")
