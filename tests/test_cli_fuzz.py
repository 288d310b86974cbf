"""The CLI on a small grammar of good and bad arguments, run in-process.

Every argv must end one of three ways: exit 0 or 1 with one JSON document
on stdout, exit 2 with a JSON error on stderr, or argparse's own exit 2.
Any other exception fails the test.  Weights stay far below the recursion
depth of the counting engine.
"""

import io
import json
import random
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain

import pytest

from kostka import errors
from kostka.cli import main

COMMA_SHAPES = [
    "3,1", "2,1,1", "4", "", " 2, 1 ", "1,2", "3,-1", "2.5,1", "a,b", "3,,1",
]
JSON_SHAPES = [
    "[[3,1]]", "[[2,1],[1]]", "[[1],[]]", "[]", "[[1,2]]", "[[3,-1]]", "[[[1]]]",
    "[[true]]", "[[1.5]]", '[["a"]]', "[[2,1]", "{}", "[1,2]",
]
WEIGHTS = ["2,1,1", "1,1,1,1", "2,2", "1,2,1", "4", "", "-1,5", "1.5,1", "x", "1,1,1"]
ENTRIES = [
    '[{"size":1,"partition":[2,1]}]',
    '[{"size":2,"partition":[1]},{"size":1,"partition":[2]}]',
    '[{"size":2,"partition":[1]},{"size":2,"partition":[1]}]',
    "[]",
    '[{"size":0,"partition":[1]}]',
    '[{"size":-1,"partition":[1]}]',
    '[{"size":true,"partition":[1]}]',
    '[{"size":1.5,"partition":[1]}]',
    '[{"size":1,"partition":[1,2]}]',
    '[{"size":1,"partition":[[1]]}]',
    '[{"size":1,"partition":3}]',
    '[{"size":1}]',
    '{"size":1}',
    "not json",
]
MUS = ["3,1", "4", "2,1,1", "", "1,3", "-1", "x", "2.0"]
GROUP_ORDERS = ["2", "3", "1", "0", "-2", "x", "1.5"]
SUBGROUP_ORDERS = ["1", "2", "3", "0", "x"]
WREATH_MUS = ["2,1", "3", "1,1,1", "", "1,2", "-1", "a"]

PARTITION_SUBCOMMANDS = ["count", "mult-one", "unique", "greedy"]


def _grammar(shape_file, missing_file):
    """subcommand -> ({option: tokens}, flags); the first token of each
    option is a good one."""
    files = ["@" + shape_file, "@" + missing_file]
    shapes = COMMA_SHAPES + JSON_SHAPES + files
    theta = ENTRIES + ["@" + missing_file]
    exit_code, oracle = ["--exit-code"], ["--oracle"]
    grammar = {
        "count": ({"shape": shapes, "weight": WEIGHTS}, oracle),
        "positive": ({"shape": shapes, "weight": WEIGHTS}, exit_code),
        "mult-one": ({"shape": shapes, "weight": WEIGHTS}, exit_code),
        "unique": ({"shape": shapes}, exit_code),
        "enumerate": ({"shape": shapes, "weight": WEIGHTS}, ["--count-only"]),
        "greedy": ({"shape": shapes, "weight": WEIGHTS}, []),
        "wreath-decompose": (
            {"r": GROUP_ORDERS, "d": SUBGROUP_ORDERS, "mu": WREATH_MUS}, []
        ),
        "ggg-count": ({"entries": theta, "mu": MUS}, []),
        "ggg-positive": ({"entries": theta, "mu": MUS}, exit_code),
        "ggg-mult-one": ({"entries": theta, "mu": MUS}, exit_code),
    }
    json_first = JSON_SHAPES + shapes
    grammar["count-multi"] = ({"shape": json_first, "weight": WEIGHTS}, oracle)
    grammar["mult-one-multi"] = ({"shape": json_first, "weight": WEIGHTS}, exit_code)
    grammar["unique-multi"] = ({"shape": json_first}, exit_code)
    return grammar


def _argvs(grammar, seed=0, sampled=12):
    """Each token with the other options at their first token, each flag on
    its own, and a seeded sample of random combinations."""
    rng = random.Random(seed)
    for sub, (options, flags) in grammar.items():

        def argv(choice, flag=()):
            opts = chain.from_iterable(("--" + k, v) for k, v in choice.items())
            return [sub, *opts, *flag]

        base = {k: tokens[0] for k, tokens in options.items()}
        for k, tokens in options.items():
            for token in tokens:
                yield argv({**base, k: token})
        for flag in flags:
            yield argv(base, [flag])
        for _ in range(sampled):
            choice = {k: rng.choice(tokens) for k, tokens in options.items()}
            yield argv(choice, rng.sample(flags, rng.randint(0, len(flags))))


def run(argv):
    """(exit code, parsed document) for one in-process run; the document is
    stdout's on exit 0/1, stderr's on a JSON error, None on argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2, None
    if code in (0, 1):
        assert code == 0 or "--exit-code" in argv, argv
        assert err.getvalue() == "", argv
        text = out.getvalue()
    else:
        assert code == 2, argv
        assert out.getvalue() == "", argv
        text = err.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, argv
    doc = json.loads(text)
    if code == 2:
        assert set(doc) == {"error"}, argv
        error_type = getattr(errors, doc["error"]["type"])
        assert issubclass(error_type, errors.KostkaError), argv
        assert doc["error"]["message"], argv
    return code, doc


@pytest.fixture
def shape_files(tmp_path):
    shape_file = tmp_path / "shape.json"
    shape_file.write_text("[[2,1],[1]]")
    return str(shape_file), str(tmp_path / "missing.json")


def test_every_argv_ends_in_json_or_a_usage_error(shape_files):
    grammar = _grammar(*shape_files)
    assert len(grammar) == 13
    outcomes = defaultdict(set)
    for argv in _argvs(grammar):
        code, doc = run(argv)
        kind = "usage" if doc is None else "error" if code == 2 else "answer"
        outcomes[argv[0]].add(kind)
    # each subcommand both answers and refuses somewhere in the grammar
    for sub, seen in outcomes.items():
        assert {"answer", "error"} <= seen, (sub, seen)


def _weight_of(sub):
    return [] if sub.startswith("unique") else ["--weight", "2,2"]


@pytest.mark.parametrize("sub", PARTITION_SUBCOMMANDS)
@pytest.mark.parametrize("shape", ["[[3,1]]", "[[2,1],[1]]"])
def test_partition_subcommands_refuse_a_json_shape(sub, shape):
    code, doc = run([sub, "--shape", shape, *_weight_of(sub)])
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


@pytest.mark.parametrize("sub", ["count-multi", "mult-one-multi", "unique-multi"])
def test_multi_subcommands_refuse_a_comma_shape(sub):
    code, doc = run([sub, "--shape", "3,1", *_weight_of(sub)])
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


def test_positive_and_enumerate_read_both_shape_forms(shape_files):
    shape_file, missing_file = shape_files
    for shape in ["3,1", "[[3,1]]", " [[3,1]]"]:
        assert run(["positive", "--shape", shape, "--weight", "2,2"]) == (
            0,
            {"positive": True},
        )
    assert run(["positive", "--shape", "@" + shape_file, "--weight", "2,2"])[0] == 0

    code, single = run(["enumerate", "--shape", "2,1", "--weight", "1,1,1"])
    assert code == 0 and set(single) == {"count", "tableaux"}
    code, multi = run(["enumerate", "--shape", "[[2,1]]", "--weight", "1,1,1"])
    assert code == 0 and set(multi) == {"count", "multitableaux"}
    assert [mt["components"] for mt in multi["multitableaux"]] == [
        [t] for t in single["tableaux"]
    ]
    code, doc = run(["enumerate", "--shape", "@" + shape_file, "--weight", "2,1,1"])
    assert code == 0 and "multitableaux" in doc
    code, doc = run(["enumerate", "--shape", "@" + missing_file, "--weight", "1"])
    assert code == 2 and doc["error"]["type"] == "ParseError"
