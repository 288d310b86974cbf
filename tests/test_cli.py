import json

import pytest

from kostka.cli import COMMANDS, main
from kostka.counting import kostka
from kostka.tableaux import is_semistandard, weight


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--shape", "6,3,3", "--weight", "5,4,3")
    assert code == 0
    assert out == {"kostka": "1"}


def test_count_small_example(capsys):
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--weight", "1,1,1")
    assert code == 0
    assert out == {"kostka": "2"}


def test_count_oracle_agrees(capsys):
    _, fast, _ = run(capsys, "count", "--shape", "4,2,1", "--weight", "3,2,1,1")
    _, slow, _ = run(
        capsys, "count", "--shape", "4,2,1", "--weight", "3,2,1,1", "--oracle"
    )
    assert fast == slow


def test_count_multi(capsys):
    code, out, _ = run(
        capsys, "count-multi", "--shape", "[[1],[1]]", "--weight", "1,1"
    )
    assert code == 0
    assert out == {"kostka": "2"}


def test_count_multi_from_file(capsys, tmp_path):
    f = tmp_path / "shape.json"
    f.write_text("[[2,1,1],[2,2],[4]]")
    code, out, _ = run(
        capsys, "count-multi", "--shape", "@" + str(f), "--weight", "8,3,1"
    )
    assert code == 0
    assert out == {"kostka": "1"}


def test_positive_partition_and_multi(capsys):
    code, out, _ = run(capsys, "positive", "--shape", "3,1", "--weight", "2,2")
    assert code == 0
    assert out == {"positive": True}
    code, out, _ = run(
        capsys, "positive", "--shape", "[[1,1]]", "--weight", "2", "--exit-code"
    )
    assert code == 1
    assert out == {"positive": False}


def test_mult_one_with_certificate(capsys):
    code, out, _ = run(
        capsys, "mult-one", "--shape", "6,3,3", "--weight", "5,4,3", "--exit-code"
    )
    assert code == 0
    assert out["multiplicity_one"] is True
    assert out["certificate"]["indices"][-1] == 3


def test_mult_one_false(capsys):
    code, out, _ = run(
        capsys, "mult-one", "--shape", "2,1", "--weight", "1,1,1", "--exit-code"
    )
    assert code == 1
    assert out == {"multiplicity_one": False}


def test_mult_one_multi_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "mult-one-multi",
        "--shape",
        "[[1],[1]]",
        "--weight",
        "1,1",
        "--exit-code",
    )
    assert code == 1
    assert out == {"multiplicity_one": False}


def test_exit_code_defaults_to_zero_without_flag(capsys):
    code, out, _ = run(capsys, "mult-one", "--shape", "2,1", "--weight", "1,1,1")
    assert code == 0
    assert out == {"multiplicity_one": False}


def test_unique(capsys):
    code, out, _ = run(capsys, "unique", "--shape", "3,2,1", "--exit-code")
    assert code == 0
    assert out == {"unique_weight": True}
    code, out, _ = run(capsys, "unique-multi", "--shape", "[[2],[]]", "--exit-code")
    assert code == 1
    assert out == {"unique_weight": False}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "2,1", "--weight", "1,1,1")
    assert code == 0
    assert out["count"] == "2"
    assert len(out["tableaux"]) == 2
    for doc in out["tableaux"]:
        rows = tuple(tuple(r) for r in doc["rows"])
        assert is_semistandard(rows, shape=(2, 1))
        assert weight(rows) == (1, 1, 1)
        assert doc["shape"] == [2, 1]


def test_enumerate_count_only_and_multi(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--shape", "2,1", "--weight", "1,1,1", "--count-only"
    )
    assert code == 0
    assert out == {"count": "2"}
    code, out, _ = run(capsys, "enumerate", "--shape", "[[1],[1]]", "--weight", "1,1")
    assert code == 0
    assert out["count"] == "2"
    assert all(len(mt["components"]) == 2 for mt in out["multitableaux"])
    ones = ",".join(["1"] * 1200)
    code, out, _ = run(
        capsys, "enumerate", "--shape", "1200", "--weight", ones, "--count-only"
    )
    assert code == 0
    assert out == {"count": "1"}
    code, out, _ = run(
        capsys, "enumerate", "--shape", ones[:1999], "--weight", ones[:1999], "--count-only"
    )
    assert code == 0
    assert out == {"count": "1"}


def test_greedy(capsys):
    code, out, _ = run(capsys, "greedy", "--shape", "6,3,3", "--weight", "5,4,3")
    assert code == 0
    assert out["tableau"]["rows"] == [
        [1, 1, 1, 1, 1, 2],
        [2, 2, 2],
        [3, 3, 3],
    ]


def test_wreath_decompose(capsys):
    code, out, _ = run(
        capsys, "wreath-decompose", "--r", "2", "--d", "1", "--mu", "1"
    )
    assert code == 0
    assert out["params"] == {"r": 2, "d": 1, "n": 1, "mu": [1]}
    assert out["constituents"] == [
        {"label": [[], [1]], "multiplicity": "1"},
        {"label": [[1], []], "multiplicity": "1"},
    ]


def test_wreath_decompose_many_components(capsys):
    code, out, err = run(
        capsys, "wreath-decompose", "--r", "1000", "--d", "1", "--mu", "1"
    )
    assert code == 0
    assert err is None
    assert len(out["constituents"]) == 1000


def test_ggg_commands(capsys):
    entries = '[{"size":2,"partition":[1]},{"size":3,"partition":[1]}]'
    code, out, _ = run(capsys, "ggg-count", "--entries", entries, "--mu", "3,2")
    assert code == 0
    assert out == {"kostka": "1"}
    code, out, _ = run(
        capsys, "ggg-positive", "--entries", entries, "--mu", "3,2", "--exit-code"
    )
    assert code == 0
    assert out == {"positive": True}
    same = '[{"size":2,"partition":[1]},{"size":2,"partition":[1]}]'
    code, out, _ = run(
        capsys, "ggg-mult-one", "--entries", same, "--mu", "4", "--exit-code"
    )
    assert code == 0
    assert out == {"multiplicity_one": True}
    code, out, _ = run(
        capsys, "ggg-mult-one", "--entries", "[]", "--mu", "", "--exit-code"
    )
    assert code == 0
    assert out == {"multiplicity_one": True}


def test_error_exits_two_with_json_on_stderr(capsys):
    code, out, err = run(capsys, "count", "--shape", "2,1", "--weight", "1,1")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "SizeMismatchError"
    assert err["error"]["message"]


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "count", "--shape", "a,b", "--weight", "1")
    assert code == 2
    assert err["error"]["type"] == "ParseError"
    code, _, err = run(capsys, "count-multi", "--shape", "not json", "--weight", "1")
    assert code == 2
    assert err["error"]["type"] == "ParseError"


# a good and a malformed text for each option that takes text; --shape by
# its subcommand's form
GOOD = {"weight": "1,1,1", "mu": "2,1", "entries": '[{"size":1,"partition":[1]}]'}
GOOD_SHAPE = {"comma": "2,1", "json": "[[2,1]]", "auto": "2,1"}
BAD = {"weight": "1,x", "mu": "2.5", "entries": "not json"}
BAD_SHAPE = {"comma": "[[2,1]]", "json": "2,1", "auto": "[[2,1]"}
# read by int: bad text there is argparse's usage error, not a ParseError
NUMBERS = {"r": "2", "d": "1"}


def _text_option_cases():
    for sub, (_, form, options) in COMMANDS.items():
        good = {"shape": GOOD_SHAPE[form]} if form else {}
        bad = {"shape": BAD_SHAPE[form]} if form else {}
        for option, kwargs in options.items():
            if option in NUMBERS:
                good[option] = NUMBERS[option]
            elif kwargs.get("action") != "store_true":
                good[option], bad[option] = GOOD[option], BAD[option]
        for option, text in bad.items():
            values = {**good, option: text}
            argv = [sub]
            for name, value in values.items():
                argv += ["--" + name, value]
            yield pytest.param(argv, id=f"{sub} --{option}")


@pytest.mark.parametrize("argv", _text_option_cases())
def test_every_text_option_refuses_bad_text(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "ParseError"


def test_shape_file_not_utf8_exits_two(capsys, tmp_path):
    f = tmp_path / "shape.json"
    f.write_bytes(b"\xff\xfe[[1]]")
    code, out, err = run(capsys, "count-multi", "--shape", "@" + str(f), "--weight", "1")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "ParseError"


def test_json_nested_too_deep_exits_two(capsys, tmp_path):
    f = tmp_path / "shape.json"
    f.write_text("[" * 100_000)
    code, out, err = run(capsys, "count-multi", "--shape", "@" + str(f), "--weight", "1")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "ParseError"


def test_json_integer_too_long_exits_two(capsys):
    # json refuses integers past the interpreter's digit limit with a ValueError
    shape = "[[" + "1" * 5000 + "]]"
    code, out, err = run(capsys, "count-multi", "--shape", shape, "--weight", "1")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["count-multi", "--shape", '[["a"]]', "--weight", "1"],
        ["unique-multi", "--shape", '[["z"]]'],
        ["count-multi", "--shape", "[[1.5]]", "--weight", "1"],
        ["ggg-count", "--entries", '[{"size":"x","partition":[1]}]', "--mu", "1"],
        ["ggg-count", "--entries", '[{"size":1,"partition":3}]', "--mu", "3"],
        ["ggg-positive", "--entries", '[{"size":1,"partition":[[1]]}]', "--mu", "1"],
        ["ggg-count", "--entries", '[{"size":true,"partition":[1]}]', "--mu", "1"],
    ],
)
def test_malformed_entries_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out is None
    assert err["error"]["type"] in {"ParseError", "NonIntegerEntryError"}


def test_counts_are_decimal_strings(capsys):
    # large counts survive JSON round trips exactly
    _, out, _ = run(
        capsys, "count", "--shape", "8,6,4,2", "--weight", ",".join("1" * 20)
    )
    assert out["kostka"] == str(kostka((8, 6, 4, 2), (1,) * 20))
    assert isinstance(out["kostka"], str)


# every subcommand with the options its usage line names
SUBCOMMAND_OPTIONS = {
    "count": ["--shape", "--weight", "--oracle"],
    "count-multi": ["--shape", "--weight", "--oracle"],
    "positive": ["--shape", "--weight", "--exit-code"],
    "mult-one": ["--shape", "--weight", "--exit-code"],
    "mult-one-multi": ["--shape", "--weight", "--exit-code"],
    "unique": ["--shape", "--exit-code"],
    "unique-multi": ["--shape", "--exit-code"],
    "enumerate": ["--shape", "--weight", "--count-only"],
    "greedy": ["--shape", "--weight"],
    "wreath-decompose": ["--r", "--d", "--mu"],
    "ggg-count": ["--entries", "--mu"],
    "ggg-positive": ["--entries", "--mu", "--exit-code"],
    "ggg-mult-one": ["--entries", "--mu", "--exit-code"],
}


@pytest.mark.parametrize("sub", SUBCOMMAND_OPTIONS)
def test_subcommand_help(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0].split()
    assert usage[:4] == ["usage:", "kostka", sub, "[-h]"]
    options = [word.strip("[]") for word in usage if word.lstrip("[").startswith("--")]
    assert options == SUBCOMMAND_OPTIONS[sub]


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(SUBCOMMAND_OPTIONS) + "}" in out


@pytest.mark.parametrize(
    "argv", [[], ["no-such-command"], ["positive", "--shape", "3"]]
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kostka")
