"""Command-line front end with machine-readable JSON output.

The CLI never computes: it parses arguments, normalizes them where the
underlying operation requires it, delegates to the library, and
serializes the result as a single JSON document on stdout.  Counts are
emitted as decimal strings to avoid integer-width loss downstream.
Predicates run with --exit-code map true to 0 and false to 1; malformed
input exits 2 with a JSON error object on stderr.

A process answers most subcommands in microseconds, so its start-up is
its cost.  So a subcommand parses its arguments, then calls
`kostka.<name>`, whose first use imports only the module that defines the
name, and only the chosen subcommand's parser is built, as argparse spends
most of the time it takes to build a parser on gettext look-ups.
"""

import argparse
import json
import sys

import kostka

from .errors import KostkaError, ParseError


def parse_partition(text):
    """Comma-separated integers; empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}: {exc}") from None


def _load_json_arg(text):
    """Inline JSON, or @file to read the JSON from a file."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(str(exc)) from None
    try:
        return json.loads(text)
    # ValueError is JSONDecodeError or an integer past the digit limit;
    # RecursionError is an array or object nested too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from None


def parse_multipartition(text):
    data = _load_json_arg(text)
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise ParseError("multipartition must be a JSON array of arrays")
    return tuple(tuple(c) for c in data)


def parse_theta_entries(text):
    data = _load_json_arg(text)
    if not isinstance(data, list):
        raise ParseError("entries must be a JSON array")
    out = []
    for item in data:
        if not isinstance(item, dict) or "size" not in item or "partition" not in item:
            raise ParseError('each entry needs "size" and "partition"')
        if not isinstance(item["partition"], list):
            raise ParseError('"partition" must be a JSON array')
        out.append((item["size"], tuple(item["partition"])))
    return tuple(out)


def tableau_json(rows):
    return {"shape": [len(r) for r in rows], "rows": [list(r) for r in rows]}


def _json_shape(args):
    """Whether --shape is read as JSON: always for the -multi subcommands,
    never for the partition ones, else when it starts like JSON or @file."""
    if args.shape_form == "auto":
        return args.shape.lstrip().startswith(("[", "@"))
    return args.shape_form == "json"


def _shapes(args):
    """--shape as a multipartition; a comma-separated partition is read as
    the one-component case."""
    if _json_shape(args):
        return parse_multipartition(args.shape)
    return (parse_partition(args.shape),)


def _cmd_positive(args):
    shapes, w = _shapes(args), parse_partition(args.weight)
    ok = kostka.is_positive(shapes, w)
    return {"positive": ok}, ok


def _cmd_count(args):
    shapes, w = _shapes(args), parse_partition(args.weight)
    if args.oracle:
        n = len(kostka.enumerate_multitableaux(shapes, w))
    else:
        n = kostka.kostka_multi(shapes, w)
    return {"kostka": str(n)}, None


def _cmd_mult_one(args):
    shapes, w = _shapes(args), parse_partition(args.weight)
    cert = kostka.is_multiplicity_one_multi(shapes, w)
    doc = {"multiplicity_one": cert is not None}
    if cert is not None:
        doc["certificate"] = {"indices": list(cert)}
    return doc, cert is not None


def _cmd_unique(args):
    shapes = _shapes(args)
    ok = kostka.unique_weight_multi(shapes)
    return {"unique_weight": ok}, ok


def _cmd_enumerate(args):
    shapes, w = _shapes(args), parse_partition(args.weight)
    found = kostka.enumerate_multitableaux(shapes, w)
    doc = {"count": str(len(found))}
    if not args.count_only:
        if _json_shape(args):
            doc["multitableaux"] = [
                {"components": list(map(tableau_json, mt))} for mt in found
            ]
        else:
            doc["tableaux"] = [tableau_json(rows) for (rows,) in found]
    return doc, None


def _cmd_greedy(args):
    (shape,), w = _shapes(args), parse_partition(args.weight)
    return {"tableau": tableau_json(kostka.greedy_tableau(shape, w))}, None


def _cmd_wreath(args):
    mu = parse_partition(args.mu)
    constituents = kostka.decompose_permutation_character(args.r, args.d, mu)
    return {
        "params": {"r": args.r, "d": args.d, "n": sum(mu), "mu": list(mu)},
        "constituents": [
            {"label": [list(c) for c in label], "multiplicity": str(m)}
            for label, m in constituents
        ],
    }, None


def _cmd_ggg_count(args):
    entries, mu = parse_theta_entries(args.entries), parse_partition(args.mu)
    return {"kostka": str(kostka.theta_kostka(entries, mu))}, None


def _cmd_ggg_positive(args):
    entries, mu = parse_theta_entries(args.entries), parse_partition(args.mu)
    ok = kostka.theta_positive(entries, mu)
    return {"positive": ok}, ok


def _cmd_ggg_mult_one(args):
    entries, mu = parse_theta_entries(args.entries), parse_partition(args.mu)
    ok = kostka.zelcor_multiplicity_one(entries, mu)
    return {"multiplicity_one": ok}, ok


_SHAPE_HELP = {
    "comma": "partition, comma-separated",
    "json": "multipartition, JSON or @file",
    "auto": "partition or JSON multipartition",
}
_WEIGHT = {"weight": dict(required=True, help="weight composition, comma-separated")}
_EXIT_CODE = {"exit_code": dict(action="store_true", help="exit 0 if true, 1 if false")}
_ORACLE = {"oracle": dict(action="store_true", help="count by enumeration instead")}
_THETA = {
    "entries": dict(
        required=True, help='JSON [{"size":..,"partition":[..]},..] or @file'
    ),
    "mu": dict(required=True, help="weight partition, comma-separated"),
}

# subcommand -> (function, how --shape is read or None, its other options)
COMMANDS = {
    "count": (_cmd_count, "comma", {**_WEIGHT, **_ORACLE}),
    "count-multi": (_cmd_count, "json", {**_WEIGHT, **_ORACLE}),
    "positive": (_cmd_positive, "auto", {**_WEIGHT, **_EXIT_CODE}),
    "mult-one": (_cmd_mult_one, "comma", {**_WEIGHT, **_EXIT_CODE}),
    "mult-one-multi": (_cmd_mult_one, "json", {**_WEIGHT, **_EXIT_CODE}),
    "unique": (_cmd_unique, "comma", _EXIT_CODE),
    "unique-multi": (_cmd_unique, "json", _EXIT_CODE),
    "enumerate": (
        _cmd_enumerate,
        "auto",
        {
            **_WEIGHT,
            "count_only": dict(action="store_true", help="emit the count only"),
        },
    ),
    "greedy": (_cmd_greedy, "comma", _WEIGHT),
    "wreath-decompose": (
        _cmd_wreath,
        None,
        {
            "r": dict(required=True, type=int, help="cyclic group order"),
            "d": dict(required=True, type=int, help="subgroup order, divides r"),
            "mu": dict(required=True, help="partition, comma-separated"),
        },
    ),
    "ggg-count": (_cmd_ggg_count, None, _THETA),
    "ggg-positive": (_cmd_ggg_positive, None, {**_THETA, **_EXIT_CODE}),
    "ggg-mult-one": (_cmd_ggg_mult_one, None, {**_THETA, **_EXIT_CODE}),
}


def parse_args(argv=None):
    """The namespace of one subcommand, with `func` and `shape_form` set.

    A first parser only picks the subcommand; only that subcommand's
    parser is built."""
    top = argparse.ArgumentParser(
        prog="kostka",
        description="Exact Kostka numbers, positivity and multiplicity-one "
        "predicates with certificates, wreath product character "
        "decompositions, and orbit-weighted multiplicities.",
    )
    # PARSER, as for subparsers: a choice, then every argument after it
    top.add_argument("subcommand", nargs=argparse.PARSER, choices=COMMANDS)
    name, *rest = top.parse_args(argv).subcommand
    func, shape, options = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"kostka {name}")
    if shape:
        parser.add_argument("--shape", required=True, help=_SHAPE_HELP[shape])
    for option, kwargs in options.items():
        parser.add_argument("--" + option.replace("_", "-"), **kwargs)
    parser.set_defaults(func=func, shape_form=shape)
    return parser.parse_args(rest)


def main(argv=None):
    args = parse_args(argv)
    try:
        doc, verdict = args.func(args)
    except KostkaError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error}), file=sys.stderr)
        return 2
    print(json.dumps(doc))
    if getattr(args, "exit_code", False) and verdict is not None:
        return 0 if verdict else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
