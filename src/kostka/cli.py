"""Command-line front end with machine-readable JSON output.

The CLI never computes: it parses arguments, normalizes them where the
underlying operation requires it, delegates to the library, and
serializes the result as a single JSON document on stdout.  Counts are
emitted as decimal strings to avoid integer-width loss downstream.
Predicates run with --exit-code map true to 0 and false to 1; malformed
input exits 2 with a JSON error object on stderr.
"""

import argparse
import json
import sys

from . import counting, ggg, tableaux, wreath
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


def parse_shape_arg(text):
    """Either a comma partition or a JSON multipartition."""
    if text.lstrip().startswith(("[", "@")):
        return parse_multipartition(text), True
    return parse_partition(text), False


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


def multitableau_json(components):
    return {"components": [tableau_json(rows) for rows in components]}


def certificate_json(indices):
    return {"indices": list(indices)}


def _cmd_positive(args):
    shape, is_multi = parse_shape_arg(args.shape)
    if not is_multi:
        shape = (shape,)
    ok = counting.is_positive(shape, parse_partition(args.weight))
    return {"positive": ok}, ok


def _shapes(args):
    """--shape as a multipartition: JSON for the -multi subcommands, else
    one comma-separated partition."""
    if args.multi:
        return parse_multipartition(args.shape)
    return (parse_partition(args.shape),)


def _cmd_count(args):
    shapes = _shapes(args)
    w = parse_partition(args.weight)
    if args.oracle:
        n = len(tableaux.enumerate_multitableaux(shapes, w))
    else:
        n = counting.kostka_multi(shapes, w)
    return {"kostka": str(n)}, None


def _cmd_mult_one(args):
    shapes = _shapes(args)
    cert = counting.is_multiplicity_one_multi(shapes, parse_partition(args.weight))
    doc = {"multiplicity_one": cert is not None}
    if cert is not None:
        doc["certificate"] = certificate_json(cert)
    return doc, cert is not None


def _cmd_unique(args):
    ok = counting.unique_weight_multi(_shapes(args))
    return {"unique_weight": ok}, ok


def _cmd_enumerate(args):
    shape, is_multi = parse_shape_arg(args.shape)
    w = parse_partition(args.weight)
    if is_multi:
        found = tableaux.enumerate_multitableaux(shape, w)
        doc = {"count": str(len(found))}
        if not args.count_only:
            doc["multitableaux"] = [multitableau_json(mt) for mt in found]
    else:
        found = tableaux.enumerate_tableaux(shape, w)
        doc = {"count": str(len(found))}
        if not args.count_only:
            doc["tableaux"] = [tableau_json(t) for t in found]
    return doc, None


def _cmd_greedy(args):
    rows = tableaux.greedy_tableau(
        parse_partition(args.shape), parse_partition(args.weight)
    )
    return {"tableau": tableau_json(rows)}, None


def _cmd_wreath(args):
    mu = parse_partition(args.mu)
    constituents = wreath.decompose_permutation_character(args.r, args.d, mu)
    return {
        "params": {"r": args.r, "d": args.d, "n": sum(mu), "mu": list(mu)},
        "constituents": [
            {"label": [list(c) for c in label], "multiplicity": str(m)}
            for label, m in constituents
        ],
    }, None


def _cmd_ggg_count(args):
    n = ggg.theta_kostka(parse_theta_entries(args.entries), parse_partition(args.mu))
    return {"kostka": str(n)}, None


def _cmd_ggg_positive(args):
    ok = ggg.theta_positive(parse_theta_entries(args.entries), parse_partition(args.mu))
    return {"positive": ok}, ok


def _cmd_ggg_mult_one(args):
    ok = ggg.zelcor_multiplicity_one(
        parse_theta_entries(args.entries), parse_partition(args.mu)
    )
    return {"multiplicity_one": ok}, ok


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kostka",
        description="Exact Kostka numbers, positivity and multiplicity-one "
        "predicates with certificates, wreath product character "
        "decompositions, and orbit-weighted multiplicities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **arguments):
        p = sub.add_parser(name)
        for arg, kwargs in arguments.items():
            p.add_argument("--" + arg.replace("_", "-"), **kwargs)
        p.set_defaults(func=func, multi=name.endswith("-multi"))
        return p

    shape_p = dict(required=True, help="partition, comma-separated")
    shape_m = dict(required=True, help="multipartition, JSON or @file")
    shape_any = dict(required=True, help="partition or JSON multipartition")
    weight = dict(required=True, help="weight composition, comma-separated")
    exit_code = dict(action="store_true", help="exit 0 if true, 1 if false")
    oracle = dict(action="store_true", help="count by enumeration instead")

    add("count", _cmd_count, shape=shape_p, weight=weight, oracle=oracle)
    add("count-multi", _cmd_count, shape=shape_m, weight=weight, oracle=oracle)
    add("positive", _cmd_positive, shape=shape_any, weight=weight, exit_code=exit_code)
    add("mult-one", _cmd_mult_one, shape=shape_p, weight=weight, exit_code=exit_code)
    add("mult-one-multi", _cmd_mult_one, shape=shape_m, weight=weight,
        exit_code=exit_code)
    add("unique", _cmd_unique, shape=shape_p, exit_code=exit_code)
    add("unique-multi", _cmd_unique, shape=shape_m, exit_code=exit_code)
    add(
        "enumerate",
        _cmd_enumerate,
        shape=shape_any,
        weight=weight,
        count_only=dict(action="store_true", help="emit the count only"),
    )
    add("greedy", _cmd_greedy, shape=shape_p, weight=weight)
    add(
        "wreath-decompose",
        _cmd_wreath,
        r=dict(required=True, type=int, help="cyclic group order"),
        d=dict(required=True, type=int, help="subgroup order, divides r"),
        mu=dict(required=True, help="partition, comma-separated"),
    )
    theta = dict(required=True, help='JSON [{"size":..,"partition":[..]},..] or @file')
    mu = dict(required=True, help="weight partition, comma-separated")
    add("ggg-count", _cmd_ggg_count, entries=theta, mu=mu)
    add("ggg-positive", _cmd_ggg_positive, entries=theta, mu=mu, exit_code=exit_code)
    add("ggg-mult-one", _cmd_ggg_mult_one, entries=theta, mu=mu, exit_code=exit_code)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, verdict = args.func(args)
    except KostkaError as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 2
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    if getattr(args, "exit_code", False) and verdict is not None:
        return 0 if verdict else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
