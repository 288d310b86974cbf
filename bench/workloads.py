"""Seeded op lists for the four workloads, with the checks on their results.

An op is one call of one public function of the kostka package (or, for
`cli`, one run of the command line).  A workload is a fixed list of ops
and a check over all their results.  The seed picks the inputs; the
families they come from are chosen so that every seed asks for about the
same amount of work, which keeps figures comparable across seeds.
"""

import json
import random
from typing import Callable, NamedTuple

from oracles import (
    arrangements,
    dominates,
    drops_shared,
    is_tableau,
    multi_standard_count,
    multinomial,
    multipartitions_of,
    partitions_of,
    random_partition,
    rowwise_sum,
    schur_at_ones,
    steps_at_most_one,
    subset_sum,
    syt_count,
)

# Last argument of an op that takes the previous op's result (a
# multiplicity-one certificate).  The op is skipped when there is none.
PREV = object()


class Op(NamedTuple):
    func: str  # "module.function" in the kostka package, or "cli"
    args: tuple


class Raised(NamedTuple):
    error: str


# Result of an op whose PREV argument had no certificate to pass on.
SKIPPED = Raised("skipped")


class CliResult(NamedTuple):
    code: int
    out: str


class Workload(NamedTuple):
    ops: list
    check: Callable  # list of results -> set of indices of wrong results


def failed_result(value):
    return isinstance(value, Raised)


class _Builder:
    def __init__(self):
        self.ops = []

    def add(self, func, *args):
        self.ops.append(Op(func, args))
        return len(self.ops) - 1


# ---------------------------------------------------------------- table


def _by_size(rng, items_of, max_n):
    """items_of(n) for n = 1..max_n, shuffled within each size.

    Sizes go up as when a table is built, so each call finds its smaller
    subproblems cached and adds its own; a random order over all sizes
    would make the slowest calls, and so op_tail_ms, depend on the seed.
    """
    out = []
    for n in range(1, max_n + 1):
        items = list(items_of(n))
        rng.shuffle(items)
        out += items
    return out


def _single_table(b, rng, max_n):
    pairs = _by_size(
        rng, lambda n: ((lam, mu) for mu in partitions_of(n) for lam in partitions_of(n)), max_n
    )
    at = {}
    for lam, mu in pairs:
        at[lam, mu] = (
            b.add("counting.kostka", lam, mu),
            b.add("counting.is_positive", (lam,), mu),
            b.add("counting.is_multiplicity_one", lam, mu),
            b.add("counting.verify_certificate", lam, mu, PREV),
        )
    shapes = _by_size(rng, partitions_of, max_n)
    unique = {lam: b.add("counting.unique_weight", lam) for lam in shapes}

    def check(res, wrong):
        for n in range(1, max_n + 1):
            lams = list(partitions_of(n))
            for mu in lams:
                column = [at[lam, mu][0] for lam in lams]
                if any(failed_result(res[i]) for i in column):
                    continue
                total = sum(res[i] * syt_count(lam) for i, lam in zip(column, lams))
                if total != multinomial(n, mu):
                    wrong.update(column)
        for (lam, mu), (k, p, c, v) in at.items():
            count, cert = res[k], res[c]
            if failed_result(count):
                continue
            if mu == (1,) * sum(mu) and count != syt_count(lam):
                wrong.add(k)
            if res[p] != dominates(lam, mu) or res[p] != (count > 0):
                wrong.add(p)
            if (cert is not None) != (count == 1):
                wrong.add(c)
            if cert is not None and res[v] is not True:
                wrong.add(v)
        for lam, u in unique.items():
            ones = {mu for mu in partitions_of(sum(lam)) if res[at[lam, mu][0]] == 1}
            if res[u] != steps_at_most_one(lam) or res[u] != (ones == {lam}):
                wrong.add(u)

    return check


def _multi_table(b, rng, r, max_n):
    pairs = _by_size(
        rng,
        lambda n: ((s, mu) for mu in partitions_of(n) for s in multipartitions_of(n, r)),
        max_n,
    )
    at = {}
    for shapes, mu in pairs:
        at[shapes, mu] = (
            b.add("counting.kostka_multi", shapes, mu),
            b.add("counting.is_multiplicity_one_multi", shapes, mu),
            b.add("counting.verify_certificate_multi", shapes, mu, PREV),
        )
    labels = _by_size(rng, lambda n: multipartitions_of(n, r), max_n)
    unique = {s: b.add("counting.unique_weight_multi", s) for s in labels}

    def check(res, wrong):
        # Sum over labels of K * degree is the degree of the permutation
        # character of the wreath product induced from a Young subgroup.
        for n in range(1, max_n + 1):
            for mu in partitions_of(n):
                column = [
                    (at[s, mu][0], s) for s in multipartitions_of(n, r)
                ]
                if any(failed_result(res[i]) for i, _ in column):
                    continue
                total = sum(res[i] * multi_standard_count(s) for i, s in column)
                if total != r**n * multinomial(n, mu):
                    wrong.update(i for i, _ in column)
        for (shapes, mu), (k, c, v) in at.items():
            count, cert = res[k], res[c]
            if failed_result(count):
                continue
            if mu == (1,) * sum(mu) and count != multi_standard_count(shapes):
                wrong.add(k)
            if (cert is not None) != (count == 1):
                wrong.add(c)
            if mu == rowwise_sum(shapes) and cert is None:
                wrong.add(c)
            if cert is not None and res[v] is not True:
                wrong.add(v)
        for shapes, u in unique.items():
            n = sum(map(sum, shapes))
            ones = {mu for mu in partitions_of(n) if res[at[shapes, mu][0]] == 1}
            if res[u] != drops_shared(shapes) or res[u] != (ones == {rowwise_sum(shapes)}):
                wrong.add(u)

    return check


# The small orbit-weighted tables: (orbit size, shape) entries, three with
# equal and three with mixed orbit sizes.  Fixed, because the fallback
# search of theta_positive makes some shapes far slower than others.  Each
# is kept small: ((1, (1, 1)), (1, (2,)), (2, (2,)), (3, (1,))) has ops of
# 5-50 ms, so the twenty slowest ops of `table` would all come from that
# one table and op_tail_ms would follow the noise of a single op.  The
# large Theta calls are in `deep`.
THETA_TABLES = (
    ((2, (2,)), (2, (1, 1)), (2, (1,))),
    ((3, (2,)), (3, (1,)), (3, (1,))),
    ((2, (2, 1)), (2, (2,))),
    ((1, (2, 1)), (2, (1, 1)), (3, (1,))),
    ((1, (1, 1)), (2, (2,)), (3, (1,))),
    ((2, (2, 1)), (3, (1, 1))),
)


def _theta_table(b):
    tables = []
    for entries in THETA_TABLES:
        sizes = [s for s, _ in entries]
        total = sum(s * sum(shape) for s, shape in entries)
        rows = {}
        for mu in partitions_of(total):  # in order: these are the slowest ops
            rows[mu] = (
                b.add("ggg.theta_kostka", entries, mu),
                b.add("ggg.theta_positive", entries, mu),
                b.add("ggg.zelcor_multiplicity_one", entries, mu)
                if len(set(sizes)) == 1
                else None,
            )
        tables.append((entries, total, rows))

    def check(res, wrong):
        for entries, total, rows in tables:
            counts = {mu: res[t] for mu, (t, _, _) in rows.items()}
            if any(failed_result(c) for c in counts.values()):
                continue
            # Coefficient sum of prod s_shape(x^size) at x = 1^total.
            expected = 1
            for _, shape in entries:
                expected *= schur_at_ones(shape, total)
            got = sum(c * arrangements(mu, total) for mu, c in counts.items())
            if got != expected:
                wrong.update(t for t, _, _ in rows.values())
            w = entries[0][0]
            shapes = tuple(shape for _, shape in entries)
            for mu, (t, p, z) in rows.items():
                if res[p] != (counts[mu] > 0):
                    wrong.add(p)
                if z is not None and res[z] != (counts[mu] == 1):
                    wrong.add(z)
                if z is not None and mu == (w,) * (total // w):
                    if counts[mu] != multi_standard_count(shapes):
                        wrong.add(t)

    return check


def table(seed):
    """Every (shape, weight) pair up to a size: many tiny calls that share
    the strip recursion's subproblems."""
    rng = random.Random(seed)
    b = _Builder()
    checks = [
        _single_table(b, rng, 13),
        _multi_table(b, rng, 2, 7),
        _multi_table(b, rng, 3, 6),
    ]
    start = len(b.ops)
    checks.append(_theta_table(b))
    return _spread(Workload(b.ops, _run_checks(checks)), start)


def _spread(work, start):
    """Spread ops[start:], in a fixed shuffled order, evenly through
    ops[:start].

    The theta ops are among the slowest of `table`, so they help set its
    op_tail_ms.  Run back to back at the end they would all be timed in
    the same second of each repetition, and the tail would follow the
    machine's speed in that one second; spread out, they sample the whole
    repetition as the other ops do.  The shuffle does not depend on the
    seed.  An op that takes its predecessor's result keeps it.
    """
    head, tail = start, len(work.ops) - start
    moved = list(range(start, len(work.ops)))
    random.Random(0).shuffle(moved)
    order, j = [], 0
    for i in range(head):
        while j < tail and (j + 1) * head <= i * (tail + 1) and work.ops[i].args[-1:] != (PREV,):
            order.append(moved[j])
            j += 1
        order.append(i)
    order += moved[j:]
    at = {op: pos for pos, op in enumerate(order)}

    def check(res):
        by_op = [None] * len(res)
        for pos, op in enumerate(order):
            by_op[op] = res[pos]
        return {at[op] for op in work.check(by_op)}

    return Workload([work.ops[op] for op in order], check)


def _run_checks(checks):
    def check(res):
        wrong = set()
        for c in checks:
            c(res, wrong)
        return wrong

    return check


# ----------------------------------------------------------------- deep

DEEP_MULTI = (
    ((3, 2), (2, 1), (2, 1)),
    ((4, 3, 2), (3, 1)),
    ((4, 2), (3, 2, 1)),
    ((3, 2), (2, 1), (2,)),
    ((5, 3), (3, 2)),
    ((2, 2), (2, 1), (1, 1), (1,)),
)
DEEP_WREATH = (
    (3, 1, (1,) * 7),
    (4, 1, (1,) * 6),
    (4, 2, (1,) * 8),
)
DEEP_THETA_EQUAL = (
    (2, ((3, 2), (2, 1), (2,))),
    (3, ((2, 1), (2, 1), (1, 1))),
    (2, ((2, 2), (2, 1), (1, 1), (1,))),
)
DEEP_THETA_MIXED = (
    (((1, (3, 2)), (2, (2, 1)), (2, (2,)), (3, (1, 1))), (5, 5, 3, 3, 3, 1, 1)),
    (((1, (3, 1)), (2, (2, 1)), (3, (2,))), (4, 3, 3, 2, 2, 2)),
    (((1, (2, 2)), (1, (2, 1)), (2, (2, 1)), (3, (1,))), (4, 4, 2, 2, 2, 1, 1)),
)


def _deep_kostka_instances():
    """Fixed (shape, weight) pairs with n = 60..80 and 30..40 weight letters.

    They are drawn once from a constant seed: random instances of this
    size differ in cost by a factor of forty, which would drown any change
    to the engine in the choice of inputs.
    """
    rng = random.Random(6080)
    out = []
    while len(out) < 4:
        n, letters, rows = rng.randint(60, 80), rng.randint(30, 40), rng.randint(3, 4)
        cuts = sorted(rng.sample(range(1, n), letters - 1))
        w = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        lam = random_partition(rng, n, rows)
        if lam[0] < 40:
            out.append((lam, w))
    return out


def deep(seed):
    """Few large calls that share little: the counting recursion and the
    weight-split enumeration do nearly all the work."""
    rng = random.Random(seed)
    b = _Builder()
    big = []  # (kind, *inputs)

    for shapes in DEEP_MULTI:
        shapes = tuple(rng.sample(shapes, len(shapes)))
        n = sum(map(sum, shapes))
        big.append(("multi", shapes, (1,) * n))
    for r, d, mu in DEEP_WREATH:
        big.append(("wreath", r, d, mu))
    for w, shapes in DEEP_THETA_EQUAL:
        shapes = tuple(rng.sample(shapes, len(shapes)))
        n = sum(map(sum, shapes))
        big.append(("theta_equal", tuple((w, s) for s in shapes), (w,) * n))
    for entries, mu in DEEP_THETA_MIXED:  # entry order changes the cost 20-fold
        big.append(("theta_mixed", entries, mu))
    for lam, w in _deep_kostka_instances():
        big.append(("kostka", lam, w))

    # Two-row chains (n - k, k) with weight 1^n.  Recursion depth grows with
    # n, so chains run largest first: a smaller chain run earlier would
    # leave states in the global cache that let a larger one succeed.
    # Today the strip recursion overflows the stack from n ~ 500 up.
    # A failing chain holds memory in proportion to n until it unwinds, so
    # the lengths and the chains' places in the list are fixed, which keeps
    # peak_rss_mib from depending on the seed; the seed picks second rows.
    chains = [(900, 0)] + [(n, rng.randint(1, 5)) for n in (10_000, 5_000, 2_000, 1_000)]
    chains += [(n, k) for k, n in enumerate((450, 400, 350, 300), 1)]
    chains.sort(reverse=True)
    plan = list(big)
    for slot, (n, k) in enumerate(chains):
        plan.insert(slot * 3, ("chain", (n - k, k) if k else (n,), (1,) * n))

    checks = []
    for item in plan:
        kind = item[0]
        if kind == "multi":
            i = b.add("counting.kostka_multi", item[1], item[2])
            checks.append((i, multi_standard_count(item[1])))
        elif kind == "wreath":
            r, d, mu = item[1:]
            i = b.add("wreath.decompose_permutation_character", r, d, mu)
            checks.append((i, ("wreath", r, d, mu)))
        elif kind == "theta_equal":
            i = b.add("ggg.theta_kostka", item[1], item[2])
            checks.append((i, multi_standard_count(tuple(s for _, s in item[1]))))
        elif kind == "theta_mixed":
            i = b.add("ggg.theta_kostka", item[1], item[2])
            j = b.add("ggg.theta_positive", item[1], item[2])
            checks.append((j, ("positive", i)))
        elif kind == "kostka":
            lam, w = item[1:]
            i = b.add("counting.kostka", lam, w)
            checks.append((i, ("dominance", lam, w)))
        else:
            i = b.add("counting.kostka", item[1], item[2])
            checks.append((i, syt_count(item[1])))

    def check(res):
        wrong = set()
        for i, want in checks:
            got = res[i]
            if failed_result(got):
                continue
            if isinstance(want, int):
                ok = got == want
            elif want[0] == "wreath":
                r, d, mu = want[1:]
                degree = sum(m * multi_standard_count(label) for label, m in got)
                ok = all(m > 0 for _, m in got) and degree == (r // d) ** sum(
                    mu
                ) * multinomial(sum(mu), mu)
            elif want[0] == "positive":
                ok = failed_result(res[want[1]]) or got == (res[want[1]] > 0)
            else:
                lam, w = want[1:]
                ok = (got > 0) == dominates(lam, tuple(sorted(w, reverse=True)))
            if not ok:
                wrong.add(i)
        return wrong

    return Workload(b.ops, check)


# ----------------------------------------------------------------- scan

SCAN_N, SCAN_PARTS = 10_000, 1_000
SCAN_INSTANCES = 50


def _perturbed(mu):
    """A shape near mu, as in the package's scaling acceptance test."""
    lam = tuple(
        sorted((x + (1 if i % 2 else 0) for i, x in enumerate(mu)), reverse=True)
    )
    lam = lam[:-1] + (lam[-1] - (sum(lam) - sum(mu)),)
    if lam[-1] <= 0 or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return mu
    return lam


def _coarsening(rng, mu):
    """Sums of runs of consecutive parts: a partition that dominates mu."""
    out, i = [], 0
    while i < len(mu):
        step = rng.randint(1, 3)
        out.append(sum(mu[i:i + step]))
        i += step
    return tuple(sorted(out, reverse=True))


def scan(seed):
    """Certified predicates at n = 10 000: linear scans, no counting."""
    rng = random.Random(seed)
    b = _Builder()
    checks = []
    for t in range(SCAN_INSTANCES):
        mu = random_partition(rng, SCAN_N, SCAN_PARTS)
        lam = mu if t % 2 == 0 else _perturbed(mu)
        c = b.add("counting.is_multiplicity_one", lam, mu)
        v = b.add("counting.verify_certificate", lam, mu, PREV)
        p = b.add("counting.is_positive", (lam,), mu)
        d = b.add("partitions.dominates", lam, mu)
        u = b.add("counting.unique_weight", lam)
        checks.append(("single", lam, mu, c, v, p, d, u))

        sizes = (3400, 3300, 3300)
        shapes = tuple(random_partition(rng, s, SCAN_PARTS // 3) for s in sizes)
        nu = rowwise_sum(shapes) if t % 2 == 0 else random_partition(rng, SCAN_N, SCAN_PARTS)
        c = b.add("counting.is_multiplicity_one_multi", shapes, nu)
        v = b.add("counting.verify_certificate_multi", shapes, nu, PREV)
        p = b.add("counting.is_positive", shapes, nu)
        s = b.add("partitions.tilde", shapes)
        u = b.add("counting.unique_weight_multi", shapes)
        z = b.add(
            "ggg.zelcor_multiplicity_one",
            tuple((2, c_) for c_ in shapes),
            tuple(2 * x for x in nu),
        )
        checks.append(("multi", shapes, nu, c, v, p, s, u, z))

        orbits = [rng.randint(1, 40) for _ in range(rng.randint(250, 350))]
        total = sum(orbits)
        first = rng.randint((total + 1) // 2, total - 1)
        entries = tuple((o, (1,)) for o in orbits)
        i = b.add("ggg.theta_positive", entries, (first, total - first))
        checks.append(("orbits", orbits, first, i))

        mu2 = random_partition(rng, 2000, 200)
        lam2 = _coarsening(rng, mu2)
        i = b.add("tableaux.greedy_tableau", lam2, mu2)
        checks.append(("greedy", lam2, mu2, i))

    def check(res):
        wrong = set()
        for item in checks:
            kind = item[0]
            if kind == "single":
                lam, mu, c, v, p, d, u = item[1:]
                if res[c] is not None and res[v] is not True:
                    wrong.add(v)
                if lam == mu and res[c] is None:
                    wrong.add(c)
                if res[p] != dominates(lam, mu):
                    wrong.add(p)
                if res[d] != dominates(lam, mu):
                    wrong.add(d)
                if res[u] != steps_at_most_one(lam):
                    wrong.add(u)
            elif kind == "multi":
                shapes, nu, c, v, p, s, u, z = item[1:]
                tilde = rowwise_sum(shapes)
                if res[c] is not None and res[v] is not True:
                    wrong.add(v)
                if nu == tilde and res[c] is None:
                    wrong.add(c)
                if res[p] != dominates(tilde, nu):
                    wrong.add(p)
                if res[s] != tilde:
                    wrong.add(s)
                if res[u] != drops_shared(shapes):
                    wrong.add(u)
                if not failed_result(res[c]) and res[z] != (res[c] is not None):
                    wrong.add(z)
            elif kind == "orbits":
                orbits, first, i = item[1:]
                if res[i] != subset_sum(orbits, first):
                    wrong.add(i)
            else:
                lam2, mu2, i = item[1:]
                if failed_result(res[i]) or not is_tableau(res[i], lam2, mu2):
                    wrong.add(i)
        return wrong

    return Workload(b.ops, check)


# ------------------------------------------------------------------ cli


def _csv(parts):
    return ",".join(map(str, parts))


def _json_multi(shapes):
    return json.dumps([list(c) for c in shapes], separators=(",", ":"))


def _json_entries(entries):
    return json.dumps(
        [{"size": s, "partition": list(p)} for s, p in entries],
        separators=(",", ":"),
    )


def _doc(result):
    return json.loads(result.out)


def _verified(shapes, mu, doc, multi):
    from kostka.counting import verify_certificate, verify_certificate_multi

    verify = verify_certificate_multi if multi else verify_certificate
    return verify(shapes, mu, tuple(doc["certificate"]["indices"]))


def _tableaux_ok(doc, shape, w):
    tabs = [tuple(tuple(r) for r in t["rows"]) for t in doc["tableaux"]]
    return (
        int(doc["count"]) == len(tabs) == syt_count(shape)
        and len(set(tabs)) == len(tabs)
        and all(is_tableau(t, shape, w) for t in tabs)
    )


def _wreath_ok(doc, r, d, mu):
    degree = sum(
        int(c["multiplicity"]) * multi_standard_count(tuple(map(tuple, c["label"])))
        for c in doc["constituents"]
    )
    return degree == (r // d) ** sum(mu) * multinomial(sum(mu), mu)


def cli(seed):
    """Sequential `python -m kostka.cli` runs over all subcommands: pays
    interpreter start, import, argument parsing and JSON on every op."""
    rng = random.Random(seed)
    b = _Builder()
    checks = []

    def run(argv, code=0, pred=None):
        """pred(stdout document, all results) must hold on exit `code`."""
        i = b.add("cli", tuple(argv))
        checks.append((i, code, pred))
        return i

    def exit_for(verdict):
        return 0 if verdict else 1

    def ones(n):
        return _csv((1,) * n)

    small = [p for p in partitions_of(8) if len(p) <= 4]
    mid = [p for p in partitions_of(14) if len(p) <= 6]

    for lam in rng.sample(small, 3):
        run(["count", "--shape", _csv(lam), "--weight", ones(8)],
            pred=lambda d, _, lam=lam: d == {"kostka": str(syt_count(lam))})
    lam, mu = rng.choice([((4, 2, 1), (3, 2, 1, 1)), ((4, 2, 1), (2, 2, 2, 1))])
    j = run(["count", "--shape", _csv(lam), "--weight", _csv(mu)])
    run(["count", "--shape", _csv(lam), "--weight", _csv(mu), "--oracle"],
        pred=lambda d, res, j=j: not failed_result(res[j]) and d == _doc(res[j]))
    for r in (2, 3):
        shapes = tuple(rng.choice(list(partitions_of(k))) for k in (3, 2, 2)[:r])
        n = sum(map(sum, shapes))
        for extra in ([], ["--oracle"]):
            run(["count-multi", "--shape", _json_multi(shapes), "--weight", ones(n), *extra],
                pred=lambda d, _, s=shapes: d == {"kostka": str(multi_standard_count(s))})

    for _ in range(3):
        lam, mu = rng.choice(small), rng.choice(small)
        want = dominates(lam, mu)
        run(["positive", "--shape", _csv(lam), "--weight", _csv(mu), "--exit-code"],
            exit_for(want), lambda d, _, w=want: d == {"positive": w})
    shapes = ((2, 1), (2,), (1, 1))
    mu = rng.choice([(3, 3, 1), (2, 2, 2, 1), (4, 3)])
    want = dominates(rowwise_sum(shapes), mu)
    run(["positive", "--shape", _json_multi(shapes), "--weight", _csv(mu), "--exit-code"],
        exit_for(want), lambda d, _, w=want: d == {"positive": w})

    for lam in rng.sample(mid, 2):
        run(["mult-one", "--shape", _csv(lam), "--weight", _csv(lam), "--exit-code"],
            pred=lambda d, _, lam=lam: _verified(lam, lam, d, False))
    lam, mu = rng.choice(mid), rng.choice(mid)
    run(["mult-one", "--shape", _csv(lam), "--weight", _csv(mu)],
        pred=lambda d, _, lam=lam, mu=mu: not d["multiplicity_one"] or _verified(lam, mu, d, False))
    shapes = tuple(rng.choice(list(partitions_of(k))) for k in (5, 4, 3))
    tilde = rowwise_sum(shapes)
    run(["mult-one-multi", "--shape", _json_multi(shapes), "--weight", _csv(tilde), "--exit-code"],
        pred=lambda d, _, s=shapes, t=tilde: _verified(s, t, d, True))
    for lam in rng.sample(mid, 2):
        want = steps_at_most_one(lam)
        run(["unique", "--shape", _csv(lam), "--exit-code"],
            exit_for(want), lambda d, _, w=want: d == {"unique_weight": w})
    want = drops_shared(shapes)
    run(["unique-multi", "--shape", _json_multi(shapes), "--exit-code"],
        exit_for(want), lambda d, _, w=want: d == {"unique_weight": w})

    # Large outputs: hundreds of tableaux, and full wreath decompositions.
    for lam in (rng.choice([(4, 3, 2, 1), (5, 3, 2), (3, 3, 2, 1, 1)]),
                rng.choice([(4, 2, 2), (3, 3, 1, 1)])):
        n = sum(lam)
        run(["enumerate", "--shape", _csv(lam), "--weight", ones(n)],
            pred=lambda d, _, lam=lam, n=n: _tableaux_ok(d, lam, (1,) * n))
    shapes = (rng.choice([(2, 1), (1, 1, 1), (3,)]), rng.choice([(2, 1), (2,)]))
    run(["enumerate", "--shape", _json_multi(shapes), "--weight", ones(sum(map(sum, shapes))),
         "--count-only"],
        pred=lambda d, _, s=shapes: d == {"count": str(multi_standard_count(s))})
    for _ in range(2):
        mu = random_partition(rng, 40, 12)
        lam = _coarsening(rng, mu)
        run(["greedy", "--shape", _csv(lam), "--weight", _csv(mu)],
            pred=lambda d, _, lam=lam, mu=mu: is_tableau(
                [tuple(r) for r in d["tableau"]["rows"]], lam, mu))
    for r, d_, mu in (rng.choice([(2, 1, (1,) * 6), (2, 1, (2,) + (1,) * 5)]),
                      rng.choice([(3, 1, (1,) * 5), (4, 2, (1,) * 6)])):
        run(["wreath-decompose", "--r", str(r), "--d", str(d_), "--mu", _csv(mu)],
            pred=lambda d, _, r=r, d_=d_, mu=mu: _wreath_ok(d, r, d_, mu))

    w = rng.choice([2, 3])
    shapes = tuple(rng.choice(list(partitions_of(k))) for k in (3, 2, 1))
    entries = tuple((w, s) for s in shapes)
    run(["ggg-count", "--entries", _json_entries(entries), "--mu", _csv((w,) * 6)],
        pred=lambda d, _, s=shapes: d == {"kostka": str(multi_standard_count(s))})
    run(["ggg-mult-one", "--entries", _json_entries(entries),
         "--mu", _csv(tuple(w * x for x in rowwise_sum(shapes))), "--exit-code"],
        pred=lambda d, _: d == {"multiplicity_one": True})
    orbits = [rng.randint(1, 9) for _ in range(12)]
    first = rng.randint((sum(orbits) + 1) // 2, sum(orbits) - 1)
    want = subset_sum(orbits, first)
    run(["ggg-positive", "--entries", _json_entries([(o, (1,)) for o in orbits]),
         "--mu", _csv((first, sum(orbits) - first)), "--exit-code"],
        exit_for(want), lambda d, _, w=want: d == {"positive": w})
    mixed = ((1, (2, 1)), (2, (2,)), (3, (1, 1)))
    mu = rng.choice([(3, 3, 2, 2, 1, 1, 1), (4, 3, 3, 2, 1), (5, 4, 2, 2)])
    j = run(["ggg-count", "--entries", _json_entries(mixed), "--mu", _csv(mu)])
    run(["ggg-positive", "--entries", _json_entries(mixed), "--mu", _csv(mu)],
        pred=lambda d, res, j=j: not failed_result(res[j])
        and d == {"positive": int(_doc(res[j])["kostka"]) > 0})

    # Malformed input: exit 2 with a JSON error, or argparse's usage line.
    for argv in (
        ["count", "--shape", "1,x", "--weight", "2"],
        ["count-multi", "--shape", "[[1],", "--weight", "1"],
        ["count", "--shape", "3,1", "--weight", "2,1"],
        ["count", "--shape", "2,-1", "--weight", "1"],
        ["mult-one", "--shape", "1,2", "--weight", "3"],
        ["wreath-decompose", "--r", "3", "--d", "2", "--mu", "2,1"],
        ["ggg-mult-one", "--entries", _json_entries([(1, (1,)), (2, (1,))]), "--mu", "2,1"],
        ["greedy", "--shape", "2,2", "--weight", "3,1"],
        ["positive", "--shape", "3"],
        ["no-such-command"],
    ):
        run(argv, 2)

    # Malformed input that crashes with a traceback today instead of
    # exiting 2; kept so that the error rate shows when that is fixed.
    deep_n = rng.randint(1200, 2000)
    for argv in (
        ["count-multi", "--shape", '[["a"]]', "--weight", "1"],
        ["unique-multi", "--shape", '[["z"]]'],
        ["count", "--shape", str(deep_n), "--weight", ones(deep_n)],
        ["ggg-count", "--entries", '[{"size":"x","partition":[1]}]', "--mu", "1"],
        ["ggg-count", "--entries", '[{"size":1,"partition":3}]', "--mu", "3"],
        ["ggg-positive", "--entries", '[{"size":1,"partition":[[1]]}]', "--mu", "1"],
    ):
        run(argv, 2)

    def check(res):
        wrong = set()
        for i, code, pred in checks:
            r = res[i]
            if failed_result(r):
                continue
            try:
                ok = r.code == code and (pred is None or pred(_doc(r), res))
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                wrong.add(i)
        return wrong

    return Workload(b.ops, check)


WORKLOADS = {"table": table, "deep": deep, "scan": scan, "cli": cli}
