"""End-to-end acceptance suite.

Each test covers one release criterion in full at its stated scale and
prints a single PASS line (visible with pytest -s or in captured output)
so the whole gate can be audited from one run.
"""

import random
import time
from math import factorial

from kostka.counting import (
    is_multiplicity_one,
    is_multiplicity_one_multi,
    is_positive,
    kostka,
    kostka_multi,
    unique_weight,
    unique_weight_multi,
    verify_certificate,
    verify_certificate_multi,
)
from kostka.ggg import _subset_sum, theta_kostka, zelcor_multiplicity_one
from kostka.partitions import multipartitions_of, partitions_of, tilde
from kostka.tableaux import enumerate_tableaux, greedy_tableau
from kostka.wreath import decompose_permutation_character, irreducible_degree
from oracles import subset_sum_exhaustive, theta_count_by_tableaux


def _report(number, label, start, budget):
    elapsed = time.monotonic() - start
    print(f"criterion {number} PASS ({label}, {elapsed:.1f}s)")
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_oracle_equivalence_partitions():
    start = time.monotonic()
    checked = 0
    for n in range(0, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                count = len(enumerate_tableaux(lam, mu))
                assert kostka(lam, mu) == count
                assert (is_multiplicity_one(lam, mu) is not None) == (count == 1)
                checked += 1
    _report(1, f"{checked} partition pairs", start, 60)


def test_criterion_2_oracle_equivalence_multipartitions(multitableau_grid):
    start = time.monotonic()
    checked = 0
    for shape, mu, found in multitableau_grid:
        count = len(found)
        assert kostka_multi(shape, mu) == count
        assert is_positive(shape, mu) == (count > 0)
        cert = is_multiplicity_one_multi(shape, mu)
        assert (cert is not None) == (count == 1)
        checked += 1
    _report(2, f"{checked} multipartition pairs", start, 120)


def test_criterion_3_worked_examples():
    start = time.monotonic()
    assert tilde(((2, 1, 1), (2, 2), (4,))) == (8, 3, 1)
    assert tilde(((4, 4, 3), (3, 3, 1), (3, 1))) == (10, 8, 4)
    rows = greedy_tableau((12, 4, 2, 2), (5, 5, 5, 5))
    residues = [sum(1 for e in row if e == 4) for row in rows]
    assert residues == [1, 2, 0, 2]
    assert min(i for i, row in enumerate(rows) if 4 in row) + 1 == 1
    assert kostka((6, 3, 3), (5, 4, 3)) == 1
    assert kostka((5, 5, 5, 5), (5, 4, 4, 4, 3)) == 1
    assert kostka_multi(((1,), (1,)), (1, 1)) == 2
    _report(3, "6 worked examples", start, 60)


def test_criterion_4_certificate_reverification():
    start = time.monotonic()
    verified = 0
    for n in range(0, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                cert = is_multiplicity_one(lam, mu)
                if cert is not None:
                    assert verify_certificate(lam, mu, cert)
                    verified += 1
    for n in range(0, 7):
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                for mu in partitions_of(n):
                    cert = is_multiplicity_one_multi(shape, mu)
                    if cert is not None:
                        assert verify_certificate_multi(shape, mu, cert)
                        verified += 1
    _report(4, f"{verified} certificates re-verified", start, 120)


def test_criterion_5_unique_weight_classifications():
    start = time.monotonic()
    for n in range(0, 9):
        mus = list(partitions_of(n))
        for lam in mus:
            hits = [mu for mu in mus if kostka(lam, mu) == 1]
            assert unique_weight(lam) == (len(hits) == 1)
    for n in range(0, 7):
        mus = list(partitions_of(n))
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                hits = [mu for mu in mus if kostka_multi(shape, mu) == 1]
                assert unique_weight_multi(shape) == (hits == [tilde(shape)])
    _report(5, "unique-weight classification, n<=8 and multi n<=6", start, 60)


def test_criterion_6_wreath_degree_identity():
    start = time.monotonic()
    checked = 0
    for r in (1, 2, 3):
        for d in range(1, r + 1):
            if r % d:
                continue
            for n in range(1, 6):
                for mu in partitions_of(n):
                    decomp = decompose_permutation_character(r, d, mu)
                    total = sum(m * irreducible_degree(lb) for lb, m in decomp)
                    expected = (r // d) ** n * factorial(n)
                    for part in mu:
                        expected //= factorial(part)
                    assert total == expected
                    checked += 1
                full = decompose_permutation_character(r, d, (n,))
                assert all(m == 1 for _, m in full)
                assert sum(
                    irreducible_degree(lb) for lb, _ in full
                ) == (r // d) ** n
    _report(6, f"{checked} degree identities", start, 60)


def test_criterion_7_youngs_rule_reduction():
    start = time.monotonic()
    for n in range(1, 7):
        for mu in partitions_of(n):
            decomp = dict(decompose_permutation_character(1, 1, mu))
            for lam in partitions_of(n):
                assert decomp.get((lam,), 0) == kostka(lam, mu)
    _report(7, "trivial-group decomposition equals single Kostka, n<=6", start, 60)


def _theta_instances(max_total, max_orbit):
    """Equal up to entry order; entries are (orbit size, shape) pairs."""
    def rec(total):
        if total == 0:
            yield ()
            return
        for s in range(1, max_orbit + 1):
            for m in range(1, total // s + 1):
                for shape in partitions_of(m):
                    if not shape:
                        continue
                    for rest in rec(total - s * m):
                        yield ((s, shape),) + rest

    seen = set()
    for total in range(1, max_total + 1):
        for entries in rec(total):
            key = tuple(sorted(entries))
            if key not in seen:
                seen.add(key)
                yield entries


def test_criterion_8_ggg_suite():
    start = time.monotonic()
    checked = 0
    for entries in _theta_instances(5, 3):
        total = sum(s * sum(shape) for s, shape in entries)
        for mu in partitions_of(total):
            assert theta_kostka(entries, mu) == theta_count_by_tableaux(entries, mu)
            checked += 1
    rng = random.Random(8)
    for _ in range(200):
        values = [rng.randint(1, 10) for _ in range(rng.randint(1, 12))]
        target = rng.randint(0, sum(values))
        assert _subset_sum(values, target) == subset_sum_exhaustive(values, target)
    zel = 0
    for w in (1, 2, 3):
        for n in range(1, 6):
            for r in (1, 2, 3):
                for shape in multipartitions_of(n, r):
                    if any(c == () for c in shape):
                        continue
                    entries = tuple((w, c) for c in shape)
                    for mu in partitions_of(w * n):
                        assert zelcor_multiplicity_one(entries, mu) == (
                            theta_kostka(entries, mu) == 1
                        )
                        zel += 1
                    canonical = tuple(w * p for p in tilde(shape))
                    assert theta_kostka(entries, canonical) == 1
                    assert zelcor_multiplicity_one(entries, canonical)
    _report(8, f"{checked} theta counts, 200 subset sums, {zel} reductions", start, 120)


def test_criterion_9_scaling_smoke():
    start = time.monotonic()
    rng = random.Random(9)
    n, parts = 10_000, 1_000
    worst = 0.0
    for _ in range(20):
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        mu = tuple(
            sorted(
                (b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True
            )
        )
        if rng.random() < 0.5:
            lam = mu
        else:
            lam = tuple(
                sorted((x + (1 if i % 2 else 0) for i, x in enumerate(mu)),
                       reverse=True)
            )
            lam = lam[:-1] + (lam[-1] - (sum(lam) - n),)
            if lam[-1] <= 0 or any(
                lam[i] < lam[i + 1] for i in range(len(lam) - 1)
            ):
                lam = mu
        t0 = time.monotonic()
        is_multiplicity_one(lam, mu)
        worst = max(worst, time.monotonic() - t0)
        assert worst <= 1.0
    _report(9, f"20 calls at n={n}, l(mu)={parts}, worst {worst*1000:.1f}ms", start, 60)
