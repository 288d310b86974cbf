import random
from enum import IntEnum
from itertools import product
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kostka import partitions
from kostka.errors import (
    NegativeEntryError,
    NonIntegerEntryError,
    NonMonotoneError,
    SizeMismatchError,
)
from kostka.partitions import (
    _dominates,
    bounded_compositions,
    composition,
    conjugate,
    dominates,
    integers,
    is_horizontal_strip,
    multipartitions_of,
    normalize,
    partitions_of,
    sort_to_partition,
    sorted_weight,
    tilde,
)
from oracles import bounded_compositions as oracle_compositions
from oracles import column_count_strip_check


def test_normalize_basic_example():
    p = normalize([4, 3, 2, 2, 1])
    assert p == (4, 3, 2, 2, 1)
    assert sum(p) == 12
    assert len(p) == 5


def test_normalize_strips_zeros():
    assert normalize([3, 0, 0]) == (3,)
    assert normalize([]) == ()


def test_normalize_rejects_increase():
    with pytest.raises(NonMonotoneError):
        normalize([2, 3])


def test_normalize_rejects_negative():
    with pytest.raises(NegativeEntryError):
        normalize([3, -1])


def test_composition_checks_every_entry():
    assert composition([3, 0, 1]) == (3, 0, 1)
    assert composition(()) == ()
    with pytest.raises(NegativeEntryError):
        composition((1, -1))
    for bad in ((2.5,), (1.0,), ("3",), ([1],), 3, (True,), (2, False)):
        with pytest.raises(NonIntegerEntryError):
            composition(bad)
    with pytest.raises(NonIntegerEntryError):
        normalize([2, 1.5])
    with pytest.raises(NonIntegerEntryError):
        sort_to_partition(["1"])


def test_dominates_examples():
    assert dominates((3, 2, 1), (3, 1, 1, 1))
    assert not dominates((3, 1, 1, 1), (2, 2, 2))
    assert not dominates((2, 2, 2), (3, 1, 1, 1))


def test_dominates_reflexive():
    for n in range(0, 7):
        for lam in partitions_of(n):
            assert dominates(lam, lam)


def test_dominates_size_mismatch():
    with pytest.raises(SizeMismatchError):
        dominates((2,), (1,))


def test_dominance_is_partial_order():
    # reflexive, antisymmetric, transitive on every P_n, n <= 8
    for n in range(0, 9):
        ps = list(partitions_of(n))
        rel = {(a, b) for a in ps for b in ps if dominates(a, b)}
        for a in ps:
            assert (a, a) in rel
        for a, b in rel:
            if a != b:
                assert (b, a) not in rel
        for a, b in rel:
            for c in ps:
                if (b, c) in rel:
                    assert (a, c) in rel


def test_horizontal_strip_examples():
    assert is_horizontal_strip((5, 4, 1), (4, 2)) == (True, 4)
    assert is_horizontal_strip((3, 2), (3, 2)) == (True, 0)
    ok, _ = is_horizontal_strip((2, 2), (1,))
    assert not ok  # column 2 of the skew has two boxes


def test_horizontal_strip_matches_column_count_check():
    for n in range(0, 9):
        for outer in partitions_of(n):
            for m in range(0, n + 1):
                for inner in partitions_of(m):
                    if any(
                        (inner[i] if i < len(inner) else 0) > row
                        for i, row in enumerate(outer)
                    ):
                        continue
                    if len(inner) > len(outer):
                        continue
                    ok, size = is_horizontal_strip(outer, inner)
                    assert ok == column_count_strip_check(outer, inner)
                    if ok:
                        assert size == n - m


def test_tilde_examples():
    assert tilde(((2, 1, 1), (2, 2), (4,))) == (8, 3, 1)
    assert tilde(((4, 4, 3), (3, 3, 1), (3, 1))) == (10, 8, 4)
    assert tilde(((), ())) == ()


def test_tilde_size_and_length():
    from kostka.partitions import multipartitions_of

    for n in range(0, 9):
        for r in (1, 2, 3):
            for m in multipartitions_of(n, r):
                t = tilde(m)
                assert sum(t) == n
                assert len(t) == max((len(c) for c in m), default=0)


def test_sort_to_partition_examples():
    p, perm = sort_to_partition((1, 3, 0, 2))
    assert p == (3, 2, 1)
    assert perm == (1, 3, 0, 2)
    p, perm = sort_to_partition((5, 5, 5, 5))
    assert p == (5, 5, 5, 5)
    assert perm == (0, 1, 2, 3)
    p, _ = sort_to_partition((0, 0))
    assert p == ()


def test_sort_to_partition_checks_its_input_once(monkeypatch):
    calls = []

    def counted(raw):
        calls.append(raw)
        return integers(raw)

    monkeypatch.setattr(partitions, "integers", counted)
    assert sort_to_partition([1, 3, 0, 2]) == ((3, 2, 1), (1, 3, 0, 2))
    assert len(calls) == 1


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_sort_to_partition_permutation_realizes_result(w):
    p, perm = sort_to_partition(w)
    assert sorted(perm) == list(range(len(w)))
    rearranged = [w[i] for i in perm]
    assert tuple(x for x in rearranged if x > 0) == p
    assert all(rearranged[i] >= rearranged[i + 1] for i in range(len(w) - 1))


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for n in range(0, 8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_unchecked_dominance_matches_dominates():
    # pairs of one size include every pair of unequal lengths
    for n in range(13):
        lams = list(partitions_of(n))
        for a, b in product(lams, repeat=2):
            assert _dominates(a, b) == dominates(a, b), (a, b)


def test_sorted_weight_matches_sort_to_partition():
    for w in product(range(9), repeat=4):
        if sum(w) <= 8:
            assert sorted_weight(w) == sort_to_partition(w)[0]


def test_integers_converts_int_subclasses():
    Two = IntEnum("Two", {"TWO": 2}).TWO
    assert integers([2, Two]) == (2, 2)
    assert all(type(x) is int for x in integers((Two,)))


def test_bounded_compositions_match_the_oracle():
    # every total from -1 past the caps' sum, every caps tuple of length 0
    # to 4 with caps 0 to 3, in the oracle's lexicographic order
    for length in range(5):
        for caps in product(range(4), repeat=length):
            for total in range(-1, sum(caps) + 2):
                assert list(bounded_compositions(total, caps)) == list(
                    oracle_compositions(total, caps)
                ), (total, caps)
    # weighted: every weight vector in {1, 2, 3}^k with every caps tuple
    # for k <= 3, and seeded weight vectors for each caps tuple at k = 4
    # and 5, every total from 0 to the weighted sum plus 1, against a
    # filter over every vector below the caps, in the same order
    rng = random.Random(0)
    cases = [
        (caps, weights)
        for length in range(4)
        for caps in product(range(4), repeat=length)
        for weights in product((1, 2, 3), repeat=length)
    ]
    cases += [
        (caps, tuple(rng.choices((1, 2, 3), k=length)))
        for length in (4, 4, 5)
        for caps in product(range(4), repeat=length)
    ]
    for caps, weights in cases:
        by_total = {}
        for v in product(*(range(c + 1) for c in caps)):
            by_total.setdefault(sum(map(mul, v, weights)), []).append(v)
        for total in range(sum(map(mul, caps, weights)) + 2):
            got = list(bounded_compositions(total, caps, weights))
            assert got == by_total.get(total, []), (total, caps, weights)
    # dead ends: only even totals are reachable with weights 2, and a
    # weight-3 position cannot take a remainder of 1 or 2
    for total in (1, 3, 5, 7):
        assert list(bounded_compositions(total, (3, 3), (2, 2))) == []
    assert list(bounded_compositions(4, (3, 3), (2, 2))) == [(0, 2), (1, 1), (2, 0)]
    assert list(bounded_compositions(5, (1, 2), (1, 3))) == []
    assert list(bounded_compositions(7, (1, 2, 1), (3, 2, 1))) == [(1, 2, 0)]


def test_bounded_compositions_are_lazy_and_unbounded_in_length():
    # 5 000 caps, past the recursion limit; the first of C(5000, 2) tuples
    # comes without the rest being built
    first = next(bounded_compositions(2, (1,) * 5000))
    assert first == (0,) * 4998 + (1, 1)


def test_multipartitions_of_match_a_product_filter():
    # n <= 6, r <= 4: no label twice, the labels of a filter over products
    # of brute-force partitions (weakly decreasing positive tuples), and as
    # many as the coefficient of q^n in prod_k (1 - q^k)^(-r); then r far
    # past the recursion limit
    parts = {}
    for length in range(7):
        for p in product(range(6, 0, -1), repeat=length):
            if sum(p) <= 6 and list(p) == sorted(p, reverse=True):
                parts.setdefault(sum(p), []).append(p)
    for r in range(5):
        series = [1] + [0] * 6
        for _ in range(r):
            for k in range(1, 7):
                for i in range(k, 7):
                    series[i] += series[i - k]
        for n in range(7):
            got = list(multipartitions_of(n, r))
            assert len(got) == len(set(got)) == series[n], (n, r)
            sizes = [s for s in product(range(n + 1), repeat=r) if sum(s) == n]
            want = {label for s in sizes for label in product(*(parts[k] for k in s))}
            assert set(got) == want, (n, r)
    # one box over 1 200 components, past the recursion limit
    labels = list(multipartitions_of(1, 1200))
    assert len(labels) == len(set(labels)) == 1200
    assert all(sum(map(sum, label)) == 1 and len(label) == 1200 for label in labels)
