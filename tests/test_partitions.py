from enum import IntEnum
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kostka.errors import (
    NegativeEntryError,
    NonIntegerEntryError,
    NonMonotoneError,
    SizeMismatchError,
)
from kostka.partitions import (
    _dominates,
    composition,
    conjugate,
    dominates,
    integers,
    is_horizontal_strip,
    normalize,
    partitions_of,
    sort_to_partition,
    sorted_weight,
    tilde,
)
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
