import time

import pytest

from kostka.errors import NotDominatedError, ShapeMismatchError, SizeMismatchError
from kostka.partitions import dominates, multipartitions_of, partitions_of, tilde
from kostka.tableaux import (
    enumerate_multitableaux,
    enumerate_tableaux,
    greedy_tableau,
    is_semistandard,
    multi_weight,
    redistribute_columns,
    shape_of,
    weight,
)
from oracles import bounded_compositions, naive_multitableaux, naive_tableaux

SAMPLE_TABLEAU = ((1, 1, 1, 2), (2, 2), (3, 3), (4,))


def test_validate_sample_tableau():
    assert is_semistandard(SAMPLE_TABLEAU, shape=(4, 2, 2, 1))


def test_validate_rejects_row_decrease():
    assert not is_semistandard(((2, 1),), shape=(2,))


def test_validate_rejects_weak_column():
    assert not is_semistandard(((1,), (1,)), shape=(1, 1))


def test_validate_rejects_longer_lower_row():
    # rows that are not a partition's are refused before any column is read
    assert not is_semistandard(((1,), (2, 3)))


def test_validate_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        is_semistandard(((1, 1),), shape=(3,))


def test_weight():
    assert weight(SAMPLE_TABLEAU) == (3, 3, 2, 1)
    assert weight(((3,),)) == (0, 0, 1)
    assert weight(((1,) * 5,)) == (5,)


def test_weight_of_a_long_row_in_time():
    # one pass over the boxes, not one per letter, which takes seconds here
    start = time.monotonic()
    assert weight((tuple(range(1, 20_001)),)) == (1,) * 20_000
    assert time.monotonic() - start < 1


def test_greedy_residue_pattern():
    rows = greedy_tableau((12, 4, 2, 2), (5, 5, 5, 5))
    residues = [sum(1 for e in row if e == 4) for row in rows]
    assert residues == [1, 2, 0, 2]
    top_row_with_4 = min(i for i, row in enumerate(rows) if 4 in row) + 1
    assert top_row_with_4 == 1


def test_greedy_forced_filling():
    for lam in [(3, 2), (4, 4, 1), (2, 1, 1)]:
        rows = greedy_tableau(lam, lam)
        assert rows == tuple(tuple([i + 1] * w) for i, w in enumerate(lam))


def test_greedy_unique_tableau_case():
    assert greedy_tableau((6, 3, 3), (5, 4, 3)) == (
        (1, 1, 1, 1, 1, 2),
        (2, 2, 2),
        (3, 3, 3),
    )


def test_greedy_requires_dominance():
    with pytest.raises(NotDominatedError):
        greedy_tableau((2, 2), (3, 1))
    with pytest.raises(SizeMismatchError):
        greedy_tableau((2, 2), (3,))


def test_greedy_always_valid():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not dominates(lam, mu):
                    continue
                rows = greedy_tableau(lam, mu)
                assert is_semistandard(rows, shape=lam)
                assert weight(rows) == mu
                assert rows in enumerate_tableaux(lam, mu)


def test_redistribute_worked_example():
    t = ((1, 1, 1, 1, 1, 1, 1, 2, 2, 2), (2, 2, 2, 3, 3, 3, 3, 4), (4, 4, 5, 6))
    target = ((4, 4, 3), (3, 3, 1), (3, 1))
    mt = redistribute_columns(t, target)
    for comp, shape in zip(mt, target):
        assert is_semistandard(comp, shape=shape)
    assert multi_weight(mt) == weight(t)


def test_redistribute_identity_for_one_component():
    t = greedy_tableau((3, 2), (3, 2))
    assert redistribute_columns(t, ((3, 2),)) == (t,)


def test_redistribute_equal_columns():
    # all columns of t identical: every component column must equal them
    t = ((1, 1, 1, 1), (2, 2, 2, 2))
    mt = redistribute_columns(t, ((2, 2), (2, 2)))
    assert mt == (((1, 1), (2, 2)), ((1, 1), (2, 2)))


def test_redistribute_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        redistribute_columns(((1, 1),), ((1,), (1, 1)))


def test_redistribute_preserves_column_multiset():
    def columns(rows):
        shape = shape_of(rows)
        width = shape[0] if shape else 0
        return sorted(
            tuple(rows[i][c] for i in range(len(shape)) if shape[i] > c)
            for c in range(width)
        )

    for n in range(1, 7):
        for r in (2, 3):
            for target in multipartitions_of(n, r):
                shape = tilde(target)
                for mu in partitions_of(n):
                    if not dominates(shape, mu):
                        continue
                    t = greedy_tableau(shape, mu)
                    mt = redistribute_columns(t, target)
                    got = sorted(
                        col for comp in mt for col in columns(comp)
                    )
                    assert got == columns(t)
                    for comp, comp_shape in zip(mt, target):
                        assert is_semistandard(comp, shape=comp_shape)


def test_enumerate_examples():
    assert len(enumerate_tableaux((2, 1), (1, 1, 1))) == 2
    only = enumerate_tableaux((6, 3, 3), (5, 4, 3))
    assert only == [greedy_tableau((6, 3, 3), (5, 4, 3))]
    assert enumerate_tableaux((1, 1), (2,)) == []
    # a loop over the letters, not one Python frame per letter
    assert enumerate_tableaux((1200,), (1,) * 1200) == [(tuple(range(1, 1201)),)]


def test_enumerate_a_long_column():
    # the strips of a shape are built in a loop over its rows, not one
    # Python frame per row
    column = (1,) * 1000
    assert enumerate_tableaux(column, column) == [tuple((i,) for i in range(1, 1001))]


def test_enumerate_matches_naive_filling():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                fast = enumerate_tableaux(lam, mu)
                naive = sorted(
                    naive_tableaux(lam, mu),
                    key=lambda rows: tuple(e for r in rows for e in r),
                )
                assert fast == naive


def test_enumerate_sorted_valid_distinct():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                found = enumerate_tableaux(lam, mu)
                keys = [tuple(e for r in rows for e in r) for rows in found]
                assert keys == sorted(set(keys))
                for rows in found:
                    assert is_semistandard(rows, shape=lam)
                    assert weight(rows) == mu


def test_enumerate_nonempty_iff_dominated():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert bool(enumerate_tableaux(lam, mu)) == dominates(lam, mu)


def test_enumerate_multi_examples():
    assert len(enumerate_multitableaux(((1,), (1,)), (1, 1))) == 2
    assert len(enumerate_multitableaux(((2, 1, 1), (2, 2), (4,)), (8, 3, 1))) == 1


def test_enumerate_multi_single_component_reduction():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert [
                    mt[0] for mt in enumerate_multitableaux((lam,), mu)
                ] == enumerate_tableaux(lam, mu)


def test_enumerate_multi_matches_naive_filling():
    # the box-filling oracle splits the weight among the components first,
    # so a split that leaves a component without boxes is covered as well;
    # composition weights, unsorted and with zeros anywhere, must not be
    # sorted: the tableaux of (1, 2) differ from those of (2, 1)
    for n in range(0, 6):
        weights = list(partitions_of(n))
        if n <= 4:
            weights += bounded_compositions(n, (n,) * 4)
        for r in (1, 2, 3):
            for shapes in multipartitions_of(n, r):
                for mu in weights:
                    found = enumerate_multitableaux(shapes, mu)
                    assert found == naive_multitableaux(shapes, mu), (shapes, mu)


def test_enumerate_multi_nonempty_iff_tilde_dominates(multitableau_grid):
    for shape, mu, found in multitableau_grid:
        assert bool(found) == dominates(tilde(shape), mu)
        for mt in found:
            assert multi_weight(mt) == mu
            for comp, comp_shape in zip(mt, shape):
                assert is_semistandard(comp, shape=comp_shape)


def test_enumerate_size_mismatch():
    with pytest.raises(SizeMismatchError):
        enumerate_tableaux((2, 1), (1, 1))
    with pytest.raises(SizeMismatchError):
        enumerate_multitableaux(((1,), (1,)), (1,))
