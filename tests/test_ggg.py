import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import factorial, prod
from pathlib import Path

import pytest

from kostka.counting import is_multiplicity_one_multi, kostka_multi
from kostka.errors import (
    EmptyShapeError,
    SizeMismatchError,
    UnequalOrbitSizesError,
)
from kostka.ggg import (
    _subset_sum,
    normalize_entries,
    theta_kostka,
    theta_positive,
    zelcor_multiplicity_one,
)
from kostka.partitions import multipartitions_of, partitions_of
from oracles import (
    multi_standard_count,
    schur_at_ones,
    subset_sum_exhaustive,
    theta_count_by_tableaux,
)


def test_normalize_entries():
    assert normalize_entries([(2, [1]), (3, (2, 1))]) == ((2, (1,)), (3, (2, 1)))
    with pytest.raises(EmptyShapeError):
        normalize_entries([(2, ())])
    with pytest.raises(EmptyShapeError):
        normalize_entries([(0, (1,))])


def test_theta_kostka_examples():
    assert theta_kostka(((2, (1,)), (3, (1,))), (3, 2)) == 1
    assert theta_kostka(((2, (1,)), (3, (1,)), (5, (1,))), (5, 5)) == 2
    assert theta_kostka(((2, (1,)), (2, (1,))), (3, 1)) == 0
    assert theta_kostka(((1, (2, 1)),), (1, 1, 1)) == 2


def test_theta_kostka_size_mismatch():
    with pytest.raises(SizeMismatchError):
        theta_kostka(((2, (1,)),), (3,))


def test_orbit_size_one_reduces_to_multipartition_count():
    for n in range(0, 6):
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                if any(c == () for c in shape):
                    continue
                entries = tuple((1, c) for c in shape)
                for mu in partitions_of(n):
                    assert theta_kostka(entries, mu) == kostka_multi(shape, mu)


def _entry_sets(total, max_size):
    """All entry tuples with weighted total `total`, sizes up to max_size."""
    if total == 0:
        yield ()
        return
    for s in range(1, max_size + 1):
        for m in range(1, total // s + 1):
            for shape in partitions_of(m):
                if not shape:
                    continue
                for rest in _entry_sets(total - s * m, max_size):
                    yield ((s, shape),) + rest


def test_theta_kostka_matches_enumeration_oracle():
    seen = set()
    for total in range(1, 6):
        for entries in _entry_sets(total, 3):
            key = tuple(sorted(entries))
            if key in seen:
                continue
            seen.add(key)
            for mu in partitions_of(total):
                assert theta_kostka(entries, mu) == theta_count_by_tableaux(
                    entries, mu
                )


def test_theta_positive_examples():
    assert not theta_positive(((2, (1,)), (2, (1,))), (3, 1))
    assert theta_positive(((2, (2,)),), (4,))
    assert theta_positive(((2, (1,)), (3, (1,))), (3, 2))
    assert not theta_positive(((2, (1, 1)),), (4,))


def test_theta_positive_iff_count_positive():
    seen = set()
    for total in range(1, 6):
        for entries in _entry_sets(total, 3):
            key = tuple(sorted(entries))
            if key in seen:
                continue
            seen.add(key)
            for mu in partitions_of(total):
                assert theta_positive(entries, mu) == (
                    theta_kostka(entries, mu) > 0
                )
    # mixed shapes and orbit sizes past n = 5, where the search is memoized
    entries = ((2, (2, 1)), (3, (1, 1)), (5, (1,)))
    for mu in partitions_of(sum(s * sum(shape) for s, shape in entries)):
        assert theta_positive(entries, mu) == (theta_kostka(entries, mu) > 0), mu


def _timed(call, *args):
    start = time.monotonic()
    return call(*args), time.monotonic() - start


def test_theta_positive_infeasible_single_boxes_in_time():
    # even orbit sizes cannot fill odd parts; a search that revisits every
    # order of the same remainder takes seconds here
    entries = [(2 * (i % 7 + 1), (1,)) for i in range(14)]
    found, elapsed = _timed(theta_positive, entries, (39, 37, 36))
    assert found is False
    assert elapsed < 2


def test_theta_positive_stops_at_one_witness():
    # counting every filling of these eighteen boxes takes far longer than
    # finding one, so positivity must not be decided by a count
    entries = [(s, (1,)) for s in range(1, 19)]
    found, elapsed = _timed(theta_positive, entries, (58, 57, 56))
    assert found is True
    assert elapsed < 2


@pytest.mark.parametrize("mu", [(400, 400, 400), (1200,)])
def test_theta_positive_many_entries(mu):
    # an explicit stack, not one Python frame per entry
    found, elapsed = _timed(theta_positive, ((1, (1,)),) * 1200, mu)
    assert found is True
    assert elapsed < 2


@pytest.mark.parametrize(
    "entries", [((1, (1,)),) * 1200, ((1, (1200,)),)], ids=["1200 boxes", "one row of 1200"]
)
def test_theta_positive_long_weights(entries):
    # the weight splits are made by a loop, not one Python frame per part
    # of the remaining weight
    assert theta_positive(entries, (1,) * 1200) is True


def test_theta_positive_long_weight_mixed_orbit_sizes():
    # a letter of multiplicity 1 fits in no box of orbit size 2, so the 400
    # boxes of size 1 cannot take all 1200 letters; the search must not list
    # which 400 of the 1200 letters they take
    entries = [(1, (1,)), (2, (1,))] * 400
    found, elapsed = _timed(theta_positive, entries, (1,) * 1200)
    assert found is False
    assert elapsed < 2


def test_theta_kostka_many_entries():
    # one strip step over the rows of every entry, not one Python frame
    # per entry
    assert theta_kostka(((1, (1,)),) * 1200, (1200,)) == 1
    assert kostka_multi(((1,),) * 1200, (1200,)) == 1


def test_theta_single_boxes_count_words():
    # N single boxes of orbit size s on weight s * mu: each letter i goes to
    # mu_i of the N boxes, N! / prod mu_i! ways.  Every mu to N = 9, the
    # weights of at most two parts to N = 14
    for n in range(0, 15):
        for mu in partitions_of(n):
            if n > 9 and len(mu) > 2:
                continue
            words = factorial(n) // prod(map(factorial, mu))
            for s in (1, 2):
                assert theta_kostka(((s, (1,)),) * n, tuple(s * p for p in mu)) == words


def test_subset_sum_fast_path_vs_exhaustive():
    rng = random.Random(20260823)
    for _ in range(200):
        values = [rng.randint(1, 12) for _ in range(rng.randint(1, 10))]
        total = sum(values)
        target = rng.randint(0, total)
        expected = subset_sum_exhaustive(values, target)
        assert _subset_sum(values, target) == expected
        entries = tuple((v, (1,)) for v in values)
        if 0 < target < total:
            mu = tuple(sorted((target, total - target), reverse=True))
            assert theta_positive(entries, mu) == expected


# A child process under a 2 GiB address-space limit: the subset-sum bitset
# of the first case would have 2^41 + 1 bits (256 GiB), that of the last,
# 45 entries of 2^38, about 2^43.5 bits, and each would raise MemoryError.
LARGE_ORBITS = """
import random, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from kostka.ggg import theta_positive
big = 2**64
v = [random.Random(40).randint(2**39, 2**40) for _ in range(16)]
print(
    theta_positive([(2**40, (1,))] * 2, (2**40, 2**40)),
    theta_positive([(big - 1, (1,)), (big - 3, (1,)), (2, (1,))], (big - 1, big - 1)),
    theta_positive([(big, (1,)), (big, (1,)), (3, (1,))], (big + 3, big)),
    theta_positive([(big, (1,)), (big, (1,)), (3, (1,))], (big + 2, big + 1)),
    theta_positive([(x, (1,)) for x in v], (sum(v[:8]), sum(v[8:]))),
    theta_positive([(2**38, (1,))] * 45, (23 * 2**38, 22 * 2**38)),
)
"""


def test_theta_positive_large_orbit_sizes_stay_small():
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", LARGE_ORBITS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["True", "True", "True", "False", "True", "True"]


def test_zelcor_examples():
    assert zelcor_multiplicity_one(((2, (1,)), (2, (1,))), (4,))
    assert not zelcor_multiplicity_one(((2, (1,)), (2, (1,))), (2, 2))
    assert not zelcor_multiplicity_one(((2, (2,)),), (3, 1))  # 2 divides no part
    assert zelcor_multiplicity_one(((3, (2, 1)),), (6, 3))
    assert zelcor_multiplicity_one((), ())  # no orbit sizes to differ; theta is 1


def test_zelcor_requires_equal_orbit_sizes():
    with pytest.raises(UnequalOrbitSizesError):
        zelcor_multiplicity_one(((2, (1,)), (3, (1,))), (3, 2))


def test_zelcor_matches_theta_count():
    for w in (1, 2, 3):
        for n in range(1, 6):
            for r in (1, 2, 3):
                for shape in multipartitions_of(n, r):
                    if any(c == () for c in shape):
                        continue
                    entries = tuple((w, c) for c in shape)
                    for mu in partitions_of(w * n):
                        got = zelcor_multiplicity_one(entries, mu)
                        assert got == (theta_kostka(entries, mu) == 1)


def test_zelcor_agrees_with_reduced_multipartition_test():
    entries = ((2, (2, 1)), (2, (1, 1)))
    for mu in partitions_of(10):
        expected = False
        if all(p % 2 == 0 for p in mu):
            reduced = tuple(p // 2 for p in mu)
            expected = (
                is_multiplicity_one_multi(((2, 1), (1, 1)), reduced) is not None
            )
        assert zelcor_multiplicity_one(entries, mu) == expected


def test_theta_equal_orbit_sizes_standard_weight_closed_form():
    # orbit size w and weight w^n: every letter is one box of one entry, so
    # the count is that of standard multitableaux
    for w, shapes in (
        (2, ((3, 2), (2, 1), (2,))),
        (3, ((2, 1), (2, 1), (1, 1))),
        (2, ((2, 2), (2, 1), (1, 1), (1,))),
        (3, ((4, 3, 2), (3, 1))),
    ):
        n = sum(map(sum, shapes))
        entries = tuple((w, shape) for shape in shapes)
        assert theta_kostka(entries, (w,) * n) == multi_standard_count(shapes)


def _rearrangements(mu, slots):
    """Compositions with `slots` parts that sort to mu."""
    padded = mu + (0,) * (slots - len(mu))
    return factorial(slots) // prod(map(factorial, Counter(padded).values()))


def test_theta_sums_to_schur_product():
    # Summed over every weight with at most L letters, the counts take each
    # tuple of tableaux with entries at most L once: the product of
    # s_shape(1^L), from the hook-content formula.
    for entries, letters in (
        (((1, (3, 2)), (2, (2, 1)), (2, (2,)), (3, (1, 1))), 5),
        (((1, (3, 1)), (2, (2, 1)), (3, (2,))), 5),
        (((1, (2, 2)), (1, (2, 1)), (2, (2, 1)), (3, (1,))), 4),
    ):
        total = sum(s * sum(shape) for s, shape in entries)
        got = sum(
            theta_kostka(entries, mu) * _rearrangements(mu, letters)
            for mu in partitions_of(total)
            if len(mu) <= letters
        )
        assert got == prod(schur_at_ones(shape, letters) for _, shape in entries)
