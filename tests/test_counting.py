import random
import tracemalloc
from collections import Counter
from itertools import product
from math import comb, factorial, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kostka.counting import (
    _inner_multi,
    _removals,
    _strip_count,
    _strips,
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
from kostka.errors import NegativeEntryError, NonIntegerEntryError, SizeMismatchError
from kostka.ggg import theta_kostka, theta_positive
from kostka.partitions import (
    dominates,
    multipartitions_of,
    partitions_of,
    sort_to_partition,
    tilde,
)
from kostka.tableaux import _strips_between, enumerate_tableaux
from oracles import kostka_by_alternant, matrix_count, multi_standard_count, standard_count


def test_kostka_known_values():
    assert kostka((6, 3, 3), (5, 4, 3)) == 1
    assert kostka((5, 5, 5, 5), (5, 4, 4, 4, 3)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2


def test_kostka_multi_examples():
    assert kostka_multi(((1,), (1,)), (1, 1)) == 2
    assert kostka_multi(((2, 1, 1), (2, 2), (4,)), (8, 3, 1)) == 1
    assert kostka_multi(((2, 1),), (1, 1, 1)) == 2


def test_kostka_size_mismatch():
    with pytest.raises(SizeMismatchError):
        kostka((2, 1), (1, 1))
    with pytest.raises(SizeMismatchError):
        kostka_multi(((1,), (1,)), (1,))
    with pytest.raises(SizeMismatchError):
        is_positive(((1,),), (2,))
    with pytest.raises(SizeMismatchError):
        is_multiplicity_one((2,), (1,))


def test_counts_reject_bad_entries():
    with pytest.raises(NonIntegerEntryError):
        kostka((2.5,), (2.5,))
    with pytest.raises(NonIntegerEntryError):
        kostka_multi(((1,),), (1.0,))
    with pytest.raises(NegativeEntryError):
        kostka((1,), (2, -1))
    with pytest.raises(NegativeEntryError):
        kostka_multi(((1,),), (2, -1))


def test_kostka_multi_standard_weight_closed_form():
    # n = 10 to 13, past the enumeration oracles: weight 1^n counts the
    # standard multitableaux, whatever the order of the components
    for shapes in (
        ((3, 2), (2, 1), (2, 1)),
        ((4, 3, 2), (3, 1)),
        ((4, 2), (3, 2, 1)),
        ((3, 2), (2, 1), (2,)),
        ((5, 3), (3, 2)),
        ((2, 2), (2, 1), (1, 1), (1,)),
    ):
        n = sum(map(sum, shapes))
        want = multi_standard_count(shapes)
        assert kostka_multi(shapes, (1,) * n) == want
        assert kostka_multi(((),) + shapes[::-1], (1,) * n) == want


def test_two_row_chains_from_a_cleared_cache():
    # K((n - k, k), 1^n) = C(n, k) - C(n, k - 1), the ballot numbers.  From a
    # cleared cache the first call recurses once per letter, so n = 450
    # also guards the depth reached at the default recursion limit
    for n in (300, 450):
        for k in (1, 2, 3):
            _strip_count.cache_clear()
            assert kostka((n - k, k), (1,) * n) == comb(n, k) - comb(n, k - 1)


def test_column_sums_on_shuffled_compositions():
    # sum over lambda of K(lambda, mu) f^lambda counts the words of content
    # mu (RSK), whatever the order of mu and wherever its zeros stand
    rng = random.Random(5)
    for n in range(0, 11):
        lams = list(partitions_of(n))
        for mu in lams:
            w = list(mu) + [0] * rng.randrange(3)
            rng.shuffle(w)
            words = factorial(n) // prod(map(factorial, w))
            assert sum(kostka(lam, w) * standard_count(lam) for lam in lams) == words


def test_kostka_products_count_matrices():
    # sum over lambda of K(lambda, mu) K(lambda, nu) counts the matrices
    # over the non-negative integers with row sums mu and column sums nu
    # (RSK), which a transport DP counts without the strip recursion
    for n in range(0, 10):
        lams = list(partitions_of(n))
        table = {(lam, mu): kostka(lam, mu) for lam in lams for mu in lams}
        for mu in lams:
            for nu in lams:
                got = sum(table[lam, mu] * table[lam, nu] for lam in lams)
                assert got == matrix_count(mu, nu), (mu, nu)


def test_chain_memo_stays_small():
    # a weight is keyed by its runs, so a chain of n letters keeps O(n)
    # entries of constant size; keys that held the whole weight prefix
    # would keep O(n^2) memory, about 2 MiB for this call.  Every memo starts
    # cold, so every memo counts toward the limit
    _strip_count.cache_clear()
    _strips.cache_clear()
    _removals.cache_clear()
    tracemalloc.start()
    try:
        kostka((398, 2), (1,) * 400)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_inner_shapes_match_the_oracle_strips():
    # every state of the entries (orbit size, *nu^j), lambda^j/nu^j a
    # horizontal k_j-strip and sum s_j * k_j = m, once per assignment,
    # against the enumeration oracle's own strip generator (which adds
    # strips), one entry at a time: r = 1 to n = 10 and r = 2, 3 to n = 7,
    # with orbit sizes 1, 2, 3 (in every order), empty components included,
    # for every letter size m >= 1.  Two assignments can give the same
    # sorted state, so the states are compared as multisets
    oracle = {}

    def strips(lam, k):
        if (lam, k) not in oracle:
            oracle[lam, k] = [
                nu for nu in partitions_of(sum(lam) - k) if lam in _strips_between(nu, lam, k)
            ]
        return oracle[lam, k]

    def state(sizes, shapes):
        return tuple(sorted([(s, *lam) for s, lam in zip(sizes, shapes) if lam]))

    cases = [((s,), (lam,)) for s in (1, 2, 3) for n in range(0, 11) for lam in partitions_of(n)]
    cases += [
        (sizes, shapes)
        for r in (2, 3)
        for n in range(0, 8)
        for shapes in multipartitions_of(n, r)
        for sizes in product((1, 2, 3), repeat=r)
    ]
    seen = set()
    for sizes, shapes in cases:
        entries = state(sizes, shapes)
        if entries in seen:
            continue
        seen.add(entries)
        firsts = [lam[0] if lam else 0 for lam in shapes]
        wants = {}
        for ks in product(*(range(f + 1) for f in firsts)):
            m = sum(map(mul, sizes, ks))
            nus = product(*map(strips, shapes, ks))
            wants.setdefault(m, Counter()).update(state(sizes, nu) for nu in nus)
        for m in range(1, sum(map(mul, sizes, firsts)) + 2):
            got = Counter(_inner_multi(entries, m))
            assert got == wants.get(m, Counter()), (entries, m)


def test_long_weights_match_the_alternant():
    # few rows and many letters, the class of the large single counts, from
    # cleared memos against the alternant oracle, which shares no code with
    # the engine: l = 2, 3 with n = 30-45 and 15-30 letters, l = 4 with
    # n = 18-24 and 10-16 letters; the weights are compositions
    rng = random.Random(21)

    def composition(n, parts):
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))

    cases = [(rng.randint(2, 3), rng.randint(30, 45), rng.randint(15, 30)) for _ in range(12)]
    cases += [(4, rng.randint(18, 24), rng.randint(10, 16)) for _ in range(4)]
    for rows, n, letters in cases:
        lam = tuple(sorted(composition(n, rows), reverse=True))
        w = composition(n, letters)
        _strip_count.cache_clear()
        _strips.cache_clear()
        _removals.cache_clear()
        assert kostka(lam, w) == kostka_by_alternant(lam, w), (lam, w)


def test_counts_do_not_depend_on_memo_state():
    # every K(lambda, mu) with n <= 8, every r = 2 count with n <= 5, and a
    # mixed-orbit Theta table whose shapes, in the engine's order, are also
    # those of r = 2 counts; warm caches, then every memo cleared each call
    calls = [
        (kostka, (lam, mu))
        for n in range(0, 9)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
    ]
    calls += [
        (kostka_multi, (shapes, mu))
        for n in range(0, 6)
        for shapes in multipartitions_of(n, 2)
        for mu in partitions_of(n)
    ]
    entries = ((1, (1, 1)), (2, (2, 1)))
    calls += [(theta_kostka, (entries, mu)) for mu in partitions_of(8)]
    warm = [f(*args) for f, args in calls]
    cold = []
    for f, args in calls:
        _strip_count.cache_clear()
        _strips.cache_clear()
        _removals.cache_clear()
        cold.append(f(*args))
    assert cold == warm


def test_strip_memo_is_bounded():
    # a sweep to n = 10 meets more distinct strip steps than the memo keeps
    _strips.cache_clear()
    for n in range(0, 11):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                kostka(lam, mu)
    info = _strips.cache_info()
    assert info.maxsize is not None
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


def test_removal_memo_is_bounded():
    # every strip step of one shape of n <= 14, orbit size 1 or 2, meets
    # more distinct removal patterns than the memo keeps
    _removals.cache_clear()
    for n in range(0, 15):
        for lam in partitions_of(n):
            for s in (1, 2):
                for m in range(1, s * lam[0] + 1 if lam else 1):
                    _inner_multi(((s, *lam),), m)
    info = _removals.cache_info()
    assert info.maxsize is not None
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


def test_identical_components_count_standard_multitableaux():
    # 8 to 10 copies of one shape on 1^n: a state is the sorted tuple of
    # its entries, so every order of the same inner shapes is one state,
    # and each step still counts every assignment
    for lam, r in product(((2, 1), (3, 1)), (8, 9, 10)):
        n = r * sum(lam)
        assert kostka_multi((lam,) * r, (1,) * n) == multi_standard_count((lam,) * r), (lam, r)


def test_identical_components_share_states():
    # six copies of (2, 1) on 1^18 reach 15 625 states when the components
    # keep their order, and a few hundred when a state is a sorted tuple
    _strip_count.cache_clear()
    kostka_multi(((2, 1),) * 6, (1,) * 18)
    assert _strip_count.cache_info().currsize <= 1000


def test_kostka_matches_enumeration():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka(lam, mu) == len(enumerate_tableaux(lam, mu))


def test_kostka_multi_matches_enumeration(multitableau_grid):
    for shape, mu, found in multitableau_grid:
        assert kostka_multi(shape, mu) == len(found)


def _compositions(n, length):
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, length - 1):
            yield (first,) + rest


def test_weight_permutation_invariance():
    for n in range(0, 7):
        lams = list(partitions_of(n))
        for w in _compositions(n, 4):
            mu, _ = sort_to_partition(w)
            for lam in lams:
                assert kostka(lam, w) == kostka(lam, mu)
        for w in _compositions(n, 3):
            mu, _ = sort_to_partition(w)
            for shape in multipartitions_of(n, 2):
                assert kostka_multi(shape, w) == kostka_multi(shape, mu)
    # orbit-weighted counts with mixed orbit sizes
    for entries in (
        ((1, (1,)), (2, (1,))),
        ((1, (2, 1)), (2, (1,))),
        ((1, (1, 1)), (2, (2,)), (3, (1,))),
    ):
        total = sum(s * sum(shape) for s, shape in entries)
        for w in _compositions(total, 3):
            mu, _ = sort_to_partition(w)
            count = theta_kostka(entries, w)
            assert count == theta_kostka(entries, mu)
            assert theta_positive(entries, w) == theta_positive(entries, mu)
            assert theta_positive(entries, w) == (count > 0)
    assert theta_kostka(((1, (1,)), (2, (1,))), (1, 2)) == 1


@st.composite
def _composition_of(draw, n, max_len):
    """A composition of n with at most max_len parts, zeros allowed."""
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=max_len - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


@st.composite
def _shapes_of(draw, n, r):
    """r partitions of total size n."""
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=r - 1, max_size=r - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple(draw(st.sampled_from(list(partitions_of(m)))) for m in sizes)


@st.composite
def _permuted_weight(draw, n, max_len):
    w = draw(_composition_of(n, max_len))
    return w, draw(st.permutations(w))


# n <= 12 keeps every example far below hypothesis's default deadline; the
# exhaustive test above stops at n = 6
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(_shapes_of(n, 1), _permuted_weight(n, 12))))
def test_kostka_weight_permutation_invariance(case):
    (lam,), (w, v) = case
    assert kostka(lam, w) == kostka(lam, v) == kostka(lam, sort_to_partition(w)[0])


@given(
    st.tuples(st.integers(0, 12), st.integers(2, 3)).flatmap(
        lambda nr: st.tuples(_shapes_of(*nr), _permuted_weight(nr[0], 6))
    )
)
def test_kostka_multi_weight_permutation_invariance(case):
    shapes, (w, v) = case
    mu = sort_to_partition(w)[0]
    assert kostka_multi(shapes, w) == kostka_multi(shapes, v) == kostka_multi(shapes, mu)


@st.composite
def _theta_case(draw):
    """Orbit-weighted entries of total at most 12, and a permuted weight."""
    entries, room = [], 12
    for s in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        if room >= s:
            m = draw(st.integers(1, room // s))
            entries.append((s, draw(st.sampled_from(list(partitions_of(m))))))
            room -= s * m
    return entries, draw(_permuted_weight(12 - room, 6))


@given(_theta_case())
def test_theta_weight_permutation_invariance(case):
    entries, (w, v) = case
    mu = sort_to_partition(w)[0]
    assert theta_kostka(entries, w) == theta_kostka(entries, v) == theta_kostka(entries, mu)


def test_positivity_examples():
    assert is_positive(((2, 1, 1), (2, 2), (4,)), (8, 3, 1))
    assert is_positive(((1,), (1,)), (2,))
    assert not is_positive(((1, 1),), (2,))


def test_positivity_iff_count_positive():
    for n in range(0, 7):
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                for mu in partitions_of(n):
                    assert is_positive(shape, mu) == (kostka_multi(shape, mu) > 0)


def test_monotonicity_against_summed_shape():
    for n in range(0, 7):
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                for mu in partitions_of(n):
                    assert kostka_multi(shape, mu) >= kostka(tilde(shape), mu)


def test_multiplicity_one_examples():
    cert = is_multiplicity_one((6, 3, 3), (5, 4, 3))
    assert cert is not None
    assert verify_certificate((6, 3, 3), (5, 4, 3), cert)
    assert is_multiplicity_one((2, 1), (1, 1, 1)) is None
    for n in (1, 3, 7):
        assert is_multiplicity_one((n,), (n,)) == (1,)


def test_multiplicity_one_multi_examples():
    assert is_multiplicity_one_multi(((1,), (1,)), (1, 1)) is None
    cert = is_multiplicity_one_multi(((2, 1, 1), (2, 2), (4,)), (8, 3, 1))
    assert cert is not None
    assert verify_certificate_multi(((2, 1, 1), (2, 2), (4,)), (8, 3, 1), cert)
    assert is_multiplicity_one_multi(((1,), (1,)), (2,)) == (1,)


def test_multiplicity_one_iff_count_one():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                cert = is_multiplicity_one(lam, mu)
                assert (cert is not None) == (kostka(lam, mu) == 1)
                if cert is not None:
                    assert verify_certificate(lam, mu, cert)


def test_multiplicity_one_multi_iff_count_one():
    for n in range(0, 7):
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                for mu in partitions_of(n):
                    cert = is_multiplicity_one_multi(shape, mu)
                    assert (cert is not None) == (kostka_multi(shape, mu) == 1)
                    if cert is not None:
                        assert verify_certificate_multi(shape, mu, cert)


def test_multiplicity_one_accepts_compositions():
    # predicates and verifiers normalize the weight to a partition first
    cert = is_multiplicity_one((3, 1), (1, 3))
    assert cert == is_multiplicity_one((3, 1), (3, 1)) == (1, 2)
    assert verify_certificate((3, 1), (1, 3), cert)
    shapes = ((2, 1, 1), (2, 2), (4,))
    cert = is_multiplicity_one_multi(shapes, (1, 3, 8))
    assert cert is not None
    assert verify_certificate_multi(shapes, (3, 1, 8), cert)


def test_verify_rejects_bad_certificates():
    assert not verify_certificate((2, 1), (1, 1, 1), (3,))
    # a block dominates its letters but holds more boxes than them
    assert verify_certificate((3,), (2,), (1,)) is False
    assert verify_certificate_multi(((2,), (1,)), (2,), (1,)) is False
    assert not verify_certificate((6, 3, 3), (5, 4, 3), (1, 3))  # block (3,3) vs (4,3)
    assert not verify_certificate((6, 3, 3), (5, 4, 3), (2,))  # does not end at l
    assert not verify_certificate_multi(((1,), (1,)), (1, 1), (2,))
    assert not verify_certificate((2,), (2,), (0,))  # out of range
    assert not verify_certificate((2,), (2,), (-1,))
    assert verify_certificate((2,), (2,), ()) is False  # no cut, nonempty weight
    assert verify_certificate_multi(((2,), (1,)), (2, 1), ()) is False
    for bad in (("a",), (1.0,), (True,)):
        with pytest.raises(NonIntegerEntryError):
            verify_certificate((2,), (2,), bad)
        with pytest.raises(NonIntegerEntryError):
            verify_certificate_multi(((2,), ()), (2,), bad)


def _cut_tuples(length):
    """Every strictly increasing tuple of cut indices ending at length."""
    for mask in range(1 << (length - 1)):
        yield tuple(i for i in range(1, length) if mask >> (i - 1) & 1) + (length,)


def test_verifier_sound_on_every_cut_tuple():
    # whatever certificate the verifier accepts, the count must be one
    checked = 0
    for r, top in ((1, 8), (2, 6), (3, 5)):
        for n in range(1, top + 1):
            for shapes in multipartitions_of(n, r):
                for mu in partitions_of(n):
                    for cuts in _cut_tuples(len(mu)):
                        ok = verify_certificate_multi(shapes, mu, cuts)
                        if r == 1:
                            assert verify_certificate(shapes[0], mu, cuts) == ok
                        if ok:
                            assert kostka_multi(shapes, mu) == 1, (shapes, mu, cuts)
                        checked += 1
    assert checked == 24317


def test_unique_weight_examples():
    assert unique_weight((3, 2, 1))
    assert not unique_weight((2,))
    assert unique_weight((1, 1, 1))


def test_unique_weight_multi_examples():
    assert unique_weight_multi(((1,), (1,)))
    assert not unique_weight_multi(((2,), ()))
    assert unique_weight_multi(((1, 1), (1, 1)))


def test_unique_weight_matches_enumeration():
    for n in range(0, 9):
        mus = list(partitions_of(n))
        for lam in mus:
            hits = [mu for mu in mus if kostka(lam, mu) == 1]
            assert unique_weight(lam) == (len(hits) == 1)


def test_unique_weight_multi_matches_enumeration():
    for n in range(0, 7):
        mus = list(partitions_of(n))
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                hits = [mu for mu in mus if kostka_multi(shape, mu) == 1]
                assert unique_weight_multi(shape) == (hits == [tilde(shape)])


def test_self_multiplicity():
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
    for n in range(0, 7):
        for r in (1, 2, 3):
            for shape in multipartitions_of(n, r):
                assert kostka_multi(shape, tilde(shape)) == 1


# deadline=None: a shape such as (6^6) scans all p(36) weights, which takes
# longer than hypothesis's default per-example deadline on a slow machine
@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )
)
def test_certificate_sound_on_random_shapes(lam):
    for mu in partitions_of(sum(lam)):
        cert = is_multiplicity_one(lam, mu)
        if cert is not None:
            assert verify_certificate(lam, mu, cert)
            assert kostka(lam, mu) == 1
