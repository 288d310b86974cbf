"""One input contract across the public entry points.

Every public function answers or raises a `KostkaError` subclass, and the
same bad input is refused with the same subclass by every function that
takes it.  The table below feeds each entry point a partition or a weight
that is bad in one way, so a check moved from one layer to another cannot
silently disappear.
"""

from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import checked_entries

from kostka import (
    decompose_permutation_character,
    dominates,
    enumerate_multitableaux,
    enumerate_tableaux,
    greedy_tableau,
    is_multiplicity_one,
    is_multiplicity_one_multi,
    is_positive,
    is_semistandard,
    kostka,
    kostka_multi,
    redistribute_columns,
    theta_kostka,
    theta_positive,
    tilde,
    unique_weight,
    unique_weight_multi,
    verify_certificate,
    verify_certificate_multi,
    weight,
    zelcor_multiplicity_one,
)
from kostka.errors import (
    EmptyShapeError,
    InvalidDivisorError,
    KostkaError,
    NegativeEntryError,
    NonIntegerEntryError,
    NonMonotoneError,
    SizeMismatchError,
)
from kostka.partitions import composition, normalize, sorted_weight
from kostka.tableaux import multi_weight

GOOD_SHAPE, GOOD_WEIGHT = (2, 1), (2, 1)

BAD_SHAPES = [
    ("negative", (3, -1), NegativeEntryError),
    ("float", (2.0, 1), NonIntegerEntryError),
    ("bool", (True, 1), NonIntegerEntryError),
    ("string", ("2", 1), NonIntegerEntryError),
    ("increasing", (1, 2), NonMonotoneError),
    ("non-iterable", 5, NonIntegerEntryError),
]

# a weight may be a composition, so an increasing one is not bad
BAD_WEIGHTS = [
    ("negative", (4, -1), NegativeEntryError),
    ("float", (2.0, 1), NonIntegerEntryError),
    ("bool", (2, True), NonIntegerEntryError),
    ("string", ("2", 1), NonIntegerEntryError),
    ("non-iterable", 5, NonIntegerEntryError),
    ("size-mismatch", (2,), SizeMismatchError),
]

# entry point -> call on one partition and a weight; the multipartition
# functions get the partition with an empty component beside it
PAIR_CALLS = {
    "kostka": kostka,
    "kostka_multi": lambda lam, w: kostka_multi((lam, ()), w),
    "is_positive": lambda lam, w: is_positive((lam, ()), w),
    "is_multiplicity_one": is_multiplicity_one,
    "is_multiplicity_one_multi": lambda lam, w: is_multiplicity_one_multi((lam, ()), w),
    "verify_certificate": lambda lam, w: verify_certificate(lam, w, (1, 2)),
    "verify_certificate_multi": lambda lam, w: verify_certificate_multi((lam, ()), w, (1, 2)),
    "dominates": dominates,
    "enumerate_tableaux": enumerate_tableaux,
    "enumerate_multitableaux": lambda lam, w: enumerate_multitableaux((lam, ()), w),
    "greedy_tableau": greedy_tableau,
    "theta_kostka": lambda lam, w: theta_kostka([(1, lam)], w),
    "theta_positive": lambda lam, w: theta_positive([(1, lam)], w),
    "zelcor_multiplicity_one": lambda lam, w: zelcor_multiplicity_one([(1, lam)], w),
}

# entry point -> call on one partition
SHAPE_CALLS = {
    "unique_weight": unique_weight,
    "unique_weight_multi": lambda lam: unique_weight_multi((lam, ())),
    "tilde": lambda lam: tilde((lam, ())),
    "decompose_permutation_character": lambda lam: decompose_permutation_character(2, 1, lam),
}

# a certificate is a claim about a shape and weight of equal size: on a
# mismatch the verifiers answer False rather than raise
NO_SIZE_CHECK = {"verify_certificate", "verify_certificate_multi"}


def _cases():
    for name, call in PAIR_CALLS.items():
        for kind, lam, error in BAD_SHAPES:
            yield pytest.param(call, (lam, GOOD_WEIGHT), error, id=f"{name}-shape-{kind}")
        for kind, w, error in BAD_WEIGHTS:
            if name in NO_SIZE_CHECK and error is SizeMismatchError:
                continue
            yield pytest.param(call, (GOOD_SHAPE, w), error, id=f"{name}-weight-{kind}")
    for name, call in SHAPE_CALLS.items():
        for kind, lam, error in BAD_SHAPES:
            yield pytest.param(call, (lam,), error, id=f"{name}-shape-{kind}")


@pytest.mark.parametrize("call, args, error", _cases())
def test_bad_input_raises_the_same_error_everywhere(call, args, error):
    with pytest.raises(error):
        call(*args)


@pytest.mark.parametrize(
    "call, args, error",
    [
        # a multipartition, or Theta entries, that are not sequences at all
        (kostka_multi, (5, (1,)), NonIntegerEntryError),
        (is_positive, (5, (1,)), NonIntegerEntryError),
        (is_multiplicity_one_multi, (5, (1,)), NonIntegerEntryError),
        (verify_certificate_multi, (5, (1,), (1,)), NonIntegerEntryError),
        (unique_weight_multi, (5,), NonIntegerEntryError),
        (tilde, (5,), NonIntegerEntryError),
        (theta_kostka, (5, (1,)), NonIntegerEntryError),
        (theta_positive, ([5], (1,)), NonIntegerEntryError),
        (zelcor_multiplicity_one, (5, (1,)), NonIntegerEntryError),
        # Theta entries that are not (orbit size, partition) pairs
        (theta_kostka, ([(1,)], (1,)), NonIntegerEntryError),
        (theta_positive, ([(1, 2, 3)], (1,)), NonIntegerEntryError),
        # bad orbit sizes
        (theta_kostka, ([(-1, (1,))], (1,)), NegativeEntryError),
        (theta_kostka, ([(1.0, (1,))], (1,)), NonIntegerEntryError),
        (theta_positive, ([(True, (1,))], (1,)), NonIntegerEntryError),
        (zelcor_multiplicity_one, ([("1", (1,))], (1,)), NonIntegerEntryError),
        (theta_kostka, ([(0, (1,))], (1,)), EmptyShapeError),
        (decompose_permutation_character, (2, 3, (1,)), InvalidDivisorError),
        # r and d of the wreath product must be integers, not read as one
        (decompose_permutation_character, (2.0, 1, (1,)), NonIntegerEntryError),
        (decompose_permutation_character, ("a", 1, (1,)), NonIntegerEntryError),
        (decompose_permutation_character, (True, 1, (1,)), NonIntegerEntryError),
        (decompose_permutation_character, (2, 1.0, (1,)), NonIntegerEntryError),
        (decompose_permutation_character, (2, True, (1,)), NonIntegerEntryError),
        # tableau rows that are not sequences, or hold non-integer entries
        (is_semistandard, (5,), NonIntegerEntryError),
        (weight, (5,), NonIntegerEntryError),
        (redistribute_columns, (5, ((1,),)), NonIntegerEntryError),
        (multi_weight, (5,), NonIntegerEntryError),
        (multi_weight, (None,), NonIntegerEntryError),
        (is_semistandard, ([[1, "a"]],), NonIntegerEntryError),
        (weight, ([[1.5]],), NonIntegerEntryError),
        (redistribute_columns, ([[1.5]], ((1,),)), NonIntegerEntryError),
        # tableau entries are the letters 1, 2, ...: zero and below are refused
        (weight, ([[0, 1]],), NegativeEntryError),
        (weight, ([[-2]],), NegativeEntryError),
        (is_semistandard, ([[-1, 0]],), NegativeEntryError),
        (redistribute_columns, ([[0, 1]], ((1,), (1,))), NegativeEntryError),
    ],
)
def test_bad_containers_raise_kostka_errors(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_verifiers_reject_a_size_mismatch():
    assert verify_certificate((2, 1), (2,), (1,)) is False
    assert verify_certificate_multi(((2, 1), ()), (2,), (1,)) is False


class Letter(IntEnum):
    ONE = 1
    TWO = 2


# Entries: mostly integers, zeros and negatives among them, so that every
# check is reached; the rest each bad in its own way, or an IntEnum member,
# which is an integer.
ENTRY = st.one_of(
    st.integers(-2, 5),
    st.integers(0, 3),
    st.sampled_from(Letter),
    st.one_of(
        st.booleans(),
        st.floats(-2, 5),
        st.sampled_from(["1", "a"]),
        st.lists(st.integers(0, 2), max_size=2),
    ),
)
# (container, entries), or ("scalar", a non-iterable)
RAW = st.one_of(
    st.tuples(
        st.sampled_from(["tuple", "list", "generator"]),
        st.one_of(st.lists(st.integers(-1, 4), max_size=8), st.lists(ENTRY, max_size=6)),
    ),
    st.tuples(st.just("scalar"), st.sampled_from([5, None, 2.5, True])),
)
CHECKS = {"composition": composition, "partition": normalize, "weight": sorted_weight}


def _build(container, entries):
    """A fresh input each call, since a generator is read only once."""
    if container == "scalar":
        return entries
    if container == "generator":
        return (e for e in entries)
    return {"tuple": tuple, "list": list}[container](entries)


@given(RAW)
def test_entry_checks_match_the_reference(raw):
    for kind, check in CHECKS.items():
        expected = checked_entries(_build(*raw), kind)
        if isinstance(expected, type):
            with pytest.raises(KostkaError) as info:
                check(_build(*raw))
            assert type(info.value) is expected, kind
        else:
            got = check(_build(*raw))
            assert type(got) is tuple and got == expected, kind
            assert all(type(e) is int for e in got), kind


@given(st.lists(st.integers(0, 5), max_size=8))
def test_canonical_tuples_come_back_as_themselves(entries):
    w = tuple(entries)
    assert composition(w) is w
    lam = tuple(sorted(filter(None, entries), reverse=True))
    assert normalize(lam) is lam
