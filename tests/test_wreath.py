from math import factorial

import pytest

from kostka.counting import kostka_multi
from kostka.errors import InvalidDivisorError
from kostka.partitions import multipartitions_of, partitions_of, tilde
from kostka.wreath import (
    Constituent,
    decompose_permutation_character,
    hook_length_degree,
    irreducible_degree,
)


def test_hook_length_degree_examples():
    assert hook_length_degree((3,)) == 1
    assert hook_length_degree((2, 1)) == 2
    assert hook_length_degree((2, 2)) == 2
    assert hook_length_degree((3, 2, 1)) == 16
    assert hook_length_degree(()) == 1


def test_hook_length_degree_counts_standard_tableaux():
    # standard tableaux are semistandard of weight (1, ..., 1)
    from kostka.counting import kostka

    for n in range(0, 8):
        for lam in partitions_of(n):
            assert hook_length_degree(lam) == kostka(lam, (1,) * n)


def test_irreducible_degree_examples():
    assert irreducible_degree(((3,), ())) == 1
    assert irreducible_degree(((1,), (1,))) == 2
    assert irreducible_degree(((2, 1), (1,))) == 8


def test_irreducible_degree_counts_standard_multitableaux():
    # both count the standard multitableaux: weight (1, ..., 1)
    for r in (1, 2, 3):
        for n in range(0, 7):
            for label in multipartitions_of(n, r):
                assert irreducible_degree(label) == kostka_multi(label, (1,) * n), label


def test_irreducible_degrees_square_sum():
    # degrees of the r = 2 irreducibles square-sum to the group order 2^n n!
    for n in range(0, 6):
        total = sum(
            irreducible_degree(label) ** 2 for label in multipartitions_of(n, 2)
        )
        assert total == 2**n * factorial(n)


def test_decompose_smallest_cases():
    assert decompose_permutation_character(2, 2, (1,)) == [
        Constituent(((1,), ()), 1)
    ]
    assert decompose_permutation_character(2, 1, (1,)) == [
        Constituent(((), (1,)), 1),
        Constituent(((1,), ()), 1),
    ]
    assert decompose_permutation_character(2, 2, (2, 1)) == [
        Constituent(((2, 1), ()), 1),
        Constituent(((3,), ()), 1),
    ]


def test_decompose_multiplicities_are_kostka_numbers():
    for r, d in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)]:
        for n in range(1, 5):
            for mu in partitions_of(n):
                for label, m in decompose_permutation_character(r, d, mu):
                    assert m == kostka_multi(label, mu)
                    assert m > 0
                    for j, comp in enumerate(label):
                        if j % d != 0:
                            assert comp == ()


def test_decompose_degree_identity():
    # constituent degrees weighted by multiplicity sum to (r/d)^n n!/prod mu_i!;
    # to n = 9 the coarse weights, where the dominance pre-check skips most
    # labels, are covered too, so a wrong pre-check that drops one fails;
    # at the standard weights 1^10 and 1^12 every allowed label is a constituent
    tops = [(1, 1, 4), (2, 1, 9), (2, 2, 4), (3, 1, 7), (3, 3, 4), (4, 2, 9)]
    cases = [
        (r, d, mu)
        for r, d, top in tops
        for n in range(1, top + 1)
        for mu in partitions_of(n)
    ]
    cases += [(3, 1, (1,) * 10), (2, 1, (1,) * 12)]
    for r, d, mu in cases:
        got = sum(
            m * irreducible_degree(label)
            for label, m in decompose_permutation_character(r, d, mu)
        )
        expected = (r // d) ** sum(mu) * factorial(sum(mu))
        for part in mu:
            expected //= factorial(part)
        assert got == expected, (r, d, mu)


def test_decompose_full_weight_is_multiplicity_free():
    # mu = (n): the trivial-type character restricted to one Young block
    for r in (1, 2, 3):
        for d in (1, r):
            for n in range(1, 5):
                for _, m in decompose_permutation_character(r, d, (n,)):
                    assert m == 1


def test_decompose_sorted_by_label():
    out = decompose_permutation_character(2, 1, (2, 1))
    labels = [c.label for c in out]
    assert labels == sorted(labels)


def test_decompose_rejects_bad_divisor():
    with pytest.raises(InvalidDivisorError):
        decompose_permutation_character(4, 3, (2,))
    with pytest.raises(InvalidDivisorError):
        decompose_permutation_character(2, 0, (2,))


@pytest.mark.parametrize("r, d", [(-2, 1), (0, 1), (2, 0), (2, -1), (0, 0)])
def test_decompose_names_a_non_positive_order(r, d):
    # d = 1 divides every r, so a refusal there must not claim otherwise
    with pytest.raises(InvalidDivisorError, match="must be positive") as exc:
        decompose_permutation_character(r, d, (2,))
    assert "does not divide" not in str(exc.value)


def test_decompose_names_a_non_divisor():
    with pytest.raises(InvalidDivisorError, match="^3 does not divide 4$"):
        decompose_permutation_character(4, 3, (2,))


def test_decompose_support_dominates_weight():
    mu = (3, 1)
    for label, _ in decompose_permutation_character(2, 1, mu):
        t = tilde(label)
        assert all(sum(t[: k + 1]) >= sum(mu[: k + 1]) for k in range(len(mu)))


def test_decompose_with_many_components():
    # r = 1 000 components of one box: every label is one box in one
    # component, each with multiplicity 1 (a RecursionError when the labels
    # came from a recursion over the components)
    out = decompose_permutation_character(1000, 1, (1,))
    assert len(out) == 1000
    assert all(c.multiplicity == 1 for c in out)
    assert len({c.label for c in out}) == 1000
