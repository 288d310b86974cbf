"""Character combinatorics of cyclic wreath products with symmetric groups.

Irreducible characters of the wreath product of a cyclic group of order r
with S_n are labelled by r-component multipartitions of n; component j
corresponds to the character c -> c^(j-1).  The permutation character
induced from the order-d subgroup (d dividing r) wreathed with a Young
subgroup decomposes with multipartition Kostka numbers as multiplicities,
supported on labels whose component j is empty unless d divides j - 1.
"""

from math import factorial
from typing import NamedTuple

from .counting import _count
from .errors import InvalidDivisorError
from .partitions import (
    _dominates,
    _tilde,
    conjugate,
    integers,
    multipartitions_of,
    normalize,
    normalize_multi,
)


class Constituent(NamedTuple):
    label: tuple
    multiplicity: int


def hook_length_degree(shape):
    """Number of standard Young tableaux of the shape (hook length formula)."""
    shape = normalize(shape)
    conj = conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(shape)) // hooks


def irreducible_degree(label):
    """Degree of the irreducible character labelled by a multipartition.

    For abelian base groups every linear factor is 1, leaving
    n! * prod SYT(component) / prod |component|!.
    """
    label = normalize_multi(label)
    n = sum(sum(c) for c in label)
    deg = factorial(n)
    for c in label:
        deg = deg * hook_length_degree(c) // factorial(sum(c))
    return deg


def _allowed_labels(r, d, n):
    """Labels with component j empty unless d divides j - 1."""
    for heads in multipartitions_of(n, r // d):
        label = [()] * r
        label[::d] = heads
        yield tuple(label)


def decompose_permutation_character(r, d, mu):
    """Constituents of the permutation character for parameters (r, d, mu).

    Returns every allowed-support label paired with its multipartition
    Kostka multiplicity against mu, zero multiplicities omitted, ordered
    lexicographically by label.
    """
    r, d = integers((r, d))
    mu = normalize(mu)
    if r < 1 or d < 1:
        raise InvalidDivisorError(f"group orders must be positive: r = {r}, d = {d}")
    if r % d:
        raise InvalidDivisorError(f"{d} does not divide {r}")
    n = sum(mu)
    out = []
    for label in _allowed_labels(r, d, n):
        if not _dominates(_tilde(label), mu):
            continue
        m = _count([(1, c) for c in label], mu)
        if m:
            out.append(Constituent(label, m))
    out.sort(key=lambda c: c.label)
    return out
