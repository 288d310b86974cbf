"""Partitions, compositions, multipartitions, and the dominance order.

Partitions are tuples of positive integers in weakly decreasing order; the
empty partition is ().  Compositions are tuples of non-negative integers.
Multipartitions are tuples of partitions (empty components allowed).

The input contract: each input is read once, through `integers`,
`composition`, `normalize` or `sorted_weight`, whose checks run in this
order, the first failure deciding the error: an iterable whose every entry
is an integer, not a float, string, bool or list (NonIntegerEntryError);
no entry negative (NegativeEntryError); the parts of a partition, zeros
stripped wherever they stand, weakly decreasing (NonMonotoneError); then,
at the caller, equal sizes (SizeMismatchError).  A canonical tuple of plain
ints comes back from `integers`, `composition` and `normalize` as itself.
"""

from itertools import accumulate, product, zip_longest
from operator import ge, index, lt, mul

from .errors import (
    NegativeEntryError,
    NonIntegerEntryError,
    NonMonotoneError,
    SizeMismatchError,
)


def integers(raw):
    """Tuple of integers: floats, strings, booleans and nested lists are
    refused rather than converted; a tuple of plain ints comes back as is."""
    try:
        raw = tuple(raw)
        types = set(map(type, raw))
        if bool not in types:
            return raw if types <= {int} else tuple(map(index, raw))
    except TypeError:
        pass
    raise NonIntegerEntryError(f"entries must be integers: {raw!r}")


def composition(raw):
    """Tuple of non-negative integers."""
    parts = integers(raw)
    if parts and min(parts) < 0:
        raise NegativeEntryError(f"negative part in {parts}")
    return parts


def normalize(raw):
    """Canonical partition: zeros stripped, weakly decreasing enforced."""
    parts = integers(raw)
    if any(map(lt, parts, parts[1:])) or parts and parts[-1] < 1:  # not canonical yet
        parts = tuple(filter(None, composition(parts)))
        if any(map(lt, parts, parts[1:])):
            raise NonMonotoneError(f"parts increase in {parts}")
    return parts


def normalize_multi(components):
    """Canonical multipartition: each component normalized, order kept."""
    try:
        return tuple(map(normalize, components))
    except TypeError:
        raise NonIntegerEntryError(f"not a sequence of partitions: {components!r}") from None


def dominates(a, b):
    """True iff every prefix sum of a is >= the prefix sum of b."""
    a, b = normalize(a), normalize(b)
    if sum(a) != sum(b):
        raise SizeMismatchError(f"|{a}| != |{b}|")
    return _dominates(a, b)


def _dominates(a, b):
    """`dominates` without the checks: a and b must have equal totals, and
    be either normalized or of equal length.  Zip stops at the shorter,
    which is sound for normalized input: past its end its prefix sums stay
    at the common total, which no prefix sum of the other exceeds."""
    return all(map(ge, accumulate(a), accumulate(b)))


def is_horizontal_strip(outer, inner):
    """Whether outer/inner is a horizontal strip, with the strip size.

    Returns (True, |outer| - |inner|) when inner is contained in outer and
    the skew diagram has at most one box per column, that is when the
    parts interlace, outer[0] >= inner[0] >= outer[1] >= inner[1] >= ...;
    (False, 0) otherwise.  Non-containment is a false return, not an error.
    """
    outer, inner = normalize(outer), normalize(inner)
    interlaced = all(map(ge, outer, inner)) and all(map(ge, inner, outer[1:]))
    if len(inner) <= len(outer) <= len(inner) + 1 and interlaced:
        return True, sum(outer) - sum(inner)
    return False, 0


def tilde(m):
    """Row-wise sum of a multipartition's components."""
    return _tilde(normalize_multi(m))


def _tilde(m):
    """`tilde` without the checks: the zero-padded column sums of any
    tuples of integers, such as a normalized multipartition."""
    return tuple(map(sum, zip_longest(*m, fillvalue=0)))


def sort_to_partition(w):
    """Partition rearrangement of a composition, with the stable permutation.

    The permutation lists original indices in decreasing order of value,
    ties keeping input order; the returned partition drops zero parts.
    """
    w = composition(w)
    order = tuple(sorted(range(len(w)), key=w.__getitem__, reverse=True))
    return sorted_weight(w), order


def sorted_weight(w):
    """The partition of `sort_to_partition`, without the permutation."""
    w = sorted(integers(w), reverse=True)
    if w and w[-1] < 0:  # negative parts sort last, zeros just before them
        raise NegativeEntryError(f"negative part in {tuple(w)}")
    return tuple(w[: w.index(0)] if w and not w[-1] else w)


def conjugate(p):
    """Transpose of the Young diagram."""
    p = normalize(p)
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > j) for j in range(p[0]))


def partitions_of(n, max_part=None):
    """All partitions of n in decreasing lexicographic order."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def bounded_compositions(total, caps, weights=None):
    """All tuples v with 0 <= v[i] <= caps[i] and the sum of weights[i] *
    v[i] equal to total (every weight 1 by default), in lexicographic order,
    one at a time.  A loop, not a recursion, so the number of caps is not
    bounded by the recursion limit.

    Each step raises the last entry that can still grow and sets the ones
    after it as low as the room behind them allows: with `left` still to
    place and `room` the most the positions after i can take, v[i] starts
    at ceil((left - room) / weights[i]).  A weight-one position builds no
    dead prefix; one of weight w > 1 may overshoot what is left, and that
    prefix is dropped, so only vectors that use up the total are yielded.
    """
    caps = tuple(caps)
    weights = tuple(weights or (1,) * len(caps))
    # rooms[i] = the sum of weights[j] * caps[j] over j >= i
    rooms = list(accumulate(map(mul, caps[::-1], weights[::-1]), initial=0))[::-1]
    if not 0 <= total <= rooms[0]:
        return
    v, i, left = [0] * len(caps), 0, total  # v[:i] is the prefix placed so far
    while True:
        while i < len(caps):
            w, room = weights[i], rooms[i + 1]
            k = -((room - left) // w) if left > room else 0
            if k * w > left:  # a dead end: nothing after v[:i] can make up the rest
                break
            v[i] = k
            left -= k * w
            i += 1
        if not left:
            yield tuple(v)
        while i:
            i -= 1
            k, w = v[i], weights[i]
            left += k * w
            if k < caps[i] and (k + 1) * w <= left:
                v[i] = k + 1
                left -= (k + 1) * w
                i += 1
                break
        else:
            return


def multipartitions_of(n, r):
    """All r-component multipartitions of n: the component sizes in the
    lexicographic order of `bounded_compositions`, the first component
    smallest first, and for each size vector the components in the
    decreasing lexicographic order of `partitions_of`.  A loop over the
    size vectors, not a recursion over r."""
    parts = [tuple(partitions_of(k)) for k in range(n + 1)]
    for sizes in bounded_compositions(n, (n,) * r):
        yield from product(*map(parts.__getitem__, sizes))
