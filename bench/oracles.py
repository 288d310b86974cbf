"""The benchmark's own combinatorics, independent of the kostka package.

Every check the benchmark makes rests on these closed forms and direct
definitions, so that a rewrite of the package's counting engine cannot
make a wrong answer look right.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod


def partitions_of(n, max_part=None):
    """All partitions of n, largest first part first."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def multipartitions_of(n, r):
    """All r-tuples of partitions whose sizes add up to n."""
    if r == 0:
        if n == 0:
            yield ()
        return
    for head_size in range(n, -1, -1):
        for head in partitions_of(head_size):
            for rest in multipartitions_of(n - head_size, r - 1):
                yield (head,) + rest


def _hooks(shape):
    """(content, hook length) of every cell of the diagram."""
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            yield j - i, row - j + below


@lru_cache(maxsize=None)
def syt_count(shape):
    """f^shape, the number of standard Young tableaux (hook length formula)."""
    return factorial(sum(shape)) // prod(h for _, h in _hooks(shape))


def schur_at_ones(shape, m):
    """s_shape(1, ..., 1) with m ones (hook content formula)."""
    value = prod(Fraction(m + c, h) for c, h in _hooks(shape))
    return int(value)


def multinomial(n, parts):
    """n! / prod(parts!), with sum(parts) == n."""
    return factorial(n) // prod(factorial(p) for p in parts)


@lru_cache(maxsize=None)
def multi_standard_count(shapes):
    """Standard multitableaux of this shape, i.e. kostka_multi(shapes, 1^n).

    It is also the degree of the cyclic wreath product irreducible labelled
    by the multipartition.
    """
    sizes = [sum(c) for c in shapes]
    return multinomial(sum(sizes), sizes) * prod(syt_count(c) for c in shapes)


def arrangements(mu, m):
    """Distinct compositions of length m that sort to the partition mu."""
    mult = Counter(mu)
    mult[0] = m - len(mu)
    return factorial(m) // prod(factorial(k) for k in mult.values())


def dominates(a, b):
    """Prefix sums of a never fall below those of b (equal sizes assumed)."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def rowwise_sum(shapes):
    depth = max((len(c) for c in shapes), default=0)
    return tuple(sum(c[i] for c in shapes if i < len(c)) for i in range(depth))


def steps_at_most_one(shape):
    """Consecutive parts, and the last part against zero, differ by <= 1."""
    padded = tuple(shape) + (0,)
    return all(padded[i] - padded[i + 1] <= 1 for i in range(len(shape)))


def drops_shared(shapes):
    """At every row where the summed shape drops by two or more, at least
    two components drop."""
    summed = rowwise_sum(shapes) + (0,)
    for i in range(len(summed) - 1):
        if summed[i] - summed[i + 1] <= 1:
            continue
        droppers = sum(
            1
            for c in shapes
            if (c[i] if i < len(c) else 0) > (c[i + 1] if i + 1 < len(c) else 0)
        )
        if droppers < 2:
            return False
    return True


def is_tableau(rows, shape, weight):
    """rows is a semistandard tableau of this shape and weight."""
    if tuple(len(r) for r in rows) != tuple(shape):
        return False
    for r in rows:
        if any(r[c] > r[c + 1] for c in range(len(r) - 1)):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            return False
    counts = [0] * len(weight)
    for r in rows:
        for e in r:
            if not 1 <= e <= len(weight):
                return False
            counts[e - 1] += 1
    return tuple(counts) == tuple(weight)


def subset_sum(values, target):
    """Whether some sub-multiset of values adds up to target."""
    mask = (1 << (target + 1)) - 1
    reachable = 1  # bit s is set when s is reachable
    for v in values:
        reachable = (reachable | reachable << v) & mask
    return bool(reachable >> target & 1)


def random_partition(rng, n, parts):
    """A partition of n into exactly `parts` positive parts, uniform cuts."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return tuple(
        sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)
    )
