"""Weighted-orbit Kostka numbers for degenerate Gel'fand-Graev multiplicities.

An orbit-weighted multipartition is a sequence of (orbit size, partition)
entries with nonempty partitions; each entry's tableau weight counts with
its orbit size as multiplier.  Orbits are modeled by their sizes only: the
multiplicities depend on nothing else.  The counts are symmetric in the
weight, so a composition weight is sorted to a partition first, as in
`kostka.counting`.
"""

from .counting import _count, is_multiplicity_one_multi
from .errors import EmptyShapeError, NonIntegerEntryError, SizeMismatchError
from .errors import UnequalOrbitSizesError
from .partitions import (
    _dominates,
    bounded_compositions,
    composition,
    normalize_multi,
    sorted_weight,
)


def normalize_entries(entries):
    """Validated tuple of (orbit size, partition) pairs."""
    try:
        sizes, shapes = tuple(zip(*[(size, shape) for size, shape in entries])) or ((), ())
    except (TypeError, ValueError):
        raise NonIntegerEntryError(f"not (orbit size, partition) pairs: {entries!r}") from None
    sizes = composition(sizes)
    if 0 in sizes:
        raise EmptyShapeError("orbit size 0 must be positive")
    shapes = normalize_multi(shapes)
    if () in shapes:
        raise EmptyShapeError("orbit entries must carry a nonempty partition")
    return tuple(zip(sizes, shapes))


def _checked(entries, mu):
    """Validated entries, and the weight sorted to a partition of their total."""
    entries = normalize_entries(entries)
    mu = sorted_weight(mu)
    total = sum(s * sum(shape) for s, shape in entries)
    if total != sum(mu):
        raise SizeMismatchError(f"entries total {total} != |{mu}|")
    return entries, mu


def theta_kostka(entries, mu):
    """Number of orbit-weighted multitableaux of this shape and weight.

    Each letter fills one horizontal strip per entry, the strip sizes
    times the orbit sizes summing to its multiplicity in mu.
    """
    entries, mu = _checked(entries, mu)
    return _count(entries, mu)


def theta_positive(entries, mu):
    """Whether any orbit-weighted multitableau of this shape and weight exists.

    Positivity needs one witness, not a count, so it keeps its own search
    instead of asking the counting engine whether `_count` is nonzero: the
    engine sums every filling, which on single-box entries with many orbit
    sizes is exponentially slower than stopping at the first one.  The
    regular-semisimple two-part case (all shapes a single box, weight of
    length two) is a subset-sum dynamic program over the orbit sizes: a
    bitset of at most |mu| + 1 bits, taken only while mu[0] + 1 is below
    both 2^k, the most subset sums k entries can have, and 2^24, so the
    bitset stays under 4 MiB.  The general search visits no more
    remainders than there are subset sums but costs thousands of times
    more per sum (20 entries near 2^17: 0.17 ms against 0.93 s), so the
    cap sits far above the largest mu[0] the benchmark's fast-path ops
    reach, 7 222.  The general case tries, entry by entry, every weight
    the entry's shape dominates that fits in what is left of mu.  Whether
    the remaining entries fit depends only on the multiset of the remaining
    letters, so the search is memoized on the sorted remainder.  An
    explicit stack of lazy per-entry generators keeps it off Python's
    recursion limit.  It stays exponential in the worst case, as the
    problem is NP-hard.
    """
    entries, mu = _checked(entries, mu)
    single_boxes = len(mu) == 2 and all(shape == (1,) for _, shape in entries)
    if single_boxes and (mu[0] + 1).bit_length() <= min(len(entries), 24):
        return _subset_sum([s for s, _ in entries], mu[0])
    # stack[k] yields what is left of mu once entries 0..k-1 are placed
    stack, seen = [iter((mu,))], set()
    while stack:
        k = len(stack) - 1
        rest = next(stack[-1], None)
        if rest is None:
            stack.pop()
        elif k == len(entries):
            return True
        elif (k, rest) not in seen:
            seen.add((k, rest))
            stack.append(_remainders(*entries[k], rest))
    return False


def _remainders(orbit_size, shape, remaining):
    """Sorted remainders after one entry takes a weight its shape dominates.

    Every tuple here is built from checked input, so each is sorted
    plainly with its zeros dropped, without a second input check."""
    caps = tuple(x // orbit_size for x in remaining)
    for v in bounded_compositions(sum(shape), caps):
        if _dominates(shape, sorted(filter(None, v), reverse=True)):
            rest = [x - orbit_size * y for x, y in zip(remaining, v)]
            yield tuple(sorted(filter(None, rest), reverse=True))


def _subset_sum(values, target):
    """Pseudo-polynomial reachability of target as a sub-multiset sum."""
    reachable = 1
    for v in values:
        reachable |= reachable << v
    return bool((reachable >> target) & 1)


def zelcor_multiplicity_one(entries, mu):
    """Multiplicity-one test when all orbit sizes equal a common value.

    With common orbit size w: if w fails to divide some part of mu the
    multiplicity is zero; otherwise the question reduces to the
    multipartition multiplicity-one criterion on the shapes and mu/w.
    """
    entries, mu = _checked(entries, mu)
    sizes = {s for s, _ in entries}
    if len(sizes) > 1:
        raise UnequalOrbitSizesError(f"orbit sizes {sorted(sizes)} differ")
    w = sizes.pop() if sizes else 1
    if any(p % w for p in mu):
        return False
    shapes = tuple(shape for _, shape in entries)
    reduced = tuple(p // w for p in mu)
    return is_multiplicity_one_multi(shapes, reduced) is not None
