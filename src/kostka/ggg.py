"""Weighted-orbit Kostka numbers for degenerate Gel'fand-Graev multiplicities.

An orbit-weighted multipartition is a sequence of (orbit size, partition)
entries with nonempty partitions; each entry's tableau weight counts with
its orbit size as multiplier.  Orbits are modeled by their sizes only: the
multiplicities depend on nothing else.  The weight here must be a
partition; no composition normalization is applied.
"""

from .counting import _split_count, is_multiplicity_one_multi
from .errors import EmptyShapeError, SizeMismatchError, UnequalOrbitSizesError
from .partitions import (
    bounded_compositions,
    composition,
    dominates,
    normalize,
    sort_to_partition,
)


def normalize_entries(entries):
    """Validated tuple of (orbit size, partition) pairs."""
    entries = tuple(entries)
    sizes = composition([orbit_size for orbit_size, _ in entries])
    out = []
    for orbit_size, (_, shape) in zip(sizes, entries):
        if orbit_size < 1:
            raise EmptyShapeError(f"orbit size {orbit_size} must be positive")
        shape = normalize(shape)
        if not shape:
            raise EmptyShapeError("orbit entries must carry a nonempty partition")
        out.append((orbit_size, shape))
    return tuple(out)


def theta_size(entries):
    return sum(s * sum(shape) for s, shape in normalize_entries(entries))


def theta_kostka(entries, mu):
    """Number of orbit-weighted multitableaux of this shape and weight.

    Sums over tuples of per-entry weight vectors whose orbit-size-weighted
    coordinate-wise sum is mu, the product of per-entry tableau counts.
    """
    entries = normalize_entries(entries)
    mu = normalize(mu)
    if theta_size(entries) != sum(mu):
        raise SizeMismatchError(f"entries total {theta_size(entries)} != |{mu}|")
    return _split_count(entries, mu)


def theta_positive(entries, mu):
    """Whether any orbit-weighted multitableau of this shape and weight exists.

    The regular-semisimple two-part case (all shapes a single box, weight
    of length two) is decided by a subset-sum dynamic program over the
    orbit sizes; the general case falls back to a bounded search over
    weight tuples, pruned by per-entry positivity.  The fallback is
    exponential in the worst case, which matches the hardness of the
    problem.
    """
    entries = normalize_entries(entries)
    mu = normalize(mu)
    if theta_size(entries) != sum(mu):
        raise SizeMismatchError(f"entries total {theta_size(entries)} != |{mu}|")
    if len(mu) == 2 and all(shape == (1,) for _, shape in entries):
        return _subset_sum([s for s, _ in entries], mu[0])
    l = len(mu)

    def rec(k, remaining):
        if k == len(entries):
            return all(x == 0 for x in remaining)
        orbit_size, shape = entries[k]
        caps = tuple(x // orbit_size for x in remaining)
        for v in bounded_compositions(sum(shape), caps):
            v_sorted, _ = sort_to_partition(v)
            if not dominates(shape, v_sorted):
                continue
            rest = tuple(remaining[i] - orbit_size * v[i] for i in range(l))
            if rec(k + 1, rest):
                return True
        return False

    return rec(0, mu)


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
    entries = normalize_entries(entries)
    mu = normalize(mu)
    if theta_size(entries) != sum(mu):
        raise SizeMismatchError(f"entries total {theta_size(entries)} != |{mu}|")
    sizes = {s for s, _ in entries}
    if len(sizes) != 1:
        raise UnequalOrbitSizesError(f"orbit sizes {sorted(sizes)} differ")
    w = sizes.pop()
    if any(p % w for p in mu):
        return False
    shapes = tuple(shape for _, shape in entries)
    reduced = tuple(p // w for p in mu)
    return is_multiplicity_one_multi(shapes, reduced) is not None
