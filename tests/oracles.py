"""Brute-force reference implementations used only by the tests.

These deliberately avoid the horizontal-strip machinery of the package:
tableaux are built by filling boxes one at a time, so agreement with the
library is a genuinely independent check.  Nothing here imports
`kostka.partitions`, so the entry checks are compared with a reference
that does not share their code.
"""

from functools import cache
from itertools import combinations, permutations, product
from math import factorial, prod
from operator import index

from kostka.errors import NegativeEntryError, NonIntegerEntryError, NonMonotoneError


def bounded_compositions(total, caps):
    """Every tuple v with 0 <= v[i] <= caps[i] and sum(v) == total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for head in range(min(total, caps[0]) + 1):
        for rest in bounded_compositions(total - head, caps[1:]):
            yield (head,) + rest


def checked_entries(raw, kind):
    """The input contract by plain per-entry loops, one per check: what
    `composition`, `normalize` or `sorted_weight` (kind "composition",
    "partition" or "weight") returns for raw, or the error class it
    raises.  The first failing check decides: an integer entry (a bool is
    not one, an int subclass is read as its int value), then no negative
    entry, then, for a partition, no part above the one before it once
    zeros are stripped."""
    try:
        entries = list(raw)
    except TypeError:
        return NonIntegerEntryError
    values = []
    for e in entries:
        if type(e) is bool:
            return NonIntegerEntryError
        try:
            values.append(index(e))
        except TypeError:
            return NonIntegerEntryError
    for v in values:
        if v < 0:
            return NegativeEntryError
    if kind == "composition":
        return tuple(values)
    parts = [v for v in values if v != 0]
    if kind == "weight":
        return tuple(sorted(parts, reverse=True))
    for i in range(1, len(parts)):
        if parts[i - 1] < parts[i]:
            return NonMonotoneError
    return tuple(parts)


def naive_tableaux(shape, w):
    """All SSYT of the shape/weight by row-major box filling."""
    cells = [(i, c) for i, width in enumerate(shape) for c in range(width)]
    counts = list(w)
    rows = [[0] * width for width in shape]
    out = []

    def fill(k):
        if k == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, c = cells[k]
        for e in range(1, len(counts) + 1):
            if counts[e - 1] == 0:
                continue
            if c > 0 and rows[i][c - 1] > e:
                continue
            if i > 0 and rows[i - 1][c] >= e:
                continue
            counts[e - 1] -= 1
            rows[i][c] = e
            fill(k + 1)
            rows[i][c] = 0
            counts[e - 1] += 1

    fill(0)
    return out


def naive_multitableaux(shapes, w):
    """All multitableaux of the shapes and total weight, sorted by their
    concatenated entries: every split of the weight among the components,
    each component filled box by box."""

    def splits(j, rest):
        if j == len(shapes):
            if not any(rest):
                yield ()
            return
        for head in bounded_compositions(sum(shapes[j]), rest):
            for tail in splits(j + 1, tuple(map(int.__sub__, rest, head))):
                yield (head,) + tail

    found = [
        mt
        for split in splits(0, tuple(w))
        for mt in product(*map(naive_tableaux, shapes, split))
    ]
    return sorted(found, key=lambda mt: tuple(e for rows in mt for r in rows for e in r))


def column_count_strip_check(outer, inner):
    """Horizontal-strip test by literally counting boxes per column."""
    if any((inner[i] if i < len(inner) else 0) > row for i, row in enumerate(outer)):
        return False
    if len(inner) > len(outer):
        return False
    width = outer[0] if outer else 0
    for col in range(width):
        boxes = sum(
            1
            for i, row in enumerate(outer)
            if col < row and col >= (inner[i] if i < len(inner) else 0)
        )
        if boxes > 1:
            return False
    return True


def theta_count_by_tableaux(entries, mu):
    """Orbit-weighted count via per-entry tableau enumeration."""
    from kostka.tableaux import enumerate_tableaux

    l = len(mu)

    def rec(k, rem):
        if k == len(entries):
            return 1 if all(x == 0 for x in rem) else 0
        orbit, shape = entries[k]
        total = 0
        for v in bounded_compositions(sum(shape), tuple(x // orbit for x in rem)):
            found = len(enumerate_tableaux(shape, v))
            if found:
                rest = tuple(rem[i] - orbit * v[i] for i in range(l))
                total += found * rec(k + 1, rest)
        return total

    return rec(0, tuple(mu))


def kostka_by_alternant(shape, w):
    """K(shape, w) as the coefficient of x^(shape + delta) in
    a_delta * prod_j h_{w_j}(x_1, ..., x_l), l = len(shape) and delta =
    (l - 1, ..., 1, 0): the product is the sum of K(lambda, w) s_lambda,
    and a_delta s_lambda = a_(lambda + delta) holds x^(shape + delta) only
    for lambda = shape.  The product is a dict of exponent tuples, one h at
    a time; every coefficient is non-negative, so exponents above
    shape + delta are dropped as they appear."""
    l = len(shape)
    top = tuple(part + l - 1 - i for i, part in enumerate(shape))
    poly = {(0,) * l: 1}
    for letter in w:
        grown = {}
        for e, coeff in poly.items():
            room = tuple(t - x for t, x in zip(top, e))
            for v in bounded_compositions(letter, room):
                key = tuple(x + y for x, y in zip(e, v))
                grown[key] = grown.get(key, 0) + coeff
        poly = grown
    total = 0
    for perm in permutations(range(l)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(l), 2))
        key = tuple(t - (l - 1 - p) for t, p in zip(top, perm))
        total += (-1) ** inversions * poly.get(key, 0)
    return total


def subset_sum_exhaustive(values, target):
    return any(
        sum(c) == target
        for k in range(len(values) + 1)
        for c in combinations(values, k)
    )


def _cells(shape):
    """(content, hook length) of every box of the diagram."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
    for i, row in enumerate(shape):
        for j in range(row):
            yield j - i, (row - j) + (cols[j] - i) - 1


def standard_count(shape):
    """f^shape, the number of standard tableaux, by the hook length formula."""
    return factorial(sum(shape)) // prod(h for _, h in _cells(shape))


def multi_standard_count(shapes):
    """Standard multitableaux: n! / prod |shape|! * prod f^shape."""
    out = factorial(sum(map(sum, shapes)))
    for shape in shapes:
        out = out * standard_count(shape) // factorial(sum(shape))
    return out


def schur_at_ones(shape, letters):
    """s_shape(1^letters), the number of tableaux with entries at most
    letters, by the hook-content formula."""
    cells = list(_cells(shape))
    return prod(letters + c for c, _ in cells) // prod(h for _, h in cells)


def matrix_count(rows, cols):
    """Number of matrices over the non-negative integers with the given row
    and column sums, by a transport DP: fill one row at a time; the state
    is the multiset of column sums still open, sorted, zeros dropped."""

    @cache
    def fill(i, open_cols):
        if i == len(rows):
            return 0 if open_cols else 1
        return sum(
            fill(i + 1, tuple(sorted(filter(None, map(int.__sub__, open_cols, v)))))
            for v in bounded_compositions(rows[i], open_cols)
        )

    return fill(0, tuple(sorted(filter(None, cols))))
