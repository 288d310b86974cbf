"""Semistandard Young tableaux and multitableaux.

A tableau is a tuple of row tuples; its shape is the tuple of row lengths.
A multitableau is a tuple of tableaux, one per multipartition component.
Enumeration is deliberately brute force: it is the independent oracle the
fast counting predicates are checked against.  Placed corner to corner,
the components form one skew shape; a loop over the letters fills it one
horizontal strip at a time, a single tableau being the one-component case.
A loop over the rows builds each strip, so neither the number of letters
nor the number of rows meets Python's recursion limit.  That loop is kept
apart from `partitions.bounded_compositions`, which makes the counting
engine's strips, on purpose: the oracle shares no strip code with what it
checks.
"""

from collections import Counter
from itertools import accumulate, pairwise

from .errors import (
    NegativeEntryError,
    NonIntegerEntryError,
    NotDominatedError,
    ShapeMismatchError,
    SizeMismatchError,
)
from .partitions import (
    _dominates,
    _tilde,
    composition,
    conjugate,
    integers,
    normalize,
    normalize_multi,
)


def shape_of(rows):
    return tuple(len(r) for r in rows)


def _rows(rows):
    """Tuple of row tuples, every entry a positive integer: tableau
    entries are the letters 1, 2, ..., so 0 and below are refused."""
    try:
        rows = tuple(map(integers, rows))
    except TypeError:
        raise NonIntegerEntryError(f"not a sequence of rows: {rows!r}") from None
    if any(e < 1 for r in rows for e in r):
        raise NegativeEntryError(f"tableau entries must be at least 1: {rows}")
    return rows


def is_semistandard(rows, shape=None):
    """True iff rows weakly increase and columns strictly increase.

    If a shape is supplied, row lengths must match it exactly.
    """
    rows = _rows(rows)
    if shape is not None and shape_of(rows) != normalize(shape):
        raise ShapeMismatchError(f"rows {shape_of(rows)} vs shape {tuple(shape)}")
    lengths = shape_of(rows)
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    for r in rows:
        if any(r[c] > r[c + 1] for c in range(len(r) - 1)):
            return False
    for i in range(len(rows) - 1):
        if any(rows[i][c] >= rows[i + 1][c] for c in range(len(rows[i + 1]))):
            return False
    return True


def weight(rows):
    """Composition counting occurrences of each entry, up to the largest."""
    counts = Counter(e for r in _rows(rows) for e in r)
    return tuple(map(counts.__getitem__, range(1, max(counts, default=0) + 1)))


def multi_weight(components):
    """Coordinate-wise sum of the component weights."""
    try:
        return _tilde(list(map(weight, components)))
    except TypeError:
        raise NonIntegerEntryError(f"not a sequence of tableaux: {components!r}") from None


def greedy_tableau(shape, mu):
    """The bottom-up greedy filling of shape by horizontal strips.

    Entries are placed from the largest down: each entry's boxes go on the
    lowest rows first (longest columns first), right to left within a row,
    never directly above a box of the same pass or an unfilled box.  The
    result is semistandard with weight mu whenever shape dominates mu.
    The weight must be a partition: a tableau of a rearranged weight such
    as (1, 3) needs Bender-Knuth moves, not a sort of the weight.
    """
    shape = normalize(shape)
    mu = normalize(mu)
    if sum(shape) != sum(mu):
        raise SizeMismatchError(f"|{shape}| != |{mu}|")
    if not _dominates(shape, mu):
        raise NotDominatedError(f"{shape} does not dominate {mu}")
    rows = [[0] * width for width in shape]
    cur = list(shape)
    for entry in range(len(mu), 0, -1):
        remaining = mu[entry - 1]
        prev = (*cur, 0)
        for i in range(len(cur) - 1, -1, -1):
            free = cur[i] - prev[i + 1]
            take = min(remaining, free)
            for c in range(cur[i] - take, cur[i]):
                rows[i][c] = entry
            cur[i] -= take
            remaining -= take
            if remaining == 0:
                break
    return tuple(tuple(r) for r in rows)


def redistribute_columns(rows, target):
    """Split a tableau's columns into a multitableau of the target shape.

    Columns are processed left to right; each goes to the lowest-indexed
    component still needing a column of that exact length, preserving
    left-to-right order within every component.  Requires the row-wise sum
    of the target to equal the tableau's shape.
    """
    rows = _rows(rows)
    target = normalize_multi(target)
    shape = shape_of(rows)
    if _tilde(target) != shape:
        raise ShapeMismatchError(f"tilde {_tilde(target)} != shape {shape}")
    needed = [Counter(conjugate(comp)) for comp in target]
    assigned = [[] for _ in target]
    width = shape[0] if shape else 0
    for c in range(width):
        col = [rows[i][c] for i in range(len(shape)) if shape[i] > c]
        length = len(col)
        # some component still needs it: the column lengths of a sum of
        # partitions are those of its terms together, (la + mu)' = la' u mu'
        for j, counts in enumerate(needed):
            if counts[length] > 0:
                counts[length] -= 1
                assigned[j].append(col)
                break
    return tuple(
        tuple(tuple(col[i] for col in cols if len(col) > i) for i in range(len(comp)))
        for comp, cols in zip(target, assigned)
    )


def _strips_between(inner, outer, m):
    """Every nu, inner <= nu <= outer (inner zero-padded), nu/inner a horizontal
    m-strip.  Row i can grow by c, to outer[i] and inner[i - 1]; rows with c != 0
    (c < 0 admits none) grow in turn, a prefix kept while the rows below fit the rest."""
    los = list(inner[: len(outer)]) + [0] * (len(outer) - len(inner))
    his = list(map(min, outer, [*outer[:1], *los]))
    rows = [(i, hi - lo) for i, (lo, hi) in enumerate(zip(los, his)) if hi != lo]
    room = sum(his) - sum(los)
    out = [(tuple(los), m)]
    for i, c in rows:
        room -= c
        out = [
            (nu[:i] + (nu[i] + k,) + nu[i + 1 :], r - k)
            for nu, r in out
            for k in range(r - room if r > room else 0, (c if c <= r else r) + 1)
        ]
    return [nu for nu, r in out if not r]


def _chain_to_rows(chain):
    """Rows of the skew tableau whose letter k fills chain[k] / chain[k - 1]."""
    rows = [[] for _ in chain[0]]
    for entry, (inner, nu) in enumerate(pairwise(chain), start=1):
        for row, a, b in zip(rows, inner, nu):
            row += [entry] * (b - a)
    return tuple(map(tuple, rows))


def enumerate_tableaux(shape, w):
    """All semistandard tableaux of the given shape and weight.

    Ordered lexicographically by row-major entry sequence; the list length
    is the Kostka number.
    """
    return [rows for (rows,) in enumerate_multitableaux((shape,), w)]


def enumerate_multitableaux(shapes, w):
    """All semistandard multitableaux of the given shape and total weight.

    The components, placed corner to corner, form one skew shape; each
    letter fills a horizontal strip of it, and the finished tableau is
    cut back into components by their row counts.  Ordered
    lexicographically by the concatenated component entry sequences.
    """
    shapes = normalize_multi(shapes)
    w = composition(w)
    if sum(map(sum, shapes)) != sum(w):
        raise SizeMismatchError(f"|{shapes}| != |{w}|")
    # the last component starts at column 0, each earlier one right of
    # every row below it, so no two components share a row or a column
    inner, outer = (), ()
    for shape in reversed(shapes):
        shift = outer[0] if outer else 0
        inner = (shift,) * len(shape) + inner
        outer = tuple(shift + p for p in shape) + outer
    chains = [(inner,)]
    for m in w:
        # many chains reach the same shape; the cache lives for one letter
        strips = {}
        grown = []
        for chain in chains:
            nu = chain[-1]
            if nu not in strips:
                strips[nu] = tuple(_strips_between(nu, outer, m))
            grown += [chain + (strip,) for strip in strips[nu]]
        chains = grown
    cuts = tuple(pairwise(accumulate(map(len, shapes), initial=0)))
    results = [tuple(rows[a:b] for a, b in cuts) for rows in map(_chain_to_rows, chains)]
    results.sort(key=lambda mt: tuple(e for rows in mt for r in rows for e in r))
    return results
