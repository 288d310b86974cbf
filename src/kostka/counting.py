"""Kostka numbers and the fast positivity / multiplicity-one predicates.

Single, multipartition and orbit-weighted (Theta) counts share one
memoized recursion with exact Python integers: the last letter of the
weight fills one horizontal strip in every component, the strip sizes
times the orbit sizes summing to its multiplicity.  The counts are
symmetric in the weight, so it is sorted to a partition first and the
memo is keyed by its runs (part, count, part, count, ...): removing a
letter changes only the last run, so a letter costs constant key work.
The recursion takes one Python frame per letter, so at the default
recursion limit of 1000 a weight of more than about 495 letters raises
RecursionError.

The strip step of one letter, every tuple of shapes nu^j with each
shapes[j]/nu^j a horizontal strip, is memoized across calls in a bounded
LRU of 512 entries.  A table of counts repeats it far more often than it
changes: the benchmark's `table` workload (every single count to n = 13,
r = 2 and 3 counts to n = 7 and 6, a few Theta tables) takes 25 485 strip
steps of 3 262 kinds; 512 entries keep 22 032 of the 22 223 repeats, 256
keep 20 929 and 1024 keep 22 192.  Large distinct calls, as in the `deep`
workload, almost never repeat one, and every entry they add is memory the
garbage collector scans: unbounded, the memo raised `deep`'s peak memory
from 28 to 37 MiB, and 1024 entries made it about 15 % slower, 512 entries
within its noise.

The multiplicity-one predicates never count: they run a single
left-to-right scan that either produces a block certificate or reports
failure, so they stay fast even for partitions with thousands of parts.
Each single-partition predicate is the one-component case of its
multipartition twin.
"""

from functools import lru_cache

from .errors import SizeMismatchError
from .partitions import (
    _dominates,
    _tilde,
    integers,
    normalize_multi,
    sorted_weight,
)


@lru_cache(maxsize=None)
def _strip_count(sizes, shapes, runs):
    """Fillings of the shapes, a letter in shapes[j] counting sizes[j]
    times, of the partition weight whose runs are (part, count, part,
    count, ...), e.g. (2, 1, 1, 3) for (2, 1, 1, 1).  The last letter, of
    multiplicity runs[-2], fills one strip in every component; the rest of
    the weight is the runs with the last count lowered by one."""
    if not runs:
        return 0 if any(shapes) else 1
    m, c = runs[-2:]
    rest = runs[:-1] + (c - 1,) if c > 1 else runs[:-2]
    total = 0
    for inner in _strips(sizes, shapes, m):
        total += _strip_count(sizes, inner, rest)
    return total


def _inner_multi(sizes, shapes, m):
    """Every tuple of nu^j, shapes[j]/nu^j a horizontal k_j-strip, with the
    sum of sizes[j] * k_j equal to m.  A strip has at most one box per
    column, so k_j is at most the first part; the last shape takes what the
    others leave.  Returns a tuple, since `_strips` shares it between
    calls."""
    s, shape = sizes[0], shapes[0]
    top = min(shape[0] if shape else 0, m // s)
    if len(shapes) == 1:
        return tuple([(nu,) for nu in _inner_shapes(shape, top)]) if m == s * top else ()
    out = []
    for k in range(top + 1):
        rests = _inner_multi(sizes[1:], shapes[1:], m - s * k)
        if rests:
            out += [(nu,) + rest for nu in _inner_shapes(shape, k) for rest in rests]
    return tuple(out)


# The strip step of `_strip_count`, shared across calls (see the module
# docstring for the bound).  Only this top-level call is cached: caching the
# recursion over components would add a C frame per component.
_strips = lru_cache(maxsize=512)(_inner_multi)


def _inner_shapes(shape, m):
    """All nu with shape/nu a horizontal m-strip: row i keeps between
    shape[i + 1] and shape[i] boxes, so only the last row can empty.  The
    rows below can give at most lo = shape[i + 1] boxes, so with r still to
    remove row i keeps at most hi - r + lo, and no prefix is built that
    cannot be completed.  The bounds min(hi, hi - r + lo) and max(lo, hi - r)
    are written as conditionals, which cost less than calls."""
    out = [((), m)]
    for hi, lo in zip(shape, shape[1:] + (0,)):
        out = [
            (nu + (v,), r - hi + v)
            for nu, r in out
            for v in range(
                hi if r <= lo else hi - r + lo,
                (lo if r >= hi - lo else hi - r) - 1,
                -1,
            )
        ]
    return [nu[:-1] if nu and not nu[-1] else nu for nu, r in out if r == 0]


def _count(entries, w):
    """The one way into the engine: (orbit size, shape) entries, partition w.

    The count is symmetric in the entries, so empty shapes are dropped and
    the rest sorted: every order of the same entries shares cache states.
    """
    sizes, shapes = tuple(zip(*sorted(e for e in entries if e[1]))) or ((), ())
    runs = []
    for m in w:
        if runs and runs[-2] == m:
            runs[-1] += 1
        else:
            runs += (m, 1)
    return _strip_count(sizes, shapes, tuple(runs))


def _checked(shapes, w):
    """Normalized shapes, and the weight sorted to a partition of their size."""
    shapes = normalize_multi(shapes)
    w = sorted_weight(w)
    if sum(map(sum, shapes)) != sum(w):
        raise SizeMismatchError(f"|{shapes}| != |{w}|")
    return shapes, w


def kostka(shape, w):
    """Number of semistandard tableaux of the given shape and weight."""
    return kostka_multi((shape,), w)


def kostka_multi(shapes, w):
    """Number of semistandard multitableaux of the given shape and weight.

    Each letter fills one horizontal strip in every component, the strip
    sizes summing to its multiplicity in w.  The count does not change
    when w is rearranged (Bender-Knuth), so w is sorted first.
    """
    shapes, w = _checked(shapes, w)
    return _count([(1, c) for c in shapes], w)


def is_positive(shapes, mu):
    """Whether any multitableau of the given shape and weight exists.

    Decided without counting: positivity holds iff the row-wise component
    sum dominates the weight.
    """
    shapes, mu = _checked(shapes, mu)
    return _dominates(_tilde(shapes), mu)


def is_multiplicity_one(shape, weight):
    """Index certificate iff exactly one tableau of this shape/weight exists.

    The one-component case of `is_multiplicity_one_multi`.
    """
    return is_multiplicity_one_multi((shape,), weight)


def is_multiplicity_one_multi(shapes, weight):
    """Index certificate iff exactly one multitableau exists.

    Greedy scan over the rows (the parts of every component at one index):
    grow the current block one row at a time, keeping the running
    dominance of the block, and cut it as soon as its shape and weight
    sizes balance.  Within a block all components must be rectangles
    except one, which may drop once: either right after the first row, or
    at the row that closes the block.  So consecutive rows of a block
    differ at most once, in one component.  Returns the tuple of cut
    indices (1-based, ending at the weight length), or None when the count
    differs from one.
    """
    shapes, mu = _checked(shapes, weight)
    l = len(mu)
    if max(map(len, shapes), default=0) > l:
        return None
    indices = []
    start = balance = 0
    first = prev = None  # the block's first row, and the row before this one
    closing = False  # the block dropped late, so that row must close it
    for i, row in enumerate(zip(*[c + (0,) * (l - len(c)) for c in shapes])):
        if i == start:
            first = row
        elif row != prev:
            if closing or first != prev:
                return None
            if sum(a != b for a, b in zip(row, prev)) > 1:
                return None
            closing = i > start + 1
        elif closing:
            return None
        balance += sum(row) - mu[i]
        if balance < 0:
            return None
        if balance == 0:
            indices.append(i + 1)
            start = i + 1
            closing = False
        prev = row
    return tuple(indices)


def _block_shape_ok(component_blocks):
    """Condition (2) on a block: every component a rectangle, except at
    most one that is a rectangle with its first part longer or its last
    part shorter.  Components are weakly decreasing, so each of these is
    decided by comparing two parts."""
    irregular = 0
    for parts in component_blocks:
        if parts[0] == parts[-1]:
            continue
        if parts[1] != parts[-1] and parts[0] != parts[-2]:
            return False
        irregular += 1
    return irregular <= 1


def verify_certificate(shape, mu, indices):
    """Re-check a single-partition certificate: the one-component case."""
    return verify_certificate_multi((shape,), mu, indices)


def verify_certificate_multi(shapes, mu, indices):
    """Re-check a multipartition certificate block by block.

    Deliberately independent of the scan: slices the blocks out and tests
    the dominance and shape conditions directly against their definitions.
    Indices must be integers; out-of-range ones make the check fail.
    """
    shapes = normalize_multi(shapes)
    mu = sorted_weight(mu)
    indices = integers(indices)
    l = len(mu)
    if l == 0:
        return indices == () and all(c == () for c in shapes)
    if list(indices) != sorted(set(indices)) or indices[0] < 1 or indices[-1] != l:
        return False
    if not shapes or any(len(c) > l for c in shapes):
        return False
    padded = [c + (0,) * (l - len(c)) for c in shapes]
    row_sums = list(map(sum, zip(*padded)))
    prev = 0
    for cut in indices:
        block, letters = row_sums[prev:cut], mu[prev:cut]
        if sum(block) != sum(letters) or not _dominates(block, letters):
            return False
        # a one-row block is a rectangle in every component
        if cut - prev > 1 and not _block_shape_ok([p[prev:cut] for p in padded]):
            return False
        prev = cut
    return True


def unique_weight(shape):
    """True iff the shape itself is the only weight giving a unique tableau.

    The one-component case of `unique_weight_multi`: consecutive parts
    (and the last part against zero) differ by at most one.
    """
    return unique_weight_multi((shape,))


def unique_weight_multi(shapes):
    """True iff the row-wise component sum is the only unique-count weight.

    At every row boundary either the summed drop is at most one, or at
    least two components drop there.
    """
    shapes = normalize_multi(shapes)
    depth = max(map(len, shapes), default=0) + 1
    rows = list(zip(*[c + (0,) * (depth - len(c)) for c in shapes]))
    for upper, lower in zip(rows, rows[1:]):
        if sum(upper) - sum(lower) > 1 and sum(a > b for a, b in zip(upper, lower)) < 2:
            return False
    return True
