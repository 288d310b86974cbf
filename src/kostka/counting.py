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

The counts are symmetric in the components as well, and an empty one
changes nothing, so the engine has one state: the sorted tuple of the
nonempty entries, each (orbit size, *rows) packed into one int of
fixed-width fields, the orbit size in field 0 and row i in field i, at bit
i * width.  An entry is empty iff it is below 1 << width.  `_count` builds
the state from the callers' (orbit size, shape) pairs, and a strip step
drops the entries it empties and sorts the rest, so states equal up to
order share a memo entry.  Six copies of (2, 1) on 1^18 reach 210 states;
keyed by the components in their given order they reached 15 625.
Fields are 64 bits wide when every orbit size and part is below 2^64, so
all such calls share memo entries; any other input takes the least
multiple of 64 bits that holds its largest value, and the width is part
of every memo key, so states of different widths never share one.

`_pack` memoizes each pair's int in an LRU of 512 entries.  `table` asks
35 569 times for 379 kinds of (size, shape, width), `deep` 2 745 times for
90, and 512 entries keep every repeat of both (128 keep 35 136 of
`table`'s 35 190); a `cli` process asks at most 216 times.  Packing every
pair on every call made `table` wall_s 7.7 % higher (10/10 alternating
pairs, seed 7, 2-core VM).

The strip step of one letter, every state of inner shapes nu^j with each
lambda^j/nu^j a horizontal strip, is memoized across calls in a bounded
LRU of 512 entries.  A table of counts repeats it far more often than it
changes: the benchmark's `table` workload (every single count to n = 13,
r = 2 and 3 counts to n = 7 and 6, a few Theta tables) takes 24 635 strip
steps of 2 813 kinds; 512 entries keep 21 654 of the 21 822 repeats, 256
keep 20 567 and 1024 keep 21 806.  Large distinct calls, as in the `deep`
workload, seldom repeat one (20 607 steps of 17 110 kinds), so there the
bound is a trade: with no memo, `deep` wall_s was 12.6 % lower (5/6
alternating pairs of `bench/run.py --seconds 40`) and `table` wall_s 9.4 %
higher (0/6); unbounded, the memo raised `deep`'s peak memory from 29 to
38 MiB.

A step lays the entries end to end in one int and subtracts one packed
removal vector from it: each row gives up at most its drop, so no field
borrows, and an entry's orbit size is a field that gives up nothing.  The
drops lambda_i - lambda_{i+1} are the fields of one subtraction, the
entry shifted down one field minus the entry shifted down two.  The
vectors are the `partitions.bounded_compositions` of m, each row weighted
by its orbit size and capped by its drop, cut at m // size, packed as the
entries are.  They depend on nothing else, so `_removals` shares them
across shapes, entries and calls: `deep` asks 20 168 times for 560
kinds, `table` 2 981 times for 1 831 kinds, and 2048 entries keep every
repeat of both.  Packing a vector costs about 1 us, paid once per kind.

A state of one entry, as every state of a single count is, needs no cut
and no sort: each child is one subtraction e - d, emitted as (e - d,) or
as () when the entry empties, and hashed as one int at every memo lookup.
The drops are read by a plain loop: a comprehension over the fields took
twice as long on Python 3.11.  The garbage collector tracks tuples but
not ints, so a packed entry is no object for it to scan.

The multiplicity-one predicates never count: they run a single
left-to-right scan that either produces a block certificate or reports
failure, so they stay fast even for partitions with thousands of parts.
Each single-partition predicate is the one-component case of its
multipartition twin.
"""

from functools import lru_cache
from operator import lshift

from .errors import SizeMismatchError
from .partitions import (
    _dominates,
    _tilde,
    bounded_compositions,
    integers,
    normalize_multi,
    sorted_weight,
)


@lru_cache(maxsize=None)
def _strip_count(entries, runs, width):
    """Fillings of the packed entries (orbit size, *rows), fields of width
    bits, a letter in an entry counting its orbit size times, of the
    partition weight whose runs are (part, count, part, count, ...), e.g.
    (2, 1, 1, 3) for (2, 1, 1, 1).  The last letter, of multiplicity
    runs[-2], fills one strip in every entry; the rest of the weight is the
    runs with the last count lowered by one."""
    if not runs:
        return 0 if entries else 1
    m, c = runs[-2:]
    rest = runs[:-1] + (c - 1,) if c > 1 else runs[:-2]
    total = 0
    for inner in _strips(entries, m, width):
        total += _strip_count(inner, rest, width)
    return total


def _inner_multi(entries, m, width):
    """Every inner state (s_j, *nu^j), each lambda^j/nu^j a horizontal
    k_j-strip and the sum of s_j * k_j = m >= 1, once per choice of the
    nu^j, so equal entries repeat states: the entries laid end to end in
    one int, minus a `_removals` vector, cut back into entries, the emptied
    ones (below 1 << width) dropped and the rest sorted.  Row i of an entry
    gives up at most its drop lambda_i - lambda_{i+1} and m // s boxes, so
    no field borrows and only an entry's last row can empty; its orbit size
    is a field that gives up none.  The drops are the fields of the entry
    shifted by one field minus the entry shifted by two.  A one-entry state
    needs no cut and no sort: each child is one subtraction."""
    low, mask = 1 << width, (1 << width) - 1
    weights, caps, cuts, flat = [], [], [], 0
    for e in entries:
        s, first, drops = e & mask, len(caps), (e >> width) - (e >> 2 * width)
        t = m // s
        caps.append(0)
        while drops:
            c = drops & mask
            caps.append(c if c < t else t)
            drops >>= width
        weights += (s,) * (len(caps) - first)
        cuts.append((first * width, (1 << (len(caps) - first) * width) - 1))
        flat |= e << first * width
    out, vectors = [], _removals(m, tuple(weights), tuple(caps), width)
    if len(entries) == 1:
        for d in vectors:
            nu = flat - d
            out.append((nu,) if nu >= low else ())
        return tuple(out)
    for d in vectors:
        nu, nus = flat - d, []
        for a, b in cuts:
            x = nu >> a & b
            if x >= low:
                nus.append(x)
        nus.sort()
        out.append(tuple(nus))
    return tuple(out)


_strips = lru_cache(maxsize=512)(_inner_multi)  # the strip step; bounds in the docstring


@lru_cache(maxsize=2048)
def _removals(m, weights, caps, width):
    """Every d, 0 <= d[i] <= caps[i], with the sum of weights[i] * d[i] = m,
    each packed into one int."""
    return tuple([_packed(d, width) for d in bounded_compositions(m, caps, weights)])


@lru_cache(maxsize=512)
def _pack(size, shape, width):
    """The entry (size, *shape) packed into one int, or 0 when its orbit
    size or first part needs more than width bits."""
    return 0 if (size | shape[0]) >> width else _packed((size, *shape), width)


def _packed(fields, width):
    """The fields as one int, field i at bit i * width."""
    return sum(map(lshift, fields, range(0, len(fields) * width, width)))


def _count(entries, w):
    """The one way into the engine: (orbit size, shape) entries, partition w.

    The count is symmetric in the entries, so the state is the sorted tuple
    of the nonempty ones, each packed into one int: every order of the same
    entries, and every empty one added, share cache states.  Fields are 64
    bits wide when every orbit size and part fits, else the least multiple
    of 64 that holds the largest; the width is part of every memo key.
    """
    runs, last = [], None
    for m in w:
        if m == last:
            runs[-1] += 1
        else:
            runs += (m, 1)
            last = m
    width = 64
    while 0 in (packed := [_pack(s, lam, width) for s, lam in entries if lam]):
        width += 64
    return _strip_count(tuple(sorted(packed)), tuple(runs), width)


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
    if shapes and max(map(len, shapes)) > l:
        return None
    indices = []
    start = balance = 0
    drop = prev = None  # the row where the block dropped, and the row before this one
    for i, row in enumerate(zip(*[c + (0,) * (l - len(c)) for c in shapes])):
        if i > start and row != prev:
            if drop is not None or sum(a != b for a, b in zip(row, prev)) > 1:
                return None
            drop = i
        balance += sum(row) - mu[i]
        if balance < 0 or balance and drop == i > start + 1:  # a late drop closes its block
            return None
        if balance == 0:
            indices.append(i + 1)
            start, drop = i + 1, None
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
        return indices == () and not any(shapes)
    if not indices or indices != tuple(sorted(set(indices))) or indices[0] < 1 or indices[-1] != l:
        return False
    if not shapes or max(map(len, shapes)) > l:
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
