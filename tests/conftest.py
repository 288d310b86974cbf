"""Shared fixtures."""

import pytest

from kostka.partitions import multipartitions_of, partitions_of
from kostka.tableaux import enumerate_multitableaux


@pytest.fixture(scope="session")
def multitableau_grid():
    """(shape, mu, every multitableau of that shape and weight) for every
    r-component multipartition of n with r <= 3, n <= 6, and every weight
    mu partitioning n: the brute-force enumeration is built once."""
    return [
        (shape, mu, enumerate_multitableaux(shape, mu))
        for n in range(0, 7)
        for r in (1, 2, 3)
        for shape in multipartitions_of(n, r)
        for mu in partitions_of(n)
    ]
