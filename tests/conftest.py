"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's own kernels: the permanent
oracles sum the full symmetric group with numpy products or use Glynn's
formula, class sums are built by filtering itertools.permutations, and
distances are computed directly from definitions.
"""
from __future__ import annotations

import itertools

import numpy as np


def brute_permanent(matrix) -> complex:
    """Permanent by explicit sum over all permutations."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    rows = np.arange(n)
    return complex(sum(np.prod(a[rows, perm]) for perm in itertools.permutations(range(n))))


def glynn_permanent(matrix) -> complex:
    """Permanent by Glynn's formula, an oracle independent of the library's Ryser kernel.

    perm(A) = 2^-(n-1) * sum over signings d in {+1, -1}^n with d_0 = +1 of
    prod(d) * prod_j (sum_i d_i A_ij); Glynn, "The permanent of a square
    matrix", Eur. J. Combin. 31 (2010).
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    total = 0.0 + 0.0j
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        delta = np.array((1.0,) + signs)
        total += np.prod(delta) * np.prod(delta @ a)
    return complex(total / 2 ** (n - 1))


def inverse_permutation(perm) -> tuple[int, ...]:
    """Inverse of a word-form permutation: position perm[i] maps back to i."""
    return tuple(int(i) for i in np.argsort(perm))


def perms_with_moved_count(n: int, moved: int) -> list[tuple[int, ...]]:
    """All permutations moving exactly ``moved`` points, by filtering S_n."""
    out = []
    for perm in itertools.permutations(range(n)):
        if sum(1 for i in range(n) if perm[i] != i) == moved:
            out.append(perm)
    return out


def partitions(n: int, largest: int | None = None):
    """Integer partitions of n, as non-increasing tuples (cycle types)."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for head in range(min(n, largest), 0, -1):
        for rest in partitions(n - head, head):
            yield (head,) + rest


def perm_from_cycle_lengths(rng: np.random.Generator, n: int, lengths) -> tuple[int, ...]:
    """Random permutation of n points with the given cycle-length multiset."""
    assert sum(lengths) == n
    points = list(rng.permutation(n))
    word = list(range(n))
    start = 0
    for length in lengths:
        cycle = points[start : start + length]
        for pos, point in enumerate(cycle):
            word[point] = cycle[(pos + 1) % length]
        start += length
    return tuple(word)


def tv_distance(p, q) -> float:
    """Total-variation distance between two distributions on the same support."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())
