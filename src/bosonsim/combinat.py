"""Permutation combinatorics for interference bookkeeping.

Permutations are word-form tuples over 0-based positions: ``perm[i]`` is the
image of position ``i``.  The central objects are the classes of permutations
with a prescribed number of moved (non-fixed) points, their exact counts
(rencontres numbers), and elementary symmetric means of visibility vectors.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "identity",
    "rencontres",
    "partial_derangements",
    "SymmetricMeans",
    "symmetric_means",
    "overlap_class_sum",
]


def identity(n: int) -> tuple[int, ...]:
    """The identity permutation of n points.

    >>> identity(3)
    (0, 1, 2)
    """
    return tuple(range(n))


def _subfactorial(j: int) -> int:
    """Number of derangements of j points, exact integer."""
    if j == 0:
        return 1
    if j == 1:
        return 0
    prev2, prev1 = 1, 0
    for i in range(2, j + 1):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    return prev1


def rencontres(n: int, fixed: int) -> int:
    """Count permutations of n points with exactly ``fixed`` fixed points.

    Exact integer arithmetic for any n: choose the fixed points, then
    derange the remaining ``n - fixed``.

    >>> rencontres(4, 0)
    9
    >>> rencontres(5, 4)
    0
    """
    if n < 0 or fixed < 0 or fixed > n:
        raise ValueError(f"need 0 <= fixed <= n, got n={n}, fixed={fixed}")
    return math.comb(n, fixed) * _subfactorial(n - fixed)


def _derangements_of(points: tuple[int, ...]):
    """Yield permutations of ``points`` in which no entry keeps its slot."""
    for candidate in itertools.permutations(points):
        if all(image != original for image, original in zip(candidate, points)):
            yield candidate


def partial_derangements(n: int, moved: int):
    """Yield every permutation of n points that moves exactly ``moved`` of them.

    The class is enumerated as (choose the moved points) x (derangements of
    the moved points), never by filtering the full symmetric group.  No
    permutation can move exactly one point, so ``moved=1`` yields nothing.
    The total count equals ``rencontres(n, n - moved)``.

    >>> sorted(partial_derangements(3, 3))
    [(1, 2, 0), (2, 0, 1)]
    """
    if not 0 <= moved <= n:
        raise ValueError(f"need 0 <= moved <= n, got n={n}, moved={moved}")
    if moved == 0:
        yield identity(n)
        return
    if moved == 1:
        return
    for support in itertools.combinations(range(n), moved):
        for images in _derangements_of(support):
            word = list(range(n))
            for src, dst in zip(support, images):
                word[src] = dst
            yield tuple(word)


@dataclass(frozen=True)
class SymmetricMeans:
    """Elementary symmetric means of a vector of values in [0, 1].

    ``means[j]`` is the elementary symmetric polynomial of order j divided by
    C(n, j).  ``means[0]`` is always 1, and for non-negative inputs the chain
    means[1] >= means[2]**(1/2) >= means[3]**(1/3) >= ... holds.
    """

    values: np.ndarray
    means: np.ndarray


def symmetric_means(values) -> SymmetricMeans:
    """Compute all elementary symmetric means of ``values``.

    Uses the stable product recursion over the coefficients of
    prod_i (1 + t * v_i); every accumulation is a sum of non-negative
    products, so no cancellation occurs.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-d vector")
    if not np.all((0.0 <= v) & (v <= 1.0)):
        raise ValueError("values must lie in [0, 1]")
    n = v.size
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    for entry in v:
        coeffs[1:] = coeffs[1:] + entry * coeffs[:-1]
    binomials = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    return SymmetricMeans(values=v, means=coeffs / binomials)


def overlap_class_sum(x, moved: int) -> float:
    """Total squared-overlap weight of all permutations moving exactly ``moved`` points.

    For a per-photon visibility vector ``x`` (entries in [0, 1]) this equals
    rencontres(n, n - moved) times the order-``moved`` symmetric mean of the
    squared visibilities, which matches the direct sum over the permutation
    class of the products of squared pairwise overlaps.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("x must be a non-empty 1-d vector")
    if not np.all((0.0 <= v) & (v <= 1.0)):
        raise ValueError("visibilities must lie in [0, 1]")
    n = v.size
    if not 0 <= moved <= n:
        raise ValueError(f"need 0 <= moved <= n, got {moved}")
    if moved == 0:
        return 1.0
    if moved == 1:
        return 0.0
    means = symmetric_means(v * v).means
    return float(rencontres(n, n - moved) * means[moved])
