"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's own kernels: the permanent
oracles sum the full symmetric group with numpy products, use Ryser's
formula over explicit 0/1 column subsets (the library's kernel is Glynn's
formula), spell Glynn's formula out one signing at a time, or run Ryser's
formula over exact Python integers; class sums are built by filtering
itertools.permutations, the probability sums take every permutation
without pairing it with its inverse, and distances are computed directly
from definitions.  ``class_words`` lists a whole class from the library's
generator, whose counts ``tests/test_combinat.py`` checks.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bosonsim.combinat import partial_derangements


def brute_permanent(matrix) -> complex:
    """Permanent by explicit sum over all permutations."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    rows = np.arange(n)
    return complex(sum(np.prod(a[rows, perm]) for perm in itertools.permutations(range(n))))


def ryser_permanent(matrix) -> complex:
    """Permanent by Ryser's formula, an oracle independent of the library's Glynn kernel.

    perm(A) = sum over the non-empty column subsets S of (-1)^(n - |S|) times
    prod_i (sum_{j in S} A_ij), with the subsets as an explicit 0/1 table;
    Ryser, "Combinatorial Mathematics" (1963).
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    bits = (np.arange(1, 1 << n) >> np.arange(n)[:, None]) & 1
    signs = (-1.0) ** (n - bits.sum(axis=0))
    return complex((a @ bits).prod(axis=0) @ signs)


def exact_permanent(matrix) -> complex:
    """The exact permanent of a float (or complex) matrix, rounded once to the nearest complex double.

    Every double is an integer over a power of two, so scaling by the largest
    denominator makes the entries integers, and Ryser's formula in Gray-code
    order (one column added or removed per subset) sums them exactly in Python
    integers, a complex entry as a pair of them.  Standard library only; a
    real n = 14 matrix takes about 0.07 s, a complex n = 12 one about 0.06 s.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    ratios = [[(float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio()) for z in col] for col in a.T]
    scale = max((den for col in ratios for pair in col for _, den in pair), default=1)
    cols_re = [[num * (scale // den) for (num, den), _ in col] for col in ratios]
    cols_im = [[num * (scale // den) for _, (num, den) in col] for col in ratios]
    real = not any(map(any, cols_im))
    sums_re, sums_im = [0] * n, [0] * n
    total_re, total_im = int(n == 0), 0
    for k in range(1, 1 << n):
        col, gray = (k & -k).bit_length() - 1, k ^ (k >> 1)
        sign = 1 if gray >> col & 1 else -1  # the column entered or left the subset
        sums_re = [s + sign * c for s, c in zip(sums_re, cols_re[col])]
        if real:
            term_re, term_im = math.prod(sums_re), 0
        else:
            sums_im = [s + sign * c for s, c in zip(sums_im, cols_im[col])]
            term_re, term_im = 1, 0
            for s_re, s_im in zip(sums_re, sums_im):
                term_re, term_im = term_re * s_re - term_im * s_im, term_re * s_im + term_im * s_re
        if (n - bin(gray).count("1")) % 2:
            term_re, term_im = -term_re, -term_im
        total_re += term_re
        total_im += term_im
    return complex(float(Fraction(total_re, scale**n)), float(Fraction(total_im, scale**n)))


def glynn_permanent(matrix) -> complex:
    """Permanent by Glynn's formula, one signing at a time in a Python loop.

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


def group_sum_by_order(matrix, overlaps) -> tuple[np.ndarray, float]:
    """Orders 0..n of the sum over all n! permutations sigma of w(sigma) perm(M * conj(M[sigma, :])), and the
    summed |terms|, without the occupation normalization.

    One weight w(sigma) = prod_i S[i, sigma(i)] and one ``ryser_permanent`` per sigma: sigma is never paired
    with its inverse, so this checks the library's sums, which evaluate one permanent per pair.
    """
    a, s = np.asarray(matrix, dtype=complex), np.asarray(overlaps, dtype=complex)
    n = a.shape[0]
    rows = np.arange(n)
    orders, magnitude = np.zeros(n + 1, dtype=complex), 0.0
    for sigma in itertools.permutations(range(n)):
        term = np.prod(s[rows, sigma]) * ryser_permanent(a * np.conj(a[list(sigma), :]))
        orders[np.count_nonzero(rows != sigma)] += term
        magnitude += abs(term)
    return orders, magnitude


def inverse_permutation(perm) -> tuple[int, ...]:
    """Inverse of a word-form permutation: position perm[i] maps back to i."""
    return tuple(int(i) for i in np.argsort(perm))


def class_words(n: int, moved: int) -> np.ndarray:
    """Every permutation of n points moving exactly ``moved``, one per row, in ``partial_derangements`` order."""
    return np.array(list(partial_derangements(n, moved)), dtype=int).reshape(-1, n)


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
