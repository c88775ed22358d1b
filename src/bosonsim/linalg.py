"""The permanent kernel and the block expansion used by the truncated evaluator.

Every permanent goes through one exact, double-precision, deterministic
kernel, ``permanent`` (Ryser's formula in Gray-code order).  The block
expansion splits the permanent of a Hadamard product into small complex
permanents times larger non-negative ones.
"""
from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "permanent",
    "hadamard_permanent",
    "laplace_split_permanent",
    "submatrix",
]


def permanent(matrix) -> complex:
    """Permanent of a square matrix by Ryser's formula, O(2^n * n).

    Sums, over the non-empty column subsets S, (-1)^(n - |S|) times the
    product of the row sums restricted to S.  The subsets are visited in
    Gray-code order, which flips one column per step.  The empty 0x0
    matrix has permanent 1 (empty-product convention).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    popcount = 0
    for s in range(1, 1 << n):
        col = (s & -s).bit_length() - 1
        gray = s ^ (s >> 1)
        if (gray >> col) & 1:
            row_sums += a[:, col]
            popcount += 1
        else:
            row_sums -= a[:, col]
            popcount -= 1
        term = np.prod(row_sums)
        if (n - popcount) % 2:
            total -= term
        else:
            total += term
    return complex(total)


def hadamard_permanent(matrix, perm) -> complex:
    """Permanent of ``matrix * conj(matrix[perm, :])`` (entrywise product).

    With the identity permutation this is the permanent of the squared
    moduli, a non-negative real; permuting by the inverse conjugates the
    result.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    word = np.asarray(perm, dtype=int)
    if word.shape != (a.shape[0],):
        raise ValueError("permutation length must match the matrix size")
    return permanent(a * np.conj(a[word, :]))


def laplace_split_permanent(matrix, perm) -> complex:
    """Evaluate ``hadamard_permanent`` by expanding about the moved rows.

    The rows moved by ``perm`` (say j of them) are expanded over all C(n, j)
    column subsets; each term is the product of a j x j complex permanent and
    an (n-j) x (n-j) permanent of squared moduli, which is non-negative.
    Cost is C(n, j) * (2^j * j + 2^(n-j) * (n-j)) kernel operations per call,
    so a truncation capping j keeps the complex blocks small.  Subsets are
    visited in lexicographic order for a reproducible summation order.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    word = np.asarray(perm, dtype=int)
    n = a.shape[0]
    if word.shape != (n,):
        raise ValueError("permutation length must match the matrix size")
    moved = [i for i in range(n) if word[i] != i]
    fixed = [i for i in range(n) if word[i] == i]
    j = len(moved)
    product = a * np.conj(a[word, :])
    nonneg = np.abs(a[fixed, :]) ** 2
    moved_rows = product[moved, :]
    total = 0.0 + 0.0j
    all_cols = frozenset(range(n))
    for cols in itertools.combinations(range(n), j):
        rest = sorted(all_cols.difference(cols))
        small = permanent(moved_rows[:, cols])
        large = permanent(nonneg[:, rest])
        total += small * large
    return complex(total)


def submatrix(matrix, input_modes, output_modes) -> np.ndarray:
    """Select rows ``input_modes`` and columns ``output_modes``.

    Repeated indices are allowed; occupied modes duplicate rows/columns
    according to the mode-assignment lists of the input and output states.
    """
    a = np.asarray(matrix)
    rows = np.asarray(input_modes, dtype=int)
    cols = np.asarray(output_modes, dtype=int)
    for name, idx, limit in (("input", rows, a.shape[0]), ("output", cols, a.shape[1])):
        if idx.size and (idx.min() < 0 or idx.max() >= limit):
            raise ValueError(f"{name} mode index out of range [0, {limit})")
    return a[np.ix_(rows, cols)]
