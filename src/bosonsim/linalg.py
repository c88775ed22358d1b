"""The permanent kernel and the sub-block permanents of the split expansions.

Every permanent goes through one exact, double-precision, deterministic
kernel: Ryser's formula evaluated with numpy over all column subsets at
once.  A cached 0/1 table ``bits`` of shape (n, 2^n - 1) marks which columns
each non-empty subset holds, so ``a @ bits`` gives every subset's row sums
in one product, and a sign vector (-1)^(n - |S|) closes the sum.  The kernel
takes a stack of matrices and works through it in chunks, over the stack and
over the subsets, so that no intermediate holds more than 2^14 complex
entries.  The public functions accept stacks (with a 2-d permutation array,
one Hadamard permanent per matrix and row).  The Laplace split here and the
mixture engine in ``probability`` both sum small complex permanents times
larger non-negative ones, read from ``_lattice``, every sub-permanent of
|M|^2 built by row expansion up to n = 12 (on a 2-core host, both lattices
of a 50-matrix n = 5 stack take about 0.6 ms, and of one n = 10 matrix
about 25 ms).  The Laplace split takes its complex j x j blocks from
``_block_permanents`` as one kernel stack, and its non-negative ones from
Ryser blocks instead where those cost less or n exceeds 12; the mixture
takes the small ones from the lattice of M.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "permanent",
    "hadamard_permanent",
    "laplace_split_permanent",
    "submatrix",
]

# Largest intermediate, in complex entries, that the kernel builds at once.
_CHUNK = 1 << 14
# Largest n whose whole subset table is cached (under 2 MB for n = 1..12 together).
_CACHED_N = 12
# Largest offset table, in entries, that the block gather builds at once (2 MB of int64).
_OFFSETS = 1 << 18
# Largest table, in entries, that a lattice gather or a group of Laplace blocks or lattices holds at once.
_TABLE = 1 << 16
# Largest n whose sub-permanent lattice is built: its widest level holds C(n, n // 2)^2 entries per
# matrix, 853,776 (6.8 MB of float64) at n = 12 but 11.8 million (94 MB) at n = 14.
_LATTICE_N = 12


def _subsets(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership table and Ryser signs of the column subsets start..stop-1 (as bit masks)."""
    masks = np.arange(start, stop)
    bits = (masks >> np.arange(n)[:, None]) & 1
    signs = 1.0 - 2.0 * ((n - bits.sum(axis=0)) % 2)
    return bits.astype(complex), signs.astype(complex)


@functools.lru_cache(maxsize=None)
def _subset_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    bits, signs = _subsets(n, 1, 1 << n)
    bits.setflags(write=False)
    signs.setflags(write=False)
    return bits, signs


def _subset_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns start..stop-1 of the table of non-empty subsets (masks start+1..stop)."""
    if n <= _CACHED_N:
        bits, signs = _subset_table(n)
        return bits[:, start:stop], signs[start:stop]
    return _subsets(n, start + 1, stop + 1)


def _ryser(count: int, n: int, block) -> np.ndarray:
    """Permanents of ``count`` finite n x n matrices, without input checks.

    ``block(lo, hi)`` returns matrices lo..hi-1 as a (hi - lo, n, n) complex
    array; it is called once per chunk of the stack, so a caller can build
    the matrices chunk by chunk.
    """
    if n == 0:
        return np.ones(count, dtype=complex)
    subsets = (1 << n) - 1
    width = min(subsets, _CHUNK // n)
    step = max(1, _CHUNK // (n * width))
    out = np.zeros(count, dtype=complex)
    for lo in range(0, count, step):
        rows = block(lo, min(lo + step, count)).reshape(-1, n)
        for start in range(0, subsets, width):
            bits, signs = _subset_chunk(n, start, min(start + width, subsets))
            row_sums = (rows @ bits).reshape(-1, n, bits.shape[1])
            out[lo : lo + step] += row_sums.prod(axis=1) @ signs
    return out


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def permanent(matrix) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix in a stack, by Ryser's formula.

    perm(A) = sum over the non-empty column subsets S of (-1)^(n - |S|)
    times the product over rows of the row sums restricted to S, which is
    O(2^n * n^2) work here (the row sums of all subsets come from one matrix
    product with the subset table).  A (n, n) matrix gives a ``complex``; a
    stack (..., n, n) gives a complex array of shape (...).  The empty 0x0
    matrix has permanent 1 (empty-product convention).  Entries must be
    finite.

    Numerics: the error is roundoff on the subset terms, which can be far
    larger than the permanent they cancel down to.  Against Glynn's formula
    on complex Gaussian matrices (30 per size), |Ryser - Glynn| stayed below
    1e-15 * perm(|A|) for every n = 2..13, while the gap relative to
    |perm(A)| grew from 1e-15 at n = 2..4 to a median of 4e-14 and a worst
    case of 1e-12 at n = 12, and 1e-13 and 3e-11 at n = 13.  Beyond n = 13
    it is not measured.
    """
    a = _finite(_square(matrix))
    n = a.shape[-1]
    count = int(np.prod(a.shape[:-2]))
    flat = a.reshape(count, n, n)
    values = _ryser(count, n, lambda lo, hi: flat[lo:hi])
    return complex(values[0]) if a.ndim == 2 else values.reshape(a.shape[:-2])


def hadamard_permanent(matrix, perm) -> complex | np.ndarray:
    """Permanent of ``matrix * conj(matrix[perm, :])`` (entrywise product).

    ``perm`` is one permutation in word form (length n) or a 2-d array with
    one permutation per row; ``matrix`` is one n x n matrix or a stack
    (..., n, n).  The result has shape (stack shape) + (rows of ``perm``),
    one Hadamard permanent per matrix and permutation, and is a ``complex``
    for one matrix and one permutation.  The product matrices are formed
    chunk by chunk inside the kernel, never all at once.  With the identity
    permutation the value is the permanent of the squared moduli, a
    non-negative real; permuting by the inverse conjugates it.
    """
    a = _square(matrix)
    n = a.shape[-1]
    word = np.asarray(perm, dtype=int)
    if word.ndim not in (1, 2) or word.shape[-1] != n:
        raise ValueError("permutation length must match the matrix size")
    words = word[None] if word.ndim == 1 else word
    one = a if a.ndim == 2 else a[0] if a.shape[:-2] == (1,) else None
    if one is not None:  # one matrix: the products need no per-entry gather of matrices
        values = _ryser(len(words), n, lambda lo, hi: _finite(one * np.conj(one[words[lo:hi], :])))
    else:
        flat = a.reshape(int(np.prod(a.shape[:-2])), n, n)

        def products(lo, hi):
            which, row = np.divmod(np.arange(lo, hi), len(words))
            return _finite(flat[which] * np.conj(flat[which[:, None], words[row]]))

        values = _ryser(len(flat) * len(words), n, products)
    if a.ndim == 2 and word.ndim == 1:
        return complex(values[0])
    return values.reshape(a.shape[:-2] + word.shape[:-1])


@functools.lru_cache(maxsize=64)
def _sets(n: int, s: int) -> np.ndarray:
    """The s-subsets of range(n) in lexicographic order, as a read-only (C(n, s), s) array."""
    sets = np.array(list(itertools.combinations(range(n), s)), dtype=int).reshape(math.comb(n, s), s)
    sets.setflags(write=False)
    return sets


@functools.lru_cache(maxsize=16)
def _lattice_tables(n: int) -> tuple[np.ndarray, list]:
    """The rank of each subset bit mask among the subsets of its size, and per size s = 0..n
    (sets, masks, below, drop): the s-subsets in lexicographic order, their masks, the rank of
    each without its lowest element and drop[i, c], the rank of set c without its i-th element.

    Complements reverse the order: the r-th s-subset's is the (C(n, s) - 1 - r)-th (n - s)-subset.
    """
    rank, levels = np.zeros(1 << n, dtype=int), []
    for s in range(n + 1):
        sets = _sets(n, s)
        masks = (1 << sets).sum(axis=1)
        rank[masks] = np.arange(len(sets))
        levels.append((sets, masks, rank[masks ^ (1 << sets[:, :1]).sum(axis=1)], rank[masks ^ (1 << sets.T)]))
    for table in itertools.chain((rank,), *levels):
        table.setflags(write=False)
    return rank, levels


def _lattice(source: np.ndarray, top: int):
    """Yield levels 0..top of the sub-permanent lattice of each matrix in an (S, n, n) stack.

    Level s is an (R, R, S) array, R = C(n, s): entry [B, C, k] is perm(source[k][B, C]) for the
    s-sets B and C ranked as in ``_lattice_tables``.  Expanding about the lowest row b of B,
    perm(A_{B,C}) = sum over c in C of A_{b,c} perm(A_{B-b, C-c}), costs sum_s C(n, s)^2 s
    multiply-adds per matrix, gathered about ``_TABLE`` entries at a time; entries are not checked.
    """
    count, n = source.shape[0], source.shape[-1]
    levels = _lattice_tables(n)[1]
    entries = source.transpose(1, 2, 0).reshape(n * n, count)
    level = np.ones((1, 1, count), dtype=source.dtype)
    yield level
    for s in range(1, top + 1):
        sets, _, below, drop = levels[s]
        prev, stride = level.reshape(level.shape[0] * level.shape[1], count), level.shape[1]
        level = np.empty((len(sets), len(sets), count), dtype=source.dtype)
        step = max(1, _TABLE // (len(sets) * s * max(count, 1)))
        for lo in range(0, len(sets), step):
            rows = slice(lo, lo + step)
            terms = entries.take(sets[rows, :1] * n + sets.T[:, None], axis=0)  # (s, rows, R, S)
            terms *= prev.take(below[rows, None] * stride + drop[:, None], axis=0)
            terms.sum(axis=0, out=level[rows])
        yield level


def _block_permanents(source: np.ndarray, rows: np.ndarray, cols: np.ndarray, conj_rows: np.ndarray) -> np.ndarray:
    """The (S, R, C) permanents of source[s][rows[r], cols[c]] * conj(source[s][conj_rows[r], cols[c]]).

    Block offsets are built per group of row sets, about ``_OFFSETS`` at a
    time, and each kernel chunk is gathered from them; entries are not checked.
    """
    count, n, j = source.shape[0], source.shape[-1], cols.shape[1]
    flat = source.reshape(-1)

    def permanents(lo, hi):  # a function, so that one group's offsets are freed before the next
        pairs = (hi - lo) * len(cols)
        left, right = ((index[lo:hi, None, :, None] * n + cols[None, :, None, :]).reshape(pairs, j, j)
                       for index in (rows, conj_rows))

        def block(first, last):
            which, pair = np.divmod(np.arange(first, last), pairs)
            base = (which * n * n)[:, None, None]
            return flat[left[pair] + base] * np.conj(flat[right[pair] + base])

        return _ryser(count * pairs, j, block).reshape(count, hi - lo, len(cols))

    group = max(1, _OFFSETS // max(1, len(cols) * j * j))
    # At least one group, so that no row sets give an empty (S, 0, C) table.
    parts = [permanents(lo, min(lo + group, len(rows))) for lo in range(0, max(len(rows), 1), group)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _complement_cost(n: int, sets: dict) -> tuple[int, bool]:
    """Kernel operations for the Laplace complements, and whether the lattice gives them.

    ``sets`` maps each moved count j to its number of fixed-row sets.  Ryser
    blocks cost sets * C(n, j) * 2^(n-j) * (n-j) per count; the lattice of
    |M|^2 costs sum_s C(n, s)^2 * s and is taken up to n = ``_LATTICE_N``
    when it is no dearer.
    """
    ryser = sum(count * math.comb(n, j) * (n - j) << (n - j) for j, count in sets.items())
    lattice = sum(math.comb(n, s) ** 2 * s for s in range(n + 1))
    return (lattice, True) if n <= _LATTICE_N and lattice <= ryser else (ryser, False)


def laplace_split_permanent(matrix, perm) -> complex | np.ndarray:
    """Evaluate ``hadamard_permanent`` by expanding about the moved rows.

    Same arguments and result shapes as ``hadamard_permanent``.  The j moved
    rows are expanded over all C(n, j) column subsets C: each term is the
    j x j complex permanent of the product rows over C times the permanent
    of squared moduli over the fixed rows and the other columns.  Per count
    j the complex blocks (per matrix, permutation and C) are one block
    stack, at (permutations) * C(n, j) * 2^j * j kernel operations per
    matrix, so capping j keeps them small.  The non-negative ones come from
    the cheaper source by ``_complement_cost``: level n - j of the
    ``_lattice`` of |M|^2, built once for every count and keeping only the
    levels read (a full truncation up to n = ``_LATTICE_N``), or Ryser
    blocks, one per fixed-row set and C, in bounded memory at any n (a few
    permutations, or n above ``_LATTICE_N``).  Matrices go in groups of
    about ``_TABLE`` blocks.
    """
    a = _square(matrix)
    n = a.shape[-1]
    word = np.asarray(perm, dtype=int)
    if word.ndim not in (1, 2) or word.shape[-1] != n:
        raise ValueError("permutation length must match the matrix size")
    words = word[None] if word.ndim == 1 else word
    flat = a.reshape(int(np.prod(a.shape[:-2])), n, n)
    moduli = _finite(np.abs(flat) ** 2)  # also bounds every product entry, |x y| <= max(|x|, |y|)^2
    fixed = words == np.arange(n)
    counts = n - fixed.sum(axis=1)
    values = np.zeros((len(flat), len(words)), dtype=complex)
    moved_counts, sizes = np.unique(counts, return_counts=True)
    lattice = _complement_cost(n, {int(j): min(int(t), math.comb(n, j)) for j, t in zip(moved_counts, sizes)})[1]
    reads = set(n - moved_counts)
    group = max(1, _TABLE // max(math.comb(2 * n, n), len(words) * math.comb(n, n // 2)))
    for lo in range(0, len(flat), group):
        block = flat[lo : lo + group]
        levels = _lattice(moduli[lo : lo + group], max(reads, default=0)) if lattice else ()
        held = {s: level for s, level in enumerate(levels) if s in reads}
        for j in moved_counts:
            taus = np.flatnonzero(counts == j)
            # Moved rows first, then fixed rows, each in ascending order.
            moved, kept = np.split(np.argsort(fixed[taus], axis=1, kind="stable"), [j], axis=1)
            conj_rows = np.take_along_axis(words[taus], moved, axis=1)
            # Complement columns: the rest of the c-th j-set is the (C - 1 - c)-th (n - j)-set.
            if lattice:  # rows: the rank of each fixed-row set
                complements = held[n - j][_lattice_tables(n)[0][(1 << kept).sum(axis=1)], ::-1]
            else:  # |M|^2 blocks as M * conj(M), once per distinct fixed-row set
                sets, which = np.unique(kept, axis=0, return_inverse=True)
                complements = _block_permanents(block, sets, _sets(n, n - j)[::-1], sets).real
                complements = complements.transpose(1, 2, 0)[which.reshape(-1)]
            values[lo : lo + group, taus] = np.einsum(
                "btc,tcb->bt", _block_permanents(block, moved, _sets(n, j), conj_rows), complements)
    if a.ndim == 2 and word.ndim == 1:
        return complex(values[0, 0])
    return values.reshape(a.shape[:-2] + word.shape[:-1])


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
