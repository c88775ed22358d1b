"""The permanent kernel and the sub-block permanents of the split expansions.

Every permanent goes through Glynn's formula (Eur. J. Combin. 31 (2010)),
exact, double-precision and deterministic, evaluated with numpy over all
2^(n - 1) column signings at once by one loop, ``_glynn``.  A cached +-1
table ``signs`` (n, 2^(n - 1)), column 0 never flipped, gives every signed
row sum as one product ``a @ signs``, and the weights prod(delta) / 2^(n - 1)
(exact: the scale is a power of two) close the sum.  On a non-negative matrix
such as |M|^2 its terms cancel by up to about (e/2)^n, Ryser's by e^n.  The
public functions accept stacks (with a 2-d permutation array, one Hadamard
permanent per matrix and row).  Only ``_pair_permanents`` has ``_glynn`` pick
rows and forms row-pair products M_ic conj(M_lc), so one matrix's signed
pair sums serve every permutation: every Hadamard permanent, the direct walk
of ``probability`` and both factors of the Laplace split, the j x j blocks
over the moved rows and the complements over the fixed rows' pairs (i, i),
entries |M_ic|^2.  Only ``_subset_sums``, the input of the mixture engine in
``probability``, reads ``_lattice``, every sub-permanent of M and of |M|^2
built by row expansion, with its ranking and its complement order.  Every
loop over a stack, signings, picks, permutations, row sets or lattice rows
goes in passes of as many items as fit one byte budget, ``_BUDGET``.  Each
public call and each walk block is refused over ``_WORK`` before any work,
once, at one price per evaluator: ``_ryser_work`` (n 2^n per permanent,
picked or not, twice the n 2^(n - 1) factors Glynn's formula multiplies),
``_laplace_work`` (the same per block and complement, j 2^j + (n - j)
2^(n - j) per permutation moving j rows and j-set of columns) or
``_lattice_work`` (none above n = 12).
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

# Bytes that one pass of any loop here holds at once, and the largest signing table that is cached (with its
# weights, 917,504 B at n = 13 and 1,966,080 B at n = 14).
_BUDGET = 1 << 20
# Largest n whose sub-permanent lattice is built: its widest level holds C(n, n // 2)^2 entries per matrix,
# 6.8 MB of float64 at n = 12 but 94 MB at n = 14, and the mixture holds all levels (83 MB at n = 13).
_LATTICE_N = 12
# Predicted kernel operations one call may take (a j x j permanent is j 2^j, half a Glynn factor each).  Measured on
# 2 cores, an operation takes 1.6-1.7 ns in ``permanent`` at n = 10 (a 256-matrix stack) and 4.5-5.0 ns at n = 16,
# so the budget is about 14 s and 41 s of it, and 0.85-0.91 ns in the order-2 direct walk at n = 12 to 18, 7.6 s.
_WORK = 1 << 33


def _afford(work: int, what: str, *args) -> None:
    """Raise ValueError, before any work, when ``what.format(*args)`` would take over ``_WORK`` operations."""
    if work > _WORK:
        raise ValueError(f"{what.format(*args)} would take {work:.3g} kernel operations, over the budget of {_WORK:.3g}")


def _ryser_work(n: int, count: int) -> int:
    """Kernel operations of ``count`` n x n permanents, count n 2^n (Ryser's term count, twice Glynn's)."""
    return count * n << n


def _lattice_work(n: int) -> int:
    """Kernel operations of one sub-permanent lattice, sum_s C(n, s)^2 s = n C(2n, n) / 2.

    Raises ValueError, before any work, above n = ``_LATTICE_N``.
    """
    if n > _LATTICE_N:
        raise ValueError(f"the mixture holds every sub-permanent of |M|^2, so it is limited to n <= {_LATTICE_N}")
    return n * math.comb(2 * n, n) // 2


def _laplace_work(n: int, moved) -> int:
    """Kernel operations of the Laplace split of one n x n matrix over ``moved[j]`` permutations moving j rows:
    sum_j moved_j C(n, j) (j 2^j + (n - j) 2^(n - j)), a block and a complement per permutation and column set."""
    return sum(c * math.comb(n, j) * ((j << j) + (n - j << n - j)) for j, c in enumerate(moved))


def _per_pass(item_bytes: int) -> int:
    """How many items, each holding ``item_bytes`` at once, fit one pass of ``_BUDGET`` bytes (at least 1)."""
    return _BUDGET // (item_bytes or 1) or 1


def _signings(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Column signs and Glynn weights of the signings start..stop-1 (column 0 is never flipped)."""
    flips = (np.arange(start, stop) << 1 >> np.arange(n)[:, None]) & 1
    weights = (1.0 - 2.0 * (flips.sum(axis=0) % 2)) / (1 << n - 1)  # prod(delta) / 2^(n - 1), exact
    return (1.0 - 2.0 * flips).astype(complex), weights.astype(complex)


@functools.lru_cache(maxsize=None)
def _signing_table(n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Column signs and weights of all 2^(n - 1) signings of n columns, read-only, or None where
    they (16 (n + 1) 2^(n - 1) bytes) do not fit the budget, above n = 13."""
    if 16 * (n + 1) << n - 1 > _BUDGET:
        return None
    signs, weights = _signings(n, 0, 1 << n - 1)
    signs.setflags(write=False)
    weights.setflags(write=False)
    return signs, weights


def _glynn(count: int, n: int, block, picks: np.ndarray | None = None) -> np.ndarray:
    """Permanents of ``count`` items over n columns by Glynn's formula, without input checks.

    With ``picks=None`` an item is one n x n matrix: ``block(lo, hi)``
    returns items lo..hi-1 as a (hi - lo, n, n) complex array, and the result
    holds one permanent per item.  With a (T, n) integer table ``picks`` an
    item is a table of rows: ``block(lo, hi)`` returns the tables of items
    lo..hi-1 rows first, as a (rows, hi - lo, n) complex array, and the
    (count, T) result holds per item the T permanents of its rows picks[t].
    Each row's signed sums are formed once and serve every permanent that
    picks it, gathered from whole (items, signings) slabs.  The chunks of
    signings are the outer loop, each sliced from the cached table (n <= 13)
    or built once per call, and the passes over the items the inner one, so
    ``block`` builds the items once per chunk and pass (a gather of about
    1/width of the chunk's matrix product) and every item adds its chunks in
    signing order.
    """
    shape = (count,) if picks is None else (count, len(picks))
    if n == 0 or 0 in shape:  # the empty product, or no permanent at all
        return np.ones(shape, dtype=complex)
    signings = 1 << n - 1
    rows = n if picks is None else int(picks.max(initial=0)) + 1
    # A pass holds 16 bytes of signed sums per row, item and signing, counted four times over: passes four
    # times as large ran stacks of small matrices up to 1.5x slower (2 MiB of L2 cache per core).
    width = min(signings, _per_pass(64 * rows))
    step = _per_pass(64 * rows * width)
    table = _signing_table(n)
    out = np.zeros(shape, dtype=complex)
    for start in range(0, signings, width):
        stop = min(start + width, signings)
        signs, weights = (table[0][:, start:stop], table[1][start:stop]) if table else _signings(n, start, stop)
        for lo in range(0, count, step):
            items = block(lo, min(lo + step, count))
            sums = (items.reshape(-1, n) @ signs).reshape(len(items), -1, len(weights))
            if picks is None:
                out[lo : lo + step] += sums.prod(axis=1) @ weights
                continue
            per = _per_pass(32 * sums[0].size)  # per permanent, its product and one gathered factor
            for t in range(0, len(picks), per):
                part = sums.take(picks[t : t + per, 0], axis=0)
                for factor in picks[t : t + per, 1:].T:
                    part *= sums.take(factor, axis=0)
                out[lo : lo + step, t : t + per] += (part @ weights).T
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


def _hadamard_args(matrix, perm) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The (count, n, n) stack of the square ``matrix``, the rows of ``perm`` and the result shape of a Hadamard
    kernel; raises ValueError unless ``perm`` is one word or a 2-d table of words, each a permutation of range(n)."""
    a = _square(matrix)
    n = a.shape[-1]
    word = np.asarray(perm, dtype=int)
    if word.ndim not in (1, 2) or word.shape[-1] != n:
        raise ValueError("permutation length must match the matrix size")
    words = word[None] if word.ndim == 1 else word
    # Rows sort to the identity; the bytes compare skips a reduction, which costs more than the sort on one word.
    if np.sort(words, axis=1).tobytes() != np.arange(n, dtype=int).tobytes() * len(words):
        raise ValueError(f"every row of perm must be a permutation of range({n})")
    return a.reshape(math.prod(a.shape[:-2]), n, n), words, a.shape[:-2] + word.shape[:-1]


def _side_by_side(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (count, n, n) stack as one (n, count n) block, matrix b in its columns b n..b n + n - 1, and those columns."""
    count, n = stack.shape[:2]
    return stack.transpose(1, 0, 2).reshape(n, count * n), np.arange(count * n).reshape(count, n)


def permanent(matrix) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix in a stack, by Glynn's formula.

    perm(A) = 2^-(n - 1) times the sum over the column signings delta in
    {+1, -1}^n with delta_0 = +1 of prod(delta) times the product over rows
    of the signed row sums sum_c delta_c A_ic, O(2^(n - 1) * n^2) work here
    (one matrix product with the signing table).  A (n, n) matrix gives a
    ``complex``; a stack (..., n, n) gives a complex array of shape (...).
    The empty 0x0 matrix has permanent 1 (empty-product convention).  Entries
    must be finite, and a stack over ``_WORK`` kernel operations
    (``_ryser_work``, count * n * 2^n) raises ValueError before any work.

    Numerics: against the exact permanent of the float input, the worst
    relative error over 3 complex Gaussian M (m = n^2) per size was

        n        10       12       14       16       18       20
        |M|^2    3.5e-15  1.3e-14  2.3e-14  1.5e-14  1.4e-14  6.8e-14
        M        2.0e-15  8.3e-15  1.7e-15  8.3e-15  2.8e-15  1.5e-14
    """
    a = _finite(_square(matrix))
    n = a.shape[-1]
    count = math.prod(a.shape[:-2])
    _afford(_ryser_work(n, count), "the permanents of {} matrices at n = {}", count, n)
    flat = a.reshape(count, n, n)
    values = _glynn(count, n, lambda lo, hi: flat[lo:hi])
    return complex(values[0]) if a.ndim == 2 else values.reshape(a.shape[:-2])


def hadamard_permanent(matrix, perm) -> complex | np.ndarray:
    """Permanent of ``matrix * conj(matrix[perm, :])`` (entrywise product).

    ``perm`` is one permutation of range(n) in word form or a 2-d array with
    one permutation per row (any other row raises ValueError before any
    work); ``matrix`` is one n x n matrix or a stack (..., n, n).  The
    result has shape (stack shape) + (rows of ``perm``), one Hadamard
    permanent per matrix and permutation, and is a ``complex`` for one
    matrix and one permutation.  Every call goes to ``_pair_permanents``,
    the matrices side by side.  A call priced over ``_WORK`` raises
    ValueError before any work.  With the identity permutation the value is
    the permanent of the squared moduli, a non-negative real; permuting by
    the inverse conjugates it.
    """
    flat, words, shape = _hadamard_args(matrix, perm)
    n, count = flat.shape[-1], len(flat) * len(words)
    _afford(_ryser_work(n, count), "{} Hadamard permanents at n = {}", count, n)
    values, codes = np.zeros((len(flat), len(words)), dtype=complex), np.arange(n) * n + words
    used = np.count_nonzero(np.bincount(codes.ravel()))  # the row pairs the permutations use, at most n^2
    group = _per_pass(48 * n * used)  # per matrix: the used pairs' products and their two gathers
    for lo in range(0, len(flat), group):
        values[lo : lo + group] = _pair_permanents(*_side_by_side(flat[lo : lo + group]), codes)
    return complex(values[0, 0]) if shape == () else values.reshape(shape)


def _pair_permanents(rows: np.ndarray, cols: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The (B, T) permanents of row-pair products of the matrices M = rows[:, cols[b]], named by ``codes``.

    ``rows`` is an (r, w) block; row b of the (B, n) table ``cols`` holds n
    distinct column indices into it (a collisional output passes range(n)),
    and row t of the (T, n) table ``codes`` n row pairs (i, l) as i r + l:
    (i, tau(i)) over all rows gives the Hadamard permanent of M * conj(M[tau, :]),
    over the rows tau moves a Laplace block.  Per column signing delta (see
    ``permanent``), permanent [b, t] multiplies n row-pair sums W_il(delta) =
    sum_c delta_c M_ic conj(M_lc): one ``_glynn`` item per matrix picks each
    code row's pairs.  The products over all used columns are held at once
    and must be finite; callers size their blocks and price their calls.
    """
    count, n = cols.shape
    pairs, picks = _ranks(codes, len(rows) ** 2)
    used, local = _ranks(cols, rows.shape[1])
    left, right = np.divmod(pairs[:, None], len(rows))
    sums = _finite(rows[left, used] * np.conj(rows[right, used]))  # (pairs, columns)
    return _glynn(count, n, lambda lo, hi: sums[:, local[lo:hi]], picks)


def _ranks(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of an integer array over range(size), ascending, and each entry's rank among them."""
    present = np.zeros(size, dtype=bool)
    present[values] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[values]


@functools.lru_cache(maxsize=16)
def _lattice_tables(n: int) -> tuple[np.ndarray, list]:
    """The rank of each subset bit mask among the subsets of its size, and per size s = 0..n
    (sets, masks, below, drop): the s-subsets in lexicographic order, their masks, the rank of
    each without its lowest element and drop[i, c], the rank of set c without its i-th element.

    Complements reverse the order: the r-th s-subset's is the (C(n, s) - 1 - r)-th (n - s)-subset.
    """
    rank, levels = np.zeros(1 << n, dtype=int), []
    for s in range(n + 1):
        sets = np.array(list(itertools.combinations(range(n), s)), dtype=int).reshape(math.comb(n, s), s)
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
    multiply-adds per matrix, gathered in passes of rows B within ``_BUDGET``; entries are not checked.
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
        step = _per_pass(s * len(sets) * (2 * count * source.itemsize + 16))
        for lo in range(0, len(sets), step):
            rows = slice(lo, lo + step)
            terms = entries.take(sets[rows, :1] * n + sets.T[:, None], axis=0)  # (s, rows, R, S)
            terms *= prev.take(below[rows, None] * stride + drop[:, None], axis=0)
            terms.sum(axis=0, out=level[rows])
        yield level


def laplace_split_permanent(matrix, perm) -> complex | np.ndarray:
    """Evaluate ``hadamard_permanent`` by expanding about the moved rows.

    Same arguments and result shapes as ``hadamard_permanent``.  The j moved
    rows are expanded over all C(n, j) column subsets C: each term is the
    j x j complex permanent of the product rows over C times the permanent
    of squared moduli over the fixed rows and the other columns.  Per count
    j both factors come from ``_pair_permanents``, one item per matrix and
    C: the blocks name each permutation's j moved row pairs (i, tau(i)), the
    complements its n - j fixed ones (i, i).  The price, ``_laplace_work``,
    counts both: the split checks the order expansion and is not a faster
    path than ``hadamard_permanent`` (the identity alone is one whole
    complement).  Over ``_WORK``, at order 2 from n = 17, it raises
    ValueError before any work.  Matrices go in groups whose tables fit
    ``_BUDGET``.
    """
    flat, words, shape = _hadamard_args(matrix, perm)
    rows, cols = _side_by_side(flat)
    n = len(rows)
    sizes = np.bincount((words != np.arange(n)).sum(axis=1)).tolist()
    _afford(len(cols) * _laplace_work(n, sizes), "{} Laplace splits at n = {}", len(cols), n)
    values = _laplace_split(rows, cols, np.arange(n) * n + words)
    return complex(values[0, 0]) if shape == () else values.reshape(shape)


def _laplace_split(rows: np.ndarray, cols: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``laplace_split_permanent`` of the matrices rows[:, cols[b]], (B, T), without argument checks or price.

    Row t of the (T, n) table ``codes`` names a permutation tau by its row pairs i n + tau(i), as
    ``_pair_permanents`` takes them: row i is fixed where its code is i (n + 1).  Per moved count j, one
    call gives the j x j blocks (the moved rows' pairs over each j-set of columns) and one the complements
    (the fixed rows' pairs i (n + 1), entries |M_ic|^2, over the other n - j columns).
    """
    n = cols.shape[1]
    fixed = codes == np.arange(n) * (n + 1)
    counts = n - fixed.sum(axis=1)
    values = np.zeros((len(cols), len(codes)), dtype=complex)
    for j in np.flatnonzero(np.bincount(counts)).tolist():  # not np.unique, which imports numpy.ma (about 1 MB)
        which = np.flatnonzero(counts == j)
        # Moved rows first, then fixed rows, each in ascending order.
        moved, kept = np.split(np.argsort(fixed[which], axis=1, kind="stable"), [j], axis=1)
        # The j-sets of columns in lexicographic order; the (n - j)-sets in reverse order are their complements.
        sets = np.array(list(itertools.combinations(range(n), j)), dtype=int).reshape(math.comb(n, j), j)
        rest = np.array(list(itertools.combinations(range(n), n - j))[::-1], dtype=int).reshape(len(sets), n - j)
        parts = [(j, sets, np.take_along_axis(codes[which], moved, axis=1)), (n - j, rest, kept * (n + 1))]
        # Per matrix: its row-pair products, then a product and one factor per permutation and column set.
        group = _per_pass(16 * n**3 + 32 * len(sets) * len(which))
        for lo in range(0, len(cols), group):
            local = cols[lo : lo + group]
            terms = np.ones((len(local), len(sets), len(which)), dtype=complex)
            for size, columns, pairs in parts:
                if size:  # a block or complement without rows is the empty product, 1
                    terms *= _pair_permanents(rows, local[:, columns].reshape(-1, size), pairs).reshape(terms.shape)
            values[lo : lo + group, which] = terms.sum(axis=1)
    return values


def _subset_sums(matrices: np.ndarray) -> np.ndarray:
    """F(B) for every row subset B (as a bit mask) of each matrix in a (B, n, n) stack, the mixture's input.

    F(B) = sum over the column subsets C with |C| = |B| of |perm M_{B,C}|^2
    times perm(|M|^2) over the complementary rows and columns: the summed
    Hadamard permanents of all permutations that move only photons in B.
    The factors are read from the lattices of M and of |M|^2, whose
    complementary level lists the complements in reverse order.
    """
    count, n = matrices.shape[0], matrices.shape[-1]
    levels = _lattice_tables(n)[1]
    sums = np.zeros((count, 1 << n))
    group = _per_pass(8 * math.comb(2 * n, n) + 32 * math.comb(n, n // 2) ** 2)  # all of Q, two levels of P
    for lo in range(0, count, group):
        stack = matrices[lo : lo + group]
        large = list(_lattice(_finite(np.abs(stack) ** 2), n))
        for size, small in enumerate(_lattice(stack, n)):
            terms = small.real**2 + small.imag**2
            terms *= large[n - size][::-1, ::-1]
            sums[lo : lo + group, levels[size][1]] = terms.sum(axis=1).T
    return sums


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
