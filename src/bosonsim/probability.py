"""Output probabilities: exact, decomposed by interference order, and truncated.

The exact probability of one detection outcome sums, over all permutations of
the photons, the product of pairwise overlaps times the permanent of the
interference matrix Hadamard-multiplied with its row-permuted conjugate.
Grouping permutations by how many points they move splits the probability
into interference orders; order j collects every contribution in which
exactly j photons interfere while the rest undergo classical transmission.
Truncating at order k keeps the at-most-k-photon interference terms, and the
neglected tail is the truncation error.

Two engines evaluate the orders.  The walk visits every permutation of each
order it needs, with one evaluator call for all orders of a block of
matrices; it serves truncation at any k (the sampler's targets included)
and the by-order split of explicit overlap matrices.  Both strategies take
the same block (rows and each output's columns) and a table of the
permutations built once per walk.  The direct one (``linalg._pair_permanents``
on row-pair codes) forms the row-pair sums of each signing of Glynn's formula
once and multiplies n of them per permutation, about 2^(n - 1) x (n^3 + n x
(permutations)) per matrix, priced twice its factors, n 2^n per permutation.
The Laplace one (``linalg._laplace_split``, the core of
``laplace_split_permanent``) is an independent check of the expansion, not a
faster path: it pays a whole |M|^2 lattice per matrix even at k <= 1, so it
runs up to n = 12, and the direct strategy serves n >= 13.  For the
homogeneous and OBB models a permutation's overlap weight depends only on
the set A of photons it moves, x_A = prod_{i in A} x_i, so the probability
is a multilinear polynomial in the visibilities (the mixture formula of
Renema et al., PRL 120, 220502 (2018)).  The mixture engine gets all n + 1
orders from one sum over the 2^n photon subsets, over C(2n, n) pairs of
sub-permanents per matrix read from the ``linalg._lattice`` tables of M and
|M|^2 instead of n! Hadamard permanents, for a whole stack of matrices at
once (a 50-trial n = 5 ensemble in about 1 ms, one n = 10 matrix in about
25 ms, on 2 cores).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .combinat import partial_derangements, rencontres
from .distinguishability import model_from_dict, overlap_product
from .fields import joined, listed, matrix, own, read
from .linalg import _afford, _finite, _laplace_split, _laplace_work, _lattice, _lattice_tables, _lattice_work
from .linalg import _pair_permanents, _per_pass, _ryser_work, hadamard_permanent, submatrix
from .randgen import EnsembleSpec

__all__ = [
    "ExperimentInstance",
    "TruncationResult",
    "mode_assignment",
    "output_configurations",
    "exact_probability",
    "exact_probability_by_order",
    "truncated_probability",
    "truncation_error",
    "truncation_cost_estimate",
]

# Largest roundoff residue accepted, relative to the summed term magnitudes.
_RESIDUE = 1e-10


def mode_assignment(occupation) -> list[int]:
    """Flatten a mode occupation list into per-photon mode indices.

    >>> mode_assignment((2, 0, 1))
    [0, 0, 2]
    """
    modes = []
    for mode, count in enumerate(occupation):
        modes.extend([mode] * count)
    return modes


def output_configurations(m: int, n: int, noncollisional: bool = False):
    """Yield all occupations of n photons over m modes, in lexicographic order.

    With ``noncollisional=True`` only configurations with at most one photon
    per mode are produced (C(m, n) of them).
    """
    if noncollisional:
        if n > m:
            raise ValueError("noncollisional outputs need n <= m")
        for modes in itertools.combinations(range(m), n):
            occ = [0] * m
            for mode in modes:
                occ[mode] = 1
            yield tuple(occ)
        return
    for modes in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for mode in modes:
            occ[mode] += 1
        yield tuple(occ)


@dataclass(frozen=True)
class ExperimentInstance:
    """One interferometer run: transfer matrix, occupations, and a model.

    ``unitary`` is the m x m transfer matrix; for ensemble studies it may be
    a bare n x n complex Gaussian matrix with single-photon occupations.  The
    interference matrix is the submatrix with rows picked by the input
    mode-assignment list and columns by the output one, and collisional
    occupations contribute the product-of-factorials normalization.  The
    fields are checked once at construction and are read-only after;
    ``dataclasses.replace`` builds a new, checked instance.
    """

    unitary: np.ndarray
    input_occupation: tuple[int, ...]
    output_occupation: tuple[int, ...]
    model: object
    _kinds = {"input_occupation": listed((int, 0)), "output_occupation": listed((int, 0))}

    def __post_init__(self):
        unitary = np.array(self.unitary, dtype=complex)  # a read-only copy, never the caller's array
        unitary.setflags(write=False)
        object.__setattr__(self, "unitary", unitary)
        if self.unitary.ndim != 2 or self.unitary.shape[0] != self.unitary.shape[1]:
            raise ValueError("transfer matrix must be square")
        own(self, "instance", self._kinds)
        m = self.unitary.shape[0]
        if len(self.input_occupation) != m or len(self.output_occupation) != m:
            raise ValueError("occupation lists must have one entry per mode")
        if sum(self.input_occupation) != sum(self.output_occupation):
            raise ValueError("photon number mismatch between input and output")
        if sum(self.input_occupation) < 1:
            raise ValueError("need at least one photon")

    @classmethod
    def from_matrix(cls, matrix, model) -> "ExperimentInstance":
        """Instance over a bare n x n matrix with one photon per mode."""
        matrix = np.asarray(matrix, dtype=complex)
        ones = tuple([1] * matrix.shape[0])
        return cls(unitary=matrix, input_occupation=ones, output_occupation=ones, model=model)

    @property
    def n(self) -> int:
        return sum(self.input_occupation)

    @property
    def m(self) -> int:
        return self.unitary.shape[0]

    @property
    def input_modes(self) -> list[int]:
        return mode_assignment(self.input_occupation)

    @property
    def output_modes(self) -> list[int]:
        return mode_assignment(self.output_occupation)

    @property
    def normalization(self) -> float:
        norm = 1
        for count in itertools.chain(self.input_occupation, self.output_occupation):
            norm *= math.factorial(count)
        return float(norm)

    @property
    def interference_matrix(self) -> np.ndarray:
        return submatrix(self.unitary, self.input_modes, self.output_modes)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "unitary": {
                "re": self.unitary.real.tolist(),
                "im": self.unitary.imag.tolist(),
            },
            "input": list(self.input_occupation),
            "output": list(self.output_occupation),
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentInstance":
        """Parse an instance descriptor; a malformed one raises ValueError.

        The matrix is a ``unitary`` or an ``ensemble`` reference, not both;
        without occupation lists every mode of the matrix holds one photon.
        """
        given = read(data, "instance", _INSTANCE_FIELDS, ("model",))
        if ("unitary" in given) == ("ensemble" in given):
            raise ValueError("instance needs exactly one of 'unitary' and 'ensemble'")
        unitary = given["unitary"] if "unitary" in given else given["ensemble"].build()
        occupations = [given[key] for key in ("input", "output") if key in given]
        if not occupations:
            return cls.from_matrix(unitary, given["model"])
        if len(occupations) == 1:
            raise ValueError("instance needs both 'input' and 'output', or neither")
        return cls(unitary, *occupations, given["model"])


def _unitary(block) -> np.ndarray:
    """An instance's ``unitary`` field: the real and (optional) imaginary parts of the matrix."""
    return joined(read(block, "unitary", {"re": matrix, "im": matrix}, ("re",)), "unitary", "re", "im")


_INSTANCE_FIELDS = {"schema": [1], "unitary": _unitary, "ensemble": EnsembleSpec.from_dict, "model": model_from_dict,
                    "input": ExperimentInstance._kinds["input_occupation"],
                    "output": ExperimentInstance._kinds["output_occupation"]}


@dataclass
class TruncationResult:
    """Truncated probability with its per-order contributions.

    ``per_order[j]`` is the order-j contribution for j = 0..k (entry 1 is
    structurally zero: no permutation moves exactly one point) and ``total``
    is their sum.
    """

    k: int
    total: float
    per_order: list[float] = field(default_factory=list)
    model: dict | None = None

    def to_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _check_residue(residues: np.ndarray, magnitudes: np.ndarray, kind: str) -> None:
    """Raise ArithmeticError where a structurally zero part exceeds _RESIDUE x its summed |terms|."""
    excess = np.abs(residues) > _RESIDUE * magnitudes
    if excess.any():
        i = int(np.argmax(excess))
        raise ArithmeticError(f"{kind} residue {residues.flat[i]:g} above {_RESIDUE:g} x {magnitudes.flat[i]:g}")


def _real_part(values, magnitudes) -> np.ndarray:
    # The imaginary parts cancel in conjugate pairs (tau with its inverse), so
    # what is left is roundoff relative to the summed term magnitudes.
    values = np.asarray(values, dtype=complex)
    _check_residue(values.imag, np.asarray(magnitudes), "imaginary")
    return values.real


@functools.lru_cache(maxsize=32)
def _class_table(n: int, moved: int) -> np.ndarray:
    """The permutations of n points that move exactly ``moved``, one per row, in generator order."""
    table = np.array(list(partial_derangements(n, moved)), dtype=int).reshape(-1, n)
    table.setflags(write=False)
    return table


def _order_walk(rows: np.ndarray, cols: np.ndarray, weights, table, price, present, starts, k, evaluate) -> np.ndarray:
    """Orders 0..k of each matrix rows[:, cols[b]] of a block, without the normalization.

    ``rows`` is an (n, w) block and ``cols`` a (B, n) table of distinct
    column indices into it.  ``table`` holds the evaluator's row for each
    nonzero-weight permutation moving 0, 2..k points, ordered by how many they
    move: those moving ``present[i]`` start at row ``starts[i]``.  A block over
    ``_WORK`` at ``price`` per matrix is refused; else one ``evaluate(rows,
    cols, table)`` call gives its (B, T) Hadamard permanents, and each order of
    each matrix is checked against that matrix's own summed |terms|.  Orders
    with no permutation, column 1 among them, stay zero.
    """
    _afford(len(cols) * price, "a block of {} order-{} walks at n = {}", len(cols), k, len(rows))
    terms = weights * evaluate(rows, cols, table)
    orders, magnitudes = np.zeros((len(terms), k + 1), dtype=complex), np.zeros((len(terms), k + 1))
    orders[:, present] = np.add.reduceat(terms, starts, axis=1)
    magnitudes[:, present] = np.add.reduceat(np.abs(terms), starts, axis=1)
    return _real_part(orders, magnitudes)


def _check_order(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")


def _truncation_walk(model, n: int, k: int, strategy: str):
    """Check the arguments of an order-k truncation and fix what does not depend on the output.

    Returns ``walk(rows, cols)``, the ``_order_walk`` orders 0..k of the
    interference matrices rows[:, cols[b]]: one matrix is
    ``walk(matrix, np.arange(n)[None])``, and a block of outputs from one
    input is the input's rows of the transfer matrix with each output's
    modes.  Once the predicted cost per matrix is within ``_WORK``, the
    overlap weights and the strategy's permutation table (row-pair codes, or
    the permutations for Laplace) are computed here, once for any number of blocks.
    """
    _check_order(k, n)
    classes = [rencontres(n, n - j) for j in range(k + 1)]  # permutations moving j points
    if strategy == "direct":  # every column signing's Glynn terms, shared by the permutations and the block
        evaluate, work = _pair_permanents, lambda sizes: _ryser_work(n, sum(sizes))
    elif strategy == "laplace":
        evaluate, work = _laplace_split, functools.partial(_laplace_work, n)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    _afford(work(classes), "the order-{} {} walk at n = {}", k, strategy, n)
    overlaps = np.asarray(model.overlap_matrix(n))
    taus = np.concatenate([_class_table(n, j) for j in range(k + 1)])
    weights = np.ones(len(taus), dtype=overlaps.dtype)
    for i, row in enumerate(overlaps):  # a product over rows, without a (T, n) gather
        weights *= row[taus[:, i]]
    taus, weights = taus[weights != 0.0], weights[weights != 0.0]
    # The classes go j = 0..k and the filter keeps their order, so each order is one run of the permutations.
    moved = (taus != np.arange(n)).sum(axis=1)
    present, starts = np.unique(moved, return_index=True)
    table = np.arange(n) * n + taus if strategy == "direct" else taus
    return functools.partial(_order_walk, weights=weights, table=table, price=work(np.bincount(moved).tolist()),
                             present=present, starts=starts, k=k, evaluate=evaluate)


def _subset_sums(matrices: np.ndarray) -> np.ndarray:
    """F(B) for every row subset B (as a bit mask) of each matrix in a (B, n, n) stack.

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


def _mixture_work(n: int, count: int) -> None:
    """Refuse, before any work, the mixture of ``count`` n x n matrices: two lattices each (n <= 12)."""
    _afford(2 * count * _lattice_work(n, "the mixture"), "the mixture of {} matrices at n = {}", count, n)


def _mixture_orders(matrices: np.ndarray, x) -> np.ndarray:
    """Interference orders 0..n of each matrix in a (B, n, n) stack, for visibilities x.

    With overlap weight x_A = prod_{i in A} x_i for a permutation with moved
    set A, the orders follow from the subset sums F of ``_subset_sums``:
    the Moebius inversion G(A) = sum_{B in A} (-1)^(|A| - |B|) F(B) is the
    summed Hadamard permanents of the permutations moving exactly A, and
    order j = sum_{|A| = j} x_A G(A).  Subsets with x_A = 0 are skipped, so
    their orders come out exactly 0.0.  Order 1 is structurally zero; its
    computed value is checked against 1e-10 x sum_A x_A |G(A)| (ArithmeticError
    above it) and then set to 0.0.  Returns a (B, n + 1) array without the
    occupation normalization.
    """
    count, n = matrices.shape[0], matrices.shape[-1]
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"model carries {x.size} visibilities, instance has n={n}")
    sums = _subset_sums(matrices)
    for i in range(n):  # in-place Moebius inversion over the subset lattice, bit by bit
        view = sums.reshape(count, 1 << (n - i - 1), 2, 1 << i)
        view[:, :, 1, :] -= view[:, :, 0, :]
    weights, moved = np.ones(1), np.zeros(1, dtype=int)
    for xi in x:
        weights, moved = np.concatenate([weights, weights * xi]), np.concatenate([moved, moved + 1])
    keep = weights != 0.0
    orders = np.zeros((count, n + 1))
    for j in range(n + 1):
        chosen = keep & (moved == j)
        orders[:, j] = sums[:, chosen] @ weights[chosen]
    _check_residue(orders[:, 1], np.abs(sums[:, keep]) @ weights[keep], "order-1")
    orders[:, 1] = 0.0
    return orders


def exact_probability(inst: ExperimentInstance) -> float:
    """Probability of the instance's detection outcome, by direct sum.

    Sums over the full symmetric group, independently of the per-order walk,
    at n! * n * 2^n kernel operations (``_ryser_work``), so n = 10 is over
    ``_WORK`` and raises ValueError before any work.  The result is real, and
    in [0, 1] up to roundoff for a unitary transfer matrix.
    """
    n = inst.n
    _afford(_ryser_work(n, math.factorial(n)), "exact evaluation at n = {}", n)
    overlaps = inst.model.overlap_matrix(n)
    matrix = inst.interference_matrix
    total = 0.0 + 0.0j
    magnitude = 0.0
    for sigma in itertools.permutations(range(n)):
        weight = overlap_product(overlaps, sigma)
        if weight == 0.0:
            continue
        term = weight * hadamard_permanent(matrix, sigma)
        total += term
        magnitude += abs(term)
    norm = inst.normalization
    return float(_real_part(total / norm, magnitude / norm))


def exact_probability_by_order(inst: ExperimentInstance) -> np.ndarray:
    """Decompose the exact probability into interference orders 0..n.

    Entry j is the total contribution of permutations moving exactly j
    photons; entry 1 is always zero and the entries sum to the exact
    probability.  Homogeneous and OBB models take the mixture engine, about
    C(2n, n) pairs of sub-permanents (n = 7 in about 1 ms, n = 9 in about
    8 ms and n = 12 in about 0.4 s on a 2-core host) up to n = 12; explicit
    overlap matrices take the walk over all n! permutations, up to n = 9 by
    the ``_WORK`` budget.  Beyond these, ValueError is raised before any work.
    """
    visibilities = getattr(inst.model, "visibilities", None)
    if visibilities is None:
        walk = _truncation_walk(inst.model, inst.n, inst.n, "direct")
        orders = walk(inst.interference_matrix, np.arange(inst.n)[None])
    else:
        _mixture_work(inst.n, 1)
        orders = _mixture_orders(inst.interference_matrix[None], visibilities(inst.n))
    return orders[0] / inst.normalization


def truncated_probability(inst: ExperimentInstance, k: int, strategy: str = "direct") -> TruncationResult:
    """Keep only the interference orders up to k.

    ``strategy="direct"`` evaluates each permanent whole; ``strategy="laplace"``
    expands every term about the moved rows so the complex permanents never
    exceed size k, at the price of C(n, j)-term inner sums over non-negative
    permanents read from one lattice of |M|^2 (see ``truncation_cost_estimate``
    for the kernel-operation count).  The Laplace walk is an independent check
    of the direct one, and slower: it builds the whole lattice even for
    k <= 1, and n >= 13 is refused (the direct walk serves it).  Both
    strategies agree up to roundoff; k = n reproduces the exact probability,
    and a walk over ``_WORK`` (``linalg._ryser_work`` per permutation for the
    direct one) raises ValueError before any work.  Each order's imaginary
    residue must stay within 1e-10 of its summed |terms| (ArithmeticError
    above).

    Numerics: the worst imaginary residue of orders 0 and 2 over their summed
    |terms|, direct walk, 2 complex Gaussian matrices per size (m = n^2, OBB
    visibilities from 0.95 down to 0.55), at n = 12 / 14 / 16 / 18 / 20 was
    2.7e-16 / 5.7e-17 / 1.2e-16 / 5.3e-16 / 9.3e-16 (1.3e-15 at n = 19).
    """
    walk = _truncation_walk(inst.model, inst.n, k, strategy)
    per_order = (walk(inst.interference_matrix, np.arange(inst.n)[None])[0] / inst.normalization).tolist()
    return TruncationResult(k=k, total=float(math.fsum(per_order)), per_order=per_order, model=inst.model.to_dict())


def truncation_error(inst: ExperimentInstance, k: int, strategy: str = "direct") -> float:
    """Difference between the exact probability and its order-k truncation.

    Equals the summed contributions of the neglected orders j > k; zero for
    k = n and for fully distinguishable photons.
    """
    return exact_probability(inst) - truncated_probability(inst, k, strategy).total


def truncation_cost_estimate(n: int, k: int) -> int:
    """Kernel operations for the Laplace evaluation of an order-k truncation.

    ``linalg._laplace_work`` over the R(n, n-j) permutations moving j <= k
    points: R(n, n-j) * C(n, j) * 2^j * j for the small complex permanents,
    plus the whole lattice of |M|^2, shared by every order even at k <= 1.
    So (3, 2) costs 72 + 30 = 102, (4, 3) costs 288 + 768 + 140 = 1196,
    (12, 0) costs 16224936 for the lattice alone, and n >= 13 raises
    ValueError: no lattice is built there.
    """
    _check_order(k, n)
    return _laplace_work(n, [rencontres(n, n - j) for j in range(k + 1)])
