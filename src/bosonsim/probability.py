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
order it needs, class by class, which costs about (class size) x 2^n x n^2
per matrix, with one evaluator call for all orders of a whole stack of matrices
(``laplace_split_permanent`` for the Laplace strategy); it serves truncation
at any k (the sampler's targets included) and the by-order split of
explicit overlap matrices.  For the homogeneous and OBB models a
permutation's overlap weight depends only on the set A of photons it moves,
x_A = prod_{i in A} x_i, so the probability is a multilinear polynomial in
the visibilities (the mixture formula of Renema et al., PRL 120, 220502
(2018)).  The mixture engine gets all n + 1 orders from one sum over the
2^n photon subsets, over C(2n, n) pairs of sub-permanents per matrix read
from the ``linalg._lattice`` tables of M and |M|^2 instead of n! Hadamard
permanents, for a whole stack of matrices at once (a 50-trial n = 5
ensemble in about 1 ms, one n = 10 matrix in about 25 ms, on 2 cores).
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .combinat import partial_derangements, rencontres
from .distinguishability import model_from_dict, overlap_product
from .linalg import _LATTICE_N, _afford, _complement_cost, _finite, _lattice, _lattice_tables, _per_pass
from .linalg import hadamard_permanent, laplace_split_permanent, submatrix
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


@dataclass
class ExperimentInstance:
    """One interferometer run: transfer matrix, occupations, and a model.

    ``unitary`` is the m x m transfer matrix; for ensemble studies it may be
    a bare n x n complex Gaussian matrix with single-photon occupations.  The
    interference matrix is the submatrix with rows picked by the input
    mode-assignment list and columns by the output one, and collisional
    occupations contribute the product-of-factorials normalization.
    """

    unitary: np.ndarray
    input_occupation: tuple[int, ...]
    output_occupation: tuple[int, ...]
    model: object

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=complex)
        if self.unitary.ndim != 2 or self.unitary.shape[0] != self.unitary.shape[1]:
            raise ValueError("transfer matrix must be square")
        self.input_occupation = tuple(int(c) for c in self.input_occupation)
        self.output_occupation = tuple(int(c) for c in self.output_occupation)
        if min(self.input_occupation, default=0) < 0 or min(self.output_occupation, default=0) < 0:
            raise ValueError("occupations must be non-negative")
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
        """Parse an instance descriptor; a malformed one raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("instance must be a JSON object")
        allowed = {"schema", "unitary", "ensemble", "input", "output", "model"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown instance fields: {sorted(unknown)}")
        if data.get("schema", 1) != 1:
            raise ValueError("unsupported instance schema version")
        if "model" not in data:
            raise ValueError("instance needs a 'model' field")
        model = model_from_dict(data["model"])
        if "unitary" in data:
            block = data["unitary"]
            try:
                real = np.asarray(block["re"], dtype=float)
                imag = np.asarray(block.get("im", np.zeros_like(real)), dtype=float)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad 'unitary' field ({type(exc).__name__}: {exc})") from None
            matrix = real + 1j * imag
        elif "ensemble" in data:
            matrix = EnsembleSpec.from_dict(data["ensemble"]).build()
        else:
            raise ValueError("instance needs a 'unitary' or an 'ensemble' field")
        if "input" not in data and "output" not in data:
            return cls.from_matrix(matrix, model)
        try:
            occ_in, occ_out = (tuple(int(c) for c in data[key]) for key in ("input", "output"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad occupation lists ({type(exc).__name__}: {exc})") from None
        return cls(unitary=matrix, input_occupation=occ_in, output_occupation=occ_out, model=model)


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
    elapsed: float = 0.0
    model: dict | None = None

    def to_dict(self) -> dict:
        # elapsed is intentionally not serialized: emitted artifacts must be
        # byte-identical across reruns of the same seeded configuration.
        return {
            "schema": 1,
            "k": self.k,
            "total": self.total,
            "per_order": list(self.per_order),
            "model": self.model,
        }


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


def _order_walk(matrices: np.ndarray, weights, taus, orders, evaluate) -> np.ndarray:
    """Orders 0..k of each matrix in a (B, n, n) stack, without the normalization.

    ``taus`` holds the nonzero-weight permutations moving 0, 2..k points,
    one per row, and ``orders`` is the (T, k + 1) complex 0/1 table of how many
    each moves.  One ``evaluate(matrices, taus)`` call gives the (B, T)
    Hadamard permanents of all orders, and each order of each matrix is
    checked against that matrix's own summed |terms|.  Column 1 stays zero.
    """
    terms = weights * evaluate(matrices, taus)
    # Complex products only: a first real BLAS product would add 0.4 MB to the sampler's peak memory.
    return _real_part(terms @ orders, (np.abs(terms) @ orders).real)


def _truncation_walk(model, n: int, k: int, strategy: str):
    """Check the arguments of an order-k truncation and fix what does not depend on the output.

    Returns ``walk(matrices)``, the ``_order_walk`` orders 0..k of a
    (B, n, n) stack of interference matrices.  Once the predicted cost per
    matrix is within ``_WORK``, the overlap weights and the class tables are
    computed here, once for any number of stacks.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    moves = list(itertools.chain((0,), range(2, k + 1)))
    if strategy == "direct":  # every permutation of the orders is one n x n permanent
        evaluate, work = hadamard_permanent, sum(rencontres(n, n - j) for j in moves) * n << n
    elif strategy == "laplace":
        evaluate, work = laplace_split_permanent, truncation_cost_estimate(n, k)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    _afford(work, f"the order-{k} {strategy} walk at n = {n}")
    overlaps, rows = np.asarray(model.overlap_matrix(n)), np.arange(n)
    taus = np.concatenate([_class_table(n, j) for j in moves])
    weights = overlaps[rows, taus].prod(axis=1)
    taus, weights = taus[weights != 0.0], weights[weights != 0.0]
    orders = ((taus != rows).sum(axis=1)[:, None] == np.arange(k + 1)).astype(complex)
    return functools.partial(_order_walk, weights=weights, taus=taus, orders=orders, evaluate=evaluate)


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
    """Refuse, before any work, the mixture of ``count`` n x n matrices: two lattices of n C(2n, n) / 2 operations."""
    if n > _LATTICE_N:
        raise ValueError(f"the mixture holds every sub-permanent of |M|^2, so it is limited to n <= {_LATTICE_N}")
    _afford(count * n * math.comb(2 * n, n), f"the mixture of {count} matrices at n = {n}")


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
    _mixture_work(n, count)
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
    at n! * n * 2^n kernel operations, so n = 10 is over ``_WORK`` and raises
    ValueError before any work.  For a unitary transfer matrix the result lies
    in [0, 1] up to roundoff, for arbitrary matrices it is only guaranteed real.
    """
    n = inst.n
    _afford(math.factorial(n) * n << n, f"exact evaluation at n = {n}")
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
        orders = _truncation_walk(inst.model, inst.n, inst.n, "direct")(inst.interference_matrix[None])
    else:
        orders = _mixture_orders(inst.interference_matrix[None], visibilities(inst.n))
    return orders[0] / inst.normalization


def truncated_probability(inst: ExperimentInstance, k: int, strategy: str = "direct") -> TruncationResult:
    """Keep only the interference orders up to k.

    ``strategy="direct"`` evaluates each permanent whole; ``strategy="laplace"``
    expands every term about the moved rows so the complex permanents never
    exceed size k, at the price of C(n, j)-term inner sums over non-negative
    permanents, shared by each order (see ``truncation_cost_estimate`` for
    the kernel-operation count).  Both strategies agree up to roundoff; k = n
    reproduces the exact probability, and a walk over ``_WORK`` raises
    ValueError before any work.
    """
    walk = _truncation_walk(inst.model, inst.n, k, strategy)
    start = time.perf_counter()
    per_order = (walk(inst.interference_matrix[None])[0] / inst.normalization).tolist()
    elapsed = time.perf_counter() - start
    return TruncationResult(
        k=k,
        total=float(math.fsum(per_order)),
        per_order=per_order,
        elapsed=elapsed,
        model=inst.model.to_dict(),
    )


def truncation_error(inst: ExperimentInstance, k: int, strategy: str = "direct") -> float:
    """Difference between the exact probability and its order-k truncation.

    Equals the summed contributions of the neglected orders j > k; zero for
    k = n and for fully distinguishable photons.
    """
    return exact_probability(inst) - truncated_probability(inst, k, strategy).total


def truncation_cost_estimate(n: int, k: int) -> int:
    """Kernel operations for the Laplace evaluation of an order-k truncation.

    Counts, over orders j <= k, R(n, n-j) * C(n, j) * 2^j * j for the small
    complex permanents (one per moving-j permutation and column subset),
    plus the non-negative ones from the cheaper source that
    ``laplace_split_permanent`` takes: the lattice of |M|^2, sum over
    s = 1..n of C(n, s)^2 * s (built once, shared by every order, only up to
    n = 12), or C(n, j)^2 * 2^(n-j) * (n-j) per order for Ryser blocks (one
    per fixed-row set and column subset).  So (3, 2) costs 72 + 30 = 102,
    (4, 3) costs 288 + 768 + 140 = 1196 and (13, 2) costs 48672 +
    106496 + 137060352.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    orders = list(itertools.chain((0,), range(2, k + 1)))
    total = sum(rencontres(n, n - j) * math.comb(n, j) * (1 << j) * j for j in orders)
    return total + _complement_cost(n, {j: math.comb(n, j) for j in orders})[0]
