"""Output probabilities: exact, decomposed by interference order, and truncated.

The exact probability of one detection outcome sums, over all permutations of
the photons, the product of pairwise overlaps times the permanent of the
interference matrix Hadamard-multiplied with its row-permuted conjugate.
Grouping permutations by how many points they move splits the probability
into interference orders; order j collects every contribution in which
exactly j photons interfere while the rest undergo classical transmission.
Truncating at order k keeps the at-most-k-photon interference terms, and the
neglected tail is the truncation error.  A permutation and its inverse move
the same photons, and their Hadamard permanents are conjugate, h(tau^-1) =
conj(h(tau)) for every matrix, so every sum here evaluates one permanent per
pair {tau, tau^-1}, the one that comes first in lexicographic order: the pair
adds w(tau) h + w(tau^-1) conj(h), with |terms| (|w(tau)| + |w(tau^-1)|) |h|,
and an involution is a pair of its own, with w(tau^-1) = 0.  Both weights
enter, so overlaps without Hermitian symmetry still leave an imaginary
residue.  Prices count pairs (``combinat.inverse_pairs``): the exact sum
takes (n! + I_n) / 2 permanents, I_n the involutions (73, 398 and 2,636 at
n = 5, 6 and 7).

Two engines evaluate the orders.  The walk visits one permutation per pair of
each order it needs, with one evaluator call for all orders of a block of
matrices; it serves truncation at any k (the sampler's targets included) and
the by-order split of explicit overlap matrices.  Both strategies take the
same block (rows and each output's columns) and one int8 table of the kept
permutations tau, with no inverse: w(tau^-1) = prod_i S[tau(i), i].  The
direct one (``linalg._pair_permanents``) forms the sums over the row pairs
(i, tau(i)) of each signing of Glynn's formula once and multiplies n of them
per permutation, about 2^(n - 1) x (n^3 + n x (pairs)) per matrix, priced
twice its factors, n 2^n per pair.  The Laplace one
(``linalg._laplace_split``, the core of ``laplace_split_permanent``) expands
about the rows tau moves, through the same evaluator: per permutation moving j
rows and per j-set of columns, a j x j block over the moved rows' pairs and an
(n - j) x (n - j) complement over the fixed rows' pairs (i, i).  It shares the
Glynn kernel with the direct one but not its expansion, so it checks the
expansion; it is not a faster path, and at k = 2 it runs up to n = 16 within
``_WORK``.  For the homogeneous and OBB models a permutation's overlap weight
depends only on the set A of photons it moves, x_A = prod_{i in A} x_i, so the
probability is a multilinear polynomial in the visibilities (the mixture
formula of Renema et al., PRL 120, 220502 (2018)).  The mixture engine gets
all n + 1 orders from one sum over the 2^n photon subsets, Moebius-inverted
from ``linalg._subset_sums`` (C(2n, n) pairs of sub-permanents of M and |M|^2
per matrix) instead of (n! + I_n) / 2 Hadamard permanents, for a whole stack
of matrices at once (a 50-trial n = 5 ensemble in about 1 ms, one n = 10
matrix in about 25 ms, on 2 cores).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .combinat import inverse_pairs, partial_derangements
from .distinguishability import model_from_dict, overlap_product
from .fields import joined, listed, matrix, own, read
from .linalg import _afford, _laplace_split, _laplace_work, _lattice_work, _pair_permanents, _ryser_work
from .linalg import _subset_sums, permanent, submatrix
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
    if noncollisional and n > m:
        raise ValueError("noncollisional outputs need n <= m")
    choose = itertools.combinations if noncollisional else itertools.combinations_with_replacement
    for modes in choose(range(m), n):
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
    # Each pair {tau, tau^-1} adds w(tau) h + w(tau^-1) conj(h), which is real when the overlaps are
    # Hermitian (w(tau^-1) = conj(w(tau))), so what is left is roundoff relative to the summed
    # (|w(tau)| + |w(tau^-1)|) |h|; overlaps without that symmetry leave a residue that raises.
    values = np.asarray(values, dtype=complex)
    _check_residue(values.imag, np.asarray(magnitudes), "imaginary")
    return values.real


@functools.lru_cache(maxsize=32)
def _class_table(n: int, moved: int) -> np.ndarray:
    """Read-only (pairs, n) int8 table, built once, of the pairs {tau, tau^-1} moving ``moved`` of n points:
    each pair's first member in lexicographic order, in ``partial_derangements`` order; n <= 28 by ``_WORK``."""
    taus = np.array(list(partial_derangements(n, moved)), dtype=np.int8).reshape(-1, n)
    inverses = np.argsort(taus, axis=1)
    first = np.arange(len(taus)), (taus != inverses).argmax(axis=1)  # where they first differ (0 if nowhere)
    table = taus[taus[first] <= inverses[first]]
    table.setflags(write=False)
    return table


def _check_order(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")


def _truncation_walk(model, n: int, k: int, strategy: str):
    """Check the arguments of an order-k truncation and fix what does not depend on the output.

    Returns ``walk(rows, cols)``: orders 0..k, without the normalization, of
    each interference matrix rows[:, cols[b]] of an (n, w) block ``rows`` and a
    (B, n) table ``cols`` of distinct column indices.  One matrix is
    ``walk(matrix, np.arange(n)[None])``; a block of outputs from one input is
    the input's rows of the transfer matrix with each output's modes.  Once the
    cost per matrix (``inverse_pairs`` per class) is within ``_WORK``, the
    weights and one int8 table of permutations are fixed here for either
    strategy, from the cached class tables (``_class_table``): one tau per pair
    {tau, tau^-1} moving 0, 2..k points, kept where w(tau) or w(tau^-1) =
    prod_i S[tau(i), i] is nonzero (0 for an involution, tau o tau = id).
    ``walk`` refuses a block over ``_WORK``, else takes its (B, T) Hadamard
    permanents h in one evaluator call, adds w(tau) h + w(tau^-1) conj(h) and
    checks each order of each matrix against its own summed (|w(tau)| +
    |w(tau^-1)|) |h|; orders with no permutation, 1 among them, stay zero.
    """
    _check_order(k, n)
    classes = [inverse_pairs(n, j) for j in range(k + 1)]  # pairs {tau, tau^-1} moving j points
    if strategy == "direct":  # every column signing's Glynn terms, shared by the permutations and the block
        evaluate, work = _pair_permanents, lambda sizes: _ryser_work(n, sum(sizes))
    elif strategy == "laplace":
        evaluate, work = _laplace_split, functools.partial(_laplace_work, n)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    _afford(work(classes), "the order-{} {} walk at n = {}", k, strategy, n)
    overlaps = np.asarray(model.overlap_matrix(n))
    taus = np.concatenate([_class_table(n, j) for j in range(k + 1)])
    index = taus.astype(np.intp)  # each of the 2n gathers below would cast an int8 index again (about 0.6 us each)
    weights, partners = np.ones((2, len(taus)), dtype=overlaps.dtype)
    for i, (row, column) in enumerate(zip(overlaps, overlaps.T)):  # products over rows, without a (T, n) gather
        weights *= row[index[:, i]]
        partners *= column[index[:, i]]  # S[tau(i), i], so w(tau^-1) = prod_i S[i, tau^-1(i)]
    partners[(index[np.arange(len(taus))[:, None], index] == np.arange(n)).all(axis=1)] = 0.0  # tau o tau = id
    keep = (weights != 0.0) | (partners != 0.0)
    taus, weights, partners = taus[keep], weights[keep], partners[keep]
    scales = np.abs(weights) + np.abs(partners)
    # The classes go j = 0..k and the filters keep their order, so each order is one run of the permutations.
    moved = (taus != np.arange(n)).sum(axis=1)
    present, starts = np.unique(moved, return_index=True)
    price = work(np.bincount(moved).tolist())
    pairs = (np.arange(n), taus) if strategy == "direct" else (taus,)  # the row pairs (i, tau(i)), or tau itself

    def walk(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        _afford(len(cols) * price, "a block of {} order-{} walks at n = {}", len(cols), k, n)
        values = evaluate(rows, cols, *pairs)  # h(tau); h(tau^-1) is its conjugate
        terms = weights * values + partners * values.conj()
        orders, magnitudes = np.zeros((len(terms), k + 1), dtype=complex), np.zeros((len(terms), k + 1))
        orders[:, present] = np.add.reduceat(terms, starts, axis=1)
        magnitudes[:, present] = np.add.reduceat(scales * np.abs(values), starts, axis=1)
        return _real_part(orders, magnitudes)

    return walk


def _mixture_work(n: int, count: int) -> None:
    """Refuse, before any work, the mixture of ``count`` n x n matrices: two lattices each (n <= 12)."""
    _afford(2 * count * _lattice_work(n), "the mixture of {} matrices at n = {}", count, n)


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
    one permutation sigma at a time from ``itertools.permutations``: sigma is
    skipped when its inverse comes first in lexicographic order, else one
    ``permanent`` h of the product matrix M * conj(M[sigma, :]) adds
    w(sigma) h + w(sigma^-1) conj(h), the weights ``overlap_product`` over
    the overlaps as nested lists (an involution adds w(sigma) h alone).  That
    is (n! + I_n) / 2 permanents, I_n the involutions of n points (73, 398
    and 2,636 at n = 5, 6 and 7), priced n 2^n each (``_ryser_work``): n = 9
    at 8.4e8 kernel operations is admitted, n = 10 at 1.86e10 is over
    ``_WORK`` and raises ValueError before any work.  The result is real, and
    in [0, 1] up to roundoff for a unitary transfer matrix; its imaginary
    residue must stay within 1e-10 of the summed (|w(sigma)| +
    |w(sigma^-1)|) |h| (ArithmeticError above).
    """
    n = inst.n
    _afford(_ryser_work(n, sum(inverse_pairs(n, j) for j in range(n + 1))), "exact evaluation at n = {}", n)
    overlaps = np.asarray(inst.model.overlap_matrix(n)).tolist()
    matrix = inst.interference_matrix
    conj = np.conj(matrix)
    total = 0.0 + 0.0j
    magnitude = 0.0
    for sigma in itertools.permutations(range(n)):
        inverse = tuple(sorted(range(n), key=sigma.__getitem__))
        if inverse < sigma:  # the pair's first member was summed already
            continue
        weight = overlap_product(overlaps, sigma)
        partner = overlap_product(overlaps, inverse) if inverse != sigma else 0.0
        if weight == 0.0 and partner == 0.0:
            continue
        value = permanent(matrix * conj[sigma, :])
        total += weight * value + partner * value.conjugate()
        magnitude += (abs(weight) + abs(partner)) * abs(value)
    norm = inst.normalization
    return float(_real_part(total / norm, magnitude / norm))


def exact_probability_by_order(inst: ExperimentInstance) -> np.ndarray:
    """Decompose the exact probability into interference orders 0..n.

    Entry j is the total contribution of permutations moving exactly j
    photons; entry 1 is always zero and the entries sum to the exact
    probability.  Homogeneous and OBB models take the mixture engine, about
    C(2n, n) pairs of sub-permanents (n = 7 in about 1 ms, n = 9 in about
    8 ms and n = 12 in about 0.4 s on a 2-core host) up to n = 12; explicit
    overlap matrices take the walk over one permutation of each of the
    (n! + I_n) / 2 inverse pairs, up to n = 9 by the ``_WORK`` budget.  Beyond these, ValueError is raised before any work.
    """
    visibilities = getattr(inst.model, "visibilities", None)
    if visibilities is None:
        return np.array(truncated_probability(inst, inst.n).per_order)
    _mixture_work(inst.n, 1)
    return _mixture_orders(inst.interference_matrix[None], visibilities(inst.n))[0] / inst.normalization


def truncated_probability(inst: ExperimentInstance, k: int, strategy: str = "direct") -> TruncationResult:
    """Keep only the interference orders up to k.

    ``strategy="direct"`` evaluates each permanent whole; ``strategy="laplace"``
    expands every term about the moved rows so the complex permanents never
    exceed size k, at the price of C(n, j)-term inner sums over non-negative
    permanents of the fixed rows (see ``truncation_cost_estimate`` for the
    kernel-operation count).  The Laplace walk is an independent check of the
    direct one, and slower (at k = 2, 0.05 s at n = 12 and 2.3 s at n = 16
    with one BLAS thread on a 2-core host, against 5 ms and 0.14 s).  Both
    strategies agree up to roundoff; k = n reproduces the exact probability,
    and a walk over ``_WORK`` (``linalg._ryser_work`` per pair {tau, tau^-1}
    for the direct one, at k = 2 the Laplace one from n = 17) raises
    ValueError before any work.  Each order's imaginary residue must stay
    within 1e-10 of its summed |terms| (ArithmeticError above).

    Numerics: the worst imaginary residue of orders 0 and 2 over their summed
    |terms|, direct walk, 2 complex Gaussian matrices per size (m = n^2, OBB
    visibilities from 0.95 down to 0.55), at n = 12 / 14 / 16 / 18 / 20 was
    2.7e-16 / 5.7e-17 / 1.2e-16 / 5.3e-16 / 9.3e-16 (1.3e-15 at n = 19).
    Orders 0, 2 and 3 (k = 3), seeds 1 / 2, Gram overlaps of n unit vectors:

        n        13       14       15       16
        seed 1   1.5e-16  1.7e-16  5.6e-16  1.9e-16
        seed 2   2.4e-16  8.1e-17  4.8e-16  4.7e-16

    Order 3 read at most 6.4e-18 there, and is exactly 0 for OBB and
    homogeneous overlaps: real and symmetric, they give a pair of 3-cycles
    one weight w, w h + w conj(h).  (n = 16 at k = 3: 0.7 s, one BLAS thread.)
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

    ``linalg._laplace_work`` over the P_j = ``inverse_pairs(n, j)`` pairs
    {tau, tau^-1} moving j <= k points, one evaluated per pair:
    P_j * C(n, j) * (j 2^j + (n - j) 2^(n - j)) for the small complex
    permanents and their complements.  A transposition is its own pair, and
    the 8 three-cycles of 4 points are 4 pairs, so (3, 2) costs 24 + 90 = 114,
    (4, 3) costs 64 + 576 + 416 = 1056, (12, 0) costs 12 * 2^12 = 49152 for
    one whole complement, and (18, 2) costs 2.46e10, over ``linalg._WORK``.
    """
    _check_order(k, n)
    return _laplace_work(n, [inverse_pairs(n, j) for j in range(k + 1)])
