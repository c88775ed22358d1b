"""Output probabilities: exact, decomposed by interference order, and truncated.

The exact probability of one detection outcome sums, over all permutations of
the photons, the product of pairwise overlaps times the permanent of the
interference matrix Hadamard-multiplied with its row-permuted conjugate.
Grouping permutations by how many points they move splits the probability
into interference orders; order j collects every contribution in which
exactly j photons interfere while the rest undergo classical transmission.
Truncating at order k keeps the at-most-k-photon interference terms, and the
neglected tail is the truncation error.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .combinat import partial_derangements
from .distinguishability import model_from_dict, overlap_product
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

_EXACT_LIMIT = 12
_IMAG_RESIDUE = 1e-10


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

    def with_output(self, output_occupation) -> "ExperimentInstance":
        return ExperimentInstance(
            unitary=self.unitary,
            input_occupation=self.input_occupation,
            output_occupation=tuple(output_occupation),
            model=self.model,
        )

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


def _real_part(value: complex, magnitude: float) -> float:
    # The imaginary parts cancel in conjugate pairs (tau with its inverse), so
    # what is left is roundoff relative to the summed term magnitudes.
    if abs(value.imag) > _IMAG_RESIDUE * magnitude:
        raise ArithmeticError(f"imaginary residue {value.imag:g} above {_IMAG_RESIDUE:g} x {magnitude:g}")
    return float(value.real)


def _order_walk(inst: ExperimentInstance, k: int, evaluate) -> list[float]:
    """Contributions of interference orders 0..k, one permutation class per order.

    ``evaluate(matrix, tau)`` is the Hadamard permanent for permutation tau;
    entry 1 stays zero because no permutation moves exactly one point.
    """
    n = inst.n
    overlaps = inst.model.overlap_matrix(n)
    matrix = inst.interference_matrix
    norm = inst.normalization
    per_order = [0.0] * (k + 1)
    for j in itertools.chain((0,), range(2, k + 1)):
        total = 0.0 + 0.0j
        magnitude = 0.0
        for tau in partial_derangements(n, j):
            weight = overlap_product(overlaps, tau)
            if weight == 0.0:
                continue
            term = weight * evaluate(matrix, tau)
            total += term
            magnitude += abs(term)
        per_order[j] = _real_part(total / norm, magnitude / norm)
    return per_order


def exact_probability(inst: ExperimentInstance) -> float:
    """Probability of the instance's detection outcome, by direct sum.

    Sums over the full symmetric group, independently of the per-order
    walk; cost grows as n! * 2^n * n, so the photon number is capped at 12.
    For a unitary transfer matrix the result lies in [0, 1] up to roundoff,
    for arbitrary matrices it is only guaranteed real.
    """
    n = inst.n
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact evaluation is limited to n <= {_EXACT_LIMIT}")
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
    return _real_part(total / norm, magnitude / norm)


def exact_probability_by_order(inst: ExperimentInstance) -> np.ndarray:
    """Decompose the exact probability into interference orders 0..n.

    Entry j is the total contribution of permutations moving exactly j
    photons; entry 1 is always zero and the entries sum to the exact
    probability.
    """
    if inst.n > _EXACT_LIMIT:
        raise ValueError(f"exact evaluation is limited to n <= {_EXACT_LIMIT}")
    return np.array(_order_walk(inst, inst.n, hadamard_permanent))


def truncated_probability(inst: ExperimentInstance, k: int, strategy: str = "direct") -> TruncationResult:
    """Keep only the interference orders up to k.

    ``strategy="direct"`` evaluates each permanent whole (n <= 12);
    ``strategy="laplace"`` expands every term about the moved rows so the
    complex permanents never exceed size k, at the price of
    C(n, j)-term inner sums over non-negative permanents (see
    ``truncation_cost_estimate`` for the kernel-operation count).  Both
    strategies return the same value up to roundoff, and k = n reproduces
    the exact probability.
    """
    n = inst.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    if strategy == "direct":
        if n > _EXACT_LIMIT:
            raise ValueError(f"direct strategy is limited to n <= {_EXACT_LIMIT}")
        evaluate = hadamard_permanent
    elif strategy == "laplace":
        evaluate = laplace_split_permanent
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    start = time.perf_counter()
    per_order = _order_walk(inst, k, evaluate)
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
    """Kernel operations for the expanded evaluation of an order-k truncation.

    Counts, over orders j <= k, (class size) * C(n, j) * (2^j * j +
    2^(n-j) * (n-j)) elementary operations, i.e. one small complex permanent
    and one non-negative permanent per column subset and per permutation.
    """
    from .combinat import rencontres

    total = 0
    for j in itertools.chain((0,), range(2, k + 1)):
        class_size = rencontres(n, n - j)
        per_term = (1 << j) * j + (1 << (n - j)) * (n - j)
        total += class_size * math.comb(n, j) * per_term
    return total
