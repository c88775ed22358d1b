"""Partial-distinguishability models and the pairwise overlap matrix.

Two model families are supported:

* generalized orthogonal-bad-bit (OBB): photon i is split between a common
  target mode (weight sqrt(x_i)) and its own orthogonal mode, giving
  S_ii = 1 and S_ij = sqrt(x_i) * sqrt(x_j) for i != j.  The homogeneous
  model is its uniform case: one visibility x for every photon, at any
  photon count, so S_ij = x for i != j (computed as sqrt(x) * sqrt(x));
* explicit: an arbitrary Gram matrix of unit internal states.

Visibilities x_i are restricted to real values in [0, 1]; complex phases on
sqrt(x_i) cancel from every quantity computed here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinat import symmetric_means
from .fields import joined, listed, matrix, own, read

__all__ = [
    "HomogeneousModel",
    "GeneralizedOBBModel",
    "ExplicitModel",
    "overlap_matrix",
    "overlap_product",
    "quadratic_mean_visibility",
    "model_from_dict",
]

_EIGENVALUE_FLOOR = -1e-10
_MATRIX_ATOL = 1e-10


@dataclass(frozen=True)
class GeneralizedOBBModel:
    """Per-photon visibilities ``x``; pair (i, j) has overlap sqrt(x_i) * sqrt(x_j)."""

    x: tuple[float, ...]
    _kinds = {"x": listed((float, 0.0, 1.0))}

    def __post_init__(self):
        own(self, "model", self._kinds)
        if self.x == ():
            raise ValueError("model field 'x' must be non-empty")

    def visibilities(self, n: int) -> np.ndarray:
        if n != len(self.x):
            raise ValueError(f"model carries {len(self.x)} visibilities, instance has n={n}")
        return np.asarray(self.x)

    def overlap_matrix(self, n: int) -> np.ndarray:
        root = np.sqrt(self.visibilities(n))
        s = np.outer(root, root).astype(complex)
        np.fill_diagonal(s, 1.0)
        return s

    def to_dict(self) -> dict:
        return {"type": "obb", "x": list(self.x)}


@dataclass(frozen=True)
class HomogeneousModel(GeneralizedOBBModel):
    """The uniform OBB case: every photon has visibility ``x`` in [0, 1], for any photon count."""

    x: float
    _kinds = {"x": (float, 0.0, 1.0)}

    def visibilities(self, n: int) -> np.ndarray:
        return np.full(n, self.x)

    def to_dict(self) -> dict:
        return {"type": "homogeneous", "x": self.x}


class ExplicitModel:
    """Arbitrary overlap matrix, validated as a Gram matrix of unit vectors.

    The matrix must be Hermitian with unit diagonal, entries of modulus at
    most 1, and positive semidefinite up to an eigenvalue tolerance of
    -1e-10 (numerical Gram matrices routinely carry tiny negative
    eigenvalues).
    """

    def __init__(self, s):
        s = np.array(s, dtype=complex)  # a read-only copy: the caller's array cannot bypass the checks
        s.setflags(write=False)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("overlap matrix must be square")
        if not np.allclose(s, s.conj().T, atol=_MATRIX_ATOL):
            raise ValueError("overlap matrix must be Hermitian")
        if not np.allclose(np.diagonal(s), 1.0, atol=_MATRIX_ATOL):
            raise ValueError("overlap matrix must have unit diagonal")
        if np.any(np.abs(s) > 1.0 + _MATRIX_ATOL):
            raise ValueError("overlap magnitudes cannot exceed 1")
        if np.linalg.eigvalsh(s).min() < _EIGENVALUE_FLOOR:
            raise ValueError("overlap matrix is not positive semidefinite")
        self.s = s

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def overlap_matrix(self, n: int) -> np.ndarray:
        if n != self.n:
            raise ValueError(f"model carries a {self.n}x{self.n} matrix, instance has n={n}")
        return self.s

    def to_dict(self) -> dict:
        return {
            "type": "explicit",
            "s_real": self.s.real.tolist(),
            "s_imag": self.s.imag.tolist(),
        }


def overlap_matrix(model, n: int) -> np.ndarray:
    """The n x n pairwise overlap matrix of ``model``."""
    return model.overlap_matrix(n)


def overlap_product(s, perm) -> complex:
    """Product of overlaps S[i, perm[i]] over all rows.

    For the homogeneous model this is x raised to the number of moved
    points; for the OBB model a cycle over a subset contributes the product
    of that subset's visibilities.
    """
    s = np.asarray(s)
    word = np.asarray(perm, dtype=int)
    return complex(np.prod(s[np.arange(word.size), word]))


def quadratic_mean_visibility(model) -> float:
    """Quadratic mean of the pairwise two-photon interference visibilities.

    Pair (i, j) has visibility x_i * x_j; the quadratic mean is the square
    root of the order-2 symmetric mean of the squared per-photon
    visibilities q_i = x_i**2.  The q_i are scaled by their largest value
    first, so a uniform vector gives exactly x * x at every photon count (the
    homogeneous model counts as two photons).  Explicit overlap matrices are
    rejected: no comparable mean is defined for them.

    >>> quadratic_mean_visibility(HomogeneousModel(0.7)) == 0.7 * 0.7
    True
    >>> quadratic_mean_visibility(GeneralizedOBBModel((0.7,) * 3)) == 0.7 * 0.7
    True
    """
    if not isinstance(model, GeneralizedOBBModel):
        raise ValueError("quadratic mean is only defined for homogeneous and OBB models")
    # A scalar x (the homogeneous model) holds at any photon count; two photons stand for it.
    photons = len(model.x) if np.ndim(model.x) else 2
    if photons < 2:
        raise ValueError("need at least two photons for a pairwise mean")
    q = np.square(model.visibilities(photons))
    top = q.max()
    return float(top * np.sqrt(symmetric_means(q / (top or 1.0)).means[2]))


def model_from_dict(data: dict):
    """Build a model from its JSON descriptor; a malformed one raises ValueError."""
    kind = data.get("type") if isinstance(data, dict) else None
    if kind in ("homogeneous", "obb"):
        model = HomogeneousModel if kind == "homogeneous" else GeneralizedOBBModel
        return model(read(data, "model", {"type": str, **model._kinds}, ("x",))["x"])
    if kind == "explicit":
        s = read(data, "model", {"type": str, "s_real": matrix, "s_imag": matrix}, ("s_real",))
        return ExplicitModel(joined(s, "model", "s_real", "s_imag"))
    raise ValueError(f"model must be a JSON object with a 'type' of 'homogeneous', 'obb' or 'explicit', got {kind!r}")
