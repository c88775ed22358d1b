"""Seeded random ensembles: Haar unitaries, complex Gaussian matrices, visibility vectors.

Every generator accepts either a 64-bit seed or a ``numpy.random.Generator``.
Identical seeds give bitwise-identical outputs; ensembles used by Monte-Carlo
runs derive one independent sub-stream per trial from (master seed, trial
index), so results do not depend on how trials are scheduled across workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnsembleSpec",
    "trial_rng",
    "haar_unitary",
    "gaussian_matrix",
    "visibility_vector",
]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from (seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def haar_unitary(m: int, seed) -> np.ndarray:
    """Draw an m x m Haar-distributed unitary.

    Complex Ginibre draw followed by QR, with the phases of the R diagonal
    absorbed into Q so the R diagonal is positive real; without that phase
    fix the QR output is not Haar.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    rng = _as_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def gaussian_matrix(n: int, norm_dim: int, seed) -> np.ndarray:
    """Draw an n x n matrix of i.i.d. complex Gaussians with E|M_ij|^2 = 1/norm_dim.

    Real and imaginary parts are independent with variance 1/(2*norm_dim).
    """
    if n < 1 or norm_dim < 1:
        raise ValueError("n and norm_dim must be positive integers")
    rng = _as_rng(seed)
    scale = 1.0 / np.sqrt(2.0 * norm_dim)
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def visibility_vector(n: int, mu: float, sigma: float, seed) -> np.ndarray:
    """Draw n per-photon visibilities x_i ~ Normal(mu, sigma^2) clamped to [0, 1].

    Clamping keeps the number of draws deterministic; for the intended
    regimes (sigma of order 0.02, mu well inside [0, 1]) the clamping
    probability is negligible.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    rng = _as_rng(seed)
    return np.clip(rng.normal(mu, sigma, size=n), 0.0, 1.0)


@dataclass(frozen=True)
class EnsembleSpec:
    """Reproducible matrix ensemble: same spec, same matrix, bit for bit.

    ``kind`` is "haar_unitary" (m x m unitary) or "gaussian_iid" (n x n
    complex Gaussian normalized by 1/m); ``n`` is only used by the Gaussian
    kind.
    """

    kind: str
    m: int
    seed: int
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("haar_unitary", "gaussian_iid"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.kind == "gaussian_iid" and (self.n is None or self.n < 1):
            raise ValueError("gaussian_iid requires a positive photon count n")

    def build(self) -> np.ndarray:
        if self.kind == "haar_unitary":
            return haar_unitary(self.m, self.seed)
        return gaussian_matrix(self.n, self.m, self.seed)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "m": self.m, "seed": self.seed}
        if self.n is not None:
            out["n"] = self.n
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleSpec":
        """Parse an ensemble descriptor; a malformed one raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("ensemble must be a JSON object")
        allowed = {"kind", "m", "seed", "n"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown ensemble fields: {sorted(unknown)}")
        try:
            return cls(
                kind=data["kind"],
                m=int(data["m"]),
                seed=int(data["seed"]),
                n=int(data["n"]) if "n" in data else None,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad ensemble descriptor ({type(exc).__name__}: {exc})") from None
