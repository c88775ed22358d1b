"""Truncation-error bounds, variance predictions, and Monte-Carlo validation.

For Gaussian-distributed interference matrices the truncation error at order
k has mean zero, and its variance is a weighted sum over the neglected
interference orders.  Bounding the order weights by powers of the quadratic
mean of the pairwise visibilities turns the variance into a truncated
geometric series, which yields a system-size-independent upper bound on the
expected L1 distance between the truncated and the exact output
distribution:

    l1 <= sqrt(y**(k+1) / (1 - y))

with ratio y = (quadratic mean of the pairwise visibilities) for
per-photon visibilities.  The homogeneous model is the uniform case of the
per-photon (OBB) model, and for it the ratio is exactly x**2.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .combinat import rencontres, symmetric_means
from .distinguishability import GeneralizedOBBModel, quadratic_mean_visibility
from .fields import SEED, convert, own
from .probability import _check_order, _mixture_orders, _mixture_work
from .randgen import gaussian_matrix, trial_rng

__all__ = [
    "DivergenceError",
    "BoundSpec",
    "l1_bound",
    "min_truncation_order",
    "truncation_order_curves",
    "predicted_variance",
    "predicted_variance_exact",
    "EnsembleReport",
    "validate_bound_monte_carlo",
]

_KINDS = ("homogeneous_x", "quadratic_mean", "max_visibility")


class DivergenceError(ValueError):
    """The geometric ratio reached 1, so the bound diverges."""


@dataclass(frozen=True)
class BoundSpec:
    """A bound family and truncation order.

    ``homogeneous_x`` takes the uniform visibility x, ``max_visibility``
    takes the largest pairwise visibility (the legacy fallback for
    non-uniform photons), and ``quadratic_mean`` takes the quadratic mean of
    the pairwise visibilities directly.  The first two use ratio
    parameter**2, the last uses the parameter itself, so the families agree
    when the quadratic-mean parameter equals x**2.
    """

    kind: str
    parameter: float
    k: int
    _kinds = {"kind": list(_KINDS), "parameter": (float, 0.0), "k": (int, 0)}

    def __post_init__(self):
        own(self, "bound", self._kinds)
        if self.parameter >= 1.0:
            raise DivergenceError(f"bound diverges for parameter {self.parameter} >= 1")

    @property
    def ratio(self) -> float:
        return self.parameter if self.kind == "quadratic_mean" else self.parameter * self.parameter


def l1_bound(spec: BoundSpec) -> float:
    """Upper bound on the expected L1 distance after truncating at spec.k."""
    y = spec.ratio
    return math.sqrt(y ** (spec.k + 1) / (1.0 - y))


def min_truncation_order(parameter: float, epsilon: float, kind: str = "homogeneous_x") -> int:
    """Smallest truncation order whose L1 bound is at most ``epsilon``.

    Solved in closed form from the geometric tail and then verified (and, at
    floating-point edges, corrected) by evaluating the bound at the result
    and one order below.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    y = BoundSpec(kind, parameter, 0).ratio
    if y == 0.0:
        return 0
    target = epsilon * epsilon * (1.0 - y)
    k = max(0, math.ceil(math.log(target) / math.log(y) - 1.0))

    def bound_at(order: int) -> float:
        return l1_bound(BoundSpec(kind, parameter, order))

    while bound_at(k) > epsilon:
        k += 1
    while k > 0 and bound_at(k - 1) <= epsilon:
        k -= 1
    return k


def truncation_order_curves(sigma: float, epsilons, mu_grid) -> list[dict]:
    """Minimal truncation orders across a grid of mean visibilities.

    For every (mu, epsilon) pair two orders are reported: ``k_max_bound``
    treats all photons as good as the best plausible one (visibility
    mu + 2*sigma), and ``k_m2_bound`` uses the large-n quadratic-mean ratio
    mu**2 + sigma**2 of an i.i.d. Gaussian visibility ensemble.  Grid points
    whose ratio reaches 1 are flagged divergent (order None).  The
    quadratic-mean order never exceeds the max-visibility order.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    rows = []
    for mu in mu_grid:
        if mu < 0.0:
            raise ValueError("mu must be non-negative")
        for epsilon in epsilons:
            x_max = mu + 2.0 * sigma
            m2 = mu * mu + sigma * sigma
            try:
                k_max = min_truncation_order(x_max, epsilon, kind="max_visibility")
            except DivergenceError:
                k_max = None
            try:
                k_m2 = min_truncation_order(m2, epsilon, kind="quadratic_mean")
            except DivergenceError:
                k_m2 = None
            rows.append(
                {
                    "mu": float(mu),
                    "epsilon": float(epsilon),
                    "k_max_bound": k_max,
                    "k_m2_bound": k_m2,
                }
            )
    return rows


def predicted_variance(n: int, m: int, k: int, model) -> float:
    """Geometric-series approximation of the truncation-error variance.

    Evaluates (n!)**2 / m**(2n) times the tail sum of ratio**j over the
    neglected orders j = k+1..n.  Order j = 1 is excluded: no permutation
    moves exactly one point, so that order carries no terms (keeping it
    would roughly double the prediction at k = 0).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    if k < 0:
        raise ValueError("k must be non-negative")
    ratio = quadratic_mean_visibility(model)
    model.visibilities(n)  # an OBB vector must carry n visibilities
    return _geometric_variance(n, m, k, ratio)


def _geometric_variance(n: int, m: int, k: int, ratio: float) -> float:
    """``predicted_variance`` for a given quadratic-mean ratio, without input checks."""
    tail = sum(ratio**j for j in range(k + 1, n + 1) if j != 1)
    return float(math.factorial(n)) ** 2 / float(m) ** (2 * n) * tail


def predicted_variance_exact(n: int, m: int, k: int, model) -> float:
    """Exact pre-approximation variance of the truncation error.

    Keeps the full combinatorics: for each neglected order j the class count
    times the order-j symmetric mean of the squared visibilities, times the
    n! * sum_p R(n-j, p) * 2**p covariance count.  The geometric form above
    replaces the order weights by powers of the quadratic mean and drops the
    combinatorial factor, which is accurate only for large n and n - j.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    if k < 0:
        raise ValueError("k must be non-negative")
    if not isinstance(model, GeneralizedOBBModel):
        raise ValueError("variance prediction needs a homogeneous or OBB model")
    means = symmetric_means(np.square(model.visibilities(n))).means
    n_fact = math.factorial(n)
    total = 0.0
    for j in range(k + 1, n + 1):
        covariance_count = n_fact * sum(rencontres(n - j, p) * 2**p for p in range(n - j + 1))
        total += rencontres(n, n - j) * float(means[j]) * covariance_count
    return total / float(m) ** (2 * n)


@dataclass
class EnsembleReport:
    """Seeded Monte-Carlo check of the truncation-error statistics."""

    n: int
    m: int
    k: int
    trials: int
    seed: int
    model: dict
    mean_abs_error: float
    mean_error: float
    error_variance: float
    predicted_variance: float
    predicted_l1_bound: float
    scaled_l1_estimate: float
    bound_satisfied: bool
    mean_zero_consistent: bool
    l1_bound_satisfied: bool

    def to_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _trial_error(matrices: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Truncation error at order k of each trial matrix in the stack: its neglected orders summed."""
    return _mixture_orders(matrices, x)[:, k + 1 :].sum(axis=1)


def validate_bound_monte_carlo(n: int, m: int, k: int, model, trials: int, seed: int) -> EnsembleReport:
    """Draw Gaussian instances, measure the truncation error, test the bounds.

    Each trial draws an independent n x n complex Gaussian matrix from a
    sub-stream of ``seed`` (``trial_rng(seed, trial)``), and the exact
    truncation errors at order k of all trials come from one call of the
    mixture engine over the stack of matrices (see ``probability``): about
    C(2n, n) pairs of sub-permanents per trial, so a 50-trial n = 5
    ensemble takes about 2 ms.  The report compares the empirical
    statistics against the predicted variance and L1 bound: the mean
    absolute error must not exceed the square root of the predicted
    variance (with a 4/sqrt(trials) slack), the mean error must be within
    four standard errors of zero, and the mean absolute error scaled by
    C(m, n) * n! / m**n (the number of non-collisional outputs times the
    typical outcome weight) must stay below the L1 bound.  The bound takes
    the quadratic-mean ratio of the model (x * x for a uniform visibility
    x); a ratio of 1, an OBB vector without n visibilities, a negative seed,
    m < n, n > 12, or trials * n * C(2n, n) kernel operations over the
    ``_WORK`` budget (a 50-trial ensemble passes up to n = 12) raises before
    any trial is drawn.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials")
    _check_order(k, n)
    seed = convert("validation", "seed", SEED, seed)
    if m < n:  # C(m, n) = 0 would scale every L1 estimate to 0
        raise ValueError("need at least as many modes as photons")
    _mixture_work(n, trials)
    spec = BoundSpec(kind="quadratic_mean", parameter=quadratic_mean_visibility(model), k=k)
    x = model.visibilities(n)

    matrices = np.array([gaussian_matrix(n, m, trial_rng(seed, trial)) for trial in range(trials)])
    errors = _trial_error(matrices, x, k)

    mean_abs = float(np.mean(np.abs(errors)))
    mean = float(np.mean(errors))
    variance = float(np.var(errors, ddof=1))
    stderr = math.sqrt(variance / trials)
    predicted = _geometric_variance(n, m, k, spec.parameter)
    slack = 4.0 / math.sqrt(trials)

    l1 = l1_bound(spec)
    outcome_scale = math.comb(m, n) * math.factorial(n) / float(m) ** n
    scaled_l1 = outcome_scale * mean_abs

    return EnsembleReport(
        n=n,
        m=m,
        k=k,
        trials=trials,
        seed=seed,
        model=model.to_dict(),
        mean_abs_error=mean_abs,
        mean_error=mean,
        error_variance=variance,
        predicted_variance=predicted,
        predicted_l1_bound=l1,
        scaled_l1_estimate=scaled_l1,
        bound_satisfied=mean_abs <= math.sqrt(predicted) * (1.0 + slack),
        mean_zero_consistent=abs(mean) <= 4.0 * stderr,
        l1_bound_satisfied=scaled_l1 <= l1 * (1.0 + slack),
    )
