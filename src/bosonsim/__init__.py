"""Boson-sampling output probabilities for partially distinguishable photons.

The package computes exact detection probabilities (permanent sums over the
photon permutation group), decomposes them by multiphoton interference
order, truncates the series at a chosen order, bounds the L1 error of the
truncation for homogeneous and per-photon visibility models, validates
those bounds by seeded Monte-Carlo, and draws output samples from the
truncated distribution with a Metropolis chain.  The ``bosonsim`` command
exposes the same operations with JSON/CSV artifacts.
"""

from .bounds import (
    BoundSpec,
    DivergenceError,
    EnsembleReport,
    l1_bound,
    min_truncation_order,
    predicted_variance,
    predicted_variance_exact,
    truncation_order_curves,
    validate_bound_monte_carlo,
)
from .combinat import (
    SymmetricMeans,
    inverse_pairs,
    overlap_class_sum,
    partial_derangements,
    rencontres,
    symmetric_means,
)
from .distinguishability import (
    ExplicitModel,
    GeneralizedOBBModel,
    HomogeneousModel,
    model_from_dict,
    overlap_matrix,
    overlap_product,
    quadratic_mean_visibility,
)
from .linalg import hadamard_permanent, laplace_split_permanent, permanent, submatrix
from .probability import (
    ExperimentInstance,
    TruncationResult,
    exact_probability,
    exact_probability_by_order,
    mode_assignment,
    output_configurations,
    truncated_probability,
    truncation_cost_estimate,
    truncation_error,
)
from .randgen import EnsembleSpec, gaussian_matrix, haar_unitary, trial_rng, visibility_vector
from .sampler import ChainConfig, DegenerateTargetError, metropolis_sample, output_distribution

__version__ = "0.1.0"

__all__ = [
    "BoundSpec",
    "ChainConfig",
    "DegenerateTargetError",
    "DivergenceError",
    "EnsembleReport",
    "EnsembleSpec",
    "ExperimentInstance",
    "ExplicitModel",
    "GeneralizedOBBModel",
    "HomogeneousModel",
    "SymmetricMeans",
    "TruncationResult",
    "exact_probability",
    "exact_probability_by_order",
    "gaussian_matrix",
    "haar_unitary",
    "hadamard_permanent",
    "inverse_pairs",
    "l1_bound",
    "laplace_split_permanent",
    "metropolis_sample",
    "min_truncation_order",
    "mode_assignment",
    "model_from_dict",
    "output_configurations",
    "output_distribution",
    "overlap_class_sum",
    "overlap_matrix",
    "overlap_product",
    "partial_derangements",
    "permanent",
    "predicted_variance",
    "predicted_variance_exact",
    "quadratic_mean_visibility",
    "rencontres",
    "submatrix",
    "symmetric_means",
    "trial_rng",
    "truncated_probability",
    "truncation_cost_estimate",
    "truncation_error",
    "truncation_order_curves",
    "validate_bound_monte_carlo",
    "visibility_vector",
    "__version__",
]
