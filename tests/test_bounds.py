import itertools
import math
from collections import Counter

import numpy as np
import pytest

from bosonsim import bounds
from bosonsim.bounds import (
    BoundSpec,
    DivergenceError,
    l1_bound,
    min_truncation_order,
    predicted_variance,
    predicted_variance_exact,
    truncation_order_curves,
    validate_bound_monte_carlo,
)
from bosonsim.combinat import partial_derangements
from bosonsim.distinguishability import GeneralizedOBBModel, HomogeneousModel
from bosonsim.probability import ExperimentInstance, exact_probability_by_order
from bosonsim.randgen import gaussian_matrix, trial_rng


class TestL1Bound:
    def test_zero_visibility_gives_zero(self):
        for k in (0, 1, 5):
            assert l1_bound(BoundSpec("homogeneous_x", 0.0, k)) == 0.0

    def test_frozen_value(self):
        # sqrt(0.5**6 / (1 - 0.25)) evaluated directly
        got = l1_bound(BoundSpec("homogeneous_x", 0.5, 2))
        assert got == pytest.approx(0.14433756729740643, rel=1e-15)

    def test_families_coincide_under_squared_parameter(self):
        for x in np.linspace(0.0, 0.99, 34):
            for k in (0, 1, 3, 10):
                homogeneous = l1_bound(BoundSpec("homogeneous_x", x, k))
                quadratic = l1_bound(BoundSpec("quadratic_mean", x * x, k))
                assert quadratic == pytest.approx(homogeneous, rel=1e-12, abs=1e-300)

    def test_max_visibility_matches_homogeneous_formula(self):
        assert l1_bound(BoundSpec("max_visibility", 0.7, 3)) == l1_bound(BoundSpec("homogeneous_x", 0.7, 3))

    def test_divergence_at_unit_parameter(self):
        with pytest.raises(DivergenceError):
            BoundSpec("homogeneous_x", 1.0, 2)
        with pytest.raises(DivergenceError):
            BoundSpec("quadratic_mean", 1.0, 0)

    def test_rejects_negative_parameter_and_order(self):
        with pytest.raises(ValueError):
            BoundSpec("homogeneous_x", -0.1, 2)
        with pytest.raises(ValueError):
            BoundSpec("quadratic_mean", math.nan, 2)
        with pytest.raises(ValueError):
            BoundSpec("homogeneous_x", 0.5, -1)
        with pytest.raises(ValueError):
            BoundSpec("rms", 0.5, 1)


class TestMinTruncationOrder:
    def test_tiny_parameter_needs_no_truncation(self):
        assert min_truncation_order(1e-4, 0.05) == 0

    def test_minimality_against_scan(self):
        # oracle: linear scan of the bound formula
        for parameter in (0.05, 0.3, 0.5, 0.7, 0.9, 0.97):
            for epsilon in (0.01, 0.05, 0.2):
                for kind in ("homogeneous_x", "quadratic_mean"):
                    k = min_truncation_order(parameter, epsilon, kind)
                    scan = 0
                    while l1_bound(BoundSpec(kind, parameter, scan)) > epsilon:
                        scan += 1
                    assert k == scan
                    assert l1_bound(BoundSpec(kind, parameter, k)) <= epsilon
                    if k > 0:
                        assert l1_bound(BoundSpec(kind, parameter, k - 1)) > epsilon

    def test_frozen_value_for_high_visibility(self):
        # scan for x=0.9, epsilon=0.05 lands at order 36
        assert min_truncation_order(0.9, 0.05) == 36

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            min_truncation_order(1.0, 0.05)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            min_truncation_order(0.5, 0.0)
        with pytest.raises(ValueError):
            min_truncation_order(0.5, 1.0)


class TestCurves:
    def test_monotone_and_ordered(self):
        mu_grid = [round(0.5 + 0.01 * i, 10) for i in range(46)]
        rows = truncation_order_curves(0.02, [0.01, 0.05], mu_grid)
        by_eps = {}
        for row in rows:
            assert row["k_m2_bound"] <= row["k_max_bound"]
            by_eps.setdefault(row["epsilon"], []).append(row)
        for series in by_eps.values():
            for a, b in zip(series, series[1:]):
                assert b["k_max_bound"] >= a["k_max_bound"]
                assert b["k_m2_bound"] >= a["k_m2_bound"]

    def test_zero_spread_still_ordered(self):
        rows = truncation_order_curves(0.0, [0.05], [0.5, 0.7, 0.9])
        for row in rows:
            assert row["k_m2_bound"] <= row["k_max_bound"]

    def test_divergent_rows_flagged(self):
        rows = truncation_order_curves(0.02, [0.05], [0.97])
        assert rows[0]["k_max_bound"] is None  # 0.97 + 0.04 > 1
        assert rows[0]["k_m2_bound"] is not None


def _wick_variance(n, m, k, x):
    """Exhaustive complex-Gaussian moment expansion of the error variance."""
    taus = []
    for j in range(k + 1, n + 1):
        taus.extend((j, tau) for tau in partial_derangements(n, j))
    total = 0.0
    for (j_a, tau_a), (j_b, tau_b) in itertools.product(taus, repeat=2):
        weight = x ** (j_a + j_b)
        for rho_a in itertools.permutations(range(n)):
            for rho_b in itertools.permutations(range(n)):
                plain = Counter()
                conjugated = Counter()
                for r in range(n):
                    plain[(r, rho_a[r])] += 1
                    conjugated[(tau_a[r], rho_a[r])] += 1
                    conjugated[(r, rho_b[r])] += 1
                    plain[(tau_b[r], rho_b[r])] += 1
                if plain.keys() != conjugated.keys():
                    continue
                value = 1.0
                for entry, count in plain.items():
                    if conjugated[entry] != count:
                        value = 0.0
                        break
                    value *= math.factorial(count) / m**count
                total += weight * value
    return total


class TestPredictedVariance:
    def test_full_truncation_has_no_error(self):
        assert predicted_variance(5, 25, 5, HomogeneousModel(0.7)) == 0.0
        assert predicted_variance_exact(5, 25, 5, HomogeneousModel(0.7)) == 0.0

    def test_distinguishable_photons_have_no_error(self):
        assert predicted_variance(5, 25, 0, HomogeneousModel(0.0)) == 0.0
        assert predicted_variance_exact(5, 25, 0, HomogeneousModel(0.0)) == 0.0

    def test_exact_form_matches_two_photon_closed_form(self):
        # n=2: the only neglected class is the swap, with variance 2*x^4/m^4
        x, m = 0.7, 9
        assert predicted_variance_exact(2, m, 0, HomogeneousModel(x)) == pytest.approx(
            2 * x**4 / m**4, rel=1e-14
        )
        assert predicted_variance_exact(2, m, 1, HomogeneousModel(x)) == pytest.approx(
            2 * x**4 / m**4, rel=1e-14
        )

    def test_exact_form_matches_wick_oracle(self):
        x, m = 0.6, 7
        for n in (2, 3):
            for k in range(n):
                oracle = _wick_variance(n, m, k, x)
                assert predicted_variance_exact(n, m, k, HomogeneousModel(x)) == pytest.approx(
                    oracle, rel=1e-12
                )

    def test_frozen_exact_value(self):
        # hand evaluation of the combinatorial sum for n=5, m=25, k=2, x=0.6:
        # orders 3..5 contribute 559.872 + 181.398528 + 31.926140928 over 25^10
        got = predicted_variance_exact(5, 25, 2, HomogeneousModel(0.6))
        assert got == pytest.approx(773.196668928 / 25**10, rel=1e-12)

    def test_geometric_form_tracks_exact_form_at_desk_scale(self):
        # The geometric form drops the combinatorial factor, which is a
        # large-n approximation; at n=5 the deviation reaches ~30%, so the
        # meaningful contract is agreement well within the factor-1.5 budget
        # used by the Monte-Carlo gate.
        for x in (0.5, 0.6, 0.7):
            model = HomogeneousModel(x)
            for k in (0, 1, 2):
                ratio = predicted_variance(5, 25, k, model) / predicted_variance_exact(5, 25, k, model)
                assert 1 / 1.5 < ratio < 1.5

    def test_frozen_geometric_to_exact_ratio(self):
        ratio = predicted_variance(5, 25, 2, HomogeneousModel(0.6)) / predicted_variance_exact(
            5, 25, 2, HomogeneousModel(0.6)
        )
        assert ratio == pytest.approx(1.2943439071, rel=1e-9)

    def test_skips_structurally_empty_first_order(self):
        # no permutation moves exactly one point, so k=0 and k=1 predict the same
        model = HomogeneousModel(0.7)
        assert predicted_variance(5, 25, 0, model) == predicted_variance(5, 25, 1, model)
        assert predicted_variance_exact(5, 25, 0, model) == predicted_variance_exact(5, 25, 1, model)

    def test_obb_uses_quadratic_mean_ratio(self):
        x = (0.9, 0.5, 0.7, 0.6)
        model = GeneralizedOBBModel(x)
        uniform = HomogeneousModel(math.sqrt(math.sqrt(sum(
            (a * b) ** 2 for a, b in itertools.combinations(x, 2)) / 6)))
        assert predicted_variance(4, 16, 1, model) == pytest.approx(
            predicted_variance(4, 16, 1, uniform), rel=1e-12
        )

    def test_exact_form_dominates_mclaurin_bounded_tail(self):
        # replacing the order means by powers of the quadratic mean can only
        # grow each tail term
        x = (0.9, 0.5, 0.7, 0.6, 0.8)
        model = GeneralizedOBBModel(x)
        from bosonsim.combinat import rencontres, symmetric_means
        from bosonsim.distinguishability import quadratic_mean_visibility

        values = np.asarray(x) ** 2
        means = symmetric_means(values).means
        y = quadratic_mean_visibility(model)
        for j in range(2, 6):
            assert means[j] <= y**j + 1e-15

    def test_rejects_explicit_model(self):
        from bosonsim.distinguishability import ExplicitModel

        with pytest.raises(ValueError):
            predicted_variance(3, 9, 1, ExplicitModel(np.eye(3)))


class TestMonteCarloValidation:
    def test_full_truncation_reports_zeros(self):
        report = validate_bound_monte_carlo(3, 9, 3, HomogeneousModel(0.8), trials=50, seed=1)
        assert report.mean_abs_error == 0.0
        assert report.error_variance == 0.0
        assert report.bound_satisfied and report.mean_zero_consistent and report.l1_bound_satisfied

    def test_distinguishable_photons_report_zeros(self):
        report = validate_bound_monte_carlo(3, 9, 0, HomogeneousModel(0.0), trials=50, seed=1)
        assert report.mean_abs_error == 0.0

    def test_statistics_and_bounds_hold(self):
        report = validate_bound_monte_carlo(4, 16, 1, HomogeneousModel(0.7), trials=200, seed=10)
        assert report.bound_satisfied
        assert report.mean_zero_consistent
        assert report.l1_bound_satisfied
        assert 1 / 3 < report.error_variance / report.predicted_variance < 3

    def test_obb_model_supported(self):
        model = GeneralizedOBBModel((0.9, 0.6, 0.8, 0.7))
        report = validate_bound_monte_carlo(4, 16, 2, model, trials=100, seed=4)
        assert report.bound_satisfied
        assert report.model == model.to_dict()

    def test_stacked_errors_match_per_trial_orders(self):
        # n = 6 stacks are evaluated in groups of 40, so 90 trials span three groups.
        n, m, k, trials, seed = 6, 36, 2, 90, 2
        model = GeneralizedOBBModel((0.9, 0.0, 0.8, 0.7, 1.0, 0.6))
        errors = np.array([
            exact_probability_by_order(ExperimentInstance.from_matrix(gaussian_matrix(n, m, trial_rng(seed, t)), model))[k + 1 :].sum()
            for t in range(trials)
        ])
        report = validate_bound_monte_carlo(n, m, k, model, trials=trials, seed=seed)
        scale = float(np.mean(np.abs(errors)))
        assert report.mean_abs_error == pytest.approx(scale, rel=1e-12)
        assert abs(report.mean_error - np.mean(errors)) <= 1e-12 * scale
        assert report.error_variance == pytest.approx(np.var(errors, ddof=1), rel=1e-10)

    @pytest.fixture
    def no_trials(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before the arguments were checked")

        monkeypatch.setattr(bounds, "gaussian_matrix", no_trials)
        monkeypatch.setattr(bounds, "_trial_error", no_trials)

    @pytest.mark.parametrize("model, error", [
        (HomogeneousModel(1.0), DivergenceError),
        (GeneralizedOBBModel((1.0,) * 3), DivergenceError),
        (GeneralizedOBBModel((0.5,) * 2), ValueError),
    ])
    def test_bad_model_fails_before_any_trial(self, model, error, no_trials):
        with pytest.raises(error):
            validate_bound_monte_carlo(3, 9, 1, model, trials=50, seed=1)

    def test_over_budget_fails_before_any_trial(self, no_trials):
        # 1,000 trials at n = 12 predict 1000 * 12 * C(24, 12) = 3.24e10 kernel
        # operations, over the 2^33 budget; at n = 13 the lattices of |M|^2
        # would not fit in memory, at any number of trials.
        with pytest.raises(ValueError, match="3.24e\\+10 kernel operations"):
            validate_bound_monte_carlo(12, 144, 1, HomogeneousModel(0.5), trials=1000, seed=1)
        with pytest.raises(ValueError, match="mixture holds every sub-permanent"):
            validate_bound_monte_carlo(13, 169, 1, HomogeneousModel(0.5), trials=50, seed=1)

    def test_preconditions(self):
        # Over the work budget: 600 trials at n = 12 predict 1.9e10 kernel operations.
        with pytest.raises(ValueError):
            validate_bound_monte_carlo(12, 144, 1, HomogeneousModel(0.5), trials=600, seed=1)
        with pytest.raises(ValueError):
            validate_bound_monte_carlo(3, 9, 1, HomogeneousModel(0.5), trials=10, seed=1)


class TestHeterogeneityComparison:
    def test_quadratic_mean_beats_max_visibility(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            x = rng.uniform(0.1, 0.999, n)
            x[0] = x.max() * 1.0 + (1 - x.max()) * 0.5  # ensure a strict maximum
            model = GeneralizedOBBModel(tuple(x))
            from bosonsim.distinguishability import quadratic_mean_visibility

            y = quadratic_mean_visibility(model)
            x_max = float(np.max(x))
            for k in (0, 2, 5):
                tight = l1_bound(BoundSpec("quadratic_mean", y, k))
                loose = l1_bound(BoundSpec("max_visibility", x_max, k))
                assert tight < loose

    def test_two_good_photons_among_many_need_constant_order(self):
        # visibility (1, 1, 0, ..., 0): the quadratic mean shrinks with n,
        # so the required truncation order drops to a small constant
        n = 40
        model = GeneralizedOBBModel((1.0, 1.0) + (0.0,) * (n - 2))
        from bosonsim.distinguishability import quadratic_mean_visibility

        y = quadratic_mean_visibility(model)
        assert y == pytest.approx(1.0 / math.sqrt(math.comb(n, 2)), rel=1e-12)
        assert min_truncation_order(y, 0.05, kind="quadratic_mean") <= 2

    def test_two_good_photons_among_six(self):
        # with only one indistinguishable pair, every order above 2 carries
        # zero weight, so truncating at 2 is exact even though the
        # quadratic-mean tail bound stays finite but nonzero
        model = GeneralizedOBBModel((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        from bosonsim.distinguishability import quadratic_mean_visibility

        y = quadratic_mean_visibility(model)
        assert y == pytest.approx(1.0 / math.sqrt(15.0), rel=1e-12)
        assert predicted_variance_exact(6, 36, 2, model) == 0.0
        assert l1_bound(BoundSpec("quadratic_mean", y, 2)) == pytest.approx(0.15233083273, rel=1e-9)
        assert l1_bound(BoundSpec("quadratic_mean", y, 3)) < 0.1
        with pytest.raises(DivergenceError):
            BoundSpec("max_visibility", 1.0, 2)
