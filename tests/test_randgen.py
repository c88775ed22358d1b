import numpy as np
import pytest

from bosonsim.randgen import EnsembleSpec, gaussian_matrix, haar_unitary, trial_rng, visibility_vector


class TestHaarUnitary:
    def test_unitarity_residual(self):
        for m in (1, 2, 5, 12):
            u = haar_unitary(m, seed=3)
            residual = np.abs(u @ u.conj().T - np.eye(m)).max()
            assert residual < 1e-12

    def test_fixed_seed_is_reproducible(self):
        np.testing.assert_array_equal(haar_unitary(6, seed=41), haar_unitary(6, seed=41))

    def test_first_entry_second_moment(self):
        # Haar moment: E|U_ij|^2 = 1/m; for m=2, |U_00|^2 is uniform on [0,1]
        rng = np.random.default_rng(100)
        samples = np.array([np.abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)])
        three_sigma = 3.0 * np.sqrt(1.0 / 12.0 / samples.size)
        assert abs(samples.mean() - 0.5) < three_sigma

    def test_entry_distribution_beta_moments(self):
        # |U_ij|^2 of an m x m Haar unitary follows Beta(1, m-1)
        m = 4
        rng = np.random.default_rng(101)
        samples = np.array([np.abs(haar_unitary(m, rng)[0, 0]) ** 2 for _ in range(10_000)])
        mean, second = samples.mean(), (samples**2).mean()
        assert abs(mean - 1 / m) < 3.0 * np.sqrt(3 / 80 / samples.size)
        assert abs(second - 1 / 10) < 3.0 * np.sqrt((1 / 35 - 1 / 100) / samples.size)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            haar_unitary(0, seed=1)


class TestGaussianMatrix:
    def test_moments(self):
        m = 5
        entries = gaussian_matrix(320, m, seed=7).ravel()
        count = entries.size
        assert abs(entries.mean()) < 4.0 / np.sqrt(count * m)
        second = (np.abs(entries) ** 2).mean()
        assert abs(second - 1 / m) < 3.0 * np.sqrt(1 / m**2 / count)
        fourth = (np.abs(entries) ** 4).mean()
        assert abs(fourth - 2 / m**2) < 3.0 * np.sqrt(20 / m**4 / count)

    def test_real_imag_split(self):
        entries = gaussian_matrix(320, 3, seed=8).ravel()
        assert abs(entries.real.var() - 1 / 6) < 3.0 * np.sqrt(2 / 36 / entries.size)
        assert abs(entries.imag.var() - 1 / 6) < 3.0 * np.sqrt(2 / 36 / entries.size)

    def test_reproducible(self):
        np.testing.assert_array_equal(gaussian_matrix(4, 9, seed=5), gaussian_matrix(4, 9, seed=5))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 5, seed=1)
        with pytest.raises(ValueError):
            gaussian_matrix(5, 0, seed=1)


class TestVisibilityVector:
    def test_zero_spread(self):
        np.testing.assert_array_equal(visibility_vector(8, 0.9, 0.0, seed=1), np.full(8, 0.9))

    def test_mean(self):
        draws = visibility_vector(100_000, 0.9, 0.02, seed=2)
        assert abs(draws.mean() - 0.9) < 3.0 * 0.02 / np.sqrt(draws.size)

    def test_second_moment(self):
        mu, sigma = 0.7, 0.05
        draws = visibility_vector(100_000, mu, sigma, seed=3)
        target = mu**2 + sigma**2
        spread = np.sqrt((draws**2).var() / draws.size)
        assert abs((draws**2).mean() - target) < 3.0 * spread + 1e-6

    def test_clamped_to_unit_interval(self):
        draws = visibility_vector(10_000, 0.99, 0.1, seed=4)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        assert (draws == 1.0).any()  # clamping visibly active at this spread

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            visibility_vector(3, 1.2, 0.05, seed=1)
        with pytest.raises(ValueError):
            visibility_vector(3, 0.5, -0.1, seed=1)


class TestTrialStreams:
    def test_streams_do_not_depend_on_access_order(self):
        forward = [trial_rng(99, t).standard_normal(3) for t in range(6)]
        backward = [trial_rng(99, t).standard_normal(3) for t in reversed(range(6))][::-1]
        for a, b in zip(forward, backward):
            np.testing.assert_array_equal(a, b)

    def test_distinct_trials_differ(self):
        a = trial_rng(99, 0).standard_normal(4)
        b = trial_rng(99, 1).standard_normal(4)
        assert not np.allclose(a, b)


class TestEnsembleSpec:
    def test_haar_build_reproducible(self):
        spec = EnsembleSpec(kind="haar_unitary", m=5, seed=13)
        np.testing.assert_array_equal(spec.build(), spec.build())
        np.testing.assert_array_equal(spec.build(), haar_unitary(5, seed=13))

    def test_gaussian_build(self):
        spec = EnsembleSpec(kind="gaussian_iid", m=25, seed=13, n=4)
        assert spec.build().shape == (4, 4)

    def test_round_trip(self):
        spec = EnsembleSpec(kind="gaussian_iid", m=25, seed=13, n=4)
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            EnsembleSpec.from_dict({"kind": "haar_unitary", "m": 3, "seed": 1, "shape": 2})
        with pytest.raises(ValueError):
            EnsembleSpec(kind="bernoulli", m=3, seed=1)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="gaussian_iid", m=3, seed=1)

    @pytest.mark.parametrize("fields", [{"m": 4.7}, {"seed": 1.5}, {"seed": True}, {"kind": "gaussian_iid", "n": 2.5}])
    def test_rejects_numbers_of_the_wrong_kind(self, fields):
        # int() would silently take each of them: m = 4.7 as a 4-mode unitary, seed true as seed 1.
        with pytest.raises(ValueError, match="has the wrong type"):
            EnsembleSpec.from_dict({"kind": "haar_unitary", "m": 4, "seed": 1, **fields})

    def test_integer_valued_strings_are_accepted(self):
        # As in config files and a flag's text.
        assert EnsembleSpec.from_dict({"kind": "haar_unitary", "m": "4", "seed": "1"}) == EnsembleSpec("haar_unitary", 4, 1)
