import itertools

import numpy as np
import pytest

from bosonsim.linalg import hadamard_permanent, laplace_split_permanent, permanent, submatrix
from conftest import brute_permanent, glynn_permanent, inverse_permutation, partitions, perm_from_cycle_lengths


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestPermanent:
    def test_one_by_one(self):
        assert permanent([[2.5 - 1j]]) == pytest.approx(2.5 - 1j)

    def test_identity(self):
        for n in (1, 3, 6):
            assert permanent(np.eye(n)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_empty_matrix_convention(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_methods_agree_with_brute_force(self):
        rng = np.random.default_rng(1)
        a = _random_complex(rng, 5)
        reference = brute_permanent(a)
        for value in (permanent(a), glynn_permanent(a)):
            assert value == pytest.approx(reference, rel=1e-10)

    def test_methods_agree_up_to_modest_sizes(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            a = _random_complex(rng, n)
            assert glynn_permanent(a) == pytest.approx(permanent(a), rel=1e-9)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for n in range(2, 7):
            a = _random_complex(rng, n)
            perm = rng.permutation(n)
            assert permanent(a[perm, :]) == pytest.approx(permanent(a), rel=1e-10)

    def test_multilinearity_in_rows(self):
        rng = np.random.default_rng(4)
        a = _random_complex(rng, 4)
        scaled = a.copy()
        scaled[2, :] *= 3.0 - 0.5j
        assert permanent(scaled) == pytest.approx((3.0 - 0.5j) * permanent(a), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))


class TestHadamardPermanent:
    def test_identity_permutation_is_nonnegative_real(self):
        rng = np.random.default_rng(5)
        a = _random_complex(rng, 4)
        value = hadamard_permanent(a, (0, 1, 2, 3))
        assert abs(value.imag) < 1e-12 * abs(value)
        assert value.real >= 0.0
        assert value == pytest.approx(permanent(np.abs(a) ** 2), rel=1e-12)

    def test_inverse_conjugation_symmetry(self):
        rng = np.random.default_rng(6)
        for n in range(2, 7):
            a = _random_complex(rng, n)
            tau = tuple(int(v) for v in rng.permutation(n))
            forward = hadamard_permanent(a, tau)
            backward = hadamard_permanent(a, inverse_permutation(tau))
            assert forward == pytest.approx(np.conj(backward), rel=1e-10)
            pair_sum = forward + backward
            assert abs(pair_sum.imag) <= 1e-12 * max(1.0, abs(pair_sum))

    def test_matches_brute_force_double_sum(self):
        # oracle: expand both the product matrix and its permanent explicitly
        rng = np.random.default_rng(7)
        a = _random_complex(rng, 4)
        tau = (2, 0, 3, 1)
        product = np.array([[a[i, c] * np.conj(a[tau[i], c]) for c in range(4)] for i in range(4)])
        assert hadamard_permanent(a, tau) == pytest.approx(brute_permanent(product), rel=1e-10)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            hadamard_permanent(np.eye(3), (0, 1))


class TestLaplaceSplit:
    def test_identity_permutation_single_term(self):
        rng = np.random.default_rng(8)
        a = _random_complex(rng, 4)
        tau = (0, 1, 2, 3)
        assert laplace_split_permanent(a, tau) == pytest.approx(hadamard_permanent(a, tau), rel=1e-12)

    def test_two_cycle(self):
        rng = np.random.default_rng(9)
        a = _random_complex(rng, 4)
        tau = (1, 0, 2, 3)
        assert laplace_split_permanent(a, tau) == pytest.approx(hadamard_permanent(a, tau), rel=1e-10)

    def test_three_cycle_in_five(self):
        rng = np.random.default_rng(10)
        a = _random_complex(rng, 5)
        tau = (2, 1, 4, 3, 0)
        assert laplace_split_permanent(a, tau) == pytest.approx(hadamard_permanent(a, tau), rel=1e-10)

    def test_equivalence_across_all_cycle_types(self):
        rng = np.random.default_rng(11)
        pairs = 0
        for n in range(2, 7):
            for lengths in partitions(n):
                a = _random_complex(rng, n)
                tau = perm_from_cycle_lengths(rng, n, lengths)
                split = laplace_split_permanent(a, tau)
                whole = hadamard_permanent(a, tau)
                assert split == pytest.approx(whole, rel=1e-9, abs=1e-12)
                pairs += 1
        assert pairs >= 25


class TestSubmatrix:
    def test_full_selection_of_identity(self):
        np.testing.assert_array_equal(submatrix(np.eye(3), [0, 1, 2], [0, 1, 2]), np.eye(3))

    def test_single_entry(self):
        u = np.arange(16).reshape(4, 4)
        assert submatrix(u, [0], [1]).tolist() == [[1]]

    def test_noncollisional_matches_manual_slice(self):
        rng = np.random.default_rng(12)
        u = _random_complex(rng, 4)
        got = submatrix(u, [0, 1], [2, 3])
        np.testing.assert_allclose(got, u[:2, 2:])

    def test_repeated_indices_duplicate_rows(self):
        u = np.arange(9).reshape(3, 3)
        got = submatrix(u, [1, 1], [0, 2])
        assert got.tolist() == [[3, 5], [3, 5]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            submatrix(np.eye(3), [0, 3], [0, 1])
