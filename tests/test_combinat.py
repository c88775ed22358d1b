import itertools
import math

import numpy as np
import pytest

from bosonsim.combinat import (
    inverse_pairs,
    overlap_class_sum,
    partial_derangements,
    rencontres,
    symmetric_means,
)
from conftest import inverse_permutation, perms_with_moved_count


class TestRencontres:
    def test_identity_class(self):
        for n in range(1, 9):
            assert rencontres(n, n) == 1

    def test_single_moved_point_impossible(self):
        for n in range(2, 9):
            assert rencontres(n, n - 1) == 0

    def test_derangements_of_four(self):
        # oracle: filter all of S_4 for fixed-point-free permutations
        derangements = [p for p in itertools.permutations(range(4)) if all(p[i] != i for i in range(4))]
        assert len(derangements) == 9
        assert rencontres(4, 0) == 9

    def test_classes_partition_symmetric_group(self):
        for n in range(1, 9):
            total = sum(rencontres(n, n - j) for j in [0] + list(range(2, n + 1)))
            assert total == math.factorial(n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rencontres(3, 4)
        with pytest.raises(ValueError):
            rencontres(3, -1)


class TestInversePairs:
    def test_matches_brute_force_count(self):
        # oracle: per class, the permutations that come no later than their inverse in lexicographic order
        for n in range(1, 8):
            for j in range(n + 1):
                leads = [p for p in perms_with_moved_count(n, j) if p <= inverse_permutation(p)]
                assert inverse_pairs(n, j) == len(leads), (n, j)

    def test_sum_over_classes_counts_pairs_of_the_group(self):
        for n in range(1, 8):
            involutions = sum(1 for p in itertools.permutations(range(n)) if p == inverse_permutation(p))
            assert 2 * sum(inverse_pairs(n, j) for j in range(n + 1)) == math.factorial(n) + involutions
        assert [sum(inverse_pairs(n, j) for j in range(n + 1)) for n in (5, 6, 7)] == [73, 398, 2636]

    def test_rejects_bad_arguments(self):
        for moved in (-1, 4):
            with pytest.raises(ValueError):
                inverse_pairs(3, moved)


class TestPartialDerangements:
    def test_only_identity_fixes_everything(self):
        assert list(partial_derangements(3, 0)) == [(0, 1, 2)]

    def test_three_cycles_of_three_points(self):
        got = sorted(partial_derangements(3, 3))
        assert got == sorted(perms_with_moved_count(3, 3))
        assert len(got) == 2

    def test_derangements_of_four(self):
        assert sorted(partial_derangements(4, 4)) == sorted(perms_with_moved_count(4, 4))

    def test_moved_one_is_empty(self):
        assert list(partial_derangements(5, 1)) == []

    def test_counts_match_rencontres(self):
        for n in range(1, 7):
            for j in [0] + list(range(2, n + 1)):
                perms = list(partial_derangements(n, j))
                assert len(perms) == len(set(perms)) == rencontres(n, n - j)
                assert all(sum(1 for i in range(n) if p[i] != i) == j for p in perms)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            list(partial_derangements(3, 4))
        with pytest.raises(ValueError):
            list(partial_derangements(3, -1))


class TestSymmetricMeans:
    def test_two_ones_two_zeros(self):
        # oracle: six pairs, exactly one with both entries nonzero
        values = (1.0, 1.0, 0.0, 0.0)
        pair_products = [a * b for a, b in itertools.combinations(values, 2)]
        assert sum(pair_products) / len(pair_products) == pytest.approx(1 / 6, abs=0)
        means = symmetric_means(values).means
        assert means[2] == pytest.approx(1 / 6, rel=1e-14)

    def test_homogeneous_powers(self):
        means = symmetric_means([0.37] * 6).means
        for j in range(7):
            assert means[j] == pytest.approx(0.37**j, rel=1e-12)

    def test_all_zero(self):
        means = symmetric_means([0.0] * 5).means
        assert means[0] == 1.0
        assert np.all(means[1:] == 0.0)

    def test_mclaurin_chain(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            means = symmetric_means(rng.uniform(0, 1, n)).means
            roots = [means[j] ** (1.0 / j) for j in range(1, n + 1)]
            for a, b in zip(roots, roots[1:]):
                assert b <= a + 1e-12

    def test_mclaurin_second_mean_dominates(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            means = symmetric_means(rng.uniform(0, 1, n)).means
            for j in range(2, n + 1):
                assert means[j] <= means[2] ** (j / 2.0) + 1e-12

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            symmetric_means([0.5, 1.5])
        with pytest.raises(ValueError):
            symmetric_means([-0.1])
        with pytest.raises(ValueError):
            symmetric_means([0.5, math.nan])


class TestOverlapClassSum:
    @staticmethod
    def _brute(x, moved):
        x = np.asarray(x, dtype=float)
        n = x.size
        overlap = np.sqrt(np.outer(x, x))
        np.fill_diagonal(overlap, 1.0)
        total = 0.0
        for tau in perms_with_moved_count(n, moved):
            total += float(np.prod(np.abs(overlap[np.arange(n), tau]) ** 2))
        return total

    def test_identity_class_is_one(self):
        assert overlap_class_sum([0.3, 0.8, 0.5], 0) == 1.0

    def test_all_ones_counts_derangements(self):
        assert overlap_class_sum([1.0] * 4, 4) == pytest.approx(9.0, abs=0)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 4)
        assert overlap_class_sum(x, 3) == pytest.approx(self._brute(x, 3), rel=1e-12)

    def test_matches_brute_force_all_sizes(self):
        rng = np.random.default_rng(8)
        for n in range(2, 7):
            x = rng.uniform(0, 1, n)
            for j in [0] + list(range(2, n + 1)):
                closed = overlap_class_sum(x, j)
                brute = self._brute(x, j)
                assert closed == pytest.approx(brute, rel=1e-10, abs=1e-300)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            overlap_class_sum([0.5, 2.0], 2)
        with pytest.raises(ValueError):
            overlap_class_sum([0.5, math.nan], 2)
        with pytest.raises(ValueError):
            overlap_class_sum([0.5, 0.5], 3)
