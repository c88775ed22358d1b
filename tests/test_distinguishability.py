import numpy as np
import pytest

from bosonsim.combinat import partial_derangements
from bosonsim.distinguishability import (
    ExplicitModel,
    GeneralizedOBBModel,
    HomogeneousModel,
    model_from_dict,
    overlap_matrix,
    overlap_product,
    quadratic_mean_visibility,
)
from conftest import inverse_permutation


class TestOverlapMatrix:
    def test_fully_distinguishable_is_identity(self):
        np.testing.assert_array_equal(overlap_matrix(HomogeneousModel(0.0), 4), np.eye(4))

    def test_fully_indistinguishable_is_all_ones(self):
        np.testing.assert_array_equal(overlap_matrix(HomogeneousModel(1.0), 3), np.ones((3, 3)))

    def test_two_identical_among_distinguishable(self):
        s = overlap_matrix(GeneralizedOBBModel((1, 1, 0, 0)), 4)
        assert s[0, 1] == 1.0
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            assert s[i, j] == 0.0
        np.testing.assert_array_equal(np.diagonal(s), np.ones(4))

    def test_homogeneous_equals_uniform_obb(self):
        x = 0.73
        a = overlap_matrix(HomogeneousModel(x), 5)
        b = overlap_matrix(GeneralizedOBBModel((x,) * 5), 5)
        np.testing.assert_array_equal(a, b)
        assert isinstance(HomogeneousModel(x), GeneralizedOBBModel)

    def test_generated_matrices_are_gram(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            s = overlap_matrix(GeneralizedOBBModel(tuple(rng.uniform(0, 1, n))), n)
            assert np.linalg.eigvalsh(s).min() >= -1e-10
            np.testing.assert_allclose(s, s.conj().T)

    def test_pairwise_visibility_is_product(self):
        x = (0.9, 0.4, 0.6)
        s = overlap_matrix(GeneralizedOBBModel(x), 3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.abs(s[i, j]) ** 2 == pytest.approx(x[i] * x[j], rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap_matrix(GeneralizedOBBModel((0.5, 0.5)), 3)


class TestExplicitValidation:
    def test_accepts_valid_gram_matrix(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        gram = vectors @ vectors.conj().T
        model = ExplicitModel(gram)
        np.testing.assert_allclose(model.overlap_matrix(4), gram)

    def test_rejects_non_hermitian(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            ExplicitModel(bad)

    def test_rejects_non_unit_diagonal(self):
        bad = np.eye(3) * 0.9
        with pytest.raises(ValueError):
            ExplicitModel(bad)

    def test_rejects_indefinite(self):
        bad = np.ones((3, 3))
        bad[0, 1] = bad[1, 0] = -1.0
        with pytest.raises(ValueError):
            ExplicitModel(bad)

    def test_rejects_overlap_above_one(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = bad[1, 0] = 1.5
        with pytest.raises(ValueError):
            ExplicitModel(bad)


class TestOverlapProduct:
    def test_identity_permutation(self):
        s = overlap_matrix(GeneralizedOBBModel((0.3, 0.8, 0.1)), 3)
        assert overlap_product(s, (0, 1, 2)) == 1.0

    def test_homogeneous_power_counts_moved_points(self):
        x = 0.62
        s = overlap_matrix(HomogeneousModel(x), 5)
        for j in [0, 2, 3, 4, 5]:
            for tau in partial_derangements(5, j):
                assert overlap_product(s, tau) == pytest.approx(x**j, rel=1e-12)

    def test_obb_cycle_collects_cycle_visibilities(self):
        # a 3-cycle over {0, 1, 2} picks up sqrt(x_i x_j) for each edge,
        # so each member's visibility appears exactly once in the product
        x = (0.9, 0.5, 0.3, 0.7)
        s = overlap_matrix(GeneralizedOBBModel(x), 4)
        tau = (1, 2, 0, 3)
        assert overlap_product(s, tau) == pytest.approx(x[0] * x[1] * x[2], rel=1e-12)

    def test_inverse_conjugation(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        s = ExplicitModel(vectors @ vectors.conj().T).overlap_matrix(4)
        for _ in range(20):
            tau = tuple(int(v) for v in rng.permutation(4))
            assert overlap_product(s, tau) == pytest.approx(np.conj(overlap_product(s, inverse_permutation(tau))), rel=1e-12)


class TestQuadraticMean:
    def test_homogeneous_squares(self):
        assert quadratic_mean_visibility(HomogeneousModel(0.9)) == pytest.approx(0.81, abs=1e-15)

    def test_two_ones_two_zeros(self):
        got = quadratic_mean_visibility(GeneralizedOBBModel((1, 1, 0, 0)))
        assert got == pytest.approx(np.sqrt(1 / 6), rel=1e-12)

    def test_uniform_vector_reduces_to_square(self):
        got = quadratic_mean_visibility(GeneralizedOBBModel((0.8,) * 5))
        assert got == 0.8 * 0.8

    def test_explicit_model_unsupported(self):
        with pytest.raises(ValueError):
            quadratic_mean_visibility(ExplicitModel(np.eye(3)))
        with pytest.raises(ValueError):
            quadratic_mean_visibility(GeneralizedOBBModel((0.5,)))


class TestDescriptors:
    def test_round_trips(self):
        models = [
            HomogeneousModel(0.45),
            GeneralizedOBBModel((0.2, 0.9, 1.0)),
            ExplicitModel(np.eye(3)),
        ]
        for model in models:
            clone = model_from_dict(model.to_dict())
            np.testing.assert_allclose(clone.overlap_matrix(3), model.overlap_matrix(3))

    def test_visibility_models_keep_their_type(self):
        for model in (HomogeneousModel(0.45), GeneralizedOBBModel((0.2, 0.9, 1.0))):
            clone = model_from_dict(model.to_dict())
            assert type(clone) is type(model)
            assert clone == model

    def test_rejects_unknown_type_and_fields(self):
        with pytest.raises(ValueError):
            model_from_dict({"type": "thermal", "x": 0.5})
        with pytest.raises(ValueError):
            model_from_dict({"type": "homogeneous", "x": 0.5, "phase": 0.1})

    @pytest.mark.parametrize("descriptor", [{"type": "homogeneous", "x": True}, {"type": "obb", "x": [True, 0.5]}])
    def test_rejects_bool_visibilities(self, descriptor):
        # float(True) is 1.0, a fully indistinguishable photon, so a bool must not pass as a visibility.
        with pytest.raises(ValueError, match="has the wrong type"):
            model_from_dict(descriptor)

    def test_rejects_out_of_range_visibilities(self):
        with pytest.raises(ValueError):
            HomogeneousModel(1.2)
        with pytest.raises(ValueError):
            GeneralizedOBBModel((0.5, -0.1))
        for bad in (np.nan, np.inf):  # NaN fails every comparison, so a range check must not pass it
            with pytest.raises(ValueError):
                GeneralizedOBBModel((bad, 0.5))
            with pytest.raises(ValueError):
                HomogeneousModel(bad)
            for descriptor in ({"type": "obb", "x": [bad, 0.5]}, {"type": "homogeneous", "x": bad}):
                with pytest.raises(ValueError):
                    model_from_dict(descriptor)
