import itertools
import math

import numpy as np
import pytest

from bosonsim.distinguishability import ExplicitModel, GeneralizedOBBModel, HomogeneousModel
from bosonsim.linalg import permanent
from bosonsim.probability import (
    ExperimentInstance,
    exact_probability,
    exact_probability_by_order,
    mode_assignment,
    output_configurations,
    truncated_probability,
    truncation_cost_estimate,
    truncation_error,
)
from bosonsim.randgen import haar_unitary

BEAMSPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class _SkewedModel:
    """Duck-typed model whose overlap matrix is not Hermitian, so no Gram matrix has it."""

    def overlap_matrix(self, n):
        return np.array([[1.0, 0.9, 0.0], [0.0, 1.0, 0.9], [0.9, 0.0, 1.0]], dtype=complex)

    def to_dict(self):
        return {"type": "skewed"}


def _haar_instance(rng, n, m, model=None):
    u = haar_unitary(m, rng)
    in_modes = set(int(v) for v in rng.choice(m, n, replace=False))
    out_modes = set(int(v) for v in rng.choice(m, n, replace=False))
    occ_in = tuple(1 if i in in_modes else 0 for i in range(m))
    occ_out = tuple(1 if i in out_modes else 0 for i in range(m))
    if model is None:
        model = GeneralizedOBBModel(tuple(rng.uniform(0.05, 0.98, n)))
    return ExperimentInstance(u, occ_in, occ_out, model)


class TestInstance:
    def test_mode_assignment(self):
        assert mode_assignment((2, 0, 1)) == [0, 0, 2]

    def test_photon_number_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentInstance(np.eye(3), (1, 1, 0), (1, 0, 0), HomogeneousModel(0.5))

    def test_occupation_length_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentInstance(np.eye(3), (1, 1), (1, 1, 0), HomogeneousModel(0.5))

    def test_normalization_counts_collisions(self):
        inst = ExperimentInstance(np.eye(3), (2, 1, 0), (0, 1, 2), HomogeneousModel(0.5))
        assert inst.normalization == 2.0 * 2.0  # 2! on input mode 0, 2! on output mode 2

    def test_round_trip_through_dict(self):
        rng = np.random.default_rng(0)
        inst = _haar_instance(rng, 2, 4)
        clone = ExperimentInstance.from_dict(inst.to_dict())
        np.testing.assert_allclose(clone.unitary, inst.unitary)
        assert clone.input_occupation == inst.input_occupation
        assert clone.output_occupation == inst.output_occupation
        assert exact_probability(clone) == exact_probability(inst)

    def test_from_dict_with_ensemble_reference(self):
        data = {
            "schema": 1,
            "ensemble": {"kind": "gaussian_iid", "m": 25, "seed": 3, "n": 4},
            "model": {"type": "homogeneous", "x": 0.6},
        }
        inst = ExperimentInstance.from_dict(data)
        assert inst.n == 4
        assert inst.input_occupation == (1, 1, 1, 1)

    def test_from_dict_rejects_unknown_fields(self):
        rng = np.random.default_rng(0)
        data = _haar_instance(rng, 2, 4).to_dict()
        data["loss"] = 0.1
        with pytest.raises(ValueError):
            ExperimentInstance.from_dict(data)

    def test_output_configuration_counts(self):
        assert len(list(output_configurations(5, 3))) == math.comb(7, 3)
        assert len(list(output_configurations(5, 3, noncollisional=True))) == math.comb(5, 3)


class TestExactProbability:
    def test_hom_dip(self):
        inst = ExperimentInstance(BEAMSPLITTER, (1, 1), (1, 1), HomogeneousModel(1.0))
        assert exact_probability(inst) == pytest.approx(0.0, abs=1e-12)

    def test_classical_coincidence(self):
        inst = ExperimentInstance(BEAMSPLITTER, (1, 1), (1, 1), HomogeneousModel(0.0))
        assert exact_probability(inst) == pytest.approx(0.5, abs=1e-12)

    def test_partial_visibility_interpolates(self):
        for x in (0.25, 0.5, 0.75):
            inst = ExperimentInstance(BEAMSPLITTER, (1, 1), (1, 1), HomogeneousModel(x))
            assert exact_probability(inst) == pytest.approx((1 - x * x) / 2, abs=1e-12)

    def test_identity_interferometer_passthrough(self):
        inst = ExperimentInstance(np.eye(5), (1, 0, 1, 0, 1), (1, 0, 1, 0, 1), HomogeneousModel(0.4))
        assert exact_probability(inst) == pytest.approx(1.0, abs=1e-12)

    def test_collisional_bunched_output(self):
        # both photons of a 50:50 splitter exiting the same port:
        # order-0 gives 1/2, the swapped order adds x^2/2, normalized by 2!
        for x in (0.0, 0.6, 1.0):
            inst = ExperimentInstance(BEAMSPLITTER, (1, 1), (2, 0), HomogeneousModel(x))
            assert exact_probability(inst) == pytest.approx((1 + x * x) / 4, abs=1e-12)

    def test_probabilities_sum_to_one_over_all_outputs(self):
        rng = np.random.default_rng(1)
        for n, m in ((2, 4), (3, 5), (3, 6)):
            u = haar_unitary(m, rng)
            occ_in = tuple(1 if i < n else 0 for i in range(m))
            model = GeneralizedOBBModel(tuple(rng.uniform(0, 1, n)))
            total = sum(
                exact_probability(ExperimentInstance(u, occ_in, occ, model))
                for occ in output_configurations(m, n)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_unitary_instance_probability_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = exact_probability(_haar_instance(rng, 3, 6))
            assert -1e-12 <= p <= 1.0 + 1e-9

    def test_explicit_model_accepted(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        model = ExplicitModel(vectors @ vectors.conj().T)
        inst = ExperimentInstance(BEAMSPLITTER, (1, 1), (1, 1), model)
        x_eff = np.abs(model.s[0, 1]) ** 2
        assert exact_probability(inst) == pytest.approx((1 - x_eff) / 2, rel=1e-10)

    def test_photon_cap(self):
        u = np.eye(13)
        inst = ExperimentInstance(u, (1,) * 13, (1,) * 13, HomogeneousModel(0.5))
        with pytest.raises(ValueError):
            exact_probability(inst)

    def test_imaginary_residue_is_relative_to_term_sizes(self):
        # Non-Hermitian overlaps leave an imaginary part that is a fixed share
        # of the summed |terms|; scaling the matrix down must not hide it.
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for scale in (1.0, 1e-2):
            inst = ExperimentInstance.from_matrix(scale * a, _SkewedModel())
            with pytest.raises(ArithmeticError):
                exact_probability(inst)
            with pytest.raises(ArithmeticError):
                exact_probability_by_order(inst)
            for strategy in ("direct", "laplace"):
                with pytest.raises(ArithmeticError):
                    truncated_probability(inst, 3, strategy)


class TestByOrderDecomposition:
    def test_distinguishable_photons_have_only_classical_order(self):
        rng = np.random.default_rng(4)
        inst = _haar_instance(rng, 3, 6, HomogeneousModel(0.0))
        orders = exact_probability_by_order(inst)
        classical = permanent(np.abs(inst.interference_matrix) ** 2).real / inst.normalization
        assert orders[0] == pytest.approx(classical, rel=1e-12)
        assert np.all(orders[1:] == 0.0)

    def test_indistinguishable_sum_is_permanent_modulus_squared(self):
        rng = np.random.default_rng(5)
        inst = _haar_instance(rng, 3, 6, HomogeneousModel(1.0))
        target = abs(permanent(inst.interference_matrix)) ** 2 / inst.normalization
        assert exact_probability_by_order(inst).sum() == pytest.approx(target, rel=1e-10)

    def test_orders_sum_to_exact_probability(self):
        rng = np.random.default_rng(6)
        inst = _haar_instance(rng, 4, 7)
        orders = exact_probability_by_order(inst)
        assert orders.sum() == pytest.approx(exact_probability(inst), rel=1e-10)

    def test_order_one_is_structurally_absent(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            orders = exact_probability_by_order(_haar_instance(rng, 3, 6))
            assert orders[1] == 0.0


class TestTruncation:
    def test_full_order_reproduces_exact(self):
        rng = np.random.default_rng(8)
        for n in range(2, 7):
            inst = _haar_instance(rng, n, n + 2)
            p = exact_probability(inst)
            for strategy in ("direct", "laplace"):
                result = truncated_probability(inst, n, strategy)
                assert result.total == pytest.approx(p, rel=1e-12)

    def test_order_zero_is_classical_transmission(self):
        rng = np.random.default_rng(9)
        inst = _haar_instance(rng, 3, 6)
        classical = permanent(np.abs(inst.interference_matrix) ** 2).real / inst.normalization
        assert truncated_probability(inst, 0).total == pytest.approx(classical, rel=1e-12)

    def test_strategies_agree_on_gaussian_instance(self):
        from bosonsim.randgen import gaussian_matrix

        matrix = gaussian_matrix(5, 25, seed=10)
        inst = ExperimentInstance.from_matrix(matrix, HomogeneousModel(0.7))
        for k in range(6):
            direct = truncated_probability(inst, k, "direct").total
            split = truncated_probability(inst, k, "laplace").total
            assert split == pytest.approx(direct, rel=1e-9, abs=1e-15)

    def test_truncated_distribution_sums_to_one(self):
        # Every order j >= 2 sums to zero over all outputs, collisional ones
        # included, so each truncation keeps the total probability at 1.
        rng = np.random.default_rng(19)
        for n, m in ((3, 4), (4, 5)):
            u = haar_unitary(m, rng)
            occ_in = tuple(1 if i < n else 0 for i in range(m))
            model = GeneralizedOBBModel(tuple(rng.uniform(0.05, 0.98, n)))
            instances = [ExperimentInstance(u, occ_in, occ, model) for occ in output_configurations(m, n)]
            for strategy in ("direct", "laplace"):
                for k in range(n + 1):
                    results = [truncated_probability(inst, k, strategy) for inst in instances]
                    total = math.fsum(r.total for r in results)
                    magnitude = math.fsum(abs(v) for r in results for v in r.per_order)
                    assert abs(total - 1.0) <= 1e-12 * magnitude, (n, strategy, k)

    def test_result_bookkeeping(self):
        rng = np.random.default_rng(11)
        inst = _haar_instance(rng, 4, 6)
        result = truncated_probability(inst, 3)
        assert len(result.per_order) == 4
        assert result.per_order[1] == 0.0
        assert result.per_order[0] >= 0.0
        assert result.total == pytest.approx(math.fsum(result.per_order), abs=1e-16)
        assert result.elapsed >= 0.0
        assert result.to_dict()["model"] == inst.model.to_dict()
        assert "elapsed" not in result.to_dict()

    def test_rejects_bad_order(self):
        rng = np.random.default_rng(12)
        inst = _haar_instance(rng, 2, 4)
        with pytest.raises(ValueError):
            truncated_probability(inst, 3)
        with pytest.raises(ValueError):
            truncated_probability(inst, -1)
        with pytest.raises(ValueError):
            truncated_probability(inst, 1, "adaptive")


class TestTruncationError:
    def test_zero_at_full_order(self):
        rng = np.random.default_rng(13)
        inst = _haar_instance(rng, 3, 6)
        assert truncation_error(inst, 3) == pytest.approx(0.0, abs=1e-15)

    def test_zero_for_distinguishable_photons(self):
        rng = np.random.default_rng(14)
        inst = _haar_instance(rng, 3, 6, HomogeneousModel(0.0))
        for k in range(4):
            assert truncation_error(inst, k) == pytest.approx(0.0, abs=1e-15)

    def test_matches_order_tail(self):
        rng = np.random.default_rng(15)
        inst = _haar_instance(rng, 4, 7)
        orders = exact_probability_by_order(inst)
        for k in range(5):
            assert truncation_error(inst, k) == pytest.approx(orders[k + 1 :].sum(), rel=1e-10, abs=1e-14)

    def test_truncation_plus_error_is_exact(self):
        rng = np.random.default_rng(16)
        inst = _haar_instance(rng, 4, 6)
        p = exact_probability(inst)
        for strategy in ("direct", "laplace"):
            for k in range(5):
                p_k = truncated_probability(inst, k, strategy).total
                q_k = truncation_error(inst, k, strategy)
                assert p_k + q_k == pytest.approx(p, rel=1e-12)


class TestModelConsistency:
    def test_homogeneous_matches_uniform_obb(self):
        rng = np.random.default_rng(17)
        x = 0.7
        u = haar_unitary(6, rng)
        occ_in = (1, 1, 1, 0, 0, 0)
        for occ_out in itertools.islice(output_configurations(6, 3, noncollisional=True), 8):
            a = exact_probability(ExperimentInstance(u, occ_in, occ_out, HomogeneousModel(x)))
            b = exact_probability(ExperimentInstance(u, occ_in, occ_out, GeneralizedOBBModel((x,) * 3)))
            assert abs(a - b) < 1e-12


class TestCostEstimate:
    def test_small_case_by_hand(self):
        # n=3, k=2: order 0 contributes 1 * C(3,0) * (0 + 8*3) = 24;
        # order 2 contributes 3 * C(3,2) * (4*2 + 2*1) = 90
        assert truncation_cost_estimate(3, 2) == 24 + 90

    def test_monotone_in_k(self):
        costs = [truncation_cost_estimate(8, k) for k in range(9)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))
