import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim.combinat import inverse_pairs, partial_derangements
from bosonsim.distinguishability import ExplicitModel, GeneralizedOBBModel, HomogeneousModel
from bosonsim.linalg import hadamard_permanent, laplace_split_permanent, permanent
from bosonsim.probability import (
    ExperimentInstance,
    _class_table,
    _mixture_orders,
    _truncation_walk,
    exact_probability,
    exact_probability_by_order,
    mode_assignment,
    output_configurations,
    truncated_probability,
    truncation_cost_estimate,
    truncation_error,
)
from bosonsim.randgen import gaussian_matrix, haar_unitary
from conftest import class_words, exact_permanent, glynn_permanent, group_sum_by_order, inverse_permutation

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

    def test_instance_is_read_only(self):
        # The checks run at construction, so a field set afterwards would skip them: 7 input photons
        # over 3 modes reached the kernel as a (7, 3) interference matrix.  A replaced field is checked.
        inst = ExperimentInstance(np.eye(3), (1, 1, 0), (0, 1, 1), HomogeneousModel(0.5))
        for name, value in (("input_occupation", (1, 1, 5)), ("unitary", np.eye(2)), ("model", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, name, value)
        assert inst.input_occupation == (1, 1, 0) and inst.unitary.shape == (3, 3)
        with pytest.raises(ValueError, match="photon number mismatch"):
            dataclasses.replace(inst, input_occupation=(1, 1, 5))

    def test_unitary_is_a_read_only_copy(self):
        unitary = np.eye(3, dtype=complex)
        inst = ExperimentInstance(unitary, (1, 1, 0), (0, 1, 1), HomogeneousModel(0.5))
        unitary[0, 0] = 5.0
        assert inst.unitary[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            inst.unitary[0, 0] = 5.0

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
        with pytest.raises(ValueError, match="exactly one of 'unitary' and 'ensemble'"):
            ExperimentInstance.from_dict(dict(data, unitary={"re": np.eye(4).tolist()}))

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


def _gram_model(rng, n):
    """An explicit model: the complex Gram matrix of n random unit vectors."""
    vectors = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return ExplicitModel(vectors @ vectors.conj().T)


def _oracle(inst):
    """``group_sum_by_order`` of an instance, normalized: per-order sums and the summed |terms|."""
    orders, magnitude = group_sum_by_order(inst.interference_matrix, inst.model.overlap_matrix(inst.n))
    return orders / inst.normalization, magnitude / inst.normalization


class TestPairedSums:
    """The sums evaluate one permanent per pair {sigma, sigma^-1}; the oracle takes all n!, unpaired."""

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("kind", ["homogeneous", "obb", "explicit"])
    def test_exact_against_the_full_group_sum(self, kind, n):
        rng = np.random.default_rng(50 + n)
        model = {"homogeneous": lambda: HomogeneousModel(0.7), "explicit": lambda: _gram_model(rng, n),
                 "obb": lambda: GeneralizedOBBModel(tuple(rng.uniform(0.05, 0.98, n)))}[kind]()
        inst = _haar_instance(rng, n, n + 3, model)
        orders, magnitude = _oracle(inst)
        assert abs(exact_probability(inst) - orders.sum()) <= 1e-12 * magnitude

    def test_collisional_exact_against_the_full_group_sum(self):
        rng = np.random.default_rng(57)
        inst = ExperimentInstance(haar_unitary(5, rng), (2, 1, 1, 1, 0), (0, 2, 0, 1, 2), _gram_model(rng, 5))
        orders, magnitude = _oracle(inst)
        assert abs(exact_probability(inst) - orders.sum()) <= 1e-12 * magnitude

    @pytest.mark.parametrize("strategy", ["direct", "laplace"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_truncated_orders_against_the_full_group_sum(self, k, strategy):
        rng = np.random.default_rng(58)
        inst = _haar_instance(rng, 6, 9)
        orders, magnitude = _oracle(inst)
        per_order = truncated_probability(inst, k, strategy).per_order
        assert np.all(np.abs(np.subtract(per_order, orders[: k + 1])) <= 1e-12 * magnitude)

    def test_explicit_by_order_against_the_full_group_sum(self):
        rng = np.random.default_rng(59)
        inst = _haar_instance(rng, 6, 9, _gram_model(rng, 6))
        orders, magnitude = _oracle(inst)
        assert np.all(np.abs(exact_probability_by_order(inst) - orders) <= 1e-12 * magnitude)

    def test_exact_takes_one_permanent_per_pair(self, monkeypatch):
        import bosonsim.probability as probability

        calls = []
        monkeypatch.setattr(probability, "permanent", lambda a: calls.append(a) or permanent(a))
        for n, pairs in ((5, 73), (6, 398), (7, 2636)):
            calls.clear()
            exact_probability(ExperimentInstance.from_matrix(gaussian_matrix(n, n * n, seed=n), HomogeneousModel(0.5)))
            assert len(calls) == pairs

    @pytest.mark.parametrize("strategy", ["direct", "laplace"])
    def test_walk_takes_one_permutation_per_pair(self, monkeypatch, strategy):
        import bosonsim.probability as probability

        tables = []
        name = "_pair_permanents" if strategy == "direct" else "_laplace_split"
        evaluate = getattr(probability, name)
        monkeypatch.setattr(probability, name,  # tau is the last table for either evaluator
                            lambda rows, cols, *pairs: tables.append(pairs[-1]) or evaluate(rows, cols, *pairs))
        n = 6
        inst = ExperimentInstance.from_matrix(gaussian_matrix(n, n * n, seed=60), _gram_model(np.random.default_rng(60), n))
        truncated_probability(inst, n, strategy)
        taus = [tuple(row) for row in tables[0]]
        leads = {tau for tau in itertools.permutations(range(n)) if tau <= inverse_permutation(tau)}
        assert len(taus) == len(set(taus)) and set(taus) == leads
        moved = np.bincount([np.count_nonzero(np.array(tau) != np.arange(n)) for tau in taus], minlength=n + 1)
        assert moved.tolist() == [inverse_pairs(n, j) for j in range(n + 1)]

    @staticmethod
    def _walk_tables(model, n, k):
        """The kept permutations and the two weights that a direct walk closes over."""
        walk = _truncation_walk(model, n, k, "direct")
        bound = dict(zip(walk.__code__.co_freevars, (cell.cell_contents for cell in walk.__closure__)))
        return bound["pairs"][-1], bound["weights"], bound["partners"]

    def test_partner_weights_are_the_inverses_weights(self):
        # The walk takes w(tau^-1) as a product along tau of the transposed overlaps; on a complex Gram
        # matrix it must still equal prod_i S[i, tau^-1(i)], and 0 for an involution, for every tau of S_5.
        n = 5
        model = _gram_model(np.random.default_rng(61), n)
        s = model.overlap_matrix(n)
        taus, weights, partners = self._walk_tables(model, n, n)
        assert {tuple(tau) for tau in taus} | {inverse_permutation(tuple(tau)) for tau in taus} == set(
            itertools.permutations(range(n)))
        for tau, weight, partner in zip(taus, weights, partners):
            inverse = inverse_permutation(tuple(tau))
            expected = 0.0 if inverse == tuple(tau) else np.prod(s[np.arange(n), inverse])
            assert abs(weight - np.prod(s[np.arange(n), tau])) <= 1e-15
            assert abs(partner - expected) <= 1e-15

    def test_real_symmetric_partner_weights_are_exact(self, monkeypatch):
        # OBB overlaps are real and symmetric: each partner weight is its own weight bit for bit, so
        # a pair's w h + w conj(h) is real exactly and order 3 leaves no imaginary part at all.
        import bosonsim.probability as probability

        model = GeneralizedOBBModel((0.95, 0.85, 0.75, 0.65, 0.55))
        taus, weights, partners = self._walk_tables(model, 5, 5)
        involution = np.array([inverse_permutation(tuple(tau)) == tuple(tau) for tau in taus])
        assert np.array_equal(partners[~involution], weights[~involution]) and not partners[involution].any()
        seen, real_part = [], probability._real_part
        monkeypatch.setattr(probability, "_real_part", lambda values, sizes: seen.append(values) or real_part(values, sizes))
        truncated_probability(_haar_instance(np.random.default_rng(62), 5, 8, model), 3)
        assert seen[0][0, 3].imag == 0.0 and seen[0][0, 3].real != 0.0


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


class TestClassTables:
    def test_tables_match_the_generator(self):
        # Each pair's first member in lexicographic order, in generator order.
        for n in range(1, 9):
            for j in range(n + 1):
                table = _class_table(n, j)
                assert table.dtype == np.int8 and not table.flags.writeable
                assert table.shape == (inverse_pairs(n, j), n)
                taus = [tau for tau in partial_derangements(n, j) if tau <= inverse_permutation(tau)]
                assert [tuple(row) for row in table] == taus
                assert _class_table(n, j) is table


def _term_scale(orders) -> float:
    return float(np.abs(orders).sum())


def _block(stack):
    """A (B, n, n) stack as the walk's (rows, cols) block: the matrices side by side, each over its own columns."""
    count, n = len(stack), stack.shape[-1]
    return np.transpose(stack, (1, 0, 2)).reshape(n, count * n), np.arange(count * n).reshape(count, n)


@st.composite
def _obb_instances(draw):
    """A Haar instance with n <= 7 photons, a possibly collisional output, and x with 0s and 1s."""
    n = draw(st.integers(1, 7))
    m = n + draw(st.integers(0, 3))
    u = haar_unitary(m, draw(st.integers(0, 2**32 - 1)))
    out_modes = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    x = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=n, max_size=n))
    occ_in = tuple([1] * n + [0] * (m - n))
    return ExperimentInstance(u, occ_in, tuple(np.bincount(out_modes, minlength=m)), GeneralizedOBBModel(x))


class TestMixtureEngine:
    @settings(max_examples=40, deadline=None)
    @given(_obb_instances())
    def test_matches_walk_and_symmetric_group_sum(self, inst):
        mixture = exact_probability_by_order(inst)
        walk = np.array(truncated_probability(inst, inst.n).per_order)
        scale = _term_scale(walk)
        assert np.all(np.abs(mixture - walk) <= 1e-12 * scale)
        assert abs(mixture.sum() - exact_probability(inst)) <= 1e-12 * scale
        assert mixture[1] == 0.0

    def test_relabelling_photons_with_their_visibilities(self):
        rng = np.random.default_rng(21)
        for n in range(2, 8):
            matrix = gaussian_matrix(n, 2 * n, rng)
            x = rng.uniform(0.0, 1.0, n)
            orders = exact_probability_by_order(ExperimentInstance.from_matrix(matrix, GeneralizedOBBModel(x)))
            relabel = rng.permutation(n)
            moved = exact_probability_by_order(
                ExperimentInstance.from_matrix(matrix[relabel], GeneralizedOBBModel(x[relabel]))
            )
            assert np.all(np.abs(moved - orders) <= 1e-12 * _term_scale(orders))

    def test_homogeneous_equals_uniform_obb(self):
        rng = np.random.default_rng(22)
        for n, x in ((3, 0.0), (5, 0.5), (6, 0.7), (7, 1.0)):
            matrix = gaussian_matrix(n, 2 * n, rng)
            homogeneous = exact_probability_by_order(ExperimentInstance.from_matrix(matrix, HomogeneousModel(x)))
            obb = exact_probability_by_order(ExperimentInstance.from_matrix(matrix, GeneralizedOBBModel((x,) * n)))
            assert np.array_equal(homogeneous, obb)

    def test_explicit_overlaps_take_the_walk_to_the_same_orders(self):
        rng = np.random.default_rng(27)
        obb = _haar_instance(rng, 5, 8)
        explicit = ExperimentInstance(
            obb.unitary, obb.input_occupation, obb.output_occupation, ExplicitModel(obb.model.overlap_matrix(5))
        )
        mixture, walk = exact_probability_by_order(obb), exact_probability_by_order(explicit)
        assert np.all(np.abs(mixture - walk) <= 1e-12 * _term_scale(walk))

    def test_stack_matches_each_matrix_alone(self):
        # n = 6 stacks are evaluated in groups of 51 matrices, so 75 span two groups.
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 1.0, 6)
        stack = np.array([gaussian_matrix(6, 12, rng) for _ in range(75)])
        together = _mixture_orders(stack, x)
        assert together.shape == (75, 7)
        for matrix, orders in zip(stack, together):
            alone = _mixture_orders(matrix[None], x)[0]
            assert np.all(np.abs(orders - alone) <= 1e-12 * _term_scale(alone))
        assert _mixture_orders(stack[:0], x).shape == (0, 7)

    def test_nine_photons_beyond_the_walk(self):
        matrix = gaussian_matrix(9, 18, np.random.default_rng(24))
        orders = _mixture_orders(matrix[None], np.ones(9))[0]
        assert abs(orders.sum() - abs(glynn_permanent(matrix)) ** 2) <= 1e-12 * _term_scale(orders)
        classical = _mixture_orders(matrix[None], np.zeros(9))[0]
        assert classical[0] == pytest.approx(glynn_permanent(np.abs(matrix) ** 2).real, rel=1e-12)
        assert np.all(classical[1:] == 0.0)

    def test_ten_photons_in_bounded_memory(self):
        # At x = 1 the orders sum to |perm M|^2, here within the 1e-12 of the
        # summed |orders| that the n <= 9 tests hold.
        matrix = gaussian_matrix(10, 20, np.random.default_rng(27))
        inst = ExperimentInstance.from_matrix(matrix, GeneralizedOBBModel((1.0,) * 10))
        tracemalloc.start()
        try:
            orders = exact_probability_by_order(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert abs(orders.sum() - abs(permanent(matrix)) ** 2) <= 1e-12 * _term_scale(orders)

    def test_twelve_photons_in_bounded_memory(self):
        # The whole lattice of |M|^2 (21.6 MB) and two levels of the lattice of
        # M (24 MB) are held at once; the gathers between levels go in chunks.
        matrix = gaussian_matrix(12, 24, np.random.default_rng(28))
        inst = ExperimentInstance.from_matrix(matrix, GeneralizedOBBModel((1.0,) * 12))
        tracemalloc.start()
        try:
            orders = exact_probability_by_order(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96e6
        assert abs(orders.sum() - abs(glynn_permanent(matrix)) ** 2) <= 1e-12 * _term_scale(orders)

    def test_stack_memory_is_bounded(self):
        # 100 matrices at n = 8: held at once, their lattices would peak near 35 MB.
        rng = np.random.default_rng(29)
        stack = np.array([gaussian_matrix(8, 16, rng) for _ in range(100)])
        x = rng.uniform(0.0, 1.0, 8)
        tracemalloc.start()
        try:
            together = _mixture_orders(stack, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        for b in (0, 99):
            alone = _mixture_orders(stack[b : b + 1], x)[0]
            assert np.all(np.abs(together[b] - alone) <= 1e-12 * _term_scale(alone))

    def test_rejects_non_finite_entries(self):
        matrix = gaussian_matrix(4, 8, np.random.default_rng(30))
        for bad in (np.nan, 1e200):  # |1e200|^2 overflows
            stack = np.array([matrix, matrix])
            stack[1, 2, 3] = bad
            with pytest.raises(ValueError), np.errstate(over="ignore"):
                _mixture_orders(stack, np.full(4, 0.5))

    def test_order_one_residue_fails_fast(self, monkeypatch):
        import bosonsim.probability as probability

        subset_sums = probability._subset_sums

        def skewed(stack):
            sums = subset_sums(stack)
            sums[:, 1] *= 1.0 + 1e-6  # F({0}) no longer equals F(empty set)
            return sums

        monkeypatch.setattr(probability, "_subset_sums", skewed)
        inst = _haar_instance(np.random.default_rng(25), 4, 6)
        with pytest.raises(ArithmeticError):
            exact_probability_by_order(inst)

    def test_visibility_count_must_match(self):
        inst = _haar_instance(np.random.default_rng(26), 4, 6, GeneralizedOBBModel((0.5,) * 3))
        with pytest.raises(ValueError):
            exact_probability_by_order(inst)
        with pytest.raises(ValueError):
            _mixture_orders(inst.interference_matrix[None], np.full(3, 0.5))


@st.composite
def _output_stacks(draw):
    """A model, k, a strategy and 0..4 possibly collisional outputs of one Haar instance with n <= 5."""
    n = draw(st.integers(1, 5))
    m = n + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["homogeneous", "obb", "explicit"]))
    if kind == "homogeneous":
        model = HomogeneousModel(draw(st.sampled_from([0.0, 0.45, 1.0])))
    elif kind == "obb":
        model = GeneralizedOBBModel(tuple(draw(st.sampled_from([0.0, 1.0, 0.3, 0.85])) for _ in range(n)))
    else:
        vectors = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        model = ExplicitModel(vectors @ vectors.conj().T / np.outer(*[np.linalg.norm(vectors, axis=1)] * 2))
    u = haar_unitary(m, rng)
    occ_in = tuple([1] * n + [0] * (m - n))
    outputs = [tuple(np.bincount(rng.integers(0, m, n), minlength=m)) for _ in range(draw(st.integers(0, 4)))]
    instances = [ExperimentInstance(u, occ_in, occ, model) for occ in outputs]
    return instances, model, n, draw(st.integers(0, n)), draw(st.sampled_from(["direct", "laplace"]))


class TestStackedWalk:
    @settings(max_examples=60, deadline=None)
    @given(_output_stacks())
    def test_stack_matches_each_matrix_and_truncation(self, case):
        instances, model, n, k, strategy = case
        walk = _truncation_walk(model, n, k, strategy)
        stacked = walk(*_block(np.array([inst.interference_matrix for inst in instances]).reshape(-1, n, n)))
        assert stacked.shape == (len(instances), k + 1)
        for inst, orders in zip(instances, stacked):
            alone = walk(inst.interference_matrix, np.arange(n)[None])[0]
            reference = truncated_probability(inst, k, strategy).per_order
            scale = 1e-12 * _term_scale(alone)
            assert np.all(np.abs(orders - alone) <= scale)
            assert np.all(np.abs(orders / inst.normalization - reference) <= scale / inst.normalization)
            assert k < 1 or orders[1] == 0.0

    def test_stack_spanning_several_kernel_chunks(self):
        # 40 matrices of n = 5 at k = 3: the direct evaluator's 200 columns go
        # 12 matrices (60 columns) per pass of subset keys, and the Laplace
        # split's block stacks span several kernel passes.
        rng = np.random.default_rng(31)
        stack = np.array([gaussian_matrix(5, 10, rng) for _ in range(40)])
        for strategy in ("direct", "laplace"):
            walk = _truncation_walk(GeneralizedOBBModel((0.9, 0.2, 0.7, 1.0, 0.5)), 5, 3, strategy)
            together = walk(*_block(stack))
            for matrix, orders in zip(stack, together):
                alone = walk(matrix, np.arange(5)[None])[0]
                assert np.all(np.abs(orders - alone) <= 1e-12 * _term_scale(alone))

    def test_empty_stack(self):
        for strategy in ("direct", "laplace"):
            walk = _truncation_walk(HomogeneousModel(0.5), 4, 2, strategy)
            assert walk(*_block(np.zeros((0, 4, 4)))).shape == (0, 3)

    def test_residue_in_one_matrix_of_a_stack_fails(self):
        # Real matrices have real Hadamard permanents, so under non-Hermitian
        # overlaps only the complex matrix leaves a residue; the check must be
        # per matrix, not hidden by a larger neighbour's term sizes.
        rng = np.random.default_rng(32)
        real = 1e3 * rng.standard_normal((3, 3))
        skewed = 1e-2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        for strategy in ("direct", "laplace"):
            walk = _truncation_walk(_SkewedModel(), 3, 3, strategy)
            assert walk(*_block(np.array([real, real]))).shape == (2, 4)
            with pytest.raises(ArithmeticError):
                walk(*_block(np.array([real, skewed])))

    def test_arguments_checked_before_any_stack(self):
        with pytest.raises(ValueError):
            _truncation_walk(HomogeneousModel(0.5), 3, 4, "direct")
        with pytest.raises(ValueError):
            _truncation_walk(HomogeneousModel(0.5), 3, 2, "adaptive")
        with pytest.raises(ValueError):
            _truncation_walk(GeneralizedOBBModel((0.5,) * 2), 3, 2, "direct")


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
        assert result.to_dict()["model"] == inst.model.to_dict()
        assert "elapsed" not in result.to_dict()

    def test_order_two_residue_at_sixteen(self, monkeypatch):
        # Each order's imaginary residue stays within 1e-13 of its summed |terms| (Glynn's kernel gave
        # 3e-17 to 1.2e-16 here; Ryser's gave up to 1.7e-11 at n = 16 and crossed 1e-10 from n = 18).
        import bosonsim.probability as probability

        monkeypatch.setattr(probability, "_RESIDUE", 1e-13)
        inst = ExperimentInstance.from_matrix(gaussian_matrix(16, 256, seed=2), GeneralizedOBBModel(tuple(np.linspace(0.95, 0.55, 16))))
        assert len(truncated_probability(inst, 2).per_order) == 3

    def test_order_three_residue_at_thirteen(self, monkeypatch):
        # Orders 0, 2 and 3 of the direct walk gave 1.9e-17 to 1.3e-16 of their summed |terms| here.
        import bosonsim.probability as probability

        monkeypatch.setattr(probability, "_RESIDUE", 1e-13)
        inst = ExperimentInstance.from_matrix(gaussian_matrix(13, 169, seed=1), GeneralizedOBBModel(tuple(np.linspace(0.95, 0.55, 13))))
        assert len(truncated_probability(inst, 3).per_order) == 4

    @pytest.mark.parametrize("n", [13, 14])
    def test_strategies_agree_above_twelve(self, n):
        # The Laplace walk checks the direct one above n = 12: orders 0 and 2 within 1e-12 of their summed
        # |orders|, as in the stacked walks.
        model = GeneralizedOBBModel(tuple(np.linspace(0.95, 0.55, n)))
        inst = ExperimentInstance.from_matrix(gaussian_matrix(n, n * n, seed=n), model)
        direct = truncated_probability(inst, 2, "direct").per_order
        split = truncated_probability(inst, 2, "laplace").per_order
        assert np.all(np.abs(np.subtract(split, direct)) <= 1e-12 * _term_scale(direct))

    def test_walk_orders_at_fourteen_against_the_exact_oracle(self):
        # Only photons 0..2 are partly indistinguishable, so order 2 is their three transpositions with
        # weight x_a x_b and order 0 is perm(|M|^2), each within 1e-13 of its summed |terms| of the
        # exact permanents of the same float product matrices.
        x = (0.9, 0.7, 0.5) + (0.0,) * 11
        matrix = gaussian_matrix(14, 196, seed=3)
        per_order = truncated_probability(ExperimentInstance.from_matrix(matrix, GeneralizedOBBModel(x)), 2).per_order
        terms = []
        for a, b in itertools.combinations(range(3), 2):
            tau = np.arange(14)
            tau[[a, b]] = b, a
            terms.append(x[a] * x[b] * exact_permanent(matrix * np.conj(matrix[tau, :])))
        zero = exact_permanent(np.abs(matrix) ** 2).real
        assert abs(per_order[0] - zero) <= 1e-13 * zero
        assert abs(per_order[2] - sum(terms).real) <= 1e-13 * sum(map(abs, terms))

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
        # Per pair {tau, tau^-1} moving j rows and per j-set of columns, a j x j block and an
        # (n - j) x (n - j) complement, j 2^j + (n - j) 2^(n - j).  n=3, k=2: order 0 is one complement,
        # 3 * 8 = 24, and order 2 is 3 transpositions (each its own pair) * C(3,2) sets * (2*4 + 1*2) = 90
        assert truncation_cost_estimate(3, 2) == 24 + 90
        # n=4, k=3: order 0 gives 4 * 16 = 64, order 2 gives 6 * 6 * (2*4 + 2*4) = 576, order 3
        # gives 4 pairs of 3-cycles * 4 * (3*8 + 1*2) = 416
        assert truncation_cost_estimate(4, 3) == 64 + 576 + 416
        # n=12, k=0: the identity alone is one whole complement, 12 * 2^12
        assert truncation_cost_estimate(12, 0) == 49152
        # n=13, k=2: 13 * 2^13 + 78 * 78 * (2*4 + 11 * 2^11), finite above n = 12
        assert truncation_cost_estimate(13, 2) == 106496 + 6084 * 22536

    def test_rejects_order_outside_zero_to_n(self):
        for k in (-1, 6):
            with pytest.raises(ValueError):
                truncation_cost_estimate(5, k)

    def test_monotone_in_k(self):
        costs = [truncation_cost_estimate(8, k) for k in range(9)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


class TestWorkBudget:
    """Every expensive call predicts its kernel operations and refuses above ``linalg._WORK``."""

    # Predicted over counted work: every case below has no zero overlap weight, so
    # each prediction counts exactly the permanents and lattices that run.
    SLACK = 1.0

    @pytest.fixture
    def work(self, monkeypatch):
        """Count kernel work and record predictions.

        Counted: n 2^n per n x n permanent, one per item or, with picks, per item and pick, and
        sum_s C(n, s)^2 s per lattice.
        Predictions are recorded in call order, those of the engines and of the public kernels alike.
        """
        import bosonsim.linalg as linalg
        import bosonsim.probability as probability

        tally = {"counted": 0, "predicted": []}
        glynn, lattice, afford = linalg._glynn, linalg._lattice, linalg._afford

        def counting_glynn(count, n, block, picks=None):
            tally["counted"] += count * (1 if picks is None else len(picks)) * n << n
            return glynn(count, n, block, picks)

        def counting_lattice(source, top):
            for s, level in enumerate(lattice(source, top)):
                tally["counted"] += len(source) * math.comb(source.shape[-1], s) ** 2 * s
                yield level

        def recording_afford(work, what, *args):
            tally["predicted"].append(work)
            return afford(work, what, *args)

        monkeypatch.setattr(linalg, "_glynn", counting_glynn)
        monkeypatch.setattr(linalg, "_lattice", counting_lattice)
        monkeypatch.setattr(linalg, "_afford", recording_afford)
        monkeypatch.setattr(probability, "_afford", recording_afford)
        return tally

    @pytest.mark.parametrize("case", ["exact-6", "direct-7-3", "laplace-7-3", "mixture-8", "verify-5", "hadamard-7", "split-7"])
    def test_predicted_against_counted_work(self, work, case):
        from bosonsim.bounds import validate_bound_monte_carlo

        rng = np.random.default_rng(41)
        n = int(case.split("-")[1])
        inst = ExperimentInstance.from_matrix(gaussian_matrix(n, n * n, rng), GeneralizedOBBModel(tuple(np.linspace(0.9, 0.5, n))))
        if case.startswith("exact"):
            exact_probability(inst)
        elif case.startswith("mixture"):
            exact_probability_by_order(inst)
        elif case.startswith("verify"):
            validate_bound_monte_carlo(n, n * n, 1, inst.model, trials=50, seed=5)
        elif case.startswith(("hadamard", "split")):
            # A stack of 3 matrices over the identity and the permutations moving 2 and 3 points.
            stack = np.array([gaussian_matrix(n, n * n, rng) for _ in range(3)])
            taus = np.concatenate([class_words(n, j) for j in (0, 2, 3)])
            (hadamard_permanent if case.startswith("hadamard") else laplace_split_permanent)(stack, taus)
        else:
            truncated_probability(inst, 3, case.split("-")[0])
        # The first prediction is the whole call's; the kernels check again the parts the engines pass them.
        entry, *parts = work["predicted"]
        assert 0 < work["counted"] <= entry <= self.SLACK * work["counted"]
        assert sum(parts) in (0, entry)

    @pytest.mark.parametrize("call", ["by-order-explicit-12", "direct-12-12", "laplace-12-12", "exact-10"])
    def test_refused_before_any_work(self, monkeypatch, call):
        import bosonsim.probability as probability

        # A walk over all orders at n = 12 (explicit overlaps by order, or k = 12) takes one of each of
        # the (12! + I_12) / 2 pairs {tau, tau^-1}, I_12 = 140,152 involutions, each priced as 12 x 2^12
        # (``_ryser_work``); the exact sum at n = 10 the same, (10! + 9,496) / 2 = 1,819,148 at 1.86e10.
        predicted = {"laplace-12-12": truncation_cost_estimate(12, 12), "exact-10": 1_819_148 * 10 << 10}.get(
            call, (math.factorial(12) + 140_152) // 2 * 12 << 12)

        def no_work(*args):
            raise AssertionError("work started before the cost check")

        for name in ("_class_table", "_pair_permanents", "permanent", "_laplace_split", "_subset_sums"):
            monkeypatch.setattr(probability, name, no_work)
        n = int(call.split("-")[-2 if call.startswith(("direct", "laplace")) else -1])
        model = ExplicitModel(np.eye(n)) if "explicit" in call else HomogeneousModel(0.5)
        inst = ExperimentInstance.from_matrix(gaussian_matrix(n, n * n, np.random.default_rng(42)), model)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{predicted:.3g}".replace("+", "\\+")):
            if call.startswith("by-order"):
                exact_probability_by_order(inst)
            elif call.startswith("exact"):
                exact_probability(inst)
            else:
                truncated_probability(inst, 12, call.split("-")[0])
        assert time.perf_counter() - start < 1.0

    def test_mixture_refused_above_the_lattice_limit(self, monkeypatch):
        import bosonsim.probability as probability

        monkeypatch.setattr(probability, "_subset_sums", lambda *args: pytest.fail("lattice built above n = 12"))
        inst = ExperimentInstance.from_matrix(gaussian_matrix(13, 169, np.random.default_rng(43)), HomogeneousModel(0.5))
        with pytest.raises(ValueError, match="sub-permanent of \\|M\\|\\^2, so it is limited to n <= 12"):
            exact_probability_by_order(inst)
