import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bosonsim.distinguishability import GeneralizedOBBModel
from bosonsim.linalg import _lattice, _lattice_tables, _lattice_work, _pair_permanents
from bosonsim.linalg import hadamard_permanent, laplace_split_permanent, permanent, submatrix
from bosonsim.probability import ExperimentInstance, _mixture_orders, _truncation_walk, truncated_probability
from bosonsim.randgen import haar_unitary
from conftest import brute_permanent, class_words, exact_permanent, inverse_permutation, partitions, perm_from_cycle_lengths, ryser_permanent

# Agreement tolerance relative to the largest term either formula can sum.
# perm(|A|) is no such bound: Ryser's subset terms need not vanish when it
# does (a matrix with two zero columns gives 4e-16j against perm(|A|) = 0).
TERM_TOL = 1e-12


def _random_complex(rng, n, batch=()):
    shape = (*batch, n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _term_scale(matrices) -> np.ndarray:
    """Product of the row (Ryser) or column (Glynn) absolute sums, whichever is larger."""
    absolute = np.abs(matrices)
    return np.maximum(absolute.sum(axis=-1).prod(axis=-1), absolute.sum(axis=-2).prod(axis=-1))


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
        for value in (permanent(a), ryser_permanent(a)):
            assert value == pytest.approx(reference, rel=1e-10)

    def test_methods_agree_up_to_modest_sizes(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            a = _random_complex(rng, n)
            assert ryser_permanent(a) == pytest.approx(permanent(a), rel=1e-9)

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

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                permanent([[1.0, bad], [0.0, 1.0]])

    def test_numerics_at_twelve(self):
        # Both formulas cancel more as n grows (Ryser's more); on a Gaussian n = 12
        # matrix the gap between them is still at roundoff of perm(|A|).
        a = _random_complex(np.random.default_rng(12), 12)
        value, reference = permanent(a), ryser_permanent(a)
        assert abs(value - reference) <= 1e-15 * permanent(np.abs(a)).real
        assert abs(value - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("kernel", ["permanent", "hadamard_permanent", "laplace_split_permanent"])
    def test_refused_over_the_work_budget(self, monkeypatch, kernel):
        # About twice the budget each, so every public kernel refuses its whole call before the kernel starts:
        # 29 * 2^29 = 1.56e10 for a 29 x 29 permanent (the Hadamard one with the identity, and the Laplace
        # split's one complement).
        import bosonsim.linalg as linalg

        monkeypatch.setattr(linalg, "_glynn", lambda *args: pytest.fail("kernel started over the budget"))
        args = (np.ones((29, 29)),) if kernel == "permanent" else (np.ones((29, 29)), np.arange(29))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1.56e\\+10 kernel operations"):
            getattr(linalg, kernel)(*args)
        assert time.perf_counter() - start < 1.0


class TestExactOracle:
    """The kernel against the exact permanent of its float input (``exact_permanent``), above n = 12."""

    def test_squared_moduli_at_fourteen(self):
        # Glynn's kernel was within 2.3e-14 at n = 14; Ryser's was 1.1e-10 off.
        a = np.abs(_random_complex(np.random.default_rng(80), 14)) ** 2
        exact = exact_permanent(a).real
        assert abs(permanent(a) - exact) <= 1e-13 * exact

    def test_complex_at_twelve(self):
        a = _random_complex(np.random.default_rng(81), 12)
        exact = exact_permanent(a)
        assert abs(permanent(a) - exact) <= 1e-13 * abs(exact)

    def test_hadamard_at_twelve(self):
        # The identity (perm |A|^2) and one transposition, each against its own exact value.
        a = _random_complex(np.random.default_rng(82), 12)
        tau = np.arange(12)
        tau[[3, 7]] = tau[[7, 3]]
        values = hadamard_permanent(a, [np.arange(12), tau])
        for value, product in zip(values, (np.abs(a) ** 2, a * np.conj(a[tau, :]))):
            exact = exact_permanent(product)
            assert abs(value - exact) <= 1e-13 * abs(exact)


class TestStacks:
    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(13)
        for n in range(9):
            for batch in (0, 1, 5):
                stack = _random_complex(rng, n, (batch,))
                values = permanent(stack)
                assert values.shape == (batch,)
                single = np.array([permanent(a) for a in stack], dtype=complex)
                assert np.all(np.abs(values - single) <= TERM_TOL * _term_scale(stack))

    def test_leading_axes_are_kept(self):
        stack = _random_complex(np.random.default_rng(14), 3, (2, 4))
        values = permanent(stack)
        assert values.shape == (2, 4)
        assert values[1, 2] == pytest.approx(permanent(stack[1, 2]), rel=1e-12)

    def test_stack_larger_than_one_chunk(self):
        stack = _random_complex(np.random.default_rng(15), 5, (1000,))
        values = permanent(stack)
        scale = TERM_TOL * _term_scale(stack)
        assert np.all(np.abs(values - np.array([permanent(a) for a in stack])) <= scale)
        assert np.all(np.abs(values - np.array([ryser_permanent(a) for a in stack])) <= scale)

    def test_more_signings_than_one_chunk(self):
        stack = _random_complex(np.random.default_rng(16), 13, (2,))
        values = permanent(stack)
        scale = TERM_TOL * _term_scale(stack)
        for a, value, tol in zip(stack, values, scale):
            assert abs(value - permanent(a)) <= tol
            assert abs(value - ryser_permanent(a)) <= tol

    def test_signing_chunks_built_once_above_thirteen(self, monkeypatch):
        # Above n = 13 the signing table is not cached: each chunk is built once per call, not once
        # per matrix, and every matrix adds its chunks in the same order, so the values are exactly
        # those of single calls.  A chunk holds as many signings as fit the budget for the item's
        # rows: the 14 rows of a matrix, or the 28 row pairs that the two permutations use.
        import bosonsim.linalg as linalg

        rng = np.random.default_rng(18)
        stack = _random_complex(rng, 14, (3,))
        taus = np.array([np.arange(14), np.roll(np.arange(14), 1)])
        single = [permanent(a) for a in stack], [hadamard_permanent(a, taus) for a in stack]
        built, signings = [], linalg._signings
        monkeypatch.setattr(linalg, "_signings", lambda n, start, stop: built.append(start) or signings(n, start, stop))
        chunks = [math.ceil((1 << 13) / (linalg._BUDGET // (64 * rows))) for rows in (14, 28)]
        assert list(permanent(stack)) == single[0]
        assert len(built) == len(set(built)) == chunks[0]
        assert np.array_equal(hadamard_permanent(stack, taus), np.array(single[1]))
        assert len(built) == chunks[0] + len(set(built[chunks[0] :])) == sum(chunks)

    def test_hadamard_rows_match_single_calls(self):
        rng = np.random.default_rng(17)
        for n in (1, 4, 6):
            a = _random_complex(rng, n)
            taus = np.array([rng.permutation(n) for _ in range(7)])
            values = hadamard_permanent(a, taus)
            assert values.shape == (7,)
            for tau, value in zip(taus, values):
                scale = TERM_TOL * _term_scale(a * np.conj(a[tau, :]))
                assert abs(value - hadamard_permanent(a, tau)) <= scale
        assert hadamard_permanent(np.eye(3), np.zeros((0, 3), dtype=int)).shape == (0,)

    def test_hadamard_stack_matches_single_calls(self):
        rng = np.random.default_rng(19)
        n = 4
        stack = _random_complex(rng, n, (2, 3))
        taus = np.array([rng.permutation(n) for _ in range(5)])
        values = hadamard_permanent(stack, taus)
        assert values.shape == (2, 3, 5)
        assert hadamard_permanent(stack, taus[0]).shape == (2, 3)
        for index in np.ndindex(2, 3):
            a = stack[index]
            for tau, value in zip(taus, values[index]):
                assert abs(value - hadamard_permanent(a, tau)) <= TERM_TOL * _term_scale(a * np.conj(a[tau, :]))
        assert hadamard_permanent(stack[:0, 0], taus).shape == (0, 5)
        # The Laplace split keeps the leading axes the same way.
        scale = TERM_TOL * _term_scale(stack[:, :, None] * np.conj(stack[:, :, taus]))
        assert np.all(np.abs(laplace_split_permanent(stack, taus) - values) <= scale)
        assert laplace_split_permanent(stack, taus[0]).shape == (2, 3)
        assert laplace_split_permanent(stack[:0, 0], taus).shape == (0, 5)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            permanent(np.ones((4, 2, 3)))
        with pytest.raises(ValueError):
            permanent(np.ones(3))


_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@st.composite
def _complex_stacks(draw):
    n = draw(st.integers(0, 8))
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (n, n)
    return draw(arrays(float, shape, elements=_ENTRY)) + 1j * draw(arrays(float, shape, elements=_ENTRY))


@settings(max_examples=60, deadline=None)
@given(_complex_stacks())
def test_ryser_and_glynn_agree(matrices):
    stack = matrices[None] if matrices.ndim == 2 else matrices
    values, scale = np.atleast_1d(permanent(matrices)), np.atleast_1d(_term_scale(matrices))
    for a, value, size in zip(stack, values, scale):
        assert abs(value - ryser_permanent(a)) <= TERM_TOL * size


@st.composite
def _lattice_stacks(draw):
    n = draw(st.integers(0, 7))
    shape = (draw(st.sampled_from([0, 1, 3])), n, n)
    real = draw(arrays(float, shape, elements=_ENTRY))
    if draw(st.booleans()):
        return np.abs(real)
    return real + 1j * draw(arrays(float, shape, elements=_ENTRY))


@settings(max_examples=40, deadline=None)
@given(_lattice_stacks())
def test_lattice_matches_the_kernel(stack):
    # Every sub-permanent of the row-expansion lattice against the kernel on the cut-out block.
    n = stack.shape[-1]
    levels = _lattice_tables(n)[1]
    count = 0
    for size, level in enumerate(_lattice(stack, n)):
        sets = levels[size][0]
        assert level.shape == (len(sets), len(sets), len(stack))
        for r, rows in enumerate(sets):
            for c, cols in enumerate(sets):
                blocks = stack[:, rows[:, None], cols]
                gaps = np.abs(level[r, c] - permanent(blocks))
                assert np.all(gaps <= TERM_TOL * _term_scale(blocks))
        count += 1
    assert count == n + 1


def test_complements_reverse_the_lattice_order():
    for n in range(9):
        rank, levels = _lattice_tables(n)
        for size in range(n + 1):
            masks = levels[size][1]
            assert np.array_equal(rank[masks], np.arange(len(masks)))
            assert np.array_equal(levels[n - size][1][::-1], (1 << n) - 1 - masks)


def test_every_pass_loop_across_a_seam(monkeypatch):
    # A 2 KB budget splits every loop it sizes into several passes: the kernel's
    # signings, where the n = 6 signing table (3,584 B) is no longer cached, so the
    # chunks are the outer loop, and its items, its picks (the 191 permutations in
    # three passes per matrix, the 135 moving 4 rows in three over each Laplace
    # item), the matrix groups of the pair evaluator, of the Laplace split and of
    # the mixture, and the lattice rows.  Each must match the one-pass values.
    import bosonsim.linalg as linalg

    rng = np.random.default_rng(31)
    stack = _random_complex(rng, 6, (3,))
    taus = np.concatenate([class_words(6, j) for j in (0, 2, 3, 4)])
    x = rng.uniform(0.0, 1.0, 6)

    # The pair evaluator takes the stack side by side and its first matrix three times over.
    block = stack.transpose(1, 0, 2).reshape(6, 18), np.arange(18).reshape(3, 6)
    copies = stack[0], np.tile(np.arange(6), (3, 1))

    def evaluate():
        return [permanent(stack), hadamard_permanent(stack, taus), laplace_split_permanent(stack, taus),
                _pair_permanents(*block, np.arange(6), taus), _pair_permanents(*copies, np.arange(6), taus),
                _mixture_orders(stack, x)]

    whole = evaluate()
    built, signings = [], linalg._signings
    monkeypatch.setattr(linalg, "_BUDGET", 2048)
    monkeypatch.setattr(linalg, "_signings", lambda n, start, stop: built.append((n, stop - start)) or signings(n, start, stop))
    linalg._signing_table.cache_clear()  # the n = 6 table cached under the full budget
    try:
        split = evaluate()
    finally:
        linalg._signing_table.cache_clear()  # no table refused under 2 KB stays cached for later tests
    chunks = [size for n, size in built if n == 6]
    assert len(chunks) > 4 and max(chunks) < 32
    products = _term_scale(stack[:, None] * np.conj(stack[:, taus]))
    for one, many, scale in zip(whole, split, [_term_scale(stack), products, products, products, products[:1]]):
        assert np.all(np.abs(many - one) <= TERM_TOL * scale)
    assert np.all(np.abs(split[-1] - whole[-1]) <= TERM_TOL * np.abs(whole[-1]).sum(axis=1, keepdims=True))


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

    @pytest.mark.parametrize("kind", ["gaussian", "collisional"])
    def test_inverse_conjugates_over_every_permutation_of_five(self, kind):
        # h(sigma^-1) = conj(h(sigma)) for every M, which lets the probability sums evaluate one
        # permanent per pair; each within 1e-13 of perm(|M * conj(M[sigma, :])|), the size of its terms.
        if kind == "gaussian":
            a = _random_complex(np.random.default_rng(8), 5)
        else:  # repeated input and output modes repeat rows and columns
            a = submatrix(haar_unitary(6, seed=9), [0, 0, 1, 2, 3], [1, 1, 2, 4, 4])
        sigmas = np.array(list(itertools.permutations(range(5))))
        values = hadamard_permanent(a, sigmas)
        inverses = hadamard_permanent(a, np.argsort(sigmas, axis=1))
        sizes = permanent(np.abs(a[None] * np.conj(a[sigmas, :])))
        assert np.all(np.abs(inverses - np.conj(values)) <= 1e-13 * sizes.real)

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
        with pytest.raises(ValueError):
            hadamard_permanent(np.eye(3), np.zeros((2, 2, 3), dtype=int))

    @pytest.mark.parametrize("evaluate", [hadamard_permanent, laplace_split_permanent])
    @pytest.mark.parametrize("word", [[0, 0], [-1, 0], [2, 0]])
    def test_rejects_non_permutations(self, evaluate, word):
        # A repeated entry, a negative one (numpy indexing would wrap it) and one past n.
        with pytest.raises(ValueError, match="permutation of range"):
            evaluate([[1, 2], [3, 4]], word)
        with pytest.raises(ValueError, match="permutation of range"):
            evaluate(np.ones((2, 2, 2)), [[1, 0], word, [0, 1]])

    @pytest.mark.parametrize("evaluate", [hadamard_permanent, laplace_split_permanent])
    def test_rejects_overflow_and_nan(self, evaluate):
        # Finite entries whose Hadamard product overflows are rejected like non-finite ones.
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            evaluate(np.full((3, 3), 1e200), (1, 2, 0))
        bad = np.eye(3, dtype=complex)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            evaluate(bad, (1, 0, 2))
        # One bad matrix in a stack of good ones, for one permutation and for a table.
        stack = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
        stack[2, 1, 2] = np.nan
        with pytest.raises(ValueError):
            evaluate(stack, (1, 0, 2))
        stack[2, 1, 2] = stack[2, 0, 2] = 1e200
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            evaluate(stack, [(0, 1, 2), (1, 0, 2)])


def _check_stacked_tables(rng):
    # Tables mix the identity with permutations moving 2..n points (two per
    # count, cycling the same rows both ways, so fixed-row sets repeat),
    # shuffled, for stacks of 0, 1 and 5.
    for n in range(8):
        taus = [np.arange(n)]
        for j in range(2, n + 1):
            moved = rng.choice(n, j, replace=False)
            for shift in (1, -1):
                tau = np.arange(n)
                tau[moved] = np.roll(moved, shift)
                taus.append(tau)
        taus = np.array(taus)[rng.permutation(len(taus))]
        for batch in (0, 1, 5):
            stack = _random_complex(rng, n, (batch,))
            values = laplace_split_permanent(stack, taus)
            assert values.shape == (batch, len(taus))
            for a, row in zip(stack, values):
                assert laplace_split_permanent(a, taus).shape == (len(taus),)
                for tau, value in zip(taus, row):
                    scale = TERM_TOL * _term_scale(a * np.conj(a[tau, :]))
                    assert abs(value - hadamard_permanent(a, tau)) <= scale
            column = laplace_split_permanent(stack, taus[-1])
            assert column.shape == (batch,)
            scale = TERM_TOL * _term_scale(stack * np.conj(stack[:, taus[-1], :]))
            assert np.all(np.abs(column - hadamard_permanent(stack, taus[-1])) <= scale)


def _moving(rng, n, j):
    """A permutation of range(n) moving exactly j points (a j-cycle; j = 0 gives the identity)."""
    tau = np.arange(n)
    moved = rng.choice(n, j, replace=False)
    tau[moved] = np.roll(moved, 1)
    return tau


class TestPairPermanents:
    """The direct walk's evaluator against ``hadamard_permanent``, permutation by permutation."""

    @staticmethod
    def _check(rows, cols, taus):
        """Compare each value with its own Hadamard permanent."""
        cols, taus = np.asarray(cols), np.asarray(taus)
        values = _pair_permanents(rows, cols, np.arange(len(rows)), taus)
        assert values.shape == (len(cols), len(taus))
        for c, row in zip(cols, values):
            a = rows[:, c]
            for tau, value in zip(taus, row):
                assert abs(value - hadamard_permanent(a, tau)) <= TERM_TOL * _term_scale(a * np.conj(a[tau, :]))

    @pytest.mark.parametrize("n", range(1, 14))
    def test_single_matrix_every_order(self, n):
        # The identity and two permutations moving each count 2..n of points (orders k = 0..n): one
        # matrix alone, beside another on its own columns, then twice over the same columns.
        rng = np.random.default_rng(60 + n)
        taus = [_moving(rng, n, j) for j in [0] + [j for j in range(2, n + 1) for _ in range(2)]]
        a, b = _random_complex(rng, n), _random_complex(rng, n)
        self._check(a, [np.arange(n)], taus)
        self._check(np.hstack([a, b]), [np.arange(n), np.arange(n, 2 * n)], taus)
        self._check(a, [np.arange(n)] * 2, taus)

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 2), (6, 4)])
    def test_single_matrix_route(self, n, k):
        # A single matrix over every permutation of orders 0 and 2..k: one ``_glynn`` item picking each one's pairs.
        taus = np.concatenate([class_words(n, j) for j in [0] + list(range(2, k + 1))])
        self._check(_random_complex(np.random.default_rng(70 + n), n), [np.arange(n)], taus)

    def test_block_sharing_columns(self):
        # Sampler blocks whose outputs share most column subsets: 40 outputs of 4 photons over 7 modes,
        # and all 70 outputs of 4 photons over 8 modes.
        rng = np.random.default_rng(74)
        taus = np.concatenate([class_words(4, j) for j in (0, 2, 3, 4)])
        rows = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        self._check(rows, np.sort([rng.choice(7, 4, replace=False) for _ in range(40)], axis=1), taus)
        rows = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        self._check(rows, list(itertools.combinations(range(8), 4)), taus)

    def test_collisional_output(self):
        # Two photons in one output mode repeat a column; by position, the copies stay two columns.
        matrix = _random_complex(np.random.default_rng(75), 4)[:3][:, [1, 1, 3]]
        self._check(matrix, [np.arange(3)], np.concatenate([class_words(3, j) for j in range(4)]))
        self._check(matrix, [np.arange(3)] * 3, np.concatenate([class_words(3, j) for j in range(4)]))

    @pytest.mark.parametrize("m", [64, 70, 81])
    def test_block_over_many_modes(self, m):
        # The outputs cover every mode, with a few more that share columns.
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        order = rng.permutation(m)
        cover = np.append(order, order[: -m % 3]).reshape(-1, 3)
        cols = np.sort(np.concatenate([cover, [rng.choice(m, 3, replace=False) for _ in range(5)]]), axis=1)
        self._check(rows, cols, np.concatenate([class_words(3, j) for j in range(4)]))

    def test_permutations_that_skip_row_pairs(self):
        # The walk drops zero-weight permutations; here none moves row 0, so only 10 of the 16 row
        # pairs are summed: for one matrix, two side by side, and one twice over.
        taus = [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 2, 1], [0, 1, 3, 2], [0, 2, 3, 1]]
        a, b = _random_complex(np.random.default_rng(76), 4, (2,))
        self._check(a, [np.arange(4)], taus)
        self._check(np.hstack([a, b]), [np.arange(4), np.arange(4, 8)], taus)
        self._check(a, [np.arange(4)] * 2, taus)

    def test_rejects_overflow_and_nan(self):
        # A NaN entry, or finite entries whose row-pair product overflows, in one output of a block.
        rows = np.eye(3, 5, dtype=complex)
        cols, taus = np.array([[0, 1, 2], [1, 3, 4]]), np.array([[0, 1, 2], [1, 0, 2]])
        for bad in (np.nan, 1e200):
            broken = rows.copy()
            broken[0, 4] = broken[1, 4] = bad
            with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
                _pair_permanents(broken, cols, np.arange(3), taus)
            with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
                _pair_permanents(broken, cols[1:], np.arange(3), taus)

    def test_block_over_the_budget_refused_before_any_work(self, monkeypatch):
        import bosonsim.linalg as linalg
        import bosonsim.probability as probability

        for name in ("_glynn", "_signings", "_signing_table"):
            monkeypatch.setattr(linalg, name, lambda *args: pytest.fail("work started over the budget"))
        monkeypatch.setattr(probability, "_pair_permanents", lambda *args: pytest.fail("work started over the budget"))
        # An order-0 walk over a block of 10,000 outputs at n = 16: one identity permanent each, priced as
        # n 2^n (twice Glynn's terms), though one output alone is within the budget.
        n, count = 16, 10000
        predicted = count * n << n
        walk = _truncation_walk(GeneralizedOBBModel((0.5,) * n), n, 0, "direct")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{predicted:.3g}".replace("+", "\\+")):
            walk(np.ones((n, n)), np.tile(np.arange(n), (count, 1)))
        assert time.perf_counter() - start < 1.0


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

    def test_stacked_tables_match_hadamard(self):
        _check_stacked_tables(np.random.default_rng(18))

    def test_lattice_work_is_one_price_and_one_limit(self):
        # sum_s C(n, s)^2 s in closed form, 12 * C(23, 11) = 16,224,936 at n = 12; no lattice above.
        for n in range(13):
            assert _lattice_work(n) == sum(math.comb(n, s) ** 2 * s for s in range(n + 1))
        assert _lattice_work(12) == 16224936
        with pytest.raises(ValueError, match="sub-permanent of \\|M\\|\\^2, so it is limited to n <= 12"):
            _lattice_work(13)

    def test_large_n_in_bounded_memory(self):
        # n = 12, all 66 transpositions: blocks and complements go in passes within the byte budget (the
        # widest level of the |M|^2 lattice alone would hold 6.8 MB).
        rng = np.random.default_rng(22)
        a = _random_complex(rng, 12)
        taus = class_words(12, 2)
        tracemalloc.start()
        try:
            values = laplace_split_permanent(a, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        for tau, value in zip(taus[:2], values):
            scale = TERM_TOL * _term_scale(a * np.conj(a[tau, :]))
            assert abs(value - hadamard_permanent(a, tau)) <= scale

    def test_refused_above_sixteen_photons(self, monkeypatch):
        # Order 2 over n = 17 and 18 is priced n 2^n + C(n, 2)^2 (2 * 2^2 + (n - 2) 2^(n - 2)), 9.09e9 and
        # 2.46e10, over ``_WORK`` (8.59e9), so the split and the Laplace walk refuse before any work.
        import bosonsim.linalg as linalg
        import bosonsim.probability as probability

        for module, name in ((linalg, "_glynn"), (probability, "_class_table")):
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("work started over the budget"))
        rng = np.random.default_rng(24)
        start = time.perf_counter()
        for n in (17, 18):
            inst = ExperimentInstance.from_matrix(_random_complex(rng, n) / np.sqrt(n), GeneralizedOBBModel(tuple(np.linspace(0.95, 0.55, n))))
            taus = np.tile(np.arange(n), (math.comb(n, 2) + 1, 1))
            for tau, (a, b) in zip(taus[1:], itertools.combinations(range(n), 2)):
                tau[[a, b]] = b, a
            predicted = (n << n) + math.comb(n, 2) ** 2 * (8 + (n - 2 << n - 2))
            for call in (lambda: laplace_split_permanent(inst.interference_matrix, taus),
                         lambda: truncated_probability(inst, 2, "laplace")):
                with pytest.raises(ValueError, match=f"{predicted:.3g} kernel operations".replace("+", "\\+")):
                    call()
        assert time.perf_counter() - start < 1.0

    def test_stack_over_shared_pairs(self):
        # Order k = 3 at n = 6 over a stack of 2: the 55 permutations moving 2 or 3 rows share their
        # row pairs, so each item's pair sums serve several of them, one permutation at a time against
        # its own Hadamard permanent.
        rng = np.random.default_rng(23)
        stack = _random_complex(rng, 6, (2,))
        taus = np.concatenate([class_words(6, j) for j in (0, 2, 3)])
        values = laplace_split_permanent(stack, taus)
        assert values.shape == (2, len(taus))
        for a, row in zip(stack, values):
            for tau, value in zip(taus, row):
                assert abs(value - hadamard_permanent(a, tau)) <= TERM_TOL * _term_scale(a * np.conj(a[tau, :]))

    def test_stack_memory_is_bounded(self):
        # 256 matrices over the 112 permutations moving 3 of 8 points: held at
        # once, the small-permanent table alone is 256 x 112 x 56 complex (26 MB).
        rng = np.random.default_rng(20)
        stack = _random_complex(rng, 8, (256,))
        taus = class_words(8, 3)
        tracemalloc.start()
        try:
            values = laplace_split_permanent(stack, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        for b in (0, 255):
            scale = TERM_TOL * _term_scale(stack[b] * np.conj(stack[b][taus[7], :]))
            assert abs(values[b, 7] - hadamard_permanent(stack[b], taus[7])) <= scale


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
