import dataclasses
import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from bosonsim.distinguishability import GeneralizedOBBModel, HomogeneousModel
from bosonsim.linalg import permanent, submatrix
from bosonsim.probability import output_configurations, truncated_probability, ExperimentInstance
from bosonsim.randgen import haar_unitary
from bosonsim.cli import main
import bosonsim.sampler as sampler
from bosonsim.sampler import (
    ChainConfig,
    DegenerateTargetError,
    _BLOCK,
    _metropolis_chain,
    metropolis_sample,
    output_distribution,
)
from conftest import tv_distance

# 99th percentile of chi-square with 5 degrees of freedom
_CHI2_5_CRIT_99 = 15.0863


def _empirical(samples, states):
    counts = Counter(samples)
    return np.array([counts.get(s, 0) for s in states], dtype=float) / len(samples)


class TestOutputDistribution:
    def test_single_photon_matches_transfer_row(self):
        u = haar_unitary(4, seed=1)
        states, probs = output_distribution(u, (1, 0, 0, 0), HomogeneousModel(0.5), k=1)
        row = np.abs(u[0]) ** 2
        np.testing.assert_allclose(probs, row / row.sum(), rtol=1e-10)

    def test_normalized(self):
        u = haar_unitary(5, seed=2)
        _, probs = output_distribution(u, (1, 1, 0, 0, 0), GeneralizedOBBModel((0.8, 0.4)), k=2)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    def test_matches_per_output_truncations(self):
        u = haar_unitary(8, seed=3)
        model = GeneralizedOBBModel((0.9, 0.7, 0.5))
        states, probs = output_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0), model, k=2)
        raw = []
        for occ in states:
            inst = ExperimentInstance(u, (1, 1, 1, 0, 0, 0, 0, 0), occ, model)
            raw.append(max(truncated_probability(inst, 2).total, 0.0))
        raw = np.array(raw)
        np.testing.assert_allclose(probs, raw / raw.sum(), rtol=1e-12)

    def test_degenerate_target(self):
        with pytest.raises(DegenerateTargetError):
            output_distribution(np.zeros((4, 4)), (1, 1, 0, 0), HomogeneousModel(0.5), k=0)

    def test_collisional_input_rejected(self):
        with pytest.raises(ValueError):
            output_distribution(np.eye(3), (2, 0, 0), HomogeneousModel(0.5), k=0)


class TestChain:
    def test_reproducible(self):
        u = haar_unitary(6, seed=4)
        cfg = ChainConfig(num_samples=200, seed=11)
        model = HomogeneousModel(0.6)
        a = metropolis_sample(u, (1, 1, 0, 0, 0, 0), model, 2, cfg)
        b = metropolis_sample(u, (1, 1, 0, 0, 0, 0), model, 2, cfg)
        assert a == b

    def test_full_order_chain_matches_exact_distribution(self):
        u = haar_unitary(4, seed=5)
        model = GeneralizedOBBModel((0.9, 0.4))
        states, probs = output_distribution(u, (1, 1, 0, 0), model, k=2)
        cfg = ChainConfig(num_samples=10_000, seed=6)
        samples = metropolis_sample(u, (1, 1, 0, 0), model, 2, cfg)
        assert tv_distance(_empirical(samples, states), probs) < 0.05

    def test_distinguishable_photons_target_classical_distribution(self):
        u = haar_unitary(8, seed=7)
        model = HomogeneousModel(0.0)
        occ_in = (1, 1, 1, 0, 0, 0, 0, 0)
        states, probs = output_distribution(u, occ_in, model, k=1)
        # independent reference: classical transmission permanents
        reference = []
        for occ in states:
            rows = [i for i, c in enumerate(occ_in) if c]
            cols = [i for i, c in enumerate(occ) if c]
            reference.append(permanent(np.abs(submatrix(u, rows, cols)) ** 2).real)
        reference = np.array(reference)
        np.testing.assert_allclose(probs, reference / reference.sum(), rtol=1e-9)
        samples = metropolis_sample(u, occ_in, model, 1, ChainConfig(num_samples=10_000, seed=8))
        assert tv_distance(_empirical(samples, states), probs) < 0.05

    def test_uniform_target_is_uniform(self):
        # explicitly uniform target over 6 labeled states
        states = list(range(6))
        rng = np.random.default_rng(9)
        samples = _metropolis_chain(
            weights=lambda batch: [1.0] * len(batch),
            propose=lambda s, size: [(int(rng.integers(6)), rng.random()) for _ in range(size)],
            initial=0,
            block=_BLOCK,
            num_samples=12_000,
            burn_in=100,
            thinning=1,
        )
        counts = np.array([samples.count(s) for s in states], dtype=float)
        expected = len(samples) / 6.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < _CHI2_5_CRIT_99  # p > 0.01

    def test_detailed_balance_flow_counts(self):
        # 6-state case: raw chain (no burn-in, no thinning), compare
        # transition counts in both directions for every state pair
        u = haar_unitary(4, seed=10)
        model = GeneralizedOBBModel((0.8, 0.6))
        cfg = ChainConfig(num_samples=60_000, burn_in=0, thinning=1, seed=12)
        samples = metropolis_sample(u, (1, 1, 0, 0), model, 2, cfg)
        flows = Counter(zip(samples, samples[1:]))
        states = sorted({s for s in samples})
        for a, b in itertools.combinations(states, 2):
            forward = flows.get((a, b), 0)
            backward = flows.get((b, a), 0)
            assert abs(forward - backward) <= 5.0 * np.sqrt(forward + backward + 1)

    def test_tv_distance_shrinks_with_chain_length(self):
        u = haar_unitary(6, seed=13)
        model = HomogeneousModel(0.7)
        occ_in = (1, 1, 1, 0, 0, 0)
        states, probs = output_distribution(u, occ_in, model, k=3)
        tvs = []
        for num in (500, 20_000):
            samples = metropolis_sample(u, occ_in, model, 3, ChainConfig(num_samples=num, seed=14))
            tvs.append(tv_distance(_empirical(samples, states), probs))
        assert tvs[1] < tvs[0]

    def test_zero_weight_states_never_emitted(self):
        # a truncated target with clamped-to-zero entries: sampled states
        # must all carry positive weight once burn-in has passed
        u = haar_unitary(6, seed=15)
        model = HomogeneousModel(0.95)
        occ_in = (1, 1, 1, 1, 0, 0)
        states, probs = output_distribution(u, occ_in, model, k=2)
        zero_states = {s for s, p in zip(states, probs) if p == 0.0}
        assert zero_states  # the case is only meaningful with clamped entries
        samples = metropolis_sample(u, occ_in, model, 2, ChainConfig(num_samples=2000, seed=16))
        assert not (set(samples) & zero_states)

    def test_degenerate_target_aborts(self):
        cfg = ChainConfig(num_samples=2000, seed=17)
        with pytest.raises(DegenerateTargetError):
            metropolis_sample(np.zeros((4, 4)), (1, 1, 0, 0), HomogeneousModel(0.5), 0, cfg)

    def test_swap_proposal_explores_the_space(self):
        u = haar_unitary(5, seed=18)
        model = HomogeneousModel(0.5)
        cfg = ChainConfig(num_samples=5000, proposal="single_mode_swap", seed=19)
        samples = metropolis_sample(u, (1, 1, 0, 0, 0), model, 2, cfg)
        states, probs = output_distribution(u, (1, 1, 0, 0, 0), model, k=2)
        assert tv_distance(_empirical(samples, states), probs) < 0.08

    def test_blocking_does_not_change_the_chain(self):
        # Each step draws its proposal and then one uniform, so a chain of
        # independence proposals run in blocks equals the same chain run step
        # by step; 7 samples at thinning 50 after 3 burn-in steps are 353
        # steps, not a multiple of the block.
        u = haar_unitary(7, seed=20)
        base = sampler._validate_input(u, (1, 1, 1, 0, 0, 0, 0), GeneralizedOBBModel((0.9, 0.5, 0.7)))
        weights = sampler._chain_target(base, 2)
        runs = []
        for block in (_BLOCK, 1):
            rng = np.random.default_rng(21)
            initial = tuple(sorted(rng.choice(7, size=3, replace=False).tolist()))
            propose = sampler._proposal("uniform_noncollisional", rng, 7, 3)
            runs.append(_metropolis_chain(weights, propose, initial, block, 7, 3, 50))
        assert (353 % _BLOCK) and len(runs[0]) == 7
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("proposal", ["uniform_noncollisional", "single_mode_swap"])
    def test_chain_shorter_than_a_block(self, proposal):
        u = haar_unitary(5, seed=22)
        cfg = ChainConfig(num_samples=1, burn_in=0, thinning=1, proposal=proposal, seed=23)
        samples = metropolis_sample(u, (1, 1, 0, 0, 0), HomogeneousModel(0.5), 2, cfg)
        assert len(samples) == 1 and sum(samples[0]) == 2 and set(samples[0]) <= {0, 1}
        assert samples == metropolis_sample(u, (1, 1, 0, 0, 0), HomogeneousModel(0.5), 2, cfg)

    def test_zero_streak_carries_across_blocks(self, monkeypatch):
        # States below zero weigh nothing.  Runs of 5, 5 and 6 zero-weight
        # proposals cross the boundaries of 4-step blocks; with a limit of 5
        # only the sixth zero of the last run aborts.
        monkeypatch.setattr(sampler, "_MAX_ZERO_STREAK", 5)
        script = [-1] * 5 + [1] + [-2] * 5 + [2] + [-3] * 6

        def run(steps):
            moves = iter(script)
            rng = np.random.default_rng(24)
            return _metropolis_chain(
                weights=lambda batch: [float(s >= 0) for s in batch],
                propose=lambda s, size: [(next(moves), rng.random()) for _ in range(size)],
                initial=0,
                block=4,
                num_samples=steps,
                burn_in=0,
                thinning=1,
            )

        assert run(len(script) - 1)[-1] == 2
        with pytest.raises(DegenerateTargetError, match="^6 consecutive"):
            run(len(script))

    @pytest.mark.parametrize("proposal", ["uniform_noncollisional", "single_mode_swap"])
    def test_each_state_evaluated_once_with_truncated_weight(self, monkeypatch, proposal):
        # The batched weights must equal the clamped per-state truncation; the
        # k = 2 target of this instance clamps some outputs to zero.
        u = haar_unitary(6, seed=15)
        model = HomogeneousModel(0.95)
        occ_in = (1, 1, 1, 1, 0, 0)
        seen = []
        chain_target = sampler._chain_target

        def recording(base, k):
            weights = chain_target(base, k)

            def record(states):
                values = weights(states)
                seen.extend(zip(states, values))
                return values

            return record

        monkeypatch.setattr(sampler, "_chain_target", recording)
        cfg = ChainConfig(num_samples=300, burn_in=50, thinning=2, proposal=proposal, seed=25)
        samples = metropolis_sample(u, occ_in, model, 2, cfg)
        # The chain's states are sorted mode tuples; its samples are occupations.
        counts = Counter(sampler._occupation_from_modes(modes, 6) for modes, _ in seen)
        assert set(counts.values()) == {1}
        assert set(samples) <= set(counts)
        assert any(weight == 0.0 for _, weight in seen)
        for modes, weight in seen:
            state = sampler._occupation_from_modes(modes, 6)
            result = truncated_probability(ExperimentInstance(u, occ_in, state, model), 2)
            scale = float(np.abs(result.per_order).sum())
            assert abs(weight - max(result.total, 0.0)) <= 1e-12 * scale

    def test_independence_proposal_above_64_modes(self):
        # The independence proposal is accepted at any m; a state key of fixed width
        # (a 64-bit mode mask, say) would break here.
        u = haar_unitary(70, seed=26)
        occ_in = (1, 1) + (0,) * 68
        cfg = ChainConfig(num_samples=20, proposal="uniform_noncollisional", seed=27)
        samples = metropolis_sample(u, occ_in, HomogeneousModel(0.5), 2, cfg)
        assert len(samples) == 20
        assert all(len(s) == 70 and sum(s) == 2 and set(s) <= {0, 1} for s in samples)
        assert samples == metropolis_sample(u, occ_in, HomogeneousModel(0.5), 2, cfg)

    def test_default_proposal_at_70_modes(self):
        # One proposal rule at every m: the default chain is the independence chain, above 64 modes too.
        u = haar_unitary(70, seed=26)
        occ_in = (1, 1) + (0,) * 68
        default = metropolis_sample(u, occ_in, HomogeneousModel(0.5), 2, ChainConfig(num_samples=20, seed=28))
        cfg = ChainConfig(num_samples=20, proposal="uniform_noncollisional", seed=28)
        assert default == metropolis_sample(u, occ_in, HomogeneousModel(0.5), 2, cfg)

    def test_swap_with_every_mode_occupied_refused(self, monkeypatch):
        # The swap moves a photon to an empty mode; with m = n there is none, so the chain is
        # refused before any draw (numpy raised "high <= 0" at the first swap).
        u, cfg = haar_unitary(3, seed=3), ChainConfig(num_samples=5, proposal="single_mode_swap", seed=1)
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("a draw before the refusal"))
        with pytest.raises(ValueError, match="^proposal 'single_mode_swap' has no empty mode: all 3 modes"):
            metropolis_sample(u, (1, 1, 1), HomogeneousModel(0.5), 2, cfg)

    def test_config_is_read_only(self):
        # The field rule runs at construction, so a field set afterwards would skip it: thinning 0
        # made the chain return no samples without an error.
        cfg = ChainConfig(num_samples=3)
        for name, value in (("thinning", 0), ("seed", -1), ("num_samples", 5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert (cfg.num_samples, cfg.thinning, cfg.seed) == (3, 10, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(num_samples=0)
        with pytest.raises(ValueError):
            ChainConfig(num_samples=1, thinning=0)
        with pytest.raises(ValueError):
            ChainConfig(num_samples=1, burn_in=-1)
        with pytest.raises(ValueError):
            ChainConfig(num_samples=1, proposal="teleport")
        with pytest.raises(ValueError):
            ChainConfig(num_samples=1, proposal=None)


class TestSeededStream:
    # The sha256 of seeded ``sample`` stdout.  Each step draws its proposal (the
    # independence proposal's ``choice``, or the swap's photon slot and then its empty
    # mode), then one uniform; a change to the draws or to their order changes these
    # bytes, which a rerun-equality check cannot see.
    _INSTANCE = {"schema": 1, "ensemble": {"kind": "haar_unitary", "m": 16, "seed": 3}, "input": [1] * 5 + [0] * 11,
                 "model": {"type": "obb", "x": [0.95, 0.85, 0.75, 0.65, 0.55]}}

    @pytest.mark.parametrize("flags, digest", [
        ([], "b4186f3f05cae2a31845adc4ddccf73ccb3884dfb2ccbc5a2afd9dc857cbdfce"),
        (["--proposal", "single_mode_swap"], "ce78c0e66c1323b9b8d8cc74247659237c82a06783e6160f895f85ee7af8e980"),
        (["--format", "csv"], "3a3cc3d917fc0210e8131df631bb91f15f46b39628be74215735bec837768864"),
    ], ids=["independence", "single_mode_swap", "csv"])
    def test_sample_stdout_is_pinned(self, tmp_path, capsys, flags, digest):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self._INSTANCE))
        argv = ["sample", "--instance", str(path), "--k", "2", "--num-samples", "300", "--seed", "4"]
        assert main(argv + flags) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 300 + (flags[:1] == ["--format"])
        assert hashlib.sha256(out.encode()).hexdigest() == digest
