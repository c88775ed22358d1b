"""Metropolis sampling of output configurations under a truncated distribution.

The chain walks over non-collisional output occupations with a symmetric
proposal and the standard accept ratio min(1, target(s') / target(s)).  The
target weight of an output is its order-k truncated probability clamped at
zero: truncation can produce small negative values, and a Metropolis target
must be non-negative, so clamping is the policy here (the probability layer
reports truncated values unclamped).  The chain therefore samples the
clamped, implicitly normalized truncated distribution.

Inside the chain a state is the sorted tuple of its n occupied modes,
which is also the row the truncation walk takes as ``cols``; only the
returned samples are m-long occupation tuples.  Targets are evaluated in
blocks: the independence chain draws ``_BLOCK`` steps, evaluates their new
states in one stacked walk, then decides; single-mode swaps run blocks of
one.

Stream contract: ``rng = np.random.default_rng(seed)`` draws the initial
state as ``rng.choice(m, size=n, replace=False)``, then per step the
proposal (the same ``choice``, or for a swap ``rng.integers(n)`` for the
photon and then ``rng.integers(m - n)`` for the empty mode) and then one
``rng.random()``.  The uniform is drawn on every step, so once a chain
meets a zero-weight state its seeded sequence differs from releases that
drew the uniform only on positive weights; seeded reruns are identical.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import SEED, own
from .probability import ExperimentInstance, _truncation_walk, output_configurations

__all__ = [
    "DegenerateTargetError",
    "ChainConfig",
    "metropolis_sample",
    "output_distribution",
]

_MAX_ZERO_STREAK = 10_000
_ENUMERATION_LIMIT = 100_000
# Independence-chain steps per block, and outputs per stacked walk.
_BLOCK = 256


class DegenerateTargetError(RuntimeError):
    """The chain kept proposing states of zero target weight."""


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain parameters, checked once at construction and read-only after.

    ``proposal`` is "uniform_noncollisional" (independence proposals, the
    default at any m) or "single_mode_swap" (move one photon to an empty
    mode, so refused when every mode is occupied).  ``thinning`` keeps every
    thinning-th state after ``burn_in`` steps.
    """

    num_samples: int
    burn_in: int = 1000
    thinning: int = 10
    proposal: str = "uniform_noncollisional"
    seed: int = 0
    _kinds = {"num_samples": (int, 1), "burn_in": (int, 0), "thinning": (int, 1),
              "proposal": ["uniform_noncollisional", "single_mode_swap"], "seed": SEED}

    def __post_init__(self):
        own(self, "chain", self._kinds)


def _validate_input(unitary, input_occupation, model) -> ExperimentInstance:
    """The chain's base instance, detected where it entered: the chain reads its matrix, input and model."""
    base = ExperimentInstance(unitary, input_occupation, input_occupation, model)
    if max(base.input_occupation) > 1:  # 0/1 entries, one per mode, so n <= m
        raise ValueError("sampler requires a non-collisional input")
    return base


def _occupation_from_modes(modes, m: int) -> tuple[int, ...]:
    occ = [0] * m
    for mode in modes:
        occ[mode] = 1
    return tuple(occ)


def _chain_target(base: ExperimentInstance, k: int):
    """The chain's batched target: ``weights(states)`` for a list of sorted mode tuples.

    Each weight is ``max(truncated_probability(...).total, 0)`` of that
    output.  The overlap weights, class tables and input rows are fixed once
    per chain; the states, which are the walk's ``cols`` rows, go through the
    walk ``_BLOCK`` at a time.
    """
    walk = _truncation_walk(base.model, base.n, k, "direct")
    rows = base.unitary[base.input_modes]

    def weights(states) -> list[float]:
        out = []
        for lo in range(0, len(states), _BLOCK):
            orders = walk(rows, np.array(states[lo : lo + _BLOCK])).tolist()
            out.extend(max(math.fsum(row), 0.0) for row in orders)
        return out

    return weights


def _proposal(kind: str, rng, m: int, n: int):
    """``propose(current, size)``: the next ``size`` steps' (state, uniform) pairs, in stream order.

    The swap indexes ``current`` and then the empty modes in ascending order;
    it reads ``current``, so its chain runs blocks of one step.
    """
    uniform = rng.random
    if kind == "uniform_noncollisional":
        # m and n as 0-d arrays: ``Generator.choice`` then skips converting them (about 1 of
        # its 6 us per call at m = 8), and draws exactly what it draws for the ints.
        choice, modes, photons = rng.choice, np.array(m), np.array(n)

        def independence(current, size):
            picks, uniforms = zip(*[(choice(modes, size=photons, replace=False), uniform()) for _ in range(size)])
            return list(zip(map(tuple, np.sort(picks, axis=1).tolist()), uniforms))

        return independence
    integers = rng.integers

    def swap(current, size):
        vacated = current[integers(n)]
        filled = [mode for mode in range(m) if mode not in current][integers(m - n)]
        return [(tuple(sorted([mode for mode in current if mode != vacated] + [filled])), uniform())]

    return swap


def _metropolis_chain(weights, propose, initial, block, num_samples, burn_in, thinning):
    """Generic Metropolis walk for a symmetric proposal kernel, in blocks of steps.

    ``propose(current, size)`` returns the next ``size`` steps' (state,
    uniform) pairs.  A block's states that have no weight yet go to
    ``weights`` (a list of states in, a list of weights out) in one call
    before its decisions run, so every distinct state is evaluated once per
    chain; with ``block > 1`` the proposals are drawn ahead of the decisions
    and must not depend on the current state.  A move is accepted with
    probability min(1, target(s') / target(s)); zero-weight proposals are
    rejected, and a run of more than 10^4 of them in a row (a chain stranded
    in a dead region) aborts.
    """
    current = initial
    targets = {}
    samples = []
    zero_streak = 0
    total_steps = burn_in + num_samples * thinning
    for first in range(0, total_steps, block):
        moves = propose(current, min(block, total_steps - first))
        fresh = [s for s in dict.fromkeys([current] + [c for c, _ in moves]) if s not in targets]
        if fresh:
            targets.update(zip(fresh, weights(fresh)))
        current_weight = targets[current]
        for step, (candidate, uniform) in enumerate(moves, first):
            weight = targets[candidate]
            if weight <= 0.0:
                zero_streak += 1
                if zero_streak > _MAX_ZERO_STREAK:
                    raise DegenerateTargetError(
                        f"{zero_streak} consecutive zero-weight proposals; target may be empty"
                    )
            else:
                zero_streak = 0
                if current_weight <= 0.0 or uniform * current_weight < weight:
                    current = candidate
                    current_weight = weight
            if step >= burn_in and (step - burn_in + 1) % thinning == 0:
                samples.append(current)
    return samples


def metropolis_sample(unitary, input_occupation, model, k: int, config: ChainConfig) -> list[tuple[int, ...]]:
    """Draw output occupations distributed as the clamped truncated probability.

    The proposal kernels are symmetric, so detailed balance holds for the
    clamped target; zero-weight states are never accepted (the chain can
    only emit one if it started there and stays during early steps).
    Targets are evaluated in blocks of up to 256 outputs, and the work
    budget applies to each block (ValueError before its kernel work).  The
    swap proposal with every mode occupied raises ValueError before any draw.

    The stream contract is the module's: from ``default_rng(config.seed)``,
    the initial ``choice``, then per step the proposal's draws (the swap's
    photon before its empty mode) and one uniform.  A chain state is the
    sorted tuple of its occupied modes, and each distinct sample becomes its
    occupation tuple once.  Identical (seed, config) pairs reproduce the
    exact sequence.
    """
    base = _validate_input(unitary, input_occupation, model)
    m, n = base.m, base.n
    if config.proposal == "single_mode_swap" and n == m:
        raise ValueError(f"proposal 'single_mode_swap' has no empty mode: all {m} modes are occupied")
    rng = np.random.default_rng(config.seed)
    propose = _proposal(config.proposal, rng, m, n)
    initial = tuple(sorted(rng.choice(m, size=n, replace=False).tolist()))
    block = _BLOCK if config.proposal == "uniform_noncollisional" else 1
    samples = _metropolis_chain(_chain_target(base, k), propose, initial, block,
                                config.num_samples, config.burn_in, config.thinning)
    occupations = {state: _occupation_from_modes(state, m) for state in dict.fromkeys(samples)}
    return [occupations[state] for state in samples]


def output_distribution(unitary, input_occupation, model, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Enumerate the normalized clamped truncated distribution over outputs.

    Returns the C(m, n) non-collisional occupations (lexicographic) and
    their probabilities; intended as the total-variation oracle for the
    chain.  Limited to C(m, n) <= 10^5 outputs, and the work budget applies
    to each block of up to 256 of them.
    """
    base = _validate_input(unitary, input_occupation, model)
    m, n = base.m, base.n
    if math.comb(m, n) > _ENUMERATION_LIMIT:
        raise ValueError(f"too many outputs to enumerate: C({m}, {n}) > {_ENUMERATION_LIMIT}")
    modes = list(itertools.combinations(range(m), n))  # the order of output_configurations
    weights = np.array(_chain_target(base, k)(modes))
    mass = weights.sum()
    if mass <= 0.0:
        raise DegenerateTargetError("all truncated output weights are zero")
    return list(output_configurations(m, n, noncollisional=True)), weights / mass
