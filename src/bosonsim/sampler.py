"""Metropolis sampling of output configurations under a truncated distribution.

The chain walks over non-collisional output occupations with a symmetric
proposal and the standard accept ratio min(1, target(s') / target(s)).  The
target weight of an output is its order-k truncated probability clamped at
zero: truncation can produce small negative values, and a Metropolis target
must be non-negative, so clamping is the policy here (the probability layer
reports truncated values unclamped).  The chain therefore samples the
clamped, implicitly normalized truncated distribution.

Targets are evaluated in blocks: the independence chain draws ``_BLOCK``
steps (a proposal, then one uniform, per step), evaluates their new states
in one stacked walk, then decides; single-mode swaps run blocks of one.
The uniform is drawn on every step, so once a chain meets a zero-weight
state its seeded sequence differs from releases that drew the uniform only
on positive weights; seeded reruns are identical.
"""
from __future__ import annotations

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
_INDEPENDENCE_PROPOSAL_MAX_MODES = 64
# Independence-chain steps per block, and outputs per stacked walk.
_BLOCK = 256


class DegenerateTargetError(RuntimeError):
    """The chain kept proposing states of zero target weight."""


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain parameters, checked once at construction and read-only after.

    ``proposal`` is "uniform_noncollisional" (independence proposals,
    default for m <= 64) or "single_mode_swap" (move one photon to an empty
    mode, default above that); ``None`` picks by mode count.  ``thinning``
    keeps every thinning-th state after ``burn_in`` steps.
    """

    num_samples: int
    burn_in: int = 1000
    thinning: int = 10
    proposal: str | None = None
    seed: int = 0
    _kinds = {"num_samples": (int, 1), "burn_in": (int, 0), "thinning": (int, 1),
              "proposal": ["uniform_noncollisional", "single_mode_swap"], "seed": SEED}

    def __post_init__(self):
        own(self, "chain", self._kinds)

    def resolved_proposal(self, m: int) -> str:
        if self.proposal is not None:
            return self.proposal
        if m <= _INDEPENDENCE_PROPOSAL_MAX_MODES:
            return "uniform_noncollisional"
        return "single_mode_swap"


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
    """The chain's batched target: ``weights(states)`` for a list of output occupations.

    Each weight is ``max(truncated_probability(...).total, 0)`` of that
    output.  The overlap weights, class tables and input rows are fixed once
    per chain; the outputs go through the walk ``_BLOCK`` at a time.
    """
    walk = _truncation_walk(base.model, base.n, k, "direct")
    rows = base.unitary[base.input_modes]

    def weights(states) -> list[float]:
        out = []
        for lo in range(0, len(states), _BLOCK):
            cols = np.nonzero(np.array(states[lo : lo + _BLOCK]))[1].reshape(-1, base.n)
            orders = walk(rows, cols).tolist()
            out.extend(max(math.fsum(row), 0.0) for row in orders)
        return out

    return weights


def _metropolis_chain(weights, propose, initial, rng, block, num_samples, burn_in, thinning):
    """Generic Metropolis walk for a symmetric proposal kernel, in blocks of steps.

    Each step draws ``propose(current)`` and then one uniform.  A block's
    states that have no weight yet go to ``weights`` (a list of states in, a
    list of weights out) in one call before its decisions run, so every
    distinct state is evaluated once per chain; with ``block > 1`` the
    proposals are drawn ahead of the decisions and must not depend on the
    current state.  A move is accepted with probability
    min(1, target(s') / target(s)); zero-weight proposals are rejected, and a
    run of more than 10^4 of them in a row (a chain stranded in a dead
    region) aborts.
    """
    current = initial
    targets = {}
    samples = []
    zero_streak = 0
    total_steps = burn_in + num_samples * thinning
    for first in range(0, total_steps, block):
        moves = [(propose(current), rng.random()) for _ in range(min(block, total_steps - first))]
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
    budget applies to each block (ValueError before its kernel work); every
    step draws one uniform (see the module docstring), and identical (seed,
    config) pairs reproduce the exact sequence.
    """
    base = _validate_input(unitary, input_occupation, model)
    m, n = base.m, base.n
    weights = _chain_target(base, k)
    rng = np.random.default_rng(config.seed)
    proposal = config.resolved_proposal(m)

    def propose(state: tuple[int, ...]) -> tuple[int, ...]:
        if proposal == "uniform_noncollisional":
            return _occupation_from_modes(rng.choice(m, size=n, replace=False), m)
        occupied = [i for i, c in enumerate(state) if c]
        empty = [i for i, c in enumerate(state) if not c]
        nxt = list(state)
        nxt[occupied[rng.integers(len(occupied))]] = 0
        nxt[empty[rng.integers(len(empty))]] = 1
        return tuple(nxt)

    block = _BLOCK if proposal == "uniform_noncollisional" else 1
    initial = _occupation_from_modes(rng.choice(m, size=n, replace=False), m)
    return _metropolis_chain(weights, propose, initial, rng, block,
                             config.num_samples, config.burn_in, config.thinning)


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
    states = list(output_configurations(m, n, noncollisional=True))
    weights = np.array(_chain_target(base, k)(states))
    mass = weights.sum()
    if mass <= 0.0:
        raise DegenerateTargetError("all truncated output weights are zero")
    return states, weights / mass
