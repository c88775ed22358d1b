"""The four benchmark workloads: seeded inputs, op cycles, warm-up and output checks.

Every op is one ``bosonsim`` command line, run in process through
``bosonsim.cli.main``.  A workload hands out ops one *cycle* at a time; a
cycle holds a fixed mix of op kinds, so a run made of whole cycles has the
same mix whatever its length, and throughput and latency quantiles do not
depend on where the clock ran out.

Reference values for the checks come from ``reference.json`` (written by
``record_reference.py``): the probe and narrow-sampler instances and the
Monte-Carlo seeds are drawn from the recorded pools, and the run seed picks
which pool entries each op uses.  The wide-sampler instances need no
reference, so they are generated from the run seed.
"""
from __future__ import annotations

import json
import math
import os
import random
from collections import Counter

# Tolerance on a probability or per-order term, relative to the sum of the
# magnitudes of the per-order terms (not to the value, which can be a tiny
# or negative truncated total).
REL_TOL = 1e-9
# Total-variation limit for the narrow chain against its enumerated target.
TV_LIMIT = 0.05


class Op:
    """One command line and the check its captured stdout must pass."""

    __slots__ = ("kind", "argv", "check")

    def __init__(self, kind: str, argv: list[str], check):
        self.kind = kind
        self.argv = argv
        self.check = check  # callable(stdout text) -> error message or None


def haar_instance(m: int, n: int, rng: random.Random, with_output: bool = True) -> dict:
    """An instance file body: seeded Haar unitary, photons in the first n modes, OBB model."""
    data = {
        "schema": 1,
        "ensemble": {"kind": "haar_unitary", "m": m, "seed": rng.randrange(2**31)},
        "input": [1] * n + [0] * (m - n),
        "model": {"type": "obb", "x": [rng.uniform(0.5, 0.95) for _ in range(n)]},
    }
    if with_output:
        occupied = set(rng.sample(range(m), n))
        data["output"] = [1 if mode in occupied else 0 for mode in range(m)]
    return data


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _close(value: float, expected: float, scale: float) -> bool:
    return abs(value - expected) <= REL_TOL * scale


def _parse_samples(text: str, m: int, n: int, count: int):
    """Parse a JSONL sample stream; return (samples, error)."""
    lines = text.splitlines()
    if len(lines) != count:
        return None, f"expected {count} samples, got {len(lines)}"
    samples = []
    for line in lines:
        state = tuple(json.loads(line))
        if len(state) != m or any(c not in (0, 1) for c in state) or sum(state) != n:
            return None, f"not a non-collisional {n}-photon state over {m} modes: {line}"
        samples.append(state)
    return samples, None


class ProbeMix:
    """Exact and truncated probabilities of seeded Haar instances, n = 5, 6, 7.

    A cycle is the 40 ops of ``CYCLE``.  The counts put the median op in the
    middle of the eight ``truncate --k 2`` ops at n = 7, with 16 faster and
    16 slower ops around them, and the 90th percentile in the middle of the
    six exact n = 6 ops, so that neither quantile sits on the boundary
    between two op kinds of similar latency.
    """

    name = "probe_mix"
    tail_percentile = 90
    trace_cycles = 1
    sizes = (5, 6, 7)
    pool_size = 6
    # (command, k, strategy) -> {n: ops per cycle}
    CYCLE = {
        ("truncate", "2", "direct"): {5: 4, 6: 4, 7: 8},
        ("truncate", "3", "direct"): {5: 4, 6: 2, 7: 2},
        ("truncate", "2", "laplace"): {5: 4, 6: 2, 7: 1},
        ("prob", None, None): {5: 2, 6: 6, 7: 1},
    }

    @classmethod
    def pool(cls) -> list[dict]:
        entries = []
        for n in cls.sizes:
            for i in range(cls.pool_size):
                rng = random.Random(1000 * n + i)
                entries.append({"id": f"n{n}-{i}", "n": n, "instance": haar_instance(2 * n, n, rng)})
        return entries

    def __init__(self, reference: dict):
        self.entries = reference["probe_mix"]

    def prepare(self, workdir: str, seed: int) -> None:
        self.paths = {}
        for entry in self.entries:
            path = os.path.join(workdir, f"probe-{entry['id']}.json")
            _write_json(path, entry["instance"])
            self.paths[entry["id"]] = path
        self.warm_path = os.path.join(workdir, "probe-warm.json")
        _write_json(self.warm_path, haar_instance(6, 3, random.Random(seed)))

    def warmup(self) -> list[list[str]]:
        p = self.warm_path
        return [
            ["prob", "--instance", p],
            ["truncate", "--instance", p, "--k", "2"],
            ["truncate", "--instance", p, "--k", "2", "--strategy", "laplace"],
        ]

    def cycle(self, rng: random.Random) -> list[Op]:
        plan = [(command, k, strategy, n)
                for (command, k, strategy), counts in self.CYCLE.items()
                for n, count in counts.items() for _ in range(count)]
        rng.shuffle(plan)
        by_n = {n: [e for e in self.entries if e["n"] == n] for n in self.sizes}
        ops = []
        for command, k, strategy, n in plan:
            entry = rng.choice(by_n[n])
            argv = [command, "--instance", self.paths[entry["id"]]]
            if command == "prob":
                ops.append(Op(f"prob n{n}", argv, self._check_prob(entry)))
            else:
                argv += ["--k", k, "--strategy", strategy]
                ops.append(Op(f"truncate k{k} {strategy} n{n}", argv,
                              self._check_truncate(entry, int(k), strategy)))
        return ops

    @staticmethod
    def _scale(entry) -> float:
        return math.fsum(abs(v) for v in entry["by_order"])

    def _check_prob(self, entry):
        def check(text: str):
            payload = json.loads(text)
            value = payload["probability"]
            if not _close(value, entry["probability"], self._scale(entry)):
                return f"{entry['id']}: probability {value!r} != reference {entry['probability']!r}"
            return None
        return check

    def _check_truncate(self, entry, k: int, strategy: str):
        def check(text: str):
            payload = json.loads(text)
            if (payload["k"], payload["n"], payload["strategy"]) != (k, entry["n"], strategy):
                return f"{entry['id']}: header {payload['k'], payload['n'], payload['strategy']}"
            scale = self._scale(entry)
            expected = entry["by_order"][: k + 1]
            got = payload["per_order"]
            if len(got) != k + 1 or not all(_close(a, b, scale) for a, b in zip(got, expected)):
                return f"{entry['id']} k={k} {strategy}: per_order {got} != reference {expected}"
            if not _close(payload["total"], math.fsum(expected), scale):
                return f"{entry['id']} k={k} {strategy}: total {payload['total']!r} != {math.fsum(expected)!r}"
            return None
        return check


class VerifyEnsemble:
    """The criterion-7 Monte-Carlo check: ``verify --n 5 --m 25 --trials 50``.

    A cycle is 3 ops, k = 0, 1, 2; the visibility model (``--x 0.5``,
    ``--x 0.7`` or an OBB ``--x-vec``) rotates with the cycle index so three
    cycles cover all nine pairs.  The Monte-Carlo seed of each op is drawn
    from the recorded pool.
    """

    name = "verify_ensemble"
    tail_percentile = 50
    trace_cycles = 1
    models = {"x0.5": ["--x", "0.5"], "x0.7": ["--x", "0.7"], "obb": ["--x-vec", "0.92,0.81,0.74,0.66,0.58"]}
    mc_seeds = (101, 102, 103, 104)
    n, m, trials = 5, 25, 50

    @classmethod
    def argv(cls, k: int, model: str, mc_seed: int) -> list[str]:
        return ["verify", "--n", str(cls.n), "--m", str(cls.m), "--trials", str(cls.trials),
                "--k", str(k), *cls.models[model], "--seed", str(mc_seed), "--threads", "1"]

    @classmethod
    def pool(cls) -> list[dict]:
        return [{"id": f"k{k}-{model}-s{s}", "k": k, "model": model, "seed": s}
                for k in range(3) for model in cls.models for s in cls.mc_seeds]

    def __init__(self, reference: dict):
        self.entries = {e["id"]: e for e in reference["verify_ensemble"]}
        self.cycles = 0

    def prepare(self, workdir: str, seed: int) -> None:
        pass

    def warmup(self) -> list[list[str]]:
        return [["verify", "--n", "3", "--m", "9", "--trials", "50", "--k", "0",
                 "--x", "0.5", "--seed", "1", "--threads", "1"]]

    def cycle(self, rng: random.Random) -> list[Op]:
        names = list(self.models)
        ops = []
        for k in range(3):
            model = names[(k + self.cycles) % len(names)]
            entry = self.entries[f"k{k}-{model}-s{rng.choice(self.mc_seeds)}"]
            ops.append(Op(f"verify k{k} {model}", self.argv(k, model, entry["seed"]), self._check(entry)))
        self.cycles += 1
        return ops

    @staticmethod
    def _check(entry):
        expected = entry["report"]

        def check(text: str):
            report = json.loads(text)
            if set(report) != set(expected):
                return f"{entry['id']}: report fields {sorted(report)}"
            scale = abs(expected["mean_abs_error"])
            for key, want in expected.items():
                got = report[key]
                if key in ("mean_abs_error", "mean_error"):
                    ok = _close(got, want, scale)
                elif key == "error_variance":
                    ok = _close(got, want, max(abs(want), scale * scale))
                elif isinstance(want, float):
                    ok = _close(got, want, abs(want))
                else:
                    ok = got == want
                if not ok:
                    return f"{entry['id']}: {key} {got!r} != reference {want!r}"
            return None
        return check


class SampleWide:
    """Metropolis chains over m = 16 modes, n = 5, k = 2: target evaluation dominates.

    One op per cycle: 1,000 burn-in steps plus 100 samples at thinning 10, on
    one of four instances generated from the run seed.  Most of the 4,368
    outputs are visited once, so most steps evaluate a new target.
    """

    name = "sample_wide"
    tail_percentile = 50
    trace_cycles = 2
    m, n, k = 16, 5, 2
    num_samples, burn_in, thinning = 100, 1000, 10
    instances = 4

    def __init__(self, reference: dict):
        pass

    def prepare(self, workdir: str, seed: int) -> None:
        rng = random.Random(f"sample_wide-{seed}")
        self.paths = []
        for i in range(self.instances):
            path = os.path.join(workdir, f"wide-{i}.json")
            _write_json(path, haar_instance(self.m, self.n, rng, with_output=False))
            self.paths.append(path)
        self.warm_path = os.path.join(workdir, "sample-warm.json")
        _write_json(self.warm_path, haar_instance(6, 2, rng, with_output=False))

    def warmup(self) -> list[list[str]]:
        return [["sample", "--instance", self.warm_path, "--k", "1", "--num-samples", "20",
                 "--burn-in", "10", "--thinning", "1", "--seed", "1"]]

    def chain_argv(self, path: str, rng: random.Random) -> list[str]:
        return ["sample", "--instance", path, "--k", str(self.k),
                "--num-samples", str(self.num_samples), "--burn-in", str(self.burn_in),
                "--thinning", str(self.thinning), "--seed", str(rng.randrange(2**31))]

    def cycle(self, rng: random.Random) -> list[Op]:
        argv = self.chain_argv(rng.choice(self.paths), rng)
        return [Op("sample wide", argv, self._check)]

    def _check(self, text: str):
        _, error = _parse_samples(text, self.m, self.n, self.num_samples)
        return error


class SampleNarrow(SampleWide):
    """The criterion-10 chain: m = 8, n = 3, k = 3, 20,000 samples at thinning 10.

    201,001 target lookups over only 56 outputs, so after the first few
    steps every lookup hits the sampler's cache and the step loop itself is
    the cost.  Each op's samples must come within total-variation distance
    0.05 of the recorded enumerated distribution.
    """

    name = "sample_narrow"
    trace_cycles = 2
    m, n, k = 8, 3, 3
    num_samples, burn_in, thinning = 20000, 1000, 10
    pool_size = 6

    @classmethod
    def pool(cls) -> list[dict]:
        return [{"id": f"narrow-{i}", "instance": haar_instance(cls.m, cls.n, random.Random(3000 + i),
                                                                 with_output=False)}
                for i in range(cls.pool_size)]

    def __init__(self, reference: dict):
        self.entries = reference["sample_narrow"]

    def prepare(self, workdir: str, seed: int) -> None:
        self.paths = {}
        for entry in self.entries:
            path = os.path.join(workdir, f"{entry['id']}.json")
            _write_json(path, entry["instance"])
            self.paths[entry["id"]] = path
        self.warm_path = os.path.join(workdir, "sample-warm.json")
        _write_json(self.warm_path, haar_instance(6, 2, random.Random(seed), with_output=False))

    def cycle(self, rng: random.Random) -> list[Op]:
        entry = rng.choice(self.entries)
        argv = self.chain_argv(self.paths[entry["id"]], rng)
        return [Op("sample narrow", argv, self._check_tv(entry))]

    def _check_tv(self, entry):
        target = {tuple(s): p for s, p in zip(entry["states"], entry["probs"])}

        def check(text: str):
            samples, error = _parse_samples(text, self.m, self.n, self.num_samples)
            if error:
                return error
            counts = Counter(samples)
            if not set(counts) <= set(target):
                return f"{entry['id']}: sample outside the enumerated support"
            tv = 0.5 * math.fsum(abs(counts.get(s, 0) / len(samples) - p) for s, p in target.items())
            if not tv < TV_LIMIT:
                return f"{entry['id']}: TV {tv:.4f} >= {TV_LIMIT}"
            return None
        return check


WORKLOADS = {cls.name: cls for cls in (ProbeMix, VerifyEnsemble, SampleWide, SampleNarrow)}
