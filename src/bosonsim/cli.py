"""Command-line front end: probabilities, truncations, bounds, curves, verification, sampling.

Every subcommand accepts a JSON config file (``--config``, schema version 1)
whose fields are overridden by explicit flags, writes its artifact to
``--output`` or stdout, and is deterministic given the seed.  One table,
``_COMMANDS``, declares each subcommand's settings: a setting is a flag and
the config field of the flag's name with ``_`` for ``-`` (``--num-samples``
is ``num_samples``, ``--x-vec`` is ``x_vec``, ``--m2-root`` is ``m2_root``),
and a config field takes the same values and choices as its flag, read by
the rule of ``bosonsim.fields``.  ``verify`` and ``sample`` take a seed:
flag, then config field, then the BOSONSIM_SEED environment variable.  Exit
codes: 0 success, 2 config/usage error, 3 diverging bound parameter, 4
degenerate sampler target.  Any other exception is a bug and propagates
with its traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bounds import (
    BoundSpec,
    DivergenceError,
    l1_bound,
    min_truncation_order,
    truncation_order_curves,
    validate_bound_monte_carlo,
)
from .distinguishability import GeneralizedOBBModel, HomogeneousModel
from .fields import base, convert, listed, read
from .probability import ExperimentInstance, exact_probability, truncated_probability
from .sampler import ChainConfig, DegenerateTargetError, metropolis_sample

__all__ = ["main", "entrypoint"]


def _json_file(value):
    """A JSON file path's contents; a config may also hold the object itself."""
    if not isinstance(value, str):
        return value
    with open(value, encoding="utf-8") as handle:
        return json.load(handle)


def _reals(value) -> tuple[float, ...]:
    """Comma-separated reals, or a config list of numbers."""
    return listed(float)(value if isinstance(value, list) else [part for part in str(value).split(",") if part != ""])


def _grid(value) -> tuple[float, ...]:
    """A start:stop:step grid, comma-separated reals, or a config list of numbers."""
    if isinstance(value, list) or ":" not in str(value):
        return _reals(value)
    start, stop, step = listed(float)(str(value).split(":"))
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = int(round((stop - start) / step)) + 1
    if count > 10**6:  # refused before the list is built
        raise ValueError(f"grid {value} has {count:,} values, over the limit of 1,000,000")
    grid = [round(start + i * step, 10) for i in range(count)]
    return tuple(v for v in grid if v <= stop + 1e-12)


def _cmd_prob(setting) -> dict:
    inst = ExperimentInstance.from_dict(setting("instance", required=True))
    return {
        "schema": 1,
        "n": inst.n,
        "m": inst.m,
        "input": list(inst.input_occupation),
        "output_state": list(inst.output_occupation),
        "model": inst.model.to_dict(),
        "probability": exact_probability(inst),
    }


def _cmd_truncate(setting) -> dict:
    inst = ExperimentInstance.from_dict(setting("instance", required=True))
    k = setting("k", required=True)
    strategy = setting("strategy", "direct")
    return {**truncated_probability(inst, k, strategy).to_dict(), "strategy": strategy, "n": inst.n}


def _bound_spec(setting, k: int) -> BoundSpec:
    choices = [("homogeneous_x", setting("x")), ("quadratic_mean", setting("m2_root")),
               ("max_visibility", setting("x_max"))]
    given = [(kind, value) for kind, value in choices if value is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --x, --m2-root, --x-max")
    kind, parameter = given[0]
    return BoundSpec(kind=kind, parameter=parameter, k=k)


def _cmd_bound(setting) -> dict:
    k = setting("k")
    epsilon = setting("epsilon")
    if k is None and epsilon is None:
        raise ValueError("give --k for a bound value and/or --epsilon for a minimal order")
    payload: dict = {"schema": 1}
    if k is not None:
        spec = _bound_spec(setting, k)
        payload.update(kind=spec.kind, parameter=spec.parameter, k=spec.k, l1_bound=l1_bound(spec))
    if epsilon is not None:
        spec = _bound_spec(setting, 0)
        order = min_truncation_order(spec.parameter, epsilon, kind=spec.kind)
        payload.update(kind=spec.kind, parameter=spec.parameter, epsilon=epsilon, min_order=order)
    return payload


def _cmd_curves(setting) -> str:
    sigma, epsilon, mu = (setting(name, required=True) for name in ("sigma", "epsilon", "mu"))
    for name, grid in (("epsilon", epsilon), ("mu", mu)):
        if not grid:  # "," or a stop below the start, which would print the header alone
            raise ValueError(f"setting {name!r} has no value")
    rows = truncation_order_curves(sigma, epsilon, mu)
    lines = ["mu,epsilon,k_max_bound,k_m2_bound"]
    for row in rows:
        k_max = "divergent" if row["k_max_bound"] is None else str(row["k_max_bound"])
        k_m2 = "divergent" if row["k_m2_bound"] is None else str(row["k_m2_bound"])
        lines.append(f"{row['mu']!r},{row['epsilon']!r},{k_max},{k_m2}")
    return "\n".join(lines) + "\n"


def _seed(setting) -> int:
    """The seed setting, or else the BOSONSIM_SEED environment variable, or else 0."""
    return setting("seed", os.environ.get("BOSONSIM_SEED", 0))


def _cmd_verify(setting) -> dict:
    n, m, k, trials = (setting(name, required=True) for name in ("n", "m", "k", "trials"))
    setting("threads")  # checked against its bound, then unused
    x, x_vec = setting("x"), setting("x_vec")
    if (x is None) == (x_vec is None):
        raise ValueError("give exactly one of --x and --x-vec")
    model = HomogeneousModel(x) if x is not None else GeneralizedOBBModel(x_vec)
    return validate_bound_monte_carlo(n, m, k, model, trials=trials, seed=_seed(setting)).to_dict()


def _cmd_sample(setting) -> str:
    data = setting("instance", required=True)
    if isinstance(data, dict) and "input" in data and "output" not in data:
        data = dict(data, output=data["input"])  # placeholder; the sampler ignores it
    inst = ExperimentInstance.from_dict(data)
    k = setting("k", required=True)
    fmt = setting("format", "jsonl")
    given = {name: setting(name) for name in ("burn_in", "thinning", "proposal")}  # else ChainConfig's defaults
    chain = ChainConfig(num_samples=setting("num_samples", required=True), seed=_seed(setting),
                        **{name: value for name, value in given.items() if value is not None})
    samples = metropolis_sample(inst.unitary, inst.input_occupation, inst.model, k, chain)
    lines = {sample: json.dumps(list(sample)) if fmt == "jsonl" else ",".join(map(str, sample))
             for sample in dict.fromkeys(samples)}  # each distinct sample formatted once
    head = [] if fmt == "jsonl" else [",".join(f"mode_{i}" for i in range(inst.m))]
    return "\n".join(head + [lines[sample] for sample in samples]) + "\n"


# The settings of every subcommand, name -> (kind, help).  A setting is the flag of its name with "-"
# for "_" and the config field of its name.  Its kind is a kind of bosonsim.fields: a number, bounds included
# (its int or float types the flag), str, a choice list, or a converter of the flag's text and the config value.
_COMMON = {"output": (str, "write the artifact here instead of stdout")}
_SEED = (ChainConfig._kinds["seed"], "64-bit seed (fallback: config, then $BOSONSIM_SEED)")
# Per subcommand: its function, which returns its artifact, its help and its own settings.
_COMMANDS = {
    "prob": (_cmd_prob, "exact output probability of an instance", {"instance": (_json_file, "instance JSON file")}),
    "truncate": (_cmd_truncate, "order-k truncated probability of an instance", {
        "instance": (_json_file, "instance JSON file"),
        "k": (int, "truncation order"),
        "strategy": (["direct", "laplace"], "evaluation strategy"),
    }),
    "bound": (_cmd_bound, "L1 bound, or minimal truncation order for a target", {
        "x": (float, "uniform visibility (ratio x**2)"),
        "m2_root": (float, "quadratic mean of pairwise visibilities"),
        "x_max": (float, "largest visibility (legacy fallback)"),
        "k": (int, "truncation order for the bound value"),
        "epsilon": (float, "L1 target; reports the minimal order instead"),
    }),
    "curves": (_cmd_curves, "minimal truncation orders over a mean-visibility grid (CSV)", {
        "sigma": (float, "visibility standard deviation"),
        "epsilon": (_reals, "comma-separated L1 targets, e.g. 0.01,0.05"),
        "mu": (_grid, "grid: start:stop:step or comma-separated values"),
    }),
    "verify": (_cmd_verify, "seeded Monte-Carlo check of the error bounds", {
        "n": (int, "photon count (<= 12, within the work budget)"),
        "m": (int, "Gaussian normalization dimension"),
        "x": (float, "uniform visibility"),
        "x_vec": (_reals, "comma-separated per-photon visibilities"),
        "k": (int, "truncation order"),
        "trials": (int, "number of Monte-Carlo trials (>= 50)"),
        "threads": ((int, 1), "accepted for compatibility (>= 1); it has no effect"),
        "seed": _SEED,
    }),
    "sample": (_cmd_sample, "Metropolis samples from the truncated distribution", {
        "instance": (_json_file, "instance JSON file (output field ignored)"),
        "k": (int, "truncation order"),
        "num_samples": (ChainConfig._kinds["num_samples"], "samples to emit"),
        "burn_in": (ChainConfig._kinds["burn_in"], f"burn-in steps (default {ChainConfig.burn_in})"),
        "thinning": (ChainConfig._kinds["thinning"], f"keep every thinning-th state (default {ChainConfig.thinning})"),
        "proposal": (ChainConfig._kinds["proposal"], "chain proposal (default uniform_noncollisional)"),
        "format": (["jsonl", "csv"], "sample stream format (default jsonl)"),
        "seed": _SEED,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsim",
        description="Boson-sampling probabilities with partial distinguishability",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, settings) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for name, (kind, text) in (_COMMON | settings).items():
            p.add_argument("--" + name.replace("_", "-"), help=text, type=base(kind),
                           choices=kind if isinstance(kind, list) else None)
    return parser


def _setting(args, config: dict, kinds: dict, name: str, default=None, required: bool = False):
    """Setting ``name``: the flag, then the config field (converted as the config was read), then ``default``."""
    value = getattr(args, name)
    if value is None and name in config:
        return config[name]
    value = default if value is None else value
    if value is None and required:
        raise ValueError(f"missing required setting {name!r}")
    return None if value is None else convert("setting", name, kinds[name], value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, settings = _COMMANDS[args.command]
    kinds = {name: kind for name, (kind, _) in (_COMMON | settings).items()}
    try:
        config = {}
        if args.config is not None:
            config = read(_json_file(args.config), "config", {"schema": [1], "command": [args.command]} | kinds)
        setting = functools.partial(_setting, args, config, kinds)
        output = setting("output")
        artifact = run(setting)
        text = artifact if isinstance(artifact, str) else json.dumps(artifact, indent=2) + "\n"
        if output is None:
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        return 0
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
