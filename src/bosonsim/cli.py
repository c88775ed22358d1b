"""Command-line front end: probabilities, truncations, bounds, curves, verification, sampling.

Every subcommand accepts a JSON config file (``--config``, schema version 1)
whose fields are overridden by explicit flags, writes its artifact to
``--output`` or stdout, and is deterministic given the seed.  The seed is
resolved as flag, then config field, then the BOSONSIM_SEED environment
variable.  Exit codes: 0 success, 2 config/usage error, 3 diverging bound
parameter, 4 degenerate sampler target.  Any other exception is a bug and
propagates with its traceback.
"""
from __future__ import annotations

import argparse
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
from .probability import ExperimentInstance, exact_probability, truncated_probability
from .sampler import ChainConfig, DegenerateTargetError, metropolis_sample

__all__ = ["main", "entrypoint"]

_SEED_ENV = "BOSONSIM_SEED"

_COMMON_FIELDS = {"schema", "command", "output", "seed"}
_COMMAND_FIELDS = {
    "prob": {"instance"},
    "truncate": {"instance", "k", "strategy"},
    "bound": {"x", "m2_root", "x_max", "k", "epsilon"},
    "curves": {"sigma", "epsilon", "mu"},
    "verify": {"n", "m", "x", "x_vec", "k", "trials", "threads"},
    "sample": {"instance", "k", "strategy", "num_samples", "burn_in", "thinning", "proposal", "format"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsim",
        description="Boson-sampling probabilities with partial distinguishability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--output", help="write the artifact here instead of stdout")
        p.add_argument("--seed", type=int, help="64-bit seed (fallback: config, then $BOSONSIM_SEED)")

    p = sub.add_parser("prob", help="exact output probability of an instance")
    common(p)
    p.add_argument("--instance", help="instance JSON file")

    p = sub.add_parser("truncate", help="order-k truncated probability of an instance")
    common(p)
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--k", type=int, help="truncation order")
    p.add_argument("--strategy", choices=["direct", "laplace"], help="evaluation strategy")

    p = sub.add_parser("bound", help="L1 bound, or minimal truncation order for a target")
    common(p)
    p.add_argument("--x", type=float, help="uniform visibility (ratio x**2)")
    p.add_argument("--m2-root", dest="m2_root", type=float, help="quadratic mean of pairwise visibilities")
    p.add_argument("--x-max", dest="x_max", type=float, help="largest visibility (legacy fallback)")
    p.add_argument("--k", type=int, help="truncation order for the bound value")
    p.add_argument("--epsilon", type=float, help="L1 target; reports the minimal order instead")

    p = sub.add_parser("curves", help="minimal truncation orders over a mean-visibility grid (CSV)")
    common(p)
    p.add_argument("--sigma", type=float, help="visibility standard deviation")
    p.add_argument("--epsilon", help="comma-separated L1 targets, e.g. 0.01,0.05")
    p.add_argument("--mu", help="grid: start:stop:step or comma-separated values")

    p = sub.add_parser("verify", help="seeded Monte-Carlo check of the error bounds")
    common(p)
    p.add_argument("--n", type=int, help="photon count (<= 7)")
    p.add_argument("--m", type=int, help="Gaussian normalization dimension")
    p.add_argument("--x", type=float, help="uniform visibility")
    p.add_argument("--x-vec", dest="x_vec", help="comma-separated per-photon visibilities")
    p.add_argument("--k", type=int, help="truncation order")
    p.add_argument("--trials", type=int, help="number of Monte-Carlo trials (>= 50)")
    p.add_argument("--threads", type=int, help="accepted for compatibility (>= 1); it has no effect")

    p = sub.add_parser("sample", help="Metropolis samples from the truncated distribution")
    common(p)
    p.add_argument("--instance", help="instance JSON file (output field ignored)")
    p.add_argument("--k", type=int, help="truncation order")
    p.add_argument("--strategy", choices=["direct", "laplace"], help="target evaluation strategy")
    p.add_argument("--num-samples", dest="num_samples", type=int, help="samples to emit")
    p.add_argument("--burn-in", dest="burn_in", type=int, help="burn-in steps (default 1000)")
    p.add_argument("--thinning", type=int, help="keep every thinning-th state (default 10)")
    p.add_argument("--proposal", choices=["uniform_noncollisional", "single_mode_swap"])
    p.add_argument("--format", choices=["jsonl", "csv"], help="sample stream format (default jsonl)")

    return parser


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    if config.get("schema", 1) != 1:
        raise ValueError("unsupported config schema version")
    if "command" in config and config["command"] != command:
        raise ValueError(f"config is for command {config['command']!r}, not {command!r}")
    allowed = _COMMON_FIELDS | _COMMAND_FIELDS[command]
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    output = config.get("output")
    if output is not None and not isinstance(output, str):
        raise ValueError("config field 'output' must be a file path")
    return config


def _setting(args, config: dict, name: str, default=None, required: bool = False, convert=None):
    """Flag, then config field, then default; ``convert`` errors become ValueError."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    if value is None:
        value = default
    if value is None and required:
        raise ValueError(f"missing required setting {name!r}")
    if value is None or convert is None:
        return value
    try:
        return convert(value)
    except TypeError:
        raise ValueError(f"setting {name!r} has the wrong type: {value!r}") from None


def _resolve_seed(args, config: dict, default: int = 0) -> int:
    seed = _setting(args, config, "seed", convert=int)
    if seed is not None:
        return seed
    env = os.environ.get(_SEED_ENV)
    if env is not None:
        return int(env)
    return default


def _load_instance(args, config: dict, output_optional: bool = False) -> ExperimentInstance:
    path = getattr(args, "instance", None)
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    elif "instance" in config:
        data = config["instance"]
        if isinstance(data, str):
            with open(data, encoding="utf-8") as handle:
                data = json.load(handle)
    else:
        raise ValueError("missing required setting 'instance'")
    if output_optional and isinstance(data, dict) and "input" in data and "output" not in data:
        data = dict(data, output=data["input"])  # placeholder; the sampler ignores it
    return ExperimentInstance.from_dict(data)


def _parse_float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(part) for part in str(text).split(",") if part != ""]


def _parse_grid(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    text = str(text)
    if ":" in text:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        grid = [round(start + i * step, 10) for i in range(count)]
        return [v for v in grid if v <= stop + 1e-12]
    return _parse_float_list(text)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", output)


def _cmd_prob(args) -> int:
    config = _load_config(args.config, "prob")
    inst = _load_instance(args, config)
    payload = {
        "schema": 1,
        "n": inst.n,
        "m": inst.m,
        "input": list(inst.input_occupation),
        "output_state": list(inst.output_occupation),
        "model": inst.model.to_dict(),
        "probability": exact_probability(inst),
    }
    _emit_json(payload, _setting(args, config, "output"))
    return 0


def _cmd_truncate(args) -> int:
    config = _load_config(args.config, "truncate")
    inst = _load_instance(args, config)
    k = _setting(args, config, "k", required=True, convert=int)
    strategy = _setting(args, config, "strategy", default="direct")
    result = truncated_probability(inst, k, strategy)
    payload = result.to_dict()
    payload["strategy"] = strategy
    payload["n"] = inst.n
    _emit_json(payload, _setting(args, config, "output"))
    return 0


def _bound_spec_from_settings(args, config: dict, k: int):
    choices = [
        ("homogeneous_x", _setting(args, config, "x", convert=float)),
        ("quadratic_mean", _setting(args, config, "m2_root", convert=float)),
        ("max_visibility", _setting(args, config, "x_max", convert=float)),
    ]
    given = [(kind, value) for kind, value in choices if value is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --x, --m2-root, --x-max")
    kind, parameter = given[0]
    return BoundSpec(kind=kind, parameter=parameter, k=k)


def _cmd_bound(args) -> int:
    config = _load_config(args.config, "bound")
    k = _setting(args, config, "k", convert=int)
    epsilon = _setting(args, config, "epsilon", convert=float)
    if k is None and epsilon is None:
        raise ValueError("give --k for a bound value and/or --epsilon for a minimal order")
    payload: dict = {"schema": 1}
    if k is not None:
        spec = _bound_spec_from_settings(args, config, k)
        payload.update(kind=spec.kind, parameter=spec.parameter, k=spec.k, l1_bound=l1_bound(spec))
    if epsilon is not None:
        spec = _bound_spec_from_settings(args, config, 0)
        order = min_truncation_order(spec.parameter, epsilon, kind=spec.kind)
        payload.update(kind=spec.kind, parameter=spec.parameter, epsilon=epsilon, min_order=order)
    _emit_json(payload, _setting(args, config, "output"))
    return 0


def _cmd_curves(args) -> int:
    config = _load_config(args.config, "curves")
    sigma = _setting(args, config, "sigma", required=True, convert=float)
    epsilons = _setting(args, config, "epsilon", required=True, convert=_parse_float_list)
    mu_grid = _setting(args, config, "mu", required=True, convert=_parse_grid)
    rows = truncation_order_curves(sigma, epsilons, mu_grid)
    lines = ["mu,epsilon,k_max_bound,k_m2_bound"]
    for row in rows:
        k_max = "divergent" if row["k_max_bound"] is None else str(row["k_max_bound"])
        k_m2 = "divergent" if row["k_m2_bound"] is None else str(row["k_m2_bound"])
        lines.append(f"{row['mu']!r},{row['epsilon']!r},{k_max},{k_m2}")
    _emit("\n".join(lines) + "\n", _setting(args, config, "output"))
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args.config, "verify")
    n = _setting(args, config, "n", required=True, convert=int)
    m = _setting(args, config, "m", required=True, convert=int)
    k = _setting(args, config, "k", required=True, convert=int)
    trials = _setting(args, config, "trials", required=True, convert=int)
    if _setting(args, config, "threads", default=1, convert=int) < 1:
        raise ValueError("threads must be a positive integer")
    x = _setting(args, config, "x", convert=float)
    x_vec = _setting(args, config, "x_vec", convert=_parse_float_list)
    if (x is None) == (x_vec is None):
        raise ValueError("give exactly one of --x and --x-vec")
    if x is not None:
        model = HomogeneousModel(x)
    else:
        model = GeneralizedOBBModel(tuple(x_vec))
    seed = _resolve_seed(args, config)
    report = validate_bound_monte_carlo(n, m, k, model, trials=trials, seed=seed)
    _emit_json(report.to_dict(), _setting(args, config, "output"))
    return 0


def _cmd_sample(args) -> int:
    config = _load_config(args.config, "sample")
    inst = _load_instance(args, config, output_optional=True)
    k = _setting(args, config, "k", required=True, convert=int)
    strategy = _setting(args, config, "strategy", default="direct")
    chain = ChainConfig(
        num_samples=_setting(args, config, "num_samples", required=True, convert=int),
        burn_in=_setting(args, config, "burn_in", default=1000, convert=int),
        thinning=_setting(args, config, "thinning", default=10, convert=int),
        proposal=_setting(args, config, "proposal"),
        seed=_resolve_seed(args, config),
    )
    samples = metropolis_sample(inst.unitary, inst.input_occupation, inst.model, k, chain, strategy)
    fmt = _setting(args, config, "format", default="jsonl")
    if fmt == "jsonl":
        text = "\n".join(json.dumps(list(sample)) for sample in samples) + "\n"
    elif fmt == "csv":
        header = ",".join(f"mode_{i}" for i in range(inst.m))
        text = "\n".join([header] + [",".join(str(c) for c in sample) for sample in samples]) + "\n"
    else:
        raise ValueError(f"unknown sample format {fmt!r}")
    _emit(text, _setting(args, config, "output"))
    return 0


_DISPATCH = {
    "prob": _cmd_prob,
    "truncate": _cmd_truncate,
    "bound": _cmd_bound,
    "curves": _cmd_curves,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
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
