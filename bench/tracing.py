"""Span tracing of bosonsim's layers from outside the library.

``Tracer.install`` replaces each traced function at every ``bosonsim``
module attribute that holds it (the attributes through which the library
calls it, e.g. ``bosonsim.linalg.permanent`` and
``bosonsim.probability.hadamard_permanent``) with a wrapper that records a
span: name, start, end, parent span and op id.  Spans stay in flat arrays in
memory and are written out once, at the end of the run.  A traced name that
the library no longer defines is reported as absent; it is not an error.

A span's self time is its duration minus the durations of its direct
children.  The library is single-threaded under ``--threads 1``, so
children never overlap one another.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute, wrapper kind)
LAYERS = (
    ("cli", "bosonsim.cli", "main", "call"),
    ("probability.exact", "bosonsim.probability", "exact_probability", "call"),
    ("probability.truncated", "bosonsim.probability", "truncated_probability", "call"),
    ("probability.by_order", "bosonsim.probability", "exact_probability_by_order", "call"),
    ("combinat.partial_derangements", "bosonsim.combinat", "partial_derangements", "generator"),
    ("distinguishability.overlap_product", "bosonsim.distinguishability", "overlap_product", "nonzero"),
    ("linalg.permanent", "bosonsim.linalg", "permanent", "sized"),
    ("linalg.hadamard_permanent", "bosonsim.linalg", "hadamard_permanent", "call"),
    ("linalg.laplace_split_permanent", "bosonsim.linalg", "laplace_split_permanent", "call"),
    ("bounds.validate", "bosonsim.bounds", "validate_bound_monte_carlo", "call"),
    ("bounds.trial", "bosonsim.bounds", "_trial_error", "call"),
    ("randgen.gaussian_matrix", "bosonsim.randgen", "gaussian_matrix", "call"),
    ("randgen.trial_rng", "bosonsim.randgen", "trial_rng", "call"),
    ("randgen.haar_unitary", "bosonsim.randgen", "haar_unitary", "call"),
    ("sampler", "bosonsim.sampler", "metropolis_sample", "chain"),
)

PERMANENT_SIZES = range(8)

class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = {"yielded": 0, "overlap_nonzero": 0, "sampler_steps": 0, "sampler_lookups": 0}
        self.absent: list[str] = []
        self._patches: list | None = None  # (module, attribute, original, wrapper)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        if kind == "generator":
            nid = self.name_id(name)

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = tracer.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(sid)
                    tracer.counts["yielded"] += 1
                    yield item
            return generator

        if kind == "sized":
            ids = {}

            @functools.wraps(fn)
            def sized(matrix, *args, **kwargs):
                size = len(matrix)
                nid = ids.get(size)
                if nid is None:
                    nid = ids[size] = tracer.name_id(f"{name}.n{size}")
                sid = tracer.open(nid)
                try:
                    return fn(matrix, *args, **kwargs)
                finally:
                    tracer.close(sid)
            return sized

        nid = self.name_id(name)
        if kind == "nonzero":
            @functools.wraps(fn)
            def nonzero(*args, **kwargs):
                sid = tracer.open(nid)
                try:
                    value = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if value != 0:
                    tracer.counts["overlap_nonzero"] += 1
                return value
            return nonzero

        signature = inspect.signature(fn) if kind == "chain" else None

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if signature is not None:
                tracer._count_chain(signature, args, kwargs)
            sid = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        return call

    def _count_chain(self, signature, args, kwargs) -> None:
        try:
            config = signature.bind(*args, **kwargs).arguments["config"]
            steps = config.burn_in + config.num_samples * config.thinning
        except (TypeError, KeyError, AttributeError):
            self.counts["sampler_steps"] = None
            return
        if self.counts["sampler_steps"] is not None:
            self.counts["sampler_steps"] += steps
            self.counts["sampler_lookups"] += steps + 1  # the initial state is looked up too

    def install(self) -> None:
        """Wrap every traced function at each bosonsim attribute that holds it."""
        if self._patches is None:
            self._patches = self._find_patches()
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._patches or ():
            setattr(module, key, original)

    def _find_patches(self) -> list:
        modules = [mod for key, mod in sys.modules.items() if key == "bosonsim" or key.startswith("bosonsim.")]
        patches = []
        for name, module_name, attr, kind in LAYERS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, kind, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        return patches

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": start,
            "duration": duration,
            "self": duration - covered,
        }

    def save(self, path: str) -> None:
        data = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **data)

    def layer_metrics(self, ops: int) -> tuple[dict, list[str]]:
        """Per-layer metrics (name -> (value, unit)) and the absent metric names."""
        data = self.arrays()
        count: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = data["name"] == nid
            count[name] = int(mask.sum())
            self_s[name] = float(data["self"][mask].sum())
            total_s[name] = float(data["duration"][mask].sum())

        # Target evaluations are the truncations the sampler itself asks for.
        sampler_id = self._name_ids.get("sampler")
        truncated_id = self._name_ids.get("probability.truncated")
        evals = eval_s = 0.0
        if sampler_id is not None and truncated_id is not None:
            parent = data["parent"]
            parent_name = np.where(parent >= 0, data["name"][np.maximum(parent, 0)], -1)
            mask = (data["name"] == truncated_id) & (parent_name == sampler_id)
            evals = int(mask.sum())
            eval_s = float(data["duration"][mask].sum())

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        perm_sizes = {int(n.rsplit(".n", 1)[1]): n for n in self.names if n.startswith("linalg.permanent.n")}
        terms = sum((2**size) * size * count[name] for size, name in perm_sizes.items())
        perm_self = sum(self_s[name] for name in perm_sizes.values())
        steps = self.counts["sampler_steps"]
        lookups = self.counts["sampler_lookups"]

        def c(name):
            return count.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        values = {
            "cli.self_ms_per_op": (per(s("cli"), ops, 1e3), "ms"),
            "probability.exact.calls": (c("probability.exact"), "count"),
            "probability.exact.self_s": (s("probability.exact"), "s"),
            "probability.truncated.calls": (c("probability.truncated"), "count"),
            "probability.truncated.self_s": (s("probability.truncated"), "s"),
            "probability.by_order.calls": (c("probability.by_order"), "count"),
            "probability.by_order.self_s": (s("probability.by_order"), "s"),
            "combinat.partial_derangements.yielded": (self.counts["yielded"], "count"),
            "combinat.partial_derangements.self_s": (s("combinat.partial_derangements"), "s"),
            "distinguishability.overlap_product.calls": (c("distinguishability.overlap_product"), "count"),
            "distinguishability.overlap_product.self_s": (s("distinguishability.overlap_product"), "s"),
            "distinguishability.overlap_product.nonzero_ratio":
                (per(self.counts["overlap_nonzero"], c("distinguishability.overlap_product")), "ratio"),
            **{f"linalg.permanent.calls.n{n}": (c(f"linalg.permanent.n{n}"), "count") for n in PERMANENT_SIZES},
            **{f"linalg.permanent.self_s.n{n}": (s(f"linalg.permanent.n{n}"), "s") for n in PERMANENT_SIZES},
            "linalg.permanent.terms": (terms, "count"),
            "linalg.permanent.ns_per_term": (per(perm_self, terms, 1e9), "ns"),
            "linalg.hadamard_permanent.calls": (c("linalg.hadamard_permanent"), "count"),
            "linalg.hadamard_permanent.self_s": (s("linalg.hadamard_permanent"), "s"),
            "linalg.laplace_split_permanent.calls": (c("linalg.laplace_split_permanent"), "count"),
            "linalg.laplace_split_permanent.self_s": (s("linalg.laplace_split_permanent"), "s"),
            "bounds.trials": (c("bounds.trial"), "count"),
            "bounds.trial_ms": (per(total_s.get("bounds.trial", 0.0), c("bounds.trial"), 1e3), "ms"),
            "bounds.validate.self_s": (s("bounds.validate"), "s"),
            "randgen.gaussian_matrix.self_s": (s("randgen.gaussian_matrix"), "s"),
            "randgen.trial_rng.self_s": (s("randgen.trial_rng"), "s"),
            "randgen.haar_unitary.self_s": (s("randgen.haar_unitary"), "s"),
            "sampler.steps": (steps or 0, "count"),
            "sampler.target_evals": (evals, "count"),
            "sampler.cache_hit_ratio": (per((lookups or 0) - evals, lookups or 0), "ratio"),
            "sampler.target_ms_per_eval": (per(eval_s, evals, 1e3), "ms"),
            "sampler.self_us_per_step": (per(s("sampler"), steps or 0, 1e6), "us"),
        }
        missing = set(self.absent) | ({"sampler"} if steps is None else set())

        def sources(metric):  # the layers a metric is computed from: its name starts with theirs
            layers = {name for name, *_ in LAYERS if metric.startswith(name)}
            evals = metric.startswith(("sampler.target", "sampler.cache"))
            return layers | {"probability.truncated"} if evals else layers

        return values, sorted(metric for metric in values if missing & sources(metric))

    def self_shares(self, total_s: float) -> dict[str, float]:
        """Each layer's summed self time as a share of `total_s`, largest first."""
        data = self.arrays()
        shares: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".n")[0] if name.startswith("linalg.permanent.n") else name
            shares[layer] = shares.get(layer, 0.0) + float(data["self"][data["name"] == nid].sum()) / total_s
        return dict(sorted(shares.items(), key=lambda item: -item[1]))

    def op_self_totals(self, ops: int) -> np.ndarray:
        """Sum of every span's self time within each op (index = op id)."""
        data = self.arrays()
        mask = data["op"] >= 0
        return np.bincount(data["op"][mask], weights=data["self"][mask], minlength=ops)
