#!/usr/bin/env python3
"""bosonsim benchmark: seeded closed-loop CLI workloads, checked against recorded references.

    python3 bench/run.py --workload probe_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  One client runs ops back to back in this process, each op being
one in-process call of ``bosonsim.cli.main(argv)``.  Ops run in whole
cycles (see ``workloads.py``) until ``--seconds`` have passed, and every
op's output is then checked against ``reference.json``.  The end-to-end
times are given at a nominal host speed (see ``hostspeed.py``); the raw
times are in the result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of cycles, once untraced and once with span tracing of the library's
layers (see ``tracing.py``), and reports the per-layer metrics; its op list
depends only on the seed, so its counts repeat exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A longer result file, with the
environment, quantile details and any failures, goes to ``.bench_out/``
in the checkout, next to the generated inputs and, for traced runs, the
spans.
"""
from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 25
# A traced op's span self times must add up to its measured time within this share.
ACCOUNTING_TOLERANCE = 0.02


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; a traced run has a fixed op list instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=os.path.join(BENCH_DIR, "reference.json"),
                        help="reference values to check outputs against")
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    """Import bosonsim afresh from the checkout's src/ and return its cli module."""
    for name in [name for name in sys.modules if name == "bosonsim" or name.startswith("bosonsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("bosonsim.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bosonsim imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, argv):
    """Run one CLI command in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is a failed op; the run goes on
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def setup(workload, seed: int, workdir: str):
    """Import, input generation and warm-up, repeated.

    Returns (median seconds, the same at the nominal host speed, cli module).
    """
    spans = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            begin = perf_counter()
            cli = import_cli()
            workload.prepare(workdir, seed)
            for argv in workload.warmup():
                code, _, err = invoke(cli, argv)
                if code != 0:
                    raise RuntimeError(f"warm-up {argv} exited with {code}: {err.strip()}")
            spans.append((begin, perf_counter()))
    raw = statistics.median(speed.net(*span) for span in spans)
    return raw, statistics.median(speed.scaled(*span) for span in spans), cli


def check(ops, results) -> list[str]:
    """Failure messages, one per failed op (non-zero exit or wrong output)."""
    failures = []
    for index, (op, (code, out, err)) in enumerate(zip(ops, results)):
        if code != 0:
            message = f"exit code {code}: {err.strip()[-500:]}"
        else:
            try:
                message = op.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                message = f"unreadable output: {exc!r}"
        if message:
            failures.append(f"op {index} ({op.kind}, {' '.join(op.argv)}): {message}")
    return failures


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' definition)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def timed_run(workload, cli, seconds: float, rng: random.Random):
    """Closed loop of whole cycles until `seconds` have passed, with the host speed probed throughout."""
    ops, spans, results = [], [], []
    with HostSpeed() as speed:
        start = perf_counter()
        while True:
            for op in workload.cycle(rng):
                begin = perf_counter()
                results.append(invoke(cli, op.argv))
                spans.append((begin, perf_counter()))
                ops.append(op)
            if perf_counter() - start >= seconds:
                break
        elapsed = perf_counter() - start
    raw = [speed.net(*span) for span in spans]
    scaled = [speed.scaled(*span) for span in spans]
    q = workload.tail_percentile
    metrics = {
        "ops_per_s": (len(ops) / math.fsum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (percentile(scaled, q) * 1e3, "ms"),
    }
    details = {
        "ops": len(ops),
        "elapsed_s": elapsed,
        "latency_tail": {"percentile": q, "samples": len(ops), "samples_beyond": int(len(ops) * (100 - q) / 100)},
        "raw": {
            "ops_per_s": len(ops) / math.fsum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, q) * 1e3,
        },
        "probe": speed.summary(),
        "latency_ms_by_kind": {kind: statistics.median(lat * 1e3 for op, lat in zip(ops, scaled) if op.kind == kind)
                               for kind in sorted({op.kind for op in ops})},
    }
    return ops, results, metrics, details


def traced_run(workload, cli, rng: random.Random, spans_path: str):
    """Fixed op list, each op run untraced and traced; per-layer metrics plus self-checks.

    The two runs of an op alternate in order from op to op, so drift in the
    machine's speed falls on both sides of the tracing overhead alike.
    """
    from tracing import Tracer

    ops = []
    for _ in range(workload.trace_cycles):
        ops += workload.cycle(rng)
    tracer = Tracer()
    latencies = {False: [], True: []}
    results = {False: [], True: []}
    for index, op in enumerate(ops):
        tracer.op_id = index
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                start = perf_counter()
                results[traced].append(invoke(cli, op.argv))
                latencies[traced].append(perf_counter() - start)
            finally:
                tracer.uninstall()
    tracer.save(spans_path)

    values, absent = tracer.layer_metrics(len(ops))
    plain_ms = statistics.median(latencies[False]) * 1e3
    traced_ms = statistics.median(latencies[True]) * 1e3
    op_times = latencies[True]
    accounted = tracer.op_self_totals(len(ops))
    errors = [abs(lat - acc) / lat for lat, acc in zip(op_times, accounted)]
    values["trace.overhead_ms_per_op"] = (traced_ms - plain_ms, "ms")
    values["trace.accounting_error_max"] = (max(errors), "ratio")
    details = {
        "ops": len(ops),
        "absent": absent,
        "untraced_median_ms": plain_ms,
        "traced_median_ms": traced_ms,
        "self_share": tracer.self_shares(sum(op_times)),
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    accounting_failures = [f"op {i}: span self times cover {acc:.6f}s of {lat:.6f}s"
                           for i, (lat, acc, e) in enumerate(zip(op_times, accounted, errors))
                           if e > ACCOUNTING_TOLERANCE]
    return ops + ops, results[False] + results[True], values, details, accounting_failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bosonsim", "__init__.py")):
        print(f"error: no bosonsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # for its version in the result file

    from workloads import WORKLOADS

    with open(args.reference, encoding="utf-8") as handle:
        reference = json.load(handle)
    workload = WORKLOADS[args.workload](reference)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        raw_setup_s, setup_s, cli = setup(workload, args.seed, workdir)
        rng = random.Random(f"ops-{args.seed}")
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz")
            ops, results, metrics, details, extra_failures = traced_run(workload, cli, rng, spans_path)
        else:
            ops, results, metrics, details = timed_run(workload, cli, args.seconds, rng)
            extra_failures = []
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = check(ops, results)
    details["failed_ratio"] = len(failures) / len(ops)
    details["setup_s"] = {"scaled": setup_s, "raw": raw_setup_s}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        },
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
        "failures": failures[:20],
        "trace_check_failures": extra_failures[:20],
    }
    result_path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for message in (failures + extra_failures)[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": not failures and not extra_failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
