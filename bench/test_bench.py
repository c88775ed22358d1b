"""The benchmark's own tests: metrics emitted, checks able to fail, counts repeatable.

    python3 -m pytest bench/test_bench.py -q

Each test runs ``bench/run.py`` as a subprocess from the checkout root, the
way the benchmark is meant to be run; the whole module takes a few minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".yielded", ".terms", ".trials", ".steps", ".target_evals")


def run_bench(workload: str, trace: int, seed: int = 5, reference: str | None = None, cwd: str = ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if reference is not None:
        argv += ["--reference", reference]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"], result
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    counts = [name for name in expected if name.endswith(COUNT_SUFFIXES) or ".calls." in name]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _corrupted_reference(workload: str) -> str:
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    for entry in reference[workload]:
        if workload == "probe_mix":
            entry["probability"] *= 1.001
            entry["by_order"][0] *= 1.001
        elif workload == "verify_ensemble":
            entry["report"]["mean_abs_error"] *= 1.001
        else:
            entry["probs"] = entry["probs"][::-1]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"corrupted-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    return path


@pytest.mark.parametrize("workload", ["probe_mix", "verify_ensemble", "sample_narrow"])
def test_corrupted_reference_makes_ops_fail(workload):
    result = result_of(run_bench(workload, trace=0, reference=_corrupted_reference(workload)))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_a_traced_name_the_library_lacks_is_absent_not_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(BENCH_DIR)
    import bosonsim.bounds
    from tracing import Tracer

    monkeypatch.delattr(bosonsim.bounds, "_trial_error")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    values, absent = tracer.layer_metrics(ops=1)
    assert tracer.absent == ["bounds.trial"]
    assert absent == ["bounds.trial_ms", "bounds.trials"]
    assert values["bounds.trials"] == (0, "count")


def test_runs_without_sources_exit_nonzero_without_a_result():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("probe_mix", trace=0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
