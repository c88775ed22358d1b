#!/usr/bin/env python3
"""Record the benchmark's reference values from the library in ``src/``.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: the probe instances with their exact
probabilities and per-order terms (``exact_probability_by_order``), the
``verify`` reports for every (k, model, Monte-Carlo seed) in the pool, and
the enumerated distribution of every narrow-chain instance
(``output_distribution``).  Run it only on a commit whose results are
trusted; the benchmark checks every op against this file.  It takes about
a minute and a half on a 2-core machine.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from workloads import ProbeMix, SampleNarrow, VerifyEnsemble  # noqa: E402

from bosonsim import cli  # noqa: E402
from bosonsim.probability import ExperimentInstance, exact_probability, exact_probability_by_order  # noqa: E402
from bosonsim.sampler import output_distribution  # noqa: E402


def _cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return json.loads(out.getvalue())


def main() -> None:
    probe = []
    for entry in ProbeMix.pool():
        inst = ExperimentInstance.from_dict(entry["instance"])
        entry["probability"] = exact_probability(inst)
        entry["by_order"] = exact_probability_by_order(inst).tolist()
        probe.append(entry)
        print(f"probe {entry['id']}: p={entry['probability']:.6e}", file=sys.stderr)

    verify = []
    for entry in VerifyEnsemble.pool():
        entry["report"] = _cli_json(VerifyEnsemble.argv(entry["k"], entry["model"], entry["seed"]))
        verify.append(entry)
        print(f"verify {entry['id']}", file=sys.stderr)

    narrow = []
    for entry in SampleNarrow.pool():
        inst = ExperimentInstance.from_dict(dict(entry["instance"], output=entry["instance"]["input"]))
        states, probs = output_distribution(inst.unitary, inst.input_occupation, inst.model, SampleNarrow.k)
        entry["states"] = [list(s) for s in states]
        entry["probs"] = probs.tolist()
        narrow.append(entry)
        print(f"narrow {entry['id']}: {len(states)} outputs", file=sys.stderr)

    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": 1, "probe_mix": probe, "verify_ensemble": verify, "sample_narrow": narrow},
                  handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
