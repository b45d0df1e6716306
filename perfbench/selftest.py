"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

* every workload runs at its tiny size in both modes, exits 0, reports
  ``correct`` and prints every metric ``BENCHMARK.json`` names, with the
  unit it names; the end-to-end metrics are never 0;
* the correctness gate counts a tampered part vector as a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np


def _run(root: str, workload: str, trace: int) -> tuple[int, dict | None]:
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=root)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out.stderr)
        return out.returncode, None


def tampered_part_is_caught() -> bool:
    """Move one nonzero of a valid fine-grain decomposition to a part none
    of its nets touches: the decoded decomposition then moves more words
    than the reported cutsize, and the gate must count it."""
    import repro
    from repro.core.finegrain import build_finegrain_model
    from repro.matrix.collection import load_collection_matrix

    from common import NO_LAYERS, Checks, check_decomposition

    a = load_collection_matrix("sherman3", 0.03, 3)
    res = repro.decompose(a, 4, method="finegrain", seed=3)
    checks = Checks()
    check_decomposition(checks, NO_LAYERS, "finegrain", res.cutsize,
                        res.imbalance, res.decomposition, "valid")
    model = build_finegrain_model(a, consistency=True)
    h = model.hypergraph
    part = np.array(res.part, copy=True)
    for v in range(model.nnz):
        nets = h.vnets[h.xnets[v]:h.xnets[v + 1]]
        touched = {int(part[p]) for n in nets for p in h.pins[h.xpins[n]:h.xpins[n + 1]]}
        free = sorted(set(range(4)) - touched)
        if free:
            part[v] = free[0]
            break
    tampered = repro.decomposition_from_finegrain(model, part, 4)
    check_decomposition(checks, NO_LAYERS, "finegrain", res.cutsize,
                        res.imbalance, tampered, "tampered")
    return checks.attempted == 2 and checks.failed == 1


def self_test(root: str) -> int:
    from run import WORKLOADS, load_spec

    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run(root, workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            metrics = result["metrics"]
            for entry in spec[key]:
                got = metrics.get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{where}: {entry['name']} missing or wrong unit")
                elif trace == 0 and not got["value"]:
                    problems.append(f"{where}: {entry['name']} is 0")
            if set(metrics) != {e["name"] for e in spec[key]}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            print(f"ok  {where}: {len(metrics)} metrics, "
                  f"{result['attempted']} checks")
    if tampered_part_is_caught():
        print("ok  tampered part vector counted as a failure")
    else:
        problems.append("tampered part vector was not counted as a failure")
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0
