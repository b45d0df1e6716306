"""The two-worker part of the ``table2`` workload.

Every pass runs ``repro.decompose()`` of the finan512 surrogate with the
fine-grain model twice on the process backend with two workers: once as a
multi-start run, once with tree-parallel recursion.  After the window both
configurations run once more with one worker; their part vectors must be
bit-identical to the two-worker ones.  These are the only decompositions
of the benchmark that use the process pool, the shm transport, the seed
tree and worker scheduling.
"""

from __future__ import annotations

import time

import repro

from common import NO_LAYERS, Checks, Layers, check_decomposition, decompose_layers, part_hash

WORKERS = 2
#: the configurations, in the order a pass runs them
KINDS = ("multistart", "tree")


class TwoWorker:
    def __init__(self, name: str, a, k: int, starts: int, seed: int) -> None:
        self.name, self.a, self.k, self.starts, self.seed = name, a, k, starts, seed
        # the first process pool of a run pays the workers' imports
        repro.decompose(a, 4, seed=0, config=self.config("multistart", WORKERS))

    def config(self, kind: str, workers: int) -> repro.PartitionerConfig:
        cfg = repro.PartitionerConfig(start_backend="process", n_workers=workers)
        if kind == "multistart":
            return cfg.with_(n_starts=self.starts)
        return cfg.with_(tree_parallel=True)

    def label(self, kind: str) -> str:
        return f"{self.name} K={self.k} finegrain {kind} {WORKERS}w"

    def decompose(self, layers: Layers, kind: str, workers: int = WORKERS) -> dict:
        """``decompose()`` untraced, or its layer chain when traced."""
        cfg = self.config(kind, workers)
        if layers.rec is not None:
            return decompose_layers(layers, self.a, self.k, "finegrain", self.seed,
                                    config=cfg)
        res = repro.decompose(self.a, self.k, method="finegrain", seed=self.seed,
                              config=cfg)
        return {
            "part": res.part,
            "decomposition": res.decomposition,
            "cutsize": res.cutsize,
            "imbalance": res.imbalance,
            "start_stats": res.start_stats,
        }

    def run(self, checks: Checks, reference: dict, kind: str,
            layers: Layers = NO_LAYERS) -> tuple[float, dict, int]:
        """One two-worker decomposition, checked: its seconds, its output
        and its volume.  Its part vector must equal the first one of the
        same configuration in this run."""
        label = self.label(kind)
        t0 = time.perf_counter()
        out = self.decompose(layers, kind)
        elapsed = time.perf_counter() - t0
        words = check_decomposition(
            checks, layers, "finegrain", out["cutsize"], out["imbalance"],
            out["decomposition"], label,
        )
        digest = part_hash(out["part"])
        checks.expect(reference.setdefault(label, digest) == digest,
                      f"{label}: part differs between passes")
        return elapsed, out, words

    def one_worker(self, checks: Checks, reference: dict) -> dict:
        """Both configurations on one worker: the bit-identity reference,
        and the base of the speed-ups."""
        times = {}
        for kind in KINDS:
            t0 = time.perf_counter()
            out = self.decompose(NO_LAYERS, kind, workers=1)
            times[kind] = time.perf_counter() - t0
            checks.expect(
                reference.get(self.label(kind)) == part_hash(out["part"]),
                f"{self.label(kind)}: {WORKERS} workers differ from 1 worker",
            )
        return times
