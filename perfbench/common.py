"""Shared pieces of the benchmark: correctness checks, the layer-span
recorder, the decompose() call chain taken layer by layer, per-layer
attribution of a trace, and the host description.

Everything here drives the program through its public entry points only
(``repro.decompose``, the model builders, ``partition_multistart``,
``partition_graph``, the ``decomposition_from_*`` decoders and
``communication_stats``).  Spans are opened by the benchmark around each
call into a layer; the V-cycle phase spans and counters inside those calls
are the ones the program already emits when a ``repro.telemetry``
recorder is active.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import repro
from repro.core.finegrain import build_finegrain_model
from repro.models import build_columnnet_model, build_standard_graph_model
from repro.telemetry import TelemetryRecorder, scoped_recorder

METHODS = ("graph", "columnnet", "finegrain")
#: balance tolerance of every decomposition the benchmark requests (the
#: PartitionerConfig default, which the daemon uses too)
EPSILON = repro.PartitionerConfig().epsilon


def part_hash(part) -> str:
    return hashlib.sha256(np.asarray(part, dtype=np.int64).tobytes()).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return float(sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))])


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)``; the maximum when there are ten or
    fewer samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    p = (n - 10) / n
    return percentile(ordered, p), 100.0 * p, n


class Checks:
    """Counts operations attempted and failed; every failed check names
    what it was."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def check_decomposition(checks: Checks, layers: "Layers", method: str,
                        cutsize: int, imbalance: float, dec,
                        label: str) -> int:
    """The correctness gate of one decomposition: imbalance within the
    balance tolerance and, on the hypergraph models, cutsize (Eq. 3) equal
    to the words the decomposition moves.  Returns the decomposition's
    communication volume in words."""
    with layers.span("spmv.stats"):
        stats = repro.communication_stats(dec)
    ok = imbalance <= EPSILON + 1e-9
    if method != "graph":
        ok = ok and stats.total_volume == cutsize
    checks.expect(
        ok,
        f"{label}: cutsize={cutsize} volume={stats.total_volume} "
        f"imbalance={imbalance:.4f}",
    )
    return stats.total_volume


class Layers:
    """Benchmark-side spans around each call into a layer.

    Without a recorder (``--trace 0``) every span is a no-op and nothing
    in the program records either; with one, the recorder is installed
    for the calling context so the program's own phase spans nest under
    the benchmark's layer spans.
    """

    def __init__(self, traced: bool) -> None:
        self.rec = TelemetryRecorder() if traced else None
        #: seconds spent inside :meth:`active`, by the benchmark's own clock
        self.wall = 0.0

    def span(self, name: str, **attrs):
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.span(name, **attrs)

    @contextlib.contextmanager
    def active(self):
        if self.rec is None:
            yield
            return
        t0 = time.perf_counter()
        try:
            with scoped_recorder(self.rec):
                yield
        finally:
            self.wall += time.perf_counter() - t0


NO_LAYERS = Layers(traced=False)


def decompose_layers(layers: Layers, a, k: int, method: str, seed: int,
                     config=None) -> dict:
    """``repro.decompose(a, k, method, seed=seed)`` taken apart into its
    layer calls (model build, partition, decode), each under its own span.

    Returns the part vector (bit-identical to ``decompose()``'s for the
    same arguments), the decomposition, cutsize, imbalance, the pins of
    the hypergraph model (0 for the graph model), the seconds spent
    partitioning and the multi-start engine's per-start statistics.
    """
    cfg = config or repro.PartitionerConfig()
    rng = np.random.default_rng(seed)
    with layers.span(f"models.{method}.build"):
        if method == "finegrain":
            model = build_finegrain_model(a, consistency=True)
        elif method == "columnnet":
            model = build_columnnet_model(a, consistency=True)
        else:
            model = build_standard_graph_model(a)
    t0 = time.perf_counter()
    if method == "graph":
        with layers.span("graph.partition"):
            res = repro.partition_graph(model.graph, k, config=cfg, seed=rng)
        cutsize = res.edge_cut
    else:
        with layers.span("partitioner"):
            res = repro.partition_multistart(model.hypergraph, k, config=cfg, seed=rng)
        cutsize = res.cutsize
    partition_s = time.perf_counter() - t0
    with layers.span("core.decode"):
        if method == "finegrain":
            dec = repro.decomposition_from_finegrain(model, res.part, k)
        else:
            dec = repro.decomposition_from_row_partition(a, res.part, k)
    return {
        "part": res.part,
        "decomposition": dec,
        "cutsize": int(cutsize),
        "imbalance": float(res.imbalance),
        "pins": model.hypergraph.num_pins if method != "graph" else 0,
        "partition_s": partition_s,
        "start_stats": list(getattr(res, "start_stats", [])),
    }


# ----------------------------------------------------------------------
# per-layer attribution of a recorded trace
# ----------------------------------------------------------------------

#: span name -> per-layer metric its self time is charged to; names not
#: listed are charged to ``trace.other_s``
_SELF_TIME_LAYER = {
    "matrix.generate": "matrix.generate_s",
    "models.finegrain.build": "models.finegrain.build_s",
    "models.columnnet.build": "models.columnnet.build_s",
    "models.graph.build": "models.graph.build_s",
    "coarsen.match": "partitioner.coarsen.match_s",
    "coarsen.build": "partitioner.coarsen.build_s",
    "initial": "partitioner.initial_s",
    "initial.exact": "partitioner.initial_s",
    "refine.fm": "partitioner.refine.fm_s",
    "graph.partition": "graph.partition_s",
    "graph.partition.run": "graph.partition_s",
    "core.decode": "core.decode_s",
    "spmv.stats": "spmv.stats_s",
    "spmv.stats.expand": "spmv.stats_s",
    "spmv.stats.fold": "spmv.stats_s",
}
#: the partitioner around the named phases: bisection tree, level loops,
#: V-cycles, K-way sweeps, the engine, and the wait on worker processes
#: (whose own spans are not shipped back)
for _name in ("partitioner", "partition", "partition.run", "bisection",
              "coarsen", "coarsen.level", "uncoarsen", "uncoarsen.level",
              "vcycle", "kway", "kway.sweep", "kway.pairwise", "engine",
              "engine.start"):
    _SELF_TIME_LAYER[_name] = "partitioner.other_s"

LAYER_TIMES = sorted(set(_SELF_TIME_LAYER.values()))

#: per-layer count -> the program counters it sums
_COUNTERS = {
    "partitioner.coarsen.pins_visited": ("coarsen.pins_visited",),
    "partitioner.fm.moves": ("fm.moves",),
    "partitioner.fm.rollbacks": ("fm.rollbacks",),
    "partitioner.arena.bytes": ("arena.bytes",),
    "spmv.volume_words": ("spmv.expand.words", "spmv.fold.words"),
    "spmv.msgs": ("spmv.expand.msgs", "spmv.fold.msgs"),
}


def trace_layers(layers: Layers) -> dict:
    """Per-layer self times and counters of everything *layers* recorded.

    Every traced region sits under a root span, so the self times add up
    to the traced wall time; the self time of the root spans and of any
    span no layer claims is ``trace.other_s``.
    """
    out = dict.fromkeys(LAYER_TIMES + ["trace.other_s"], 0.0)
    for name, seconds in layers.rec.durations_by_name(self_time=True).items():
        out[_SELF_TIME_LAYER.get(name, "trace.other_s")] += seconds
    counters = layers.rec.counter_totals()
    for metric, sources in _COUNTERS.items():
        out[metric] = int(sum(counters.get(src, 0) for src in sources))
    return out


def finish_fm(out: dict) -> None:
    """FM moves kept over moves tried."""
    moves = out.get("partitioner.fm.moves", 0)
    tried = moves + out.get("partitioner.fm.rollbacks", 0)
    out["partitioner.fm.keep_ratio"] = moves / tried if tried else 0.0


def traced_wall(layers: Layers) -> float:
    """Seconds the recorder's root spans cover."""
    return sum(root.duration for root in layers.rec.roots)


# ----------------------------------------------------------------------
# host description
# ----------------------------------------------------------------------

def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout carries no version-control metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def host_block(root: str, seed: int, workers: int) -> dict:
    cores = usable_cores()
    return {
        "usable_cores": cores,
        "workers": workers,
        "oversubscribed": workers > cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it reaped
    (pool workers, the daemon), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1.0 / (1024 * 1024) if sys.platform == "darwin" else 1.0 / 1024
    return max(own, kids) * scale
