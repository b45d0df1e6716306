"""``serve-mixed`` workload: a closed loop of two client connections
against one ``repro serve`` daemon.

The daemon runs one engine worker with the request journal, the disk
cache and a 1 MiB memory tier (the smallest budget the command line
takes) on.  Every matrix is shipped inline.  The traffic is an assumption
of this benchmark, not a recorded trace (METRICS.md states it):

* writes: in every pass the writer connection sends the sherman3 stencil
  surrogate with each of the graph, column-net and fine-grain models
  under a partitioning seed no earlier pass used: three fresh
  fingerprints, each a journal append, a compute, a cache put and a
  tombstone;
* memory reads: meanwhile the reader connection repeats each of the six
  requests of the two previous passes eight times.  They are the newest
  entries of the memory tier and are served from it;
* disk reads: the reader also sends the next six of a fixed cycle of
  large results (graph model of the full-size sherman3 surrogate at
  K = 2 under distinct seeds) computed while setting up.  The cycle holds
  more bytes than the memory tier, so under LRU every one of them has
  been evicted by the time it comes round again and is read from disk.

Each connection sends its next request only when the previous one is
answered.  A per-model time is the median over passes of the latency of
that model's fresh request: a compute, not a mix of a compute and
however many hits a pass happened to draw.

Every response must be byte-identical to a local ``repro.decompose()`` of
the same request; that check runs after the window.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import repro
from repro.serve.client import Client
from repro.serve.protocol import canonical_result_bytes, result_doc

from common import (
    METHODS,
    NO_LAYERS,
    Checks,
    Layers,
    check_decomposition,
    decompose_layers,
    median,
    part_hash,
    percentile,
    tail,
)
from table2 import generate, warm_up

#: fresh: the surrogate of the writes (scale, K); hot_repeats: reads of
#: each request of the two previous passes; cold: the surrogate, K and
#: model of the disk reads, cold_entries of them, cold_reads per pass;
#: volume_passes: the passes whose fresh volumes are summed
FULL = {"fresh": ("sherman3", 0.05), "k": 4, "hot_repeats": 8,
        "cold": ("sherman3", 1.0), "cold_k": 2, "cold_method": "graph",
        "cold_entries": 36, "cold_reads": 6, "volume_passes": 16}
TINY = {"fresh": ("sherman3", 0.02), "k": 4, "hot_repeats": 1,
        "cold": ("sherman3", 0.05), "cold_k": 2, "cold_method": "graph",
        "cold_entries": 3, "cold_reads": 1, "volume_passes": 2}
CLIENTS = 2
#: the surrogates are the same in every run; the workload seed picks the
#: partitioning seeds and the order of the reads
MATRIX_SEED = 0
ENGINE_WORKERS = 1
CACHE_MEM_MB = 1
BOOT_TIMEOUT_S = 60.0
#: the two warm-up passes that precede the measured ones, so the first
#: measured pass has two previous passes to repeat
FIRST_PASS = 2
#: seed entropy of the disk-read cycle, past that of any pass
COLD_SEED_BASE = 1 << 20


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral localhost port, with
    its cache, journal and optional trace inside *state_dir*."""

    def __init__(self, root: str, state_dir: str, traced: bool) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self.journal = os.path.join(state_dir, "journal.ndjson")
        self.trace = os.path.join(state_dir, "trace.ndjson") if traced else None
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(ENGINE_WORKERS),
            "--cache-mem-mb", str(CACHE_MEM_MB),
            "--cache-dir", os.path.join(state_dir, "cache"),
            "--journal", self.journal,
            "--allow-shutdown",
        ]
        if self.trace:
            argv += ["--trace", self.trace]
        self._log = open(os.path.join(state_dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=root,
        )
        self.address = self._ready_address()

    def _ready_address(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "tcp=" not in line:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self._log.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        return line.split("tcp=", 1)[1].split()[0]

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it cannot be asked or
        does not exit."""
        if self.proc.poll() is None:
            try:
                with Client(self.address, timeout=10) as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, ConnectionError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


class ServeMixed:
    workers = ENGINE_WORKERS

    def __init__(self, seed: int, tiny: bool, layers: Layers, root: str,
                 traced: bool = False) -> None:
        self.seed = seed
        self.size = TINY if tiny else FULL
        self.layers = layers
        self.state_dir = os.path.join(root, ".perfbench_run", f"serve-{os.getpid()}")
        #: where the disk-read cycle stands
        self.cursor = 0
        self.daemon = None
        self.executor = None
        with layers.active(), layers.span("bench"):
            (_, self.fresh_a), (_, self.cold_a) = generate(
                layers, (self.size["fresh"], self.size["cold"]), MATRIX_SEED
            )
        # warm-up: the local verification path, then the daemon
        warm_up([("fresh", self.fresh_a)])
        self.daemon = Daemon(root, self.state_dir, traced)
        try:
            self.clients = [Client(self.daemon.address, timeout=120)
                            for _ in range(CLIENTS)]
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while self.clients[0].health().get("state") != "ready":
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never reported ready")
                time.sleep(0.05)
            self.executor = ThreadPoolExecutor(max_workers=CLIENTS)
            # the disk-read cycle first: the warm-up passes after it are
            # then the newest entries of the memory tier
            keys = [("cold", i, self.size["cold_method"])
                    for i in range(self.size["cold_entries"])]
            keys += [key for p in range(FIRST_PASS) for key in self._fresh(p)]
            #: the requests served before the measured passes
            self.warm_up = {"responses": [
                self._send(self.clients[0], key) for key in keys
            ]}
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)
        for c in getattr(self, "clients", []):
            c.close()
        if self.daemon is not None:
            self.daemon.stop()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _fresh(p: int) -> list:
        """The fresh requests of pass *p*: every model, under a
        partitioning seed no earlier pass used."""
        return [("fresh", p, method) for method in METHODS]

    def request(self, key) -> tuple:
        """``(matrix, K, partitioning seed)`` of a request key."""
        kind, n, _ = key
        if kind == "fresh":
            a, k, entropy = self.fresh_a, self.size["k"], n
        else:
            a, k, entropy = self.cold_a, self.size["cold_k"], COLD_SEED_BASE + n
        seed = int(np.random.SeedSequence([self.seed, entropy]).generate_state(1)[0])
        return a, k, seed

    def _send(self, client: Client, key) -> dict:
        a, k, seed = self.request(key)
        t0 = time.perf_counter()
        r = client.decompose(a, k=k, method=key[2], seed=seed)
        latency = time.perf_counter() - t0
        return {"key": key, "latency": latency, "tier": r.served.get("cache", ""),
                "digest": result_digest(r.raw)}

    def _loop(self, client: Client, keys: list, layers: Layers) -> list:
        out = []
        for key in keys:
            with layers.span("serve.request", method=key[2]):
                out.append(self._send(client, key))
        return out

    def _pass(self, p: int, layers: Layers = NO_LAYERS) -> dict:
        """One pass: the writer connection sends the fresh requests while
        the reader connection sends the memory and disk reads."""
        fresh = self._fresh(p)
        rng = np.random.default_rng([self.seed, p])
        writes = [fresh[i] for i in rng.permutation(len(fresh))]
        hot = (self._fresh(p - 1) + self._fresh(p - 2)) * self.size["hot_repeats"]
        n = self.size["cold_entries"]
        cold = [("cold", (self.cursor + i) % n, self.size["cold_method"])
                for i in range(self.size["cold_reads"])]
        self.cursor = (self.cursor + len(cold)) % n
        reads = hot + cold
        reads = [reads[i] for i in rng.permutation(len(reads))]
        t0 = time.perf_counter()
        futures = [
            self.executor.submit(self._loop, c, keys, layers)
            for c, keys in zip(self.clients, (writes, reads))
        ]
        responses = [r for f in futures for r in f.result()]
        wall = time.perf_counter() - t0
        times = {r["key"][2]: r["latency"] for r in responses
                 if r["key"][:2] == ("fresh", p)}
        return {"p": p, "wall": wall, "times": times, "responses": responses}

    def _run_passes(self, seconds: float, traced: bool) -> tuple[list, list]:
        """Passes until the window is over and the volume passes are done.
        With *traced*, every other pass records client-side spans and each
        pass keeps the daemon's journal state after it."""
        untraced, traced_passes = [], []
        t0 = time.perf_counter()
        p = FIRST_PASS
        while (p < FIRST_PASS + self.size["volume_passes"]
               or time.perf_counter() - t0 < seconds
               or (traced and not traced_passes)):
            # client-side request spans: what the overhead compares
            spans = traced and p % 2 == 0
            q = self._pass(p, Layers(traced=True) if spans else NO_LAYERS)
            if traced:
                q["after"] = self._state()
            (traced_passes if spans else untraced).append(q)
            p += 1
        return untraced, traced_passes

    def _state(self) -> dict:
        """The daemon's journal counters and journal file size."""
        journal = self.clients[0].stats()["journal"]
        return {"appends": journal["appends"], "compactions": journal["compactions"],
                "size": os.path.getsize(self.daemon.journal)}

    def _verify(self, checks: Checks, passes: list, chain: set,
                layers: Layers) -> tuple[dict, int]:
        """Every response against a local ``decompose()`` of the same
        request; the requests in *chain* also through the layer chain
        under *layers*.  Returns the volume per request and the pins of
        the hypergraph models the chain built."""
        expected, volume = {}, {}
        pins = 0
        passes = [self.warm_up] + passes
        for key in sorted({r["key"] for p in passes for r in p["responses"]}):
            (a, k, seed), method = self.request(key), key[2]
            res = repro.decompose(a, k, method=method, seed=seed)
            expected[key] = result_digest(result_doc(res))
            volume[key] = check_decomposition(
                checks, NO_LAYERS, method, res.cutsize, res.imbalance,
                res.decomposition, f"request {key}",
            )
            if key in chain:
                with layers.active(), layers.span("bench"):
                    out = decompose_layers(layers, a, k, method, seed)
                    check_decomposition(
                        checks, layers, method, out["cutsize"], out["imbalance"],
                        out["decomposition"], f"request {key}",
                    )
                pins += out["pins"]
                checks.expect(
                    part_hash(out["part"]) == part_hash(res.part),
                    f"request {key}: layer chain differs from decompose()",
                )
        for p in passes:
            for r in p["responses"]:
                checks.expect(
                    r["digest"] == expected[r["key"]],
                    f"request {r['key']}: served bytes differ from decompose()",
                )
        return volume, pins

    def measure(self, seconds: float, checks: Checks) -> dict:
        passes, _ = self._run_passes(seconds, traced=False)
        stats = self.clients[0].stats()
        volume, _ = self._verify(checks, passes, set(), NO_LAYERS)
        # the fresh requests of the first passes: the same set for a seed
        # however many passes the window holds
        totals = dict.fromkeys(METHODS, 0)
        for (kind, p, method), words in volume.items():
            if kind == "fresh" and FIRST_PASS <= p < FIRST_PASS + self.size["volume_passes"]:
                totals[method] += words
        times = {m: median([p["times"][m] for p in passes]) for m in METHODS}
        return {
            "metrics": {
                "finegrain_s": times["finegrain"],
                "columnnet_s": times["columnnet"],
                "graph_s": times["graph"],
                "finegrain_time_ratio": times["finegrain"] / times["graph"],
                "finegrain_volume": totals["finegrain"],
                "columnnet_volume": totals["columnnet"],
                "graph_volume": totals["graph"],
                "ops_per_s": median([len(p["responses"]) / p["wall"] for p in passes]),
            },
            "detail": {"passes": len(passes), **latency_detail(passes),
                       "cache": stats["cache"], "counters": stats["counters"]},
        }

    def measure_traced(self, seconds: float, checks: Checks) -> dict:
        ping = []
        for _ in range(20):
            t0 = time.perf_counter()
            self.clients[0].ping()
            ping.append(time.perf_counter() - t0)
        before = self.clients[0].stats()["cache"]
        untraced, traced = self._run_passes(seconds, traced=True)
        cache = self.clients[0].stats()["cache"]
        first = traced[0]
        chain_keys = {r["key"] for r in first["responses"] if r["key"][:2] == ("fresh", first["p"])}
        chain = Layers(traced=True)
        _, pins = self._verify(checks, untraced + traced, chain_keys, chain)
        served = daemon_served(self.daemon.trace)[len(self.warm_up["responses"]):]
        misses = [s for s in served if s["cache"] == "computed"]
        compute = [s["compute_ms"] / 1e3 for s in misses]
        miss_total = sum(s["total_ms"] for s in misses) / 1e3
        passes = sorted(untraced + traced, key=lambda q: q["p"])
        walls = [q["wall"] for q in passes]
        hit_ms = [r["latency"] for q in untraced for r in q["responses"]
                  if r["tier"].startswith("hit")]
        # journal bytes per append over the passes with no compaction in
        # them: compaction rewrites the file
        grown = appended = 0
        for prev, q in zip(passes, passes[1:]):
            a, b = prev["after"], q["after"]
            if b["compactions"] == a["compactions"]:
                grown += b["size"] - a["size"]
                appended += b["appends"] - a["appends"]
        window = {key: cache[key] - before[key]
                  for key in ("mem_hits", "disk_hits", "misses", "disk_entries",
                              "disk_bytes_used")}
        hits = window["mem_hits"] + window["disk_hits"]
        return {
            "traces": [self.layers, chain],
            "layers": {
                "models.pins": pins,
                "partitioner.start_s": median(compute),
                "partitioner.pool.busy_ratio": sum(compute) / (ENGINE_WORKERS * sum(walls)),
                "partitioner.pool.idle_s": (ENGINE_WORKERS * sum(walls) - sum(compute)) / len(walls),
                "serve.compute_share": sum(compute) / miss_total,
                "serve.queue_wait_share": sum(s["queue_wait_ms"] for s in misses) / 1e3 / miss_total,
                "serve.ping_share": median(ping) / median(hit_ms),
                "serve.cache.hit_ratio": hits / (hits + window["misses"]),
                "serve.cache.disk_hit_share": window["disk_hits"] / hits,
                "serve.cache.bytes_per_entry": (
                    window["disk_bytes_used"] / window["disk_entries"]
                ),
                "serve.journal.appends_per_write": (
                    (passes[-1]["after"]["appends"] - passes[0]["after"]["appends"])
                    / sum(len(q["times"]) for q in passes[1:])
                ),
                "serve.journal.bytes_per_append": grown / appended,
                "telemetry.overhead": (
                    median([q["wall"] for q in traced]) / median([q["wall"] for q in untraced])
                ),
            },
            "detail": {"passes": len(passes), **latency_detail(untraced)},
        }


def result_digest(doc: dict) -> bytes:
    """SHA-256 of a result's canonical bytes: what the byte-identity check
    compares, without holding every response of a run in memory (which
    would make the peak RSS grow with the passes a run fits)."""
    return hashlib.sha256(canonical_result_bytes(doc)).digest()


def daemon_served(trace_path: str) -> list:
    """``served`` timings of every request, in the order the daemon's
    trace lines record them."""
    with open(trace_path) as fh:
        lines = [json.loads(line) for line in fh]
    return [rec["served"] for rec in lines if rec.get("type") == "request"]


def latency_detail(passes: list) -> dict:
    """Latency medians by how the daemon served the request (memory hit,
    disk hit, computed) and the request latency tail, in ms."""
    by_tier: dict = {}
    every = []
    for p in passes:
        for r in p["responses"]:
            ms = r["latency"] * 1e3
            every.append(ms)
            by_tier.setdefault(r["tier"], []).append(ms)
    value, pct, n = tail(every)
    out = {f"{tier}_p50_ms".replace("-", "_"): percentile(sorted(ms), 0.5)
           for tier, ms in sorted(by_tier.items())}
    out.update({f"{tier}_requests".replace("-", "_"): len(ms)
                for tier, ms in by_tier.items()})
    out.update({"tail_ms": value, "tail_percentile": pct, "requests": n})
    return out
