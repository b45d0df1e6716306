"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from ``--seed``; passes repeat for ``--seconds``; every output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of ``BENCHMARK.json``, measured with tracing off;
with ``--trace 1`` its per-layer metrics, from a run that turns the
``repro.telemetry`` recorder on.  The line before it describes the host
and the run.  The exit code is 0 only when every check passed.

``--self-test`` runs every workload at a tiny size in both modes and
checks the benchmark itself (see ``selftest.py``).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (used by the self-test)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print the set-up seconds, exit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def adopt_descendants() -> None:
    """Make this process the reaper of every descendant orphaned while it
    runs (Linux ``PR_SET_CHILD_SUBREAPER``), so that ``end_descendants``
    can wait for them all.  Elsewhere a no-op."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _children() -> list:
    """Pids whose parent is this process (zombies included)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def end_descendants(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Creating shared memory starts ``multiprocessing``'s resource tracker,
    which otherwise outlives the interpreter by a moment; it is stopped
    here.  Anything else still running after *grace_s* is killed.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
        time.sleep(0.01)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def make_workload(args, layers):
    if args.workload == "table2":
        from table2 import Table2
        return Table2(args.seed, args.tiny, layers)
    from serve_mixed import ServeMixed
    return ServeMixed(args.seed, args.tiny, layers, ROOT, traced=bool(args.trace))


def setup_probe(args) -> float:
    """Set-up seconds of a fresh interpreter (imports included)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                         check=True, cwd=ROOT)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(result: dict, setup_s: float) -> dict:
    from common import peak_rss_mb

    m = result["metrics"]
    return {
        "setup_s": setup_s,
        "finegrain_s": m["finegrain_s"],
        "columnnet_s": m["columnnet_s"],
        "graph_s": m["graph_s"],
        "finegrain_time_ratio": m["finegrain_time_ratio"],
        "finegrain_volume": m["finegrain_volume"],
        "columnnet_volume": m["columnnet_volume"],
        "graph_volume": m["graph_volume"],
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": m["ops_per_s"],
    }


def per_layer(result: dict, checks) -> dict:
    from common import finish_fm, trace_layers, traced_wall

    out: dict = {}
    recorded = wall = 0.0
    for layers in result["traces"]:
        recorded += traced_wall(layers)
        wall += layers.wall
        for name, value in trace_layers(layers).items():
            out[name] = out.get(name, 0) + value
    # the layer self times partition the root spans; the root spans must
    # cover the traced regions as the benchmark's own clock timed them
    checks.expect(abs(recorded - wall) <= 0.01 * wall + 1e-3,
                  f"root spans cover {recorded:.6f}s of {wall:.6f}s traced")
    out.update(result["layers"])
    finish_fm(out)
    out["failed_ratio"] = checks.failed / max(checks.attempted, 1)
    return out


def emit(spec_metrics: list, values: dict, checks, report: dict) -> int:
    """Print the report line and the result line; the exit code."""
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        metrics[name] = {"value": values.get(name, 0), "unit": entry["unit"]}
    extra = sorted(set(values) - set(metrics))
    if extra:
        checks.expect(False, f"metrics missing from BENCHMARK.json: {extra}")
    report["failures"] = checks.messages
    print(json.dumps(report, default=str))
    ok = checks.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program sources under src/repro", file=sys.stderr)
        return 2
    # the program reads execution defaults from REPRO_* variables; the
    # benchmark measures the defaults
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.self_test:
        from selftest import self_test
        return self_test(ROOT)

    from common import Checks, Layers, host_block, median

    spec = load_spec()
    layers = Layers(traced=bool(args.trace))
    workload = make_workload(args, layers)
    setup_main = time.perf_counter() - T_START
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_main}))
        return 0
    checks = Checks()
    try:
        if args.trace:
            result = workload.measure_traced(args.seconds, checks)
        else:
            result = workload.measure(args.seconds, checks)
    finally:
        workload.close()
    host = host_block(ROOT, args.seed, workload.workers)
    detail = result["detail"]
    if host["oversubscribed"]:
        # more workers than cores: wall times measure contention
        detail = {k: v for k, v in detail.items() if not k.endswith("_s")}
        detail["note"] = "workers exceed usable cores; parallel timings omitted"
    report = {"workload": args.workload, "trace": args.trace, "host": host,
              "detail": detail}
    if args.trace:
        values = per_layer(result, checks)
        return emit(spec["per_layer"], values, checks, report)
    setup = [setup_main] + [setup_probe(args) for _ in range(2)]
    report["setup_samples_s"] = setup
    m = result["metrics"]
    # the paper's section 4 volume improvements, in percent
    report["volume_gain_vs_1d"] = 100 * (1 - m["finegrain_volume"] / m["columnnet_volume"])
    report["volume_gain_vs_graph"] = 100 * (1 - m["finegrain_volume"] / m["graph_volume"])
    values = end_to_end(result, median(setup))
    return emit(spec["end_to_end"], values, checks, report)


if __name__ == "__main__":
    adopt_descendants()
    code = 1
    try:
        code = main()
    except Exception:  # report, never print a result line
        traceback.print_exc()
    finally:
        end_descendants()
    sys.exit(code)
