"""Kernel-tier contract tests: bit-identity and the narrowed axis.

The ``kernel`` axis (``flat | python``) promises that the production
``flat`` tier produces partitions bit-identical to the ``python``
reference.  This suite pins that promise three ways: golden replay under
the flat tier (same bits as the pre-kernel recordings), a hypothesis
equivalence harness driving :class:`FlatGainBucket` against the
reference :class:`GainBucket`, and a scripted-move equivalence of
:class:`FlatMoveEngine` against ``FMCore.apply_move``.  It also checks
that every entry point rejects tier names outside ``flat``/``python``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_hypergraph
from tests.golden import check_golden
from repro._util import as_rng
from repro.core.api import decompose
from repro.matrix.collection import load_collection_matrix
from repro.partitioner import PartitionerConfig, partition_hypergraph
from repro.partitioner.config import ExecutionPolicy
from repro.partitioner.fm_flat import FlatGainBucket, FlatMoveEngine
from repro.partitioner.gainbucket import GainBucket
from repro.telemetry import TelemetryRecorder, use_recorder


# ----------------------------------------------------------------------
# golden replay across the kernel universe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["flat"])
@pytest.mark.parametrize("k", [2, 8])
def test_golden_hypergraph_partitions_per_kernel(kernel, k):
    """The flat tier replays the pre-kernel goldens bit for bit."""
    h = random_hypergraph(as_rng(1), 120, 90)
    cfg = PartitionerConfig(tree_parallel=False, kernel=kernel)
    res = partition_hypergraph(h, k, config=cfg, seed=0)
    check_golden(f"hg-120x90-s1-k{k}-seed0", res.part, res.cutsize)


@pytest.mark.parametrize("kernel", ["flat"])
def test_golden_matrix_decomposition_per_kernel(kernel):
    a = load_collection_matrix("sherman3", scale=0.25)
    cfg = PartitionerConfig(tree_parallel=False, kernel=kernel)
    res = decompose(a, 8, method="finegrain", config=cfg, seed=0)
    check_golden(f"sherman3-finegrain-k8-seed0", res.part, res.cutsize)


@pytest.mark.parametrize("kernel", ["flat"])
def test_tiers_match_python_on_fresh_instances(kernel):
    """Beyond the goldens: fresh random instances, python vs tier."""
    for hseed, seed, k in [(5, 3, 2), (9, 1, 4)]:
        h = random_hypergraph(as_rng(hseed), 180, 140, weighted=True)
        r_py = partition_hypergraph(
            h, k, config=PartitionerConfig(kernel="python"), seed=seed
        )
        r_kr = partition_hypergraph(
            h, k, config=PartitionerConfig(kernel=kernel), seed=seed
        )
        assert r_py.cutsize == r_kr.cutsize
        assert np.array_equal(r_py.part, r_kr.part)


# ----------------------------------------------------------------------
# FlatGainBucket == GainBucket under arbitrary op sequences
# ----------------------------------------------------------------------
N_VERTS = 24
MAX_GAIN = 6

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, N_VERTS - 1),
                  st.integers(-MAX_GAIN, MAX_GAIN)),
        st.tuples(st.just("remove"), st.integers(0, N_VERTS - 1)),
        st.tuples(st.just("adjust"), st.integers(0, N_VERTS - 1),
                  st.integers(-2, 2)),
        st.tuples(st.just("move_to"), st.integers(0, N_VERTS - 1),
                  st.integers(-MAX_GAIN, MAX_GAIN)),
        st.tuples(st.just("best"),),
        st.tuples(st.just("best_capped"), st.integers(0, 4)),
        st.tuples(st.just("pop_best"),),
        st.tuples(st.just("max_gain"),),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, wseed=st.integers(0, 2**16))
def test_flat_bucket_equals_reference_bucket(ops, wseed):
    """Same op sequence -> same observable behavior, including iteration
    order (best/pop_best results) and errors."""
    # gain adjustments can run past MAX_GAIN: size the range generously
    bound = MAX_GAIN + 2 * 60 + 1
    ref = GainBucket(N_VERTS, bound)
    flat = FlatGainBucket(N_VERTS, bound)
    w = as_rng(wseed).integers(1, 5, size=N_VERTS).tolist()
    w_arr = np.asarray(w, dtype=np.int64)
    for op in ops:
        name = op[0]
        if name == "insert":
            _, v, g = op
            err_ref = err_flat = None
            try:
                ref.insert(v, g)
            except ValueError as e:
                err_ref = str(e)
            try:
                flat.insert(v, g)
            except ValueError as e:
                err_flat = str(e)
            assert (err_ref is None) == (err_flat is None)
        elif name == "remove":
            _, v = op
            if ref.contains(v):
                ref.remove(v)
                flat.remove(v)
            else:
                with pytest.raises(ValueError):
                    ref.remove(v)
                with pytest.raises(ValueError):
                    flat.remove(v)
        elif name == "adjust":
            _, v, d = op
            if ref.contains(v):
                ref.adjust(v, d)
                flat.adjust(v, d)
        elif name == "move_to":
            _, v, g = op
            if ref.contains(v):
                ref.move_to(v, g)
                flat.move_to(v, g)
        elif name == "best":
            assert ref.best() == flat.best()
        elif name == "best_capped":
            _, cap = op
            assert ref.best_capped(w, cap) == flat.best_capped(w_arr, cap)
        elif name == "pop_best":
            assert ref.pop_best() == flat.pop_best()
        elif name == "max_gain":
            assert ref.max_gain() == flat.max_gain()
        assert len(ref) == len(flat)
        for v in range(N_VERTS):
            assert ref.contains(v) == flat.contains(v)


def test_flat_bucket_bulk_insert_order_matches_reference():
    rng = as_rng(0)
    vs = rng.permutation(N_VERTS)
    gains = rng.integers(-MAX_GAIN, MAX_GAIN + 1, size=N_VERTS)
    ref = GainBucket(N_VERTS, MAX_GAIN)
    flat = FlatGainBucket(N_VERTS, MAX_GAIN)
    ref.bulk_insert(vs, gains)
    flat.bulk_insert(vs, gains)
    # draining both must visit vertices in the identical order
    seq_ref = [ref.pop_best() for _ in range(N_VERTS)]
    seq_flat = [flat.pop_best() for _ in range(N_VERTS)]
    assert seq_ref == seq_flat


# ----------------------------------------------------------------------
# FlatMoveEngine == FMCore.apply_move on scripted move sequences
# ----------------------------------------------------------------------
def test_flat_move_engine_matches_reference_moves():
    from repro.partitioner.refine import FMCore

    h = random_hypergraph(as_rng(2), 80, 60, weighted=True)
    rng = as_rng(7)
    part0 = rng.integers(0, 2, size=h.num_vertices)
    vlist = rng.permutation(h.num_vertices)[:20].tolist()

    core = FMCore(h, part0)
    core.compute_all_gains()
    bound = core.max_gain_bound()
    rb0 = GainBucket(core.nv, bound)
    rb1 = GainBucket(core.nv, bound)
    core.buckets = (rb0, rb1)
    core.insert_on_touch = False
    gains = np.asarray(core.gain, dtype=np.int64)
    part = core.part_array()
    for b, idx in ((rb0, np.flatnonzero(part == 0)),
                   (rb1, np.flatnonzero(part == 1))):
        b.bulk_insert(idx, gains[idx])

    core_f = FMCore(h, part0)
    core_f.compute_all_gains()
    G = np.asarray(core_f.gain, dtype=np.int64)
    eng = FlatMoveEngine(core_f, G, boundary_mode=False)
    fb0 = FlatGainBucket(core_f.nv, bound, gains=G)
    fb1 = FlatGainBucket(core_f.nv, bound, gains=G)
    eng.buckets = (fb0, fb1)
    for b, idx in ((fb0, np.flatnonzero(eng.part == 0)),
                   (fb1, np.flatnonzero(eng.part == 1))):
        b.bulk_insert(idx, G[idx])

    for v in vlist:
        core.buckets[core.part[v]].remove(v)
        core.locked[v] = True
        core.apply_move(v)

        eng.buckets[int(eng.part[v])].remove(v)
        eng.lock(v)
        eng.apply_move(v)

        assert core.part == eng.part.tolist()
        assert core.gain == eng.G.tolist()
        assert core.W == eng.W
    # undo everything; the engines must converge back to the same state
    for v in reversed(vlist):
        core.undo_move(v)
        core.locked[v] = False
        eng.undo_move(v)
        assert core.part == eng.part.tolist()
    assert core.pc[0] == list(eng.pc0)
    assert core.pc[1] == list(eng.pc1)


# ----------------------------------------------------------------------
# the narrowed axis: flat (production) and python (reference) only
# ----------------------------------------------------------------------
def _kernel_matrix():
    import scipy.sparse as sp

    a = sp.random(
        120, 120, density=0.05,
        random_state=np.random.RandomState(4), format="csr",
    )
    a.data[:] = 1.0
    return a


@pytest.mark.parametrize("entry", ["policy", "decompose", "cli"])
@pytest.mark.parametrize("tier", ["jit", "auto"])
def test_removed_tiers_are_rejected(entry, tier, capsys):
    """``jit`` and ``auto`` are gone from every entry point, and the
    rejection names the two tiers that remain."""
    if entry == "policy":
        with pytest.raises(ValueError, match="flat.*python"):
            ExecutionPolicy(kernel=tier)
    elif entry == "decompose":
        with pytest.raises(ValueError, match="flat.*python"):
            decompose(_kernel_matrix(), 4, method="finegrain", kernel=tier)
    else:
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["partition", "collection:sherman3@0.05", "-k", "4",
                  "--kernel", tier])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "flat" in err and "python" in err


def test_resolve_kernel_unknown_raises():
    with pytest.raises(ValueError, match="unknown kernel"):
        ExecutionPolicy(kernel="cuda")


def test_repro_kernel_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "python")
    assert ExecutionPolicy().kernel == "python"
    monkeypatch.delenv("REPRO_KERNEL")
    assert ExecutionPolicy().kernel == "flat"


def test_decompose_kernel_kwarg_routes():
    a = _kernel_matrix()
    base = decompose(a, 4, method="finegrain", seed=2)
    for kernel in ("python", "flat"):
        r = decompose(a, 4, method="finegrain", seed=2, kernel=kernel)
        assert r.cutsize == base.cutsize
        assert np.array_equal(r.part, base.part)


def _walk(spans):
    for s in spans:
        yield s
        yield from _walk(s.children)


def test_refine_span_records_resolved_kernel():
    h = random_hypergraph(as_rng(4), 60, 50)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        partition_hypergraph(
            h, 2, config=PartitionerConfig(kernel="flat"), seed=0
        )
    fm = [s for s in _walk(rec.roots) if s.name == "refine.fm"]
    assert fm and all(s.attrs.get("kernel") == "flat" for s in fm)


def test_engine_span_records_resolved_kernel():
    from repro.partitioner import partition_multistart

    h = random_hypergraph(as_rng(4), 60, 50)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        partition_multistart(
            h, 2,
            config=PartitionerConfig(n_starts=2, kernel="flat"),
            seed=0,
        )
    engine = [s for s in _walk(rec.roots) if s.name == "engine"]
    assert engine and engine[0].attrs.get("kernel") == "flat"
