"""Phase-kernel parity: flat build_coarse / matching / GHG / K-way == reference.

The kernel axis originally covered the FM inner loop only; it now spans
every V-cycle phase.  Each flat phase kernel promises bit-identical
output to its pure-python reference.  This suite pins that promise with
direct A/B parity (size gates monkeypatched to force the flat paths on
test-sized inputs), hypothesis harnesses over random instances, unit
tests of the tier-race dispatcher, and the :class:`LevelArena` usage
contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_hypergraph
from repro._util import as_rng
from repro.partitioner import PartitionerConfig
from repro.partitioner import coarsen as C
from repro.partitioner import initial as I
from repro.partitioner import kway as KW
from repro.partitioner import kernels as K
from repro.partitioner.arena import LevelArena, current_arena, scratch, use_arena
from repro.telemetry import TelemetryRecorder, use_recorder


def _assert_same_hypergraph(a, b):
    assert a.num_vertices == b.num_vertices
    assert np.array_equal(a.xpins, b.xpins)
    assert np.array_equal(a.pins, b.pins)
    assert np.array_equal(a.vertex_weights, b.vertex_weights)
    assert np.array_equal(a.net_costs, b.net_costs)


def _random_cmap(rng, nv: int, n_clusters_hint: int):
    """A surjective cluster map with consecutive ids."""
    raw = rng.integers(0, max(n_clusters_hint, 1), size=nv)
    _, cmap = np.unique(raw, return_inverse=True)
    return cmap.astype(np.int64), int(cmap.max()) + 1 if nv else 0


# ----------------------------------------------------------------------
# build_coarse: flat == reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("vector_merge", [False, True])
def test_build_coarse_flat_matches_reference(monkeypatch, vector_merge):
    """Both flat sub-paths (scalar dict dedup and vectorized merge)
    contract to the same hypergraph as the per-net reference loop."""
    monkeypatch.setattr(C, "_BUILD_FLAT_MIN_PINS", 0)
    if vector_merge:
        monkeypatch.setattr(C, "_VECTOR_MIN_PINS_BUILD", 0)
    for hseed in (0, 3, 8):
        rng = as_rng(hseed)
        h = random_hypergraph(rng, 90, 120, weighted=True)
        cmap, nc = _random_cmap(rng, h.num_vertices, 30)
        ref = C.build_coarse(h, cmap, nc, kernel="python")
        flat = C.build_coarse(h, cmap, nc, kernel="flat")
        _assert_same_hypergraph(ref, flat)


@settings(max_examples=40, deadline=None)
@given(hseed=st.integers(0, 2**16), cseed=st.integers(0, 2**16),
       nc=st.integers(1, 40))
def test_build_coarse_flat_matches_reference_hypothesis(hseed, cseed, nc):
    h = random_hypergraph(as_rng(hseed), 50, 60, weighted=True)
    cmap, n_clusters = _random_cmap(as_rng(cseed), h.num_vertices, nc)
    ref = C._build_coarse(h, cmap, n_clusters, "python")
    # bypass the size gate by calling the flat body's branches directly:
    # the production gate routes small inputs to the reference, so force
    # the flat machinery through a monkeypatch-free private call
    import unittest.mock as mock

    with mock.patch.object(C, "_BUILD_FLAT_MIN_PINS", 0):
        flat = C._build_coarse(h, cmap, n_clusters, "flat")
    with mock.patch.object(C, "_BUILD_FLAT_MIN_PINS", 0), \
         mock.patch.object(C, "_VECTOR_MIN_PINS_BUILD", 0):
        flat_vec = C._build_coarse(h, cmap, n_clusters, "flat")
    _assert_same_hypergraph(ref, flat)
    _assert_same_hypergraph(ref, flat_vec)


def test_build_coarse_gate_routes_small_to_reference(monkeypatch):
    """Below _BUILD_FLAT_MIN_PINS the flat tier runs the reference loop —
    the gate is a pure speed heuristic, verified by instrumentation."""
    h = random_hypergraph(as_rng(1), 40, 30)
    cmap, nc = _random_cmap(as_rng(2), h.num_vertices, 10)
    calls = []
    orig = C._build_reference

    def spy(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    monkeypatch.setattr(C, "_build_reference", spy)
    C.build_coarse(h, cmap, nc, kernel="flat")
    assert calls  # tiny instance: flat routed to the reference loop


# ----------------------------------------------------------------------
# matching: flat (scalar + dense-aux batching) == reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["hcm", "hcc"])
def test_match_flat_matches_reference(scheme):
    for hseed, mseed in [(0, 5), (4, 9), (7, 1)]:
        h = random_hypergraph(as_rng(hseed), 150, 110, weighted=True)
        r_ref = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                 kernel="python")
        r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                  kernel="flat")
        assert np.array_equal(r_ref[0], r_flat[0])
        assert r_ref[1] == r_flat[1]
        assert np.array_equal(r_ref[2], r_flat[2])


@pytest.mark.parametrize("scheme", ["hcm", "hcc"])
def test_match_flat_dense_aux_path_matches_reference(monkeypatch, scheme):
    """Force the per-vertex dense batched-scoring path (normally gated by
    _VERTEX_VECTOR_MIN / _DENSE_AUX_MIN) and require identical clustering."""
    monkeypatch.setattr(C, "_DENSE_AUX_MIN", 0)
    monkeypatch.setattr(C, "_VERTEX_VECTOR_MIN", 1)
    for hseed, mseed in [(2, 3), (6, 8)]:
        h = random_hypergraph(as_rng(hseed), 120, 100, max_net_size=10,
                              weighted=True)
        r_ref = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                 kernel="python")
        r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                  kernel="flat")
        assert np.array_equal(r_ref[0], r_flat[0])
        assert r_ref[1] == r_flat[1]


@settings(max_examples=25, deadline=None)
@given(hseed=st.integers(0, 2**16), mseed=st.integers(0, 2**16),
       hcm=st.booleans())
def test_match_flat_matches_reference_hypothesis(hseed, mseed, hcm):
    h = random_hypergraph(as_rng(hseed), 60, 50, weighted=True)
    scheme = "hcm" if hcm else "hcc"
    r_ref = C.match_vertices(h, as_rng(mseed), scheme=scheme, kernel="python")
    r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme, kernel="flat")
    assert np.array_equal(r_ref[0], r_flat[0])
    assert r_ref[1] == r_flat[1]


def test_match_restricted_and_fixed_flat_matches_reference():
    """V-cycle restricted matching (part=) and fixed vertices take the
    same flat path; parity must hold there too."""
    h = random_hypergraph(as_rng(3), 100, 80, weighted=True)
    rng = as_rng(0)
    part = rng.integers(0, 2, size=h.num_vertices)
    fixed = np.full(h.num_vertices, -1, dtype=np.int64)
    fixed[:10] = rng.integers(0, 2, size=10)
    for kw in ({"part": part}, {"fixed": fixed}, {"part": part, "fixed": fixed}):
        r_ref = C.match_vertices(h, as_rng(5), kernel="python", **kw)
        r_flat = C.match_vertices(h, as_rng(5), kernel="flat", **kw)
        assert np.array_equal(r_ref[0], r_flat[0])
        assert np.array_equal(r_ref[2], r_flat[2])


# ----------------------------------------------------------------------
# GHG initial bisection: flat == reference
# ----------------------------------------------------------------------
def _ghg_targets(h, epsilon=0.1):
    total = int(h.total_vertex_weight())
    t0 = total // 2
    return t0, int(t0 * (1 + epsilon))


@pytest.mark.parametrize("with_fixed", [False, True])
def test_ghg_flat_matches_reference(with_fixed):
    for hseed, seed in [(0, 1), (5, 7), (9, 2)]:
        h = random_hypergraph(as_rng(hseed), 140, 120, weighted=True)
        t0, max0 = _ghg_targets(h)
        fixed = None
        if with_fixed:
            fixed = np.full(h.num_vertices, -1, dtype=np.int64)
            fixed[:8] = as_rng(seed).integers(0, 2, size=8)
        p_ref = I._ghg_reference(h, t0, max0, as_rng(seed), fixed)
        p_flat = I._ghg_flat(h, t0, max0, as_rng(seed), fixed)
        assert np.array_equal(p_ref, p_flat)


@settings(max_examples=25, deadline=None)
@given(hseed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
def test_ghg_flat_matches_reference_hypothesis(hseed, seed):
    h = random_hypergraph(as_rng(hseed), 70, 60, weighted=True)
    t0, max0 = _ghg_targets(h)
    p_ref = I._ghg_reference(h, t0, max0, as_rng(seed), None)
    p_flat = I._ghg_flat(h, t0, max0, as_rng(seed), None)
    assert np.array_equal(p_ref, p_flat)


def test_ghg_race_dispatch_is_bit_identical(monkeypatch):
    """With the gate lowered, ghg_bisection races flat vs python across
    calls on the same hypergraph; every call must return reference bits
    regardless of which tier the race picks."""
    monkeypatch.setattr(I, "_GHG_VECTOR_MIN", 0)
    h = random_hypergraph(as_rng(4), 120, 100, weighted=True)
    t0, max0 = _ghg_targets(h)
    for seed in range(5):
        p_ref = I.ghg_bisection(h, t0, max0, rng=seed, kernel="python")
        p_flat = I.ghg_bisection(h, t0, max0, rng=seed, kernel="flat")
        assert np.array_equal(p_ref, p_flat)
    race = h._view("ghg.tier_race", dict)
    # both tiers were probed (events accumulated), so the race is live
    assert race["flat"][1] > 0 and race["python"][1] > 0


# ----------------------------------------------------------------------
# K-way refinement: flat sweep == reference sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("with_fixed", [False, True])
def test_kway_flat_matches_reference(monkeypatch, with_fixed):
    monkeypatch.setattr(KW, "_KWAY_VECTOR_MIN", 1)
    for hseed, seed, k in [(0, 1, 4), (6, 3, 8)]:
        h = random_hypergraph(as_rng(hseed), 160, 140, weighted=True)
        rng0 = as_rng(seed)
        part = rng0.integers(0, k, size=h.num_vertices)
        fixed = None
        if with_fixed:
            fixed = np.full(h.num_vertices, -1, dtype=np.int64)
            fixed[:12] = rng0.integers(0, k, size=12)
        p_ref = KW.kway_refine(
            h, part, k, PartitionerConfig(kernel="python"), as_rng(seed + 1),
            fixed,
        )
        p_flat = KW.kway_refine(
            h, part, k, PartitionerConfig(kernel="flat"), as_rng(seed + 1),
            fixed,
        )
        assert np.array_equal(p_ref, p_flat)


@settings(max_examples=20, deadline=None)
@given(hseed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       k=st.integers(2, 8))
def test_kway_flat_matches_reference_hypothesis(hseed, seed, k):
    import unittest.mock as mock

    h = random_hypergraph(as_rng(hseed), 60, 50, weighted=True)
    part = as_rng(seed).integers(0, k, size=h.num_vertices)
    p_ref = KW.kway_refine(
        h, part, k, PartitionerConfig(kernel="python"), as_rng(seed), None
    )
    with mock.patch.object(KW, "_KWAY_VECTOR_MIN", 1):
        p_flat = KW.kway_refine(
            h, part, k, PartitionerConfig(kernel="flat"), as_rng(seed), None
        )
    assert np.array_equal(p_ref, p_flat)


# ----------------------------------------------------------------------
# tier race dispatcher
# ----------------------------------------------------------------------
def test_race_pick_probes_unmeasured_tiers_first():
    race = {"flat": [0.0, 0], "python": [0.0, 0]}
    assert K.race_pick(race) == "flat"  # flat probes first
    race["flat"] = [1.0, 100]
    assert K.race_pick(race) == "python"  # then python gets its probe


def test_race_pick_prefers_lower_seconds_per_event():
    fast_flat = {"flat": [1.0, 1000], "python": [1.0, 100]}
    assert K.race_pick(fast_flat) == "flat"
    fast_py = {"flat": [1.0, 100], "python": [1.0, 1000]}
    assert K.race_pick(fast_py) == "python"
    # exact tie breaks toward flat (the cheaper-to-probe default)
    tie = {"flat": [1.0, 500], "python": [1.0, 500]}
    assert K.race_pick(tie) == "flat"


def test_race_min_events_filters_trivial_passes():
    """The FM dispatcher only records passes with >= RACE_MIN_EVENTS move
    events so converged no-op passes cannot poison the rate estimate."""
    assert K.RACE_MIN_EVENTS >= 1


def test_fm_race_state_cached_on_level(monkeypatch):
    """fm_refine_bisection under the flat tier attaches its race state to
    the hypergraph so repeats on the same level share the verdict."""
    from repro.partitioner import refine as R

    monkeypatch.setattr(R, "_FM_FLAT_MIN_PINS", 0)
    h = random_hypergraph(as_rng(2), 120, 100, weighted=True)
    total = int(h.total_vertex_weight())
    maxw = (int(total * 0.55), int(total * 0.55))
    cfg = PartitionerConfig(kernel="flat")
    part = as_rng(0).integers(0, 2, size=h.num_vertices)
    p_flat, cut_flat = R.fm_refine_bisection(h, part, maxw, cfg, as_rng(1))
    race = h._view("fm.tier_race", dict)
    assert set(race) == {"flat", "python"}
    p_ref, cut_ref = R.fm_refine_bisection(
        h, part, maxw, PartitionerConfig(kernel="python"), as_rng(1)
    )
    assert cut_flat == cut_ref
    assert np.array_equal(p_flat, p_ref)


# ----------------------------------------------------------------------
# LevelArena
# ----------------------------------------------------------------------
def test_arena_take_reuses_and_grows():
    a = LevelArena()
    b1 = a.take("x", 10)
    assert len(b1) == 10 and a.allocs == 1 and a.reuses == 0
    b2 = a.take("x", 8)
    assert len(b2) == 8 and a.reuses == 1 and a.allocs == 1
    # same key aliases the same storage
    b2[...] = 7
    assert (a.take("x", 8) == 7).all()
    # growth reallocates (geometrically) and zero=True clears the view
    b3 = a.take("x", 40, zero=True)
    assert len(b3) == 40 and a.allocs == 2 and (b3 == 0).all()
    z = a.take("x", 5, zero=True)
    assert (z == 0).all()


def test_arena_dtype_change_reallocates():
    a = LevelArena()
    a.take("k", 4, dtype=np.int64)
    a.take("k", 4, dtype=bool)
    assert a.allocs == 2
    assert a.take("k", 4, dtype=bool).dtype == np.bool_


def test_scratch_without_arena_allocates_fresh():
    assert current_arena() is None
    x = scratch("free", 6, zero=True)
    assert (x == 0).all() and len(x) == 6
    y = scratch("free", 6)
    assert x is not y  # no arena: no aliasing between takes


def test_use_arena_reentrant_and_flushes_counters():
    rec = TelemetryRecorder()
    with use_recorder(rec):
        with use_arena() as outer:
            scratch("a", 16)
            with use_arena() as inner:
                assert inner is outer  # nested activation joins the outer
                scratch("a", 12)
            # still active: the inner exit must not flush or deactivate
            assert current_arena() is outer
            assert not rec.counter_totals()
        assert current_arena() is None
    totals = rec.counter_totals()
    assert totals["arena.allocs"] == 1
    assert totals["arena.reuses"] == 1
    assert totals["arena.bytes"] > 0


def test_partition_run_records_arena_counters(monkeypatch):
    """The driver activates an arena around each partition run; with the
    flat FM gate lowered to let the flat engine run on a test-sized
    instance, its scratch takes must show up as arena counters."""
    from repro.partitioner import partition_hypergraph
    from repro.partitioner import refine as R

    monkeypatch.setattr(R, "_FM_FLAT_MIN_PINS", 0)
    h = random_hypergraph(as_rng(6), 150, 120, weighted=True)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        partition_hypergraph(
            h, 4, config=PartitionerConfig(kernel="flat"), seed=0
        )
    totals = rec.counter_totals()
    assert totals.get("arena.allocs", 0) > 0
    assert totals.get("arena.reuses", 0) > 0
