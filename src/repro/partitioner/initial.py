"""Initial bisection of the coarsest hypergraph.

Two constructors, both run multiple times with different random seeds and
followed by FM refinement; the best feasible result wins:

* **GHG** — greedy hypergraph growing (PaToH's default): start with
  everything in part 1, then repeatedly pull the vertex whose move to part 0
  reduces the cut the most (FM gain), until part 0 reaches its target
  weight.  Equivalent to growing a cluster around a seed while accounting
  for net costs.
* **random** — random balanced assignment, useful as a diversifier.

Fixed vertices are pre-placed and never moved.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import cutsize_connectivity
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.gainbucket import GainBucket
from repro.partitioner.refine import FMCore, fm_refine_bisection
from repro.telemetry import get_recorder

__all__ = ["ghg_bisection", "random_bisection", "initial_bisection"]

#: below this pin count the scalar GHG loop wins: the flat tier's numpy
#: bucket machinery has per-move fixed costs that only pay off once the
#: per-pin gain updates of large nets dominate.  Both paths are
#: bit-identical, so the gate affects speed only.
_GHG_VECTOR_MIN = 50_000


def _base_part(h: Hypergraph, fixed: np.ndarray | None) -> np.ndarray:
    part = np.ones(h.num_vertices, dtype=INDEX_DTYPE)
    if fixed is not None:
        locked = fixed >= 0
        part[locked] = fixed[locked]
    return part


def _ghg_flat(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator,
    fixed: np.ndarray | None,
) -> np.ndarray:
    """The ``flat`` tier of :func:`ghg_bisection`: FlatGainBucket
    selection plus the vectorized critical-net updates of
    :class:`~repro.partitioner.fm_flat.FlatMoveEngine`.

    Bit-identical to the reference: same RNG consumption (one
    permutation, one seed draw), same newest-first bucket selection,
    same gain updates — the parity harness in tests/test_phase_kernels.py
    asserts it.  Gated by :data:`_GHG_VECTOR_MIN` in the caller because
    its per-move fixed cost only amortizes on large-net instances.
    """
    from repro.partitioner.arena import scratch
    from repro.partitioner.fm_flat import FlatGainBucket, FlatMoveEngine

    nv = h.num_vertices
    part = _base_part(h, fixed)
    core = FMCore(h, part, fixed)
    core.compute_all_gains()
    bound = core.max_gain_bound()
    G = np.asarray(core.gain, dtype=np.int64)
    eng = FlatMoveEngine(core, G, boundary_mode=False)
    b0 = FlatGainBucket(
        nv, bound, gains=G, inside=scratch("fm.inside0", nv, bool, zero=True)
    )
    b1 = FlatGainBucket(
        nv, bound, gains=G, inside=scratch("fm.inside1", nv, bool, zero=True)
    )
    eng.buckets = (b0, b1)

    order = rng.permutation(h.num_vertices)
    mask = eng.free[order] & (eng.part[order] == 1)
    seq = order[mask]
    b1.bulk_insert(seq, G[seq])

    w_arr = np.asarray(core.w, dtype=np.int64)
    W = eng.W
    seeded = False
    while W[0] < target0 and b1.count > 0:
        if not seeded:
            # seq is exactly the reference's free1 list (same filter,
            # same permutation order), so the seed draw matches
            v = int(seq[int(rng.integers(len(seq)))])
            seeded = True
        else:
            v = b1.best_capped(w_arr, max0 - W[0])
            if v is None:
                break
        b1.remove(v)
        eng.lock(v)  # each vertex enters part 0 at most once
        eng.apply_move(v)
    return eng.part.astype(INDEX_DTYPE)


def ghg_bisection(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
    kernel: str = "flat",
) -> np.ndarray:
    """Greedy hypergraph growing: grow part 0 up to ``target0`` weight.

    Above :data:`_GHG_VECTOR_MIN` pins the flat tier races the two
    bit-identical implementations (see
    :func:`~repro.partitioner.kernels.race_pick`): initial bisection
    runs many starts on the same coarsest hypergraph, so the first two
    starts pay for the measurement and the rest inherit the winner.
    """
    from time import perf_counter

    from repro.partitioner.kernels import race_pick

    rng = as_rng(rng)
    if kernel == "flat" and h.num_pins >= _GHG_VECTOR_MIN:
        race = h._view(
            "ghg.tier_race", lambda: {"flat": [0.0, 0], "python": [0.0, 0]}
        )
        tier = race_pick(race)
        t0 = perf_counter()
        if tier == "flat":
            part = _ghg_flat(h, target0, max0, rng, fixed)
        else:
            part = _ghg_reference(h, target0, max0, rng, fixed)
        st = race[tier]
        st[0] += perf_counter() - t0
        # every start grows to the same weight target, so starts are
        # comparable per vertex
        st[1] += h.num_vertices
        return part
    return _ghg_reference(h, target0, max0, rng, fixed)


def _ghg_reference(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator,
    fixed: np.ndarray | None,
) -> np.ndarray:
    """The ``python`` tier of :func:`ghg_bisection`: the pure reference
    loop over :class:`~repro.partitioner.gainbucket.GainBucket`."""
    part = _base_part(h, fixed)
    core = FMCore(h, part, fixed)
    core.compute_all_gains()
    bound = core.max_gain_bound()
    b0 = GainBucket(h.num_vertices, bound)  # unused side, kept for symmetry
    b1 = GainBucket(h.num_vertices, bound)
    core.buckets = (b0, b1)
    core.insert_on_touch = False

    order = rng.permutation(h.num_vertices)
    for v in order:
        v = int(v)
        if core.free[v] and core.part[v] == 1:
            b1.insert(v, core.gain[v])

    w = core.w
    W = core.W
    # force a random seed vertex first so different starts explore
    # different regions even when many gains tie
    seeded = False
    while W[0] < target0 and len(b1):
        if not seeded:
            free1 = [int(v) for v in order if core.free[int(v)] and core.part[int(v)] == 1]
            if not free1:
                break
            v = free1[int(rng.integers(len(free1)))]
            seeded = True
        else:
            cap = max0 - W[0]
            v = b1.best(lambda u: w[u] <= cap)
            if v is None:
                break
        b1.remove(v)
        core.locked[v] = True  # each vertex enters part 0 at most once
        core.apply_move(v, update_gains=True)
    return core.part_array()


def random_bisection(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Random balanced bisection: fill part 0 greedily in random order."""
    rng = as_rng(rng)
    part = _base_part(h, fixed)
    w = h.vertex_weights
    W0 = int(w[part == 0].sum())
    for v in rng.permutation(h.num_vertices):
        if W0 >= target0:
            break
        v = int(v)
        if fixed is not None and fixed[v] >= 0:
            continue
        if W0 + w[v] <= max0:
            part[v] = 0
            W0 += int(w[v])
    return part


def initial_bisection(
    h: Hypergraph,
    targets: tuple[int, int],
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Best-of-N initial bisection (GHG and random starts, FM-refined).

    Candidates are ranked by (balance feasibility, cut); the winner is
    returned un-refined at the caller's level — refinement already happened
    here on the coarsest hypergraph.

    With ``cfg.initial_method == "exact"`` and a small enough coarsest
    hypergraph, the branch-and-bound bipartitioner of :mod:`repro.exact`
    is tried first under ``cfg.exact_initial_nodes``: a certified result
    is returned as-is (it is lexicographically optimal — no FM pass or
    extra start can beat it), and a budget-exhausted one is discarded in
    favor of the heuristic loop below.  The exact attempt consumes no
    RNG, so the fallback is bit-identical to ``initial_method="ghg"``.
    """
    rng = as_rng(rng)
    best_part: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    w = h.vertex_weights
    kern = cfg.kernel
    rec = get_recorder()
    if (
        cfg.initial_method == "exact"
        and h.num_vertices <= cfg.exact_initial_vertices
    ):
        from repro.exact import exact_bisection

        with rec.span(
            "initial.exact",
            vertices=h.num_vertices,
            budget=cfg.exact_initial_nodes,
        ) as sp:
            res = exact_bisection(
                h,
                targets=targets,
                max_weights=max_weights,
                fixed=fixed,
                max_nodes=cfg.exact_initial_nodes,
            )
            sp.set(proven=res.proven, nodes=res.nodes)
            if res.proven:
                sp.set(cut=res.cutsize, excess=res.excess)
                return res.part
    with rec.span(
        "initial",
        vertices=h.num_vertices,
        starts=cfg.n_initial_starts,
        kernel=kern,
    ) as sp:
        for s in range(cfg.n_initial_starts):
            if s % 3 == 2:
                raw = random_bisection(h, targets[0], max_weights[0], rng, fixed)
            else:
                raw = ghg_bisection(
                    h, targets[0], max_weights[0], rng, fixed, kernel=kern
                )
            part, cut = fm_refine_bisection(h, raw, max_weights, cfg, rng, fixed)
            w0 = int(w[part == 0].sum())
            w1 = int(w.sum()) - w0
            excess = max(0, w0 - max_weights[0]) + max(0, w1 - max_weights[1])
            key = (excess, cut)
            if best_key is None or key < best_key:
                best_key = key
                best_part = part
        sp.set(cut=best_key[1], excess=best_key[0])
    assert best_part is not None
    return best_part
