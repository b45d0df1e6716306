"""Coarsening phase: randomized agglomerative matching + coarse build.

Two matching schemes from PaToH are implemented:

* **HCM** (heavy connectivity matching): visits vertices in random order and
  pairs each unmatched vertex with the unmatched neighbour sharing the
  largest total net-connectivity score ``sum c_n / (|n| - 1)``.
* **HCC** (heavy connectivity clustering, PaToH's default): like HCM but a
  vertex may also be *absorbed* into an already-formed cluster, which copes
  much better with the star-like structures of matrices with dense
  rows/columns.

After matching, the coarse hypergraph is built by mapping pins through the
cluster map, removing duplicate pins, discarding single-pin nets (they can
never be cut) and merging identical nets while summing their costs — the
standard transformations that preserve the attainable cutsize exactly.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng, multi_arange, prefix_from_counts
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder

__all__ = ["match_vertices", "build_coarse", "coarsen_level", "CoarseLevel", "coarsen"]

#: within the scalar matcher, a single vertex whose scoring expansion
#: (pins behind its eligible nets) reaches this many entries gets a
#: one-vertex batched pass instead of the per-pin loop.  Dense rows/columns
#: produce such vertices; batching them has zero wasted work because the
#: vertex is already known to be unclustered.
_VERTEX_VECTOR_MIN = 3000

#: below this pin count the coarse-build contraction takes the scalar
#: dedup loop: numpy call overhead dominates batched passes on the small
#: sub-hypergraphs of deep recursive bisection.  Both paths are
#: bit-identical, so the switch point affects speed only, never results.
_VECTOR_MIN_PINS_BUILD = 100_000

#: below this pin count the flat build tier routes to the per-net
#: reference loop: the sort/unique pin remap has O(pins log pins) fixed
#: cost that measures slower than the dict dedup until well past 100k
#: pins (see docs/performance.md).  Bit-identical either way.
_BUILD_FLAT_MIN_PINS = 150_000

#: the dense-vertex branch needs O(pins) numpy precomputation per
#: match_vertices call; skip it entirely for tiny hypergraphs
_DENSE_AUX_MIN = 4096


def _argsort_ids(keys: np.ndarray, hi: int) -> np.ndarray:
    """Stable argsort of non-negative ids ``< hi`` via uint16 radix passes.

    numpy's stable argsort only takes its radix path for <= 16-bit keys
    (an int64 stable argsort measures ~6x slower at the same length), so
    wider ids sort low-half then high-half: two stable passes over
    subkeys compose into one stable sort of the full key.  Ids here are
    vertex indices, always < 2**32.
    """
    if hi <= (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    s = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)
    return s[np.argsort(high[s], kind="stable")]


def _score_aux(
    h: Hypergraph, max_net_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scoring-eligibility arrays for matching, cached on *h*.

    Returns ``(sizes, valid, net_score, expand)``: net sizes, which nets are
    scoring-eligible (``2 <= size <= max_net_size``), the per-net
    connectivity score ``c_n / (size - 1)``, and per vertex the number of
    pins behind its eligible nets (the scoring expansion).  All are pure
    functions of the immutable hypergraph and the net-size cap, so V-cycles
    and repeated restricted coarsening of the same level reuse them.
    """

    def make() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        sizes = np.diff(h.xpins)
        valid = (sizes >= 2) & (sizes <= max_net_size)
        net_score = np.where(valid, h.net_costs / np.maximum(sizes - 1, 1), 0.0)
        vmask = valid[h.vnets]
        vowner = np.repeat(
            np.arange(h.num_vertices, dtype=INDEX_DTYPE), np.diff(h.xnets)
        )
        expand = np.bincount(
            vowner[vmask], weights=sizes[h.vnets[vmask]], minlength=h.num_vertices
        ).astype(np.int64)
        return sizes, valid, net_score, expand

    return h._view(f"score_aux_{max_net_size}", make)


def match_vertices(
    h: Hypergraph,
    rng: np.random.Generator,
    scheme: str = "hcc",
    max_net_size: int = 300,
    max_cluster_weight: int | None = None,
    fixed: np.ndarray | None = None,
    part: np.ndarray | None = None,
    kernel: str = "python",
) -> tuple[np.ndarray, int, np.ndarray]:
    """Cluster vertices; returns ``(cmap, n_clusters, coarse_fixed)``.

    ``cmap[v]`` is the coarse vertex id of ``v``.  ``coarse_fixed`` carries
    pre-assignments onto clusters (a cluster may only contain vertices fixed
    to the same part, or free vertices).

    When *part* is given (V-cycle restricted coarsening), vertices only
    cluster with vertices of the same part, so the partition projects
    exactly onto the coarse hypergraph.

    *kernel* picks the implementation tier (see
    :mod:`repro.partitioner.kernels`): ``"python"`` is the pure reference
    loop (the differential-testing oracle — one interpreted comparison
    per pin, no batching); ``"flat"`` runs the scalar loop with
    one-vertex batching of dense scoring expansions
    (:data:`_VERTEX_VECTOR_MIN`).  The greedy selection always stays
    sequential, preserving the classic HCM/HCC semantics bit for bit, so
    both tiers produce identical output.
    """
    nv = h.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = max(int(h.total_vertex_weight()), 1)
    hcm = scheme == "hcm"
    part_l = part.tolist() if part is not None else None

    w = h.weights_list()
    fix = fixed.tolist() if fixed is not None else None

    cluster: list[int] = [-1] * nv
    cweight: list[int] = []
    cfixed: list[int] = []
    order = rng.permutation(nv)

    matcher = _match_scalar if kernel == "flat" else _match_reference
    rec = get_recorder()
    with rec.span(
        "coarsen.match",
        vertices=nv,
        nets=h.num_nets,
        pins=h.num_pins,
        kernel=kernel,
    ):
        pins_visited = matcher(
            h, order, part_l, w, fix, cluster, cweight, cfixed,
            hcm, max_net_size, max_cluster_weight,
        )

    if rec.enabled:
        rec.add("coarsen.pins_visited", pins_visited)
        rec.add("coarsen.clusters", len(cweight))
    cmap = np.asarray(cluster, dtype=INDEX_DTYPE)
    return cmap, len(cweight), np.asarray(cfixed, dtype=INDEX_DTYPE)


def _dense_candidates(
    v: int,
    h: Hypergraph,
    valid: np.ndarray,
    sizes: np.ndarray,
    net_score: np.ndarray,
) -> list[int]:
    """Batched scoring of one vertex: candidates in descending-score order
    (first-encounter order on ties), matching the scalar loop exactly.

    Equivalence with the scalar scoring loop: nets expand in ascending id
    order and pins in storage order, candidates keep their first-encounter
    order, and per-candidate scores accumulate strictly left-to-right in
    that order (``np.bincount`` adds weights sequentially over its input),
    so float sums and every downstream tie-break are bit-identical.  The
    scalar loop keeps the first strictly greater score among feasible
    candidates, so "first feasible in this order" selects the same one.
    """
    ns = h.vnets[h.xnets[v] : h.xnets[v + 1]]
    ns = ns[valid[ns]]
    cnt = sizes[ns]
    cand = h.pins[multi_arange(h.xpins[ns], cnt)]
    keep = cand != v
    cand = cand[keep]
    if len(cand) == 0:
        return []
    scs = np.repeat(net_score[ns], cnt)[keep]
    # radix argsort; bincount accumulates weights in input order exactly
    # like the unbuffered np.add.at it replaces
    perm = _argsort_ids(cand, h.num_vertices)
    cs = cand[perm]
    boundary = np.r_[True, cs[1:] != cs[:-1]]
    grp = np.flatnonzero(boundary)
    gid = np.cumsum(boundary) - 1
    score = np.bincount(gid, weights=scs[perm], minlength=len(grp))
    first_idx = perm[grp]
    ordr = np.lexsort((first_idx, -score))
    return cs[grp][ordr].tolist()


def _match_scalar(
    h: Hypergraph,
    order: np.ndarray,
    part_l: list[int] | None,
    w: list[int],
    fix: list[int] | None,
    cluster: list[int],
    cweight: list[int],
    cfixed: list[int],
    hcm: bool,
    max_net_size: int,
    max_cluster_weight: int,
    dense_ok: bool = True,
) -> int:
    """Scalar matching loop (fast on small hypergraphs).

    With *dense_ok*, vertices whose scoring expansion is dense
    (``_VERTEX_VECTOR_MIN``) are scored by a one-vertex batched pass —
    same candidates, same float accumulation order, same selection result
    as the per-pin loop.  Without it this is the pure per-pin reference.
    """
    nv = h.num_vertices
    xnets = h.xnets_list()
    vnets = h.vnets_list()
    xpins = h.xpins_list()
    pins = h.pins_list()
    costs = h.costs_list()

    dense_aux = None
    if dense_ok and h.num_pins >= _DENSE_AUX_MIN:
        # cheap upper bound on any vertex's scoring expansion: no vertex
        # can expand past max_degree * largest eligible net.  Fine-grain
        # levels (degree <= 2, nets capped at max_net_size) can never
        # reach _VERTEX_VECTOR_MIN, so they skip the _score_aux setup
        # entirely instead of paying O(pins) for a path that never fires.
        max_deg = h._view(
            "max_degree",
            lambda: int(np.diff(h.xnets).max()) if h.num_vertices else 0,
        )
        max_sz = h._view(
            "max_net_size",
            lambda: int(np.diff(h.xpins).max()) if h.num_nets else 0,
        )
        if max_deg * min(max_sz, max_net_size) >= _VERTEX_VECTOR_MIN:
            sizes_np, valid_np, net_score, expand_np = _score_aux(
                h, max_net_size
            )
            expand = h._view(f"expand_l_{max_net_size}", expand_np.tolist)
            dense_aux = (valid_np, sizes_np, net_score)

    # flat score accumulator: positive increments only, so score == 0.0
    # doubles as the "untouched" marker (cheaper than a dict by ~2x on the
    # profile; see DESIGN.md performance notes)
    score: list[float] = [0.0] * nv
    touched: list[int] = []
    pins_visited = 0

    for v in order.tolist():
        if cluster[v] != -1:
            continue
        fv = fix[v] if fix is not None else -1
        wv = w[v]
        pv = part_l[v] if part_l is not None else -1
        best_u = -1
        if dense_aux is not None and expand[v] >= _VERTEX_VECTOR_MIN:
            pins_visited += expand[v]
            # candidates arrive score-descending: first feasible one wins
            for u in _dense_candidates(v, h, *dense_aux):
                if part_l is not None and part_l[u] != pv:
                    continue  # restricted coarsening: stay in-part
                cu = cluster[u]
                if hcm and cu != -1:
                    continue  # pure matching never grows a cluster
                tw = (cweight[cu] if cu != -1 else w[u]) + wv
                if tw > max_cluster_weight:
                    continue
                fu = (
                    cfixed[cu]
                    if cu != -1
                    else (fix[u] if fix is not None else -1)
                )
                if fv != -1 and fu != -1 and fu != fv:
                    continue
                best_u = u
                break
        else:
            touched.clear()
            for n in vnets[xnets[v] : xnets[v + 1]]:
                lo, hi = xpins[n], xpins[n + 1]
                sz = hi - lo
                if sz == 2 <= max_net_size:
                    # dominant case in fine-grain models: the one other pin
                    pins_visited += 2
                    u = pins[lo]
                    if u == v:
                        u = pins[lo + 1]
                    if score[u] == 0.0:
                        touched.append(u)
                    score[u] += costs[n]
                    continue
                if sz < 2 or sz > max_net_size:
                    continue
                pins_visited += sz
                sc = costs[n] / (sz - 1)
                for u in pins[lo:hi]:
                    if u != v:
                        if score[u] == 0.0:
                            touched.append(u)
                        score[u] += sc
            best_s = 0.0
            for u in touched:
                s = score[u]
                score[u] = 0.0
                if s <= best_s:
                    continue
                if part_l is not None and part_l[u] != pv:
                    continue  # restricted (V-cycle) coarsening: stay in-part
                cu = cluster[u]
                if hcm and cu != -1:
                    continue  # pure matching never grows a cluster
                tw = (cweight[cu] if cu != -1 else w[u]) + wv
                if tw > max_cluster_weight:
                    continue
                fu = (
                    cfixed[cu]
                    if cu != -1
                    else (fix[u] if fix is not None else -1)
                )
                if fv != -1 and fu != -1 and fu != fv:
                    continue
                best_u, best_s = u, s
        if best_u == -1:
            cluster[v] = len(cweight)
            cweight.append(wv)
            cfixed.append(fv)
        else:
            cu = cluster[best_u]
            if cu == -1:
                cu = len(cweight)
                cweight.append(w[best_u])
                cfixed.append(fix[best_u] if fix is not None else -1)
                cluster[best_u] = cu
            cluster[v] = cu
            cweight[cu] += wv
            if fv != -1:
                cfixed[cu] = fv
    return pins_visited


def _match_reference(
    h: Hypergraph,
    order: np.ndarray,
    part_l: list[int] | None,
    w: list[int],
    fix: list[int] | None,
    cluster: list[int],
    cweight: list[int],
    cfixed: list[int],
    hcm: bool,
    max_net_size: int,
    max_cluster_weight: int,
) -> int:
    """The ``python`` tier: the pure per-pin reference loop, no batching.

    This is the differential-testing oracle the flat tier is
    measured against; it trades speed on dense instances for one
    obviously-sequential interpreted loop."""
    return _match_scalar(
        h, order, part_l, w, fix, cluster, cweight, cfixed,
        hcm, max_net_size, max_cluster_weight, dense_ok=False,
    )


def _build_reference(
    h: Hypergraph, cmap: np.ndarray, n_clusters: int, cw: np.ndarray
) -> Hypergraph:
    """The ``python`` tier of :func:`build_coarse`: one interpreted loop
    per net — remap pins through the cluster map, collapse duplicates,
    drop single-pin nets, merge identical nets via a dict.  The oracle
    the flat path is differential-tested against."""
    cmap_l = cmap.tolist()
    xpins = h.xpins_list()
    pins = h.pins_list()
    costs = h.costs_list()
    flat_pins: list[int] = []
    counts: list[int] = []
    new_costs: list[int] = []
    seen: dict[tuple[int, ...], int] = {}
    for n in range(h.num_nets):
        seg = sorted({cmap_l[p] for p in pins[xpins[n] : xpins[n + 1]]})
        if len(seg) < 2:
            continue
        bkey = tuple(seg)
        idx = seen.get(bkey)
        if idx is None:
            seen[bkey] = len(new_costs)
            new_costs.append(costs[n])
            counts.append(len(seg))
            flat_pins.extend(seg)
        else:
            new_costs[idx] += costs[n]
    return Hypergraph(
        n_clusters,
        prefix_from_counts(counts),
        np.asarray(flat_pins, dtype=INDEX_DTYPE),
        vertex_weights=cw,
        net_costs=np.asarray(new_costs, dtype=INDEX_DTYPE),
        validate=False,
    )


def build_coarse(
    h: Hypergraph, cmap: np.ndarray, n_clusters: int, kernel: str = "flat"
) -> Hypergraph:
    """Contract *h* along *cmap*.

    Duplicate pins inside a net are collapsed, single-pin nets dropped, and
    identical nets merged with summed costs.  These transformations change
    neither the cutsize of any partition nor the balance (cluster weights
    are the sums of member weights).

    *kernel* ``"python"`` runs the per-net reference loop
    (:func:`_build_reference`); any other tier runs the flat path:
    sort/bincount pin remapping plus — above
    :data:`_VECTOR_MIN_PINS_BUILD` — hash-keyed identical-net merging.
    All paths emit bit-identical hypergraphs.
    """
    rec = get_recorder()
    with rec.span(
        "coarsen.build",
        vertices=h.num_vertices,
        nets=h.num_nets,
        pins=h.num_pins,
        kernel=kernel,
    ):
        return _build_coarse(h, cmap, n_clusters, kernel)


def _build_coarse(
    h: Hypergraph, cmap: np.ndarray, n_clusters: int, kernel: str
) -> Hypergraph:
    cw = np.bincount(cmap, weights=h.vertex_weights, minlength=n_clusters).astype(
        INDEX_DTYPE
    )
    if h.num_pins == 0:
        return Hypergraph(
            n_clusters,
            np.zeros(1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            vertex_weights=cw,
            net_costs=np.empty(0, dtype=INDEX_DTYPE),
            validate=False,
        )
    if kernel == "python" or h.num_pins < _BUILD_FLAT_MIN_PINS:
        return _build_reference(h, cmap, n_clusters, cw)

    key = h.net_of_pin() * n_clusters + cmap[h.pins]
    uniq = np.unique(key)  # sorted -> pins sorted within each net
    knet = uniq // n_clusters
    kpin = uniq % n_clusters
    sizes = np.bincount(knet, minlength=h.num_nets)
    starts = prefix_from_counts(sizes)

    if h.num_pins < _VECTOR_MIN_PINS_BUILD:
        # scalar dict dedup; same output as the vectorized path below
        new_pins_chunks: list[np.ndarray] = []
        new_costs: list[int] = []
        counts: list[int] = []
        seen: dict[bytes, int] = {}
        costs_l = h.net_costs
        for n in range(h.num_nets):
            lo, hi = starts[n], starts[n + 1]
            if hi - lo < 2:
                continue
            seg = kpin[lo:hi]
            bkey = seg.tobytes()
            idx = seen.get(bkey)
            if idx is None:
                seen[bkey] = len(new_costs)
                new_costs.append(int(costs_l[n]))
                counts.append(hi - lo)
                new_pins_chunks.append(seg)
            else:
                new_costs[idx] += int(costs_l[n])
        xpins = prefix_from_counts(counts)
        pins = (
            np.concatenate(new_pins_chunks)
            if new_pins_chunks
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        return Hypergraph(
            n_clusters,
            xpins,
            pins,
            vertex_weights=cw,
            net_costs=np.asarray(new_costs, dtype=INDEX_DTYPE),
            validate=False,
        )

    # identical-net merging, hash-keyed: a position-weighted 64-bit
    # polynomial hash per net groups merge candidates in one pass (no
    # per-size-class stacking), every member is verified element-wise
    # against its group's first net, and the vanishing-probability hash
    # collisions fall back to exact byte keys.  Survivors re-emit in
    # first-appearance (net id) order with summed costs — the same output
    # the sequential dict dedup produces.
    keep = sizes >= 2
    kept_ids = np.flatnonzero(keep)
    if len(kept_ids) == 0:
        return Hypergraph(
            n_clusters,
            np.zeros(1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            vertex_weights=cw,
            net_costs=np.empty(0, dtype=INDEX_DTYPE),
            validate=False,
        )
    kept_sizes = sizes[kept_ids]
    kp = kpin[multi_arange(starts[kept_ids], kept_sizes)]
    koffs = prefix_from_counts(kept_sizes).astype(np.int64)
    costs = h.net_costs
    m = len(kept_ids)

    maxs = int(kept_sizes.max())
    pw = np.ones(maxs, dtype=np.uint64)
    if maxs > 1:
        pw[1:] = np.cumprod(
            np.full(maxs - 1, np.uint64(0x9E3779B97F4A7C15), dtype=np.uint64)
        )
    pos = np.arange(len(kp), dtype=np.int64) - np.repeat(koffs[:-1], kept_sizes)
    contrib = (kp.astype(np.uint64) + np.uint64(0x517CC1B7)) * pw[pos]
    hsh = np.add.reduceat(contrib, koffs[:-1])

    # sort members by (size, hash, net id): groups become contiguous with
    # their first-appearing net leading each group
    go = np.lexsort((np.arange(m), hsh, kept_sizes))
    ss = kept_sizes[go]
    hh = hsh[go]
    bnd = np.r_[True, (ss[1:] != ss[:-1]) | (hh[1:] != hh[:-1])]
    gid = np.cumsum(bnd) - 1
    n_groups = int(gid[-1]) + 1
    rep = go[np.flatnonzero(bnd)]  # group representative (first member)

    # verify: each member's pins must equal its representative's
    mo = koffs[:-1][go]
    ro = koffs[:-1][rep[gid]]
    moffs = prefix_from_counts(ss).astype(np.int64)
    neq = kp[multi_arange(mo, ss)] != kp[multi_arange(ro, ss)]
    bad = np.add.reduceat(neq, moffs[:-1]) > 0
    first_kept = rep
    if bad.any():  # pragma: no cover - 64-bit collision, astronomically rare
        gid = gid.copy()
        extra: dict[bytes, int] = {}
        for j in np.flatnonzero(bad).tolist():
            bkey = kp[mo[j] : mo[j] + int(ss[j])].tobytes()
            g2 = extra.get(bkey)
            if g2 is None:
                extra[bkey] = g2 = n_groups
                n_groups += 1
            gid[j] = g2
        first_kept = np.full(n_groups, m, dtype=np.int64)
        np.minimum.at(first_kept, gid, go)

    csum = np.bincount(gid, weights=costs[kept_ids[go]], minlength=n_groups)
    order = np.argsort(first_kept, kind="stable")
    g_sizes = kept_sizes[first_kept][order]
    xpins = prefix_from_counts(g_sizes)
    pins = kp[multi_arange(koffs[:-1][first_kept][order], g_sizes)]
    return Hypergraph(
        n_clusters,
        xpins,
        pins,
        vertex_weights=cw,
        net_costs=csum[order].astype(INDEX_DTYPE),
        validate=False,
    )


class CoarseLevel:
    """One level of the multilevel hierarchy: the finer hypergraph together
    with the map onto the next-coarser one."""

    __slots__ = ("fine", "cmap", "fixed")

    def __init__(self, fine: Hypergraph, cmap: np.ndarray, fixed: np.ndarray | None):
        self.fine = fine
        self.cmap = cmap
        self.fixed = fixed  # fixed01 of the FINE hypergraph (or None)


def coarsen_level(
    h: Hypergraph,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    fixed: np.ndarray | None,
    part: np.ndarray | None = None,
) -> tuple[Hypergraph, np.ndarray, np.ndarray | None]:
    """One coarsening step; returns ``(coarse_h, cmap, coarse_fixed)``."""
    kern = cfg.kernel
    cmap, nc, cfix = match_vertices(
        h,
        rng,
        scheme=cfg.matching,
        max_net_size=cfg.max_net_size_coarsen,
        max_cluster_weight=max_cluster_weight,
        fixed=fixed,
        part=part,
        kernel=kern,
    )
    hc = build_coarse(h, cmap, nc, kernel=kern)
    coarse_fixed = cfix if fixed is not None else None
    return hc, cmap, coarse_fixed


def coarsen(
    h: Hypergraph,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    fixed: np.ndarray | None = None,
) -> tuple[list[CoarseLevel], Hypergraph, np.ndarray | None]:
    """Build the full coarsening hierarchy for one bisection.

    Returns ``(levels, coarsest, coarsest_fixed)`` where ``levels[i].fine``
    is the hypergraph at level *i* (level 0 = input) and
    ``levels[i].cmap`` maps its vertices onto level *i+1*.
    """
    levels: list[CoarseLevel] = []
    cur = h
    cur_fixed = fixed
    if cfg.matching == "none":
        return levels, cur, cur_fixed
    rec = get_recorder()
    total = max(h.total_vertex_weight(), 1)
    # a cluster may not exceed what a perfectly balanced coarsest part could
    # absorb; this keeps the coarsest instance bisectable
    max_cluster_weight = max(total // max(cfg.coarsen_to // 2, 1), 1)
    with rec.span("coarsen", vertices=h.num_vertices, pins=h.num_pins) as csp:
        for depth in range(cfg.max_coarsen_levels):
            if cur.num_vertices <= cfg.coarsen_to:
                break
            with rec.span("coarsen.level", level=depth) as lsp:
                hc, cmap, cfix = coarsen_level(
                    cur, cfg, rng, max_cluster_weight, cur_fixed
                )
                lsp.set(
                    vertices=hc.num_vertices,
                    nets=hc.num_nets,
                    pins=hc.num_pins,
                )
                lsp.gauge(
                    "shrink", hc.num_vertices / max(cur.num_vertices, 1)
                )
            if hc.num_vertices >= cfg.min_coarsen_shrink * cur.num_vertices:
                break  # stagnated; further levels would waste time
            levels.append(CoarseLevel(cur, cmap, cur_fixed))
            cur = hc
            cur_fixed = cfix
        csp.set(levels=len(levels), coarsest_vertices=cur.num_vertices)
    return levels, cur, cur_fixed


def coarsen_restricted(
    h: Hypergraph,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    part: np.ndarray,
    fixed: np.ndarray | None = None,
) -> tuple[list[CoarseLevel], Hypergraph, np.ndarray | None, np.ndarray]:
    """V-cycle coarsening: like :func:`coarsen` but clustering only within
    the parts of *part*, so the bisection projects exactly.

    Returns ``(levels, coarsest, coarsest_fixed, coarsest_part)``.
    """
    levels: list[CoarseLevel] = []
    cur = h
    cur_fixed = fixed
    cur_part = np.asarray(part, dtype=INDEX_DTYPE)
    rec = get_recorder()
    total = max(h.total_vertex_weight(), 1)
    max_cluster_weight = max(total // max(cfg.coarsen_to // 2, 1), 1)
    with rec.span(
        "coarsen", restricted=True, vertices=h.num_vertices, pins=h.num_pins
    ) as csp:
        for depth in range(cfg.max_coarsen_levels):
            if cur.num_vertices <= cfg.coarsen_to:
                break
            with rec.span("coarsen.level", level=depth) as lsp:
                kern = cfg.kernel
                cmap, nc, cfix = match_vertices(
                    cur,
                    rng,
                    scheme=cfg.matching if cfg.matching != "none" else "hcc",
                    max_net_size=cfg.max_net_size_coarsen,
                    max_cluster_weight=max_cluster_weight,
                    fixed=cur_fixed,
                    part=cur_part,
                    kernel=kern,
                )
                hc = build_coarse(cur, cmap, nc, kernel=kern)
                lsp.set(
                    vertices=hc.num_vertices,
                    nets=hc.num_nets,
                    pins=hc.num_pins,
                )
                lsp.gauge(
                    "shrink", hc.num_vertices / max(cur.num_vertices, 1)
                )
            if hc.num_vertices >= cfg.min_coarsen_shrink * cur.num_vertices:
                break
            # project: all members of a cluster share a part by construction
            coarse_part = np.empty(nc, dtype=INDEX_DTYPE)
            coarse_part[cmap] = cur_part
            levels.append(CoarseLevel(cur, cmap, cur_fixed))
            cur = hc
            cur_fixed = cfix if cur_fixed is not None else None
            cur_part = coarse_part
        csp.set(levels=len(levels), coarsest_vertices=cur.num_vertices)
    return levels, cur, cur_fixed, cur_part
