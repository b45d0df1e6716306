"""The ``flat`` kernel tier: numpy flat-array FM refinement.

Two ideas replace the pure-Python hot loops of :mod:`refine` while
producing bit-identical partitions (the replay matrix and the golden
suite assert it):

**Lazy-deletion stack buckets** (:class:`FlatGainBucket`).  The classic
FM structure keeps one doubly-linked list per gain value and relinks a
vertex on every gain update.  Observe that the linked list's iteration
order — head first — is exactly "most recently linked first".  So an
append-only stack per gain bucket reproduces the identical iteration
order by scanning from the end, *if* stale entries are skipped: an entry
``v`` in bucket ``b`` is current iff ``inside[v]`` and ``gain[v]``
still maps to ``b``.  Updates become O(1) appends (no unlinking), and
batches of updates become single vectorized appends.  Ghost entries — an
older append of a vertex whose newest entry sits higher in the same
stack — are harmless: the scan meets the newest entry first, and the
feasibility test is deterministic within one selection, so a ghost can
repeat a rejection but never change the selected vertex.  Stale tails
are truncated at the scan frontier, bounding total scan work by total
appends (the same amortized argument as the classic structure) — and,
crucially, each stack is a growable numpy buffer, so both the stale
skipping and the weight-cap feasibility test evaluate as chunked array
masks from the tail rather than one interpreted comparison per entry.
Without that the structure merely *defers* the per-bump interpreter cost
from update time to scan time.

**Per-net vectorized gain updates** (:class:`FlatMoveEngine`).  Within
one ``apply_move`` no selection happens, so only each neighbour's
*final* gain and *last* touch time are observable through the buckets —
all critical-net bumps of a move can therefore be applied as one batch:
per net of the moved vertex, the four FM cases reduce to masked slices
of the pin array (``T==0``/``F==1``: every eligible pin, ``T==1``/
``F==2``: the first matching pin via ``argmax``, reproducing the
reference loop's ``break`` semantics).  This is where huge nets stop
dominating: a dense row that costs thousands of interpreted per-pin
iterations in the python tier is a handful of O(|net|) numpy kernels
here, while the per-vertex Python work is proportional to the number of
*touched* vertices only.  Batch appends land grouped by destination
bucket in touch order at final gains — a vertex touched twice leaves an
extra same-bucket ghost behind its newest entry, which the ghost
argument above makes invisible — so the scan observes exactly the
linked-list state the sequential reference produces.
"""

from __future__ import annotations

import numpy as np

from repro.partitioner.arena import scratch
from repro.telemetry import get_recorder

__all__ = ["FlatGainBucket", "FlatMoveEngine", "fm_pass_flat"]


#: tail-chunk size for the vectorized stale-skip scans; amortizes numpy
#: call overhead without touching more of a deep stack than needed
_CHUNK = 512

#: event batches at or below this size append via the scalar ``_push``
#: loop — grouping a handful of entries through argsort costs more than
#: pushing them one by one
_SMALL_APPEND = 24

#: compact the bucket stacks once total stored entries exceed this
#: multiple of the current vertex count.  Ghost entries are individually
#: harmless but collectively fatal: a mass-update regime re-appends the
#: same vertices move after move, so without compaction the stale-skip
#: scans walk stacks proportional to *total appends* instead of live
#: entries.  Compaction drops stale entries per bucket while preserving
#: chronological order, so selection order is untouched.
_COMPACT_FACTOR = 4
_COMPACT_MIN = 2048

#: nets at or below this many pins run their critical-case events as
#: interpreted loops over the cached pin lists.  Slicing a 2-element
#: numpy segment and argmax-ing it costs microseconds of fixed overhead
#: where the list loop costs nanoseconds — and on fine-grain models
#: (vertex degree <= 2, nets of 2..3 pins after coarsening) *every*
#: move fires such events, so the fixed cost is the whole move.  Above
#: the threshold the masked-slice path wins on per-pin throughput.
_SCALAR_NET = 32

#: scalar probes from the stack tail before switching to chunked masks.
#: The common selection finds a live, feasible entry within a handful of
#: pops, where one element read costs ~20x less than a chunk scan; the
#: budget bounds the interpreted work when the tail is deeply stale
_PROBE = 16


class FlatGainBucket:
    """Lazy-deletion bucket stacks over the gain range ``[-max_gain, max_gain]``.

    Drop-in equivalent of :class:`~repro.partitioner.gainbucket.GainBucket`
    (same operations, same iteration order, hence bit-identical selection)
    with O(1) updates that never unlink.  Each bucket is a growable numpy
    buffer scanned as chunked masks from the tail.  ``gains``/``inside``
    may be caller-supplied arrays so the refinement pass can share one
    gain vector with the bucket and update both in single vectorized
    sweeps.
    """

    __slots__ = (
        "offset", "bufs", "lens", "gains", "inside", "maxb", "count", "stored",
    )

    def __init__(
        self,
        n: int,
        max_gain: int,
        gains: np.ndarray | None = None,
        inside: np.ndarray | None = None,
    ) -> None:
        if max_gain < 0:
            raise ValueError("max_gain must be non-negative")
        self.offset = int(max_gain)
        nb = 2 * self.offset + 1
        self.bufs: list[np.ndarray | None] = [None] * nb
        self.lens = [0] * nb
        self.gains = np.zeros(n, dtype=np.int64) if gains is None else gains
        self.inside = np.zeros(n, dtype=bool) if inside is None else inside
        self.maxb = -1
        self.count = 0
        self.stored = 0  # total stack entries, live and stale

    # -- storage ---------------------------------------------------------
    def _room(self, b: int, k: int) -> np.ndarray:
        """The bucket-*b* buffer with room for *k* more entries."""
        buf = self.bufs[b]
        need = self.lens[b] + k
        if buf is None:
            buf = self.bufs[b] = np.empty(max(16, need), dtype=np.int64)
        elif need > len(buf):
            cap = len(buf)
            while cap < need:
                cap *= 2
            grown = np.empty(cap, dtype=np.int64)
            grown[: self.lens[b]] = buf[: self.lens[b]]
            buf = self.bufs[b] = grown
        return buf

    def _push(self, b: int, v: int) -> None:
        self._room(b, 1)[self.lens[b]] = v
        self.lens[b] += 1
        self.stored += 1
        if b > self.maxb:
            self.maxb = b

    def _maybe_compact(self) -> None:
        """Drop stale stack entries once they outnumber live ones.

        Each bucket keeps only its current entries (``inside`` and gain
        still mapping here), compressed in place in chronological order —
        the scan meets the same live entries in the same order, so every
        selection is unchanged.  Amortized O(1) per append."""
        if self.stored <= _COMPACT_MIN or self.stored <= _COMPACT_FACTOR * max(
            self.count, 1
        ):
            return
        gains, inside = self.gains, self.inside
        total = 0
        for b, l in enumerate(self.lens):
            if l == 0:
                continue
            buf = self.bufs[b]
            seg = buf[:l]
            cur = seg[inside[seg] & (gains[seg] == b - self.offset)]
            k = len(cur)
            buf[:k] = cur
            self.lens[b] = k
            total += k
        self.stored = total

    # -- primitive ops -------------------------------------------------
    def insert(self, v: int, gain: int) -> None:
        """Insert vertex *v* with *gain*; *v* must not already be inside."""
        b = gain + self.offset
        if b < 0 or b >= len(self.bufs):
            raise ValueError(f"gain {gain} outside bucket range ±{self.offset}")
        if self.inside[v]:
            raise ValueError(f"vertex {v} already in bucket")
        self.gains[v] = gain
        self.inside[v] = True
        self._push(b, v)
        self.count += 1

    def remove(self, v: int) -> None:
        """Remove vertex *v* (lazily: its stack entries go stale)."""
        if not self.inside[v]:
            raise ValueError(f"vertex {v} not in bucket")
        self.inside[v] = False
        self.count -= 1

    def contains(self, v: int) -> bool:
        """Whether *v* is currently stored."""
        return bool(self.inside[v])

    def move_to(self, v: int, g: int) -> None:
        """Re-bucket stored vertex *v* to gain *g* (O(1): append only)."""
        self.gains[v] = g
        self._push(g + self.offset, v)

    def adjust(self, v: int, delta: int) -> None:
        """Change the gain of stored vertex *v* by *delta*."""
        self.move_to(v, int(self.gains[v]) + delta)

    def bulk_insert(self, vs: np.ndarray, gains: np.ndarray) -> None:
        """Insert *vs* (insertion order) with *gains* at once.

        Same iteration-order contract as ``GainBucket.bulk_insert``:
        within a bucket, later-inserted vertices are met first.
        """
        m = len(vs)
        if m == 0:
            return
        vs = np.asarray(vs, dtype=np.int64)
        gs = np.asarray(gains, dtype=np.int64)
        b = gs + self.offset
        if int(b.min()) < 0 or int(b.max()) >= len(self.bufs):
            raise ValueError(f"gain outside bucket range ±{self.offset}")
        if bool(self.inside[vs].any()):
            raise ValueError("vertex already in bucket")
        self.gains[vs] = gs
        self.inside[vs] = True
        self.count += m
        self._append_grouped(vs, b)

    def _append_grouped(self, vs: np.ndarray, b: np.ndarray) -> None:
        """Append vertices *vs* with bucket indices *b*, preserving the
        given (chronological) order within each bucket."""
        m = len(vs)
        self.stored += m
        if m <= _SMALL_APPEND:
            # tiny batches: the grouping sort costs more than pushing
            lens, bufs = self.lens, self.bufs
            mx = self.maxb
            for v, bb in zip(vs.tolist(), b.tolist()):
                buf = bufs[bb]
                l = lens[bb]
                if buf is None or l + 1 > len(buf):
                    buf = self._room(bb, 1)
                buf[l] = v
                lens[bb] = l + 1
                if bb > mx:
                    mx = bb
            self.maxb = mx
            return
        # bucket indices are tiny ints: a narrow key makes numpy's stable
        # sort a radix sort (O(n)) instead of timsort — same permutation
        nb = len(self.bufs)
        if nb <= (1 << 8):
            b_key = b.astype(np.uint8)
        elif nb <= (1 << 16):
            b_key = b.astype(np.uint16)
        else:
            b_key = b
        ordr = np.argsort(b_key, kind="stable")
        sb = b[ordr]
        sv = vs[ordr]
        starts = np.flatnonzero(np.r_[True, sb[1:] != sb[:-1]])
        bounds = starts.tolist() + [len(sv)]
        sb_l = sb[starts].tolist()
        lens = self.lens
        for j, bb in enumerate(sb_l):
            chunk = sv[bounds[j] : bounds[j + 1]]
            buf = self._room(bb, len(chunk))
            buf[lens[bb] : lens[bb] + len(chunk)] = chunk
            lens[bb] += len(chunk)
        mx = int(sb[-1])
        if mx > self.maxb:
            self.maxb = mx

    def __len__(self) -> int:
        return self.count

    # -- selection -------------------------------------------------------
    def _trim(self, b: int) -> int:
        """Truncate bucket *b*'s stale tail; return the index of its
        newest current entry, or -1 when the bucket drains empty."""
        l = self.lens[b]
        if l == 0:
            return -1
        buf, gains, inside = self.bufs[b], self.gains, self.inside
        g = b - self.offset
        while l > 0:
            lo = l - _CHUNK if l > _CHUNK else 0
            seg = buf[lo:l]
            cur = inside[seg] & (gains[seg] == g)
            if cur.any():
                li = lo + len(cur) - 1 - int(np.argmax(cur[::-1]))
                self.lens[b] = li + 1
                return li
            l = lo
        self.lens[b] = 0
        return -1

    def _scan(self, test) -> int | None:
        """Walk buckets top-down, entries newest-first, skipping stale
        entries; return the first vertex passing *test* (or ``None``).

        Staleness is evaluated as chunked masks; *test* (an arbitrary
        callable) only ever runs on current entries.
        """
        if self.count == 0:
            return None
        self._maybe_compact()
        gains, inside = self.gains, self.inside
        b = self.maxb
        settled = False
        while b >= 0:
            li = self._trim(b)
            if li >= 0:
                if not settled:
                    self.maxb = b
                    settled = True
                buf = self.bufs[b]
                g = b - self.offset
                l = li + 1
                while l > 0:
                    lo = l - _CHUNK if l > _CHUNK else 0
                    seg = buf[lo:l]
                    for j in np.flatnonzero(inside[seg] & (gains[seg] == g))[::-1]:
                        v = int(seg[j])
                        if test(v):
                            return v
                    l = lo
            b -= 1
        if not settled:
            self.maxb = -1
        return None

    def max_gain(self) -> int | None:
        """Highest stored gain, or ``None`` when empty."""
        if self.count == 0:
            return None
        self._maybe_compact()
        b = self.maxb
        while b >= 0:
            if self._trim(b) >= 0:
                self.maxb = b
                return b - self.offset
            b -= 1
        self.maxb = -1
        return None

    def best(self, feasible=None) -> int | None:
        """Highest-gain vertex satisfying *feasible* (not removed)."""
        if feasible is None:
            return self._scan(lambda v: True)
        return self._scan(feasible)

    def best_capped(self, w, cap: int) -> int | None:
        """:meth:`best` specialized to ``w[v] <= cap`` — the whole scan,
        staleness and weight test both, runs as chunked masks.

        The call starts with up to ``_PROBE`` scalar pops from the stack
        tail — most selections are decided there, at element-read cost —
        then falls back to the fused trim-and-test chunk walk, which
        computes each liveness mask once, truncates the stale tail with
        it, and applies the weight cap on top.  Either way the entry
        found is the same: the newest live entry passing the cap."""
        if self.count == 0:
            return None
        self._maybe_compact()
        gains, inside = self.gains, self.inside
        b = self.maxb
        probes = _PROBE
        while b >= 0:
            l = self.lens[b]
            buf = self.bufs[b]
            g = b - self.offset
            while l > 0 and probes > 0:
                v = buf[l - 1]
                if inside[v] and gains[v] == g:
                    # newest live entry of the whole structure: the
                    # stale tail above it is gone, and maxb settles
                    self.lens[b] = l
                    self.maxb = b
                    if w[v] <= cap:
                        return int(v)
                    # live but over cap: keep it, search older entries
                    return self._capped_vec(b, l - 1, True, w, cap)
                l -= 1
                probes -= 1
            self.lens[b] = l
            if l > 0:
                break  # probe budget spent mid-bucket: go vectorized
            b -= 1
        if b < 0:
            self.maxb = -1
            return None
        return self._capped_vec(b, self.lens[b], False, w, cap)

    def _capped_vec(self, b: int, l0: int, settled: bool, w, cap: int):
        """Chunk-mask continuation of :meth:`best_capped` from length
        *l0* of bucket *b* downward; *settled* says whether the newest
        live entry (hence ``maxb`` and the trim frontier) is known."""
        warr = w if isinstance(w, np.ndarray) else np.asarray(w, dtype=np.int64)
        gains, inside = self.gains, self.inside
        l = l0
        while b >= 0:
            buf = self.bufs[b]
            g = b - self.offset
            while l > 0:
                lo = l - _CHUNK if l > _CHUNK else 0
                seg = buf[lo:l]
                cur = inside[seg] & (gains[seg] == g)
                if cur.any():
                    if not settled:
                        # newest live entry of the whole structure: the
                        # stale tail above it can go, and maxb settles
                        li = lo + len(cur) - 1 - int(np.argmax(cur[::-1]))
                        self.lens[b] = li + 1
                        self.maxb = b
                        settled = True
                    ok = cur & (warr[seg] <= cap)
                    if ok.any():
                        return int(seg[len(ok) - 1 - int(np.argmax(ok[::-1]))])
                elif not settled and lo == 0:
                    self.lens[b] = 0
                l = lo
            b -= 1
            if b >= 0:
                l = self.lens[b]
        if not settled:
            self.maxb = -1
        return None

    def pop_best(self, feasible=None) -> int | None:
        """Like :meth:`best` but also removes the returned vertex."""
        v = self.best(feasible)
        if v is not None:
            self.remove(v)
        return v


class FlatMoveEngine:
    """Array-resident FM state plus the vectorized move kernel.

    Factored out of the pass loop so the inner loop is drivable on its
    own: :func:`fm_pass_flat` runs selection over it, and the kernel
    tests script identical move sequences through this engine and
    through the python reference
    (:meth:`FMCore.apply_move <repro.partitioner.refine.FMCore.apply_move>`)
    to check the move kernel without the shared vectorized pass setup.

    The caller owns the buckets (a ``(side0, side1)`` pair of
    :class:`FlatGainBucket` sharing :attr:`G`) and the selection policy;
    the engine owns eligibility bookkeeping: :meth:`lock` must be used
    instead of writing ``locked[v]`` directly so the combined
    free-and-unlocked mask stays coherent.
    """

    __slots__ = (
        "nv", "part", "pc0", "pc1", "free", "locked", "elig", "G",
        "xpins", "pins", "xpins_l", "pins_l", "xnets", "vnets",
        "cost", "w", "W", "buckets", "boundary_mode",
    )

    def __init__(self, core, G: np.ndarray, boundary_mode: bool = False):
        h = core.h
        self.nv = core.nv
        self.part = core.part_array().astype(np.int64)
        # pin counts and net costs live as python lists: the move kernels
        # only ever touch them per-net, where a list element read costs a
        # fraction of a numpy scalar gather
        self.pc0 = list(core.pc[0])
        self.pc1 = list(core.pc[1])
        self.free = np.asarray(core.free, dtype=bool)
        # per-pass masks come from the level arena when one is active:
        # engines never outlive their pass, so the site keys are safe
        self.locked = scratch("fm.locked", core.nv, bool, zero=True)
        # combined eligibility (free and not locked): the hot masks below
        # need one gather through this instead of two, and the moved
        # vertex itself is excluded for free because it is locked first
        self.elig = scratch("fm.elig", core.nv, bool)
        np.copyto(self.elig, self.free)
        self.G = G
        self.xpins, self.pins = h.xpins, h.pins
        # cached plain-list views for the scalar small-net event path
        self.xpins_l = h.xpins_list()
        self.pins_l = h.pins_list()
        self.xnets, self.vnets = h.xnets, h.vnets
        self.cost = h.net_costs.tolist()
        self.w = core.w  # python list: scalar reads in selection tests
        self.W = core.W  # shared with core, mutated in place
        self.buckets: tuple[FlatGainBucket, FlatGainBucket] | None = None
        self.boundary_mode = boundary_mode

    def lock(self, v: int) -> None:
        """Lock *v* for the rest of the pass (call before
        :meth:`apply_move`, after removing *v* from its bucket)."""
        self.locked[v] = True
        self.elig[v] = False

    def apply_move(self, v: int) -> None:
        """Vectorized critical-net gain updates of one move (see module
        docstring for the batch-equals-sequential argument).

        Gains are applied per event as the nets are walked (a vertex a
        move touches twice accumulates both deltas), then every touched
        pin is appended once per touch at its *final* gain, in event
        order.  The duplicate appends this creates are ordinary ghosts:
        the newest one sits at the vertex's last-touch position — exactly
        where the reference's relinking leaves it — and older duplicates
        can only repeat a deterministic rejection, never change a
        selection.  This keeps the move free of sorting or dedup over
        the touch stream (per-bucket grouping of the single batched
        append is the only reordering, and it is a radix argsort).
        """
        part, elig, G = self.part, self.elig, self.G
        pins, xpins = self.pins, self.xpins
        pl, xl = self.pins_l, self.xpins_l
        frm = int(part[v])
        to = 1 - frm
        pcf, pct = (self.pc0, self.pc1) if frm == 0 else (self.pc1, self.pc0)
        cost = self.cost
        # touch events, chronological: ints (scalar path and the
        # first-matching-pin cases) or arrays (large-net mass bumps)
        ev_v: list = []
        has_arr = False
        # per-net pc updates interleave with that net's event: each
        # event reads only its own net's counts (T/F before the move)
        # plus part/elig, which both stay untouched until after the loop
        for n in self.vnets[self.xnets[v] : self.xnets[v + 1]].tolist():
            c = cost[n]
            if c:
                T = pct[n]
                F = pcf[n]
                if T == 0 or F == 1 or F == 2 or T == 1:
                    lo = xl[n]
                    hi = xl[n + 1]
                    if hi - lo <= _SCALAR_NET:
                        # small net: interpreted loops over the cached
                        # pin list — same cases, same order, no numpy
                        # fixed costs (see _SCALAR_NET)
                        if T == 0:
                            # elig excludes v (locked) — same set as the
                            # reference's u != v / not locked/free test
                            for i in range(lo, hi):
                                u = pl[i]
                                if elig[u]:
                                    G[u] += c
                                    ev_v.append(u)
                        elif T == 1:
                            # the reference bumps the first to-side pin
                            for i in range(lo, hi):
                                u = pl[i]
                                if part[u] == to:
                                    if elig[u]:
                                        G[u] -= c
                                        ev_v.append(u)
                                    break
                        if F == 1:
                            for i in range(lo, hi):
                                u = pl[i]
                                if elig[u]:
                                    G[u] -= c
                                    ev_v.append(u)
                        elif F == 2:
                            for i in range(lo, hi):
                                u = pl[i]
                                if u != v and part[u] == frm:
                                    if elig[u]:
                                        G[u] += c
                                        ev_v.append(u)
                                    break
                    else:
                        seg = pins[lo:hi]
                        if T == 0:
                            el = seg[elig[seg]]
                            if len(el):
                                G[el] += c
                                ev_v.append(el)
                                has_arr = True
                        elif T == 1:
                            i = int(np.argmax(part[seg] == to))
                            u = int(seg[i])
                            if elig[u]:
                                G[u] -= c
                                ev_v.append(u)
                        if F == 1:
                            el = seg[elig[seg]]
                            if len(el):
                                G[el] -= c
                                ev_v.append(el)
                                has_arr = True
                        elif F == 2:
                            i = int(np.argmax((seg != v) & (part[seg] == frm)))
                            u = int(seg[i])
                            if elig[u]:
                                G[u] += c
                                ev_v.append(u)
            pcf[n] -= 1
            pct[n] += 1
        part[v] = to
        wv = self.w[v]
        W = self.W
        W[frm] -= wv
        W[to] += wv
        G[v] = -G[v]
        if not ev_v:
            return
        buckets = self.buckets
        if not has_arr:
            # all events are single vertices (the typical small-net
            # move): push each at its final gain, in event order — the
            # per-side split of the batch tail below preserves exactly
            # this chronological order per bucket, so the stacks match
            boundary = self.boundary_mode
            for u in ev_v:
                bk = buckets[int(part[u])]
                if boundary and not bk.inside[u]:
                    bk.inside[u] = True
                    bk.count += 1
                bk._push(int(G[u]) + bk.offset, u)
            return
        if len(ev_v) == 1:
            ev = ev_v[0]
        else:
            ev = np.concatenate(
                [
                    e
                    if isinstance(e, np.ndarray)
                    else np.array([e], dtype=np.int64)
                    for e in ev_v
                ]
            )
        for s in (0, 1):
            bk = buckets[s]
            tv = ev[part[ev] == s]
            if len(tv) == 0:
                continue
            if self.boundary_mode:
                ins = bk.inside[tv]
                fresh = tv[~ins]
                if len(fresh):
                    bk.inside[fresh] = True
                    # fresh may repeat a vertex touched twice within one
                    # move: count distinct entries only (O(|fresh|), not
                    # the O(nv) full recount this replaces)
                    if len(fresh) == 1:
                        bk.count += 1
                    else:
                        bk.count += len(np.unique(fresh))
                app = tv
            else:
                # every eligible vertex was seeded and only selection
                # removes (and locks) — touched pins are always inside
                app = tv
            if len(app):
                bk._append_grouped(app, G[app] + bk.offset)

    def undo_move(self, v: int) -> None:
        """Reverse one applied move (vectorized pc undo); gains and
        buckets are not restored — rollback discards the pass state."""
        part = self.part
        frm = int(part[v])  # side v is on now
        to = 1 - frm
        pcf, pct = (self.pc0, self.pc1) if frm == 0 else (self.pc1, self.pc0)
        for n in self.vnets[self.xnets[v] : self.xnets[v + 1]].tolist():
            pcf[n] -= 1
            pct[n] += 1
        part[v] = to
        wv = self.w[v]
        W = self.W
        W[frm] -= wv
        W[to] += wv
        self.locked[v] = False
        self.elig[v] = self.free[v]

    def writeback(self, core) -> None:
        """Write array state back to *core* so the next pass (any tier)
        sees it."""
        core.part = self.part.tolist()
        core.pc = [list(self.pc0), list(self.pc1)]
        core.gain = self.G.tolist()
        core.locked = self.locked.tolist()


def _excess(W, maxw) -> int:
    return max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])


def fm_pass_flat(core, maxw, cfg, rng) -> tuple[int, bool]:
    """One FM pass over *core* using the flat kernel.

    Bit-identical to :func:`repro.partitioner.refine._fm_pass`: same RNG
    consumption, same selection order, same moves, same rollback.  Core
    state (part/pc/W/gain/locked) is converted to arrays for the pass and
    written back at the end, so passes of different tiers can interleave.
    """
    nv = core.nv
    core.compute_all_gains()
    G = np.asarray(core.gain, dtype=np.int64)
    core.locked = [False] * nv

    boundary_mode = nv > cfg.fm_boundary_threshold
    if boundary_mode:
        cand = core.boundary_vertices()
    else:
        cand = np.arange(nv)
    free = np.asarray(core.free, dtype=bool)
    cand = cand[free[cand]]
    if len(cand) == 0:
        core.pass_events = 0
        return 0, False

    eng = FlatMoveEngine(core, G, boundary_mode)
    part = eng.part
    w = eng.w  # python list: scalar reads in the selection tests
    w_arr = np.asarray(w, dtype=np.int64)  # vectorized best_capped scans
    W = eng.W

    bound = core.max_gain_bound()
    b0 = FlatGainBucket(
        nv, bound, gains=G, inside=scratch("fm.inside0", nv, bool, zero=True)
    )
    b1 = FlatGainBucket(
        nv, bound, gains=G, inside=scratch("fm.inside1", nv, bool, zero=True)
    )
    buckets = (b0, b1)
    eng.buckets = buckets
    # identical RNG consumption and seeding order to the reference pass
    seq = cand[rng.permutation(len(cand))]
    side = part[seq]
    b0.bulk_insert(seq[side == 0], G[seq[side == 0]])
    b1.bulk_insert(seq[side == 1], G[seq[side == 1]])

    exc0 = _excess(W, maxw)
    moves: list[int] = []
    cum = 0
    best_cum = 0
    best_idx = 0
    best_feasible = exc0 == 0
    best_excess = exc0
    stall_window = max(int(cfg.fm_stall_frac * len(cand)), cfg.fm_stall_min)
    stalls = 0

    def feasible_to(side_to: int):
        cap = maxw[side_to] - W[side_to]
        side_frm = 1 - side_to
        over_frm = W[side_frm] > maxw[side_frm]

        def ok(v: int) -> bool:
            wv = w[v]
            if wv <= cap:
                return True
            if not over_frm:
                return False
            red = min(wv, W[side_frm] - maxw[side_frm])
            inc = max(0, W[side_to] + wv - maxw[side_to])
            return inc < red

        return ok

    max_moves = nv
    for _ in range(max_moves):
        if W[0] > maxw[0]:
            v0 = b0.best(feasible_to(1))
        else:
            v0 = b0.best_capped(w_arr, maxw[1] - W[1])
        if W[1] > maxw[1]:
            v1 = b1.best(feasible_to(0))
        else:
            v1 = b1.best_capped(w_arr, maxw[0] - W[0])
        if v0 is None and v1 is None:
            break
        if v0 is None:
            v = v1
        elif v1 is None:
            v = v0
        else:
            g0, g1 = int(G[v0]), int(G[v1])
            if g0 > g1:
                v = v0
            elif g1 > g0:
                v = v1
            else:
                v = v0 if W[0] >= W[1] else v1
        buckets[int(part[v])].remove(v)
        eng.lock(v)
        g = int(G[v])
        eng.apply_move(v)
        moves.append(v)
        cum += g
        e0 = W[0] - maxw[0]
        e1 = W[1] - maxw[1]
        exc = (e0 if e0 > 0 else 0) + (e1 if e1 > 0 else 0)
        feas = exc == 0
        better = False
        if feas and not best_feasible:
            better = True
        elif feas == best_feasible:
            if feas:
                better = cum > best_cum
            else:
                better = (exc < best_excess) or (
                    exc == best_excess and cum > best_cum
                )
        if better:
            best_cum = cum
            best_idx = len(moves)
            best_feasible = feas
            best_excess = exc
            stalls = 0
        else:
            stalls += 1
            if stalls > stall_window:
                break

    # roll back to the best prefix
    for v in reversed(moves[best_idx:]):
        eng.undo_move(v)

    eng.writeback(core)

    core.pass_events = len(moves)
    rec = get_recorder()
    if rec.enabled:
        rec.add("fm.moves", best_idx)
        rec.add("fm.rollbacks", len(moves) - best_idx)
    changed = best_idx > 0
    return (best_cum if changed else 0), changed
