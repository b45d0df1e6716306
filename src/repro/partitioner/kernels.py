"""Kernel tiers of the refinement/matching hot path.

The V-cycle hot loops (FM refinement, matching, coarse build, initial
bisection, K-way refinement) exist in two implementations — *tiers* —
selected through the ``kernel`` axis of
:class:`~repro.partitioner.config.ExecutionPolicy`:

``flat``
    The production tier (the default): flat numpy array buckets with
    lazy deletion and per-net vectorized gain updates
    (:mod:`~repro.partitioner.fm_flat`), plus batched matching, coarse
    build, GHG and K-way kernels.  Each phase routes small inputs to the
    scalar loop behind measured size gates, so it never loses to the
    reference.
``python``
    The pure-Python reference (:class:`~repro.partitioner.gainbucket.GainBucket`
    + the per-pin loops in :mod:`~repro.partitioner.refine`).  Kept as
    the oracle the differential-replay harness (:mod:`repro.verify.replay`)
    and the phase-parity tests compare the flat tier against.

Both tiers produce bit-identical partitions, so the kernel is pure
execution policy and never participates in :func:`repro.fingerprint`.
"""

from __future__ import annotations

__all__ = ["RACE_MIN_EVENTS", "race_pick"]

#: a race probe must log at least this many move events before its
#: per-event rate counts as evidence; tiny converged passes stay probes
RACE_MIN_EVENTS = 32


def race_pick(race: dict[str, list[float]]) -> str:
    """Pick the tier for one raced kernel invocation on a level.

    Some flat-vs-python regimes no static size gate can separate: a
    level's *criticality structure* (how much per-pin mass-update work
    each move triggers) decides the winner, and that is only observable
    by running.  Because every tier is bit-identical per invocation, a
    caller can simply time one invocation of each on the level and keep
    the winner.  *race* accumulates ``[seconds, events]`` per tier —
    callers cache it on the level hypergraph (``h._view``), so
    multi-starts and V-cycles revisiting the level inherit the verdict
    instead of re-probing.  Unprobed tiers run first (flat before
    python); after both have evidence the lower seconds-per-event rate
    wins.
    """
    if race["flat"][1] == 0:
        return "flat"
    if race["python"][1] == 0:
        return "python"
    rf = race["flat"][0] / race["flat"][1]
    rp = race["python"][0] / race["python"][1]
    return "flat" if rf <= rp else "python"
