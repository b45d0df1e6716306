"""Zero-copy hypergraph transport over POSIX shared memory.

The multi-start engine's process backend used to pickle the whole
:class:`~repro.hypergraph.hypergraph.Hypergraph` into every task — on a
one-copy-per-start protocol the serialization alone can cost more than the
partitioning it buys (the process backend measured *losing* to serial
for exactly this reason before shm transport).  This module
packs all CSR arrays of a hypergraph into one
:class:`multiprocessing.shared_memory.SharedMemory` segment so that a task
ships only the segment *name* plus a table of (offset, dtype, length)
descriptors; each worker process attaches once (pool initializer) and maps
the arrays in place — zero copies, zero pickling of pin data.

Lifecycle contract
------------------
The creating side owns the segment: :meth:`SharedHypergraph.close` both
closes and unlinks it and is idempotent, so callers can (and must) put it
in a ``finally`` — the engine guarantees unlink even when a start crashes.
Workers attach with tracking disabled (attaching is not owning; letting the
``resource_tracker`` register the attachment makes every worker exit try to
unlink the segment again, which is exactly the double-free the tracker is
meant to prevent).  On Linux an unlinked segment stays mapped until the
last attached process exits, so the owner may unlink while workers still
compute.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.telemetry import get_recorder
from repro.verify.faults import trip as _fault_trip

__all__ = [
    "SharedHypergraph",
    "HeartbeatBoard",
    "hypergraph_to_shm",
    "hypergraph_from_shm",
]

#: Hypergraph array slots shipped through the segment, in packing order.
_ARRAY_SLOTS = (
    "xpins",
    "pins",
    "xnets",
    "vnets",
    "vertex_weights",
    "net_costs",
    "fixed",
)


def _attach(name: str):
    """Attach to an existing segment without registering ownership."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13 spells it explicitly
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Older interpreters register attachments with the resource tracker as
    # if they were creations (bpo-39959): every attaching process would
    # then try to unlink the segment on exit.  Suppress the registration
    # for the duration of the attach — the creating side stays the sole
    # registered owner.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedHypergraph:
    """Owner-side handle of a hypergraph exported to shared memory.

    ``meta`` is the picklable descriptor a worker needs to attach
    (:func:`hypergraph_from_shm`); everything else lives in the segment.
    """

    def __init__(self, shm, meta: dict) -> None:
        self._shm = shm
        self.meta = meta

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return int(self.meta["nbytes"])

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        An ``OSError`` from the unlink itself (injectable at the
        ``shm.unlink`` fault site) must not fail the partitioning call
        that already succeeded: it is absorbed and counted as
        ``shm.unlink_errors`` telemetry.
        """
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                _fault_trip("shm.unlink")
                shm.unlink()
            except FileNotFoundError:
                pass
            except OSError:
                get_recorder().add("shm.unlink_errors")

    def __enter__(self) -> "SharedHypergraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort safety net; close() is the API
        try:
            self.close()
        except Exception:
            pass


class HeartbeatBoard:
    """One ``float64`` monotonic-clock timestamp per worker, in shared memory.

    The supervision layer of :mod:`repro.partitioner.resilience` uses this
    as its liveness channel: each supervised worker's heartbeat thread
    stamps its slot every ``heartbeat_interval`` seconds and the parent
    reads the slots without any syscall traffic — ``CLOCK_MONOTONIC`` is
    system-wide on the platforms we run on, so parent and child timestamps
    are directly comparable.  Same ownership contract as
    :class:`SharedHypergraph`: the creating side closes *and* unlinks,
    workers attach with tracking disabled and only close.
    """

    def __init__(self, shm, n_slots: int, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self.name = shm.name
        self.slots = np.ndarray((n_slots,), dtype=np.float64, buffer=shm.buf)

    @classmethod
    def create(cls, n_slots: int) -> "HeartbeatBoard":
        """Allocate a zeroed board for *n_slots* workers (owner side)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=8 * max(n_slots, 1))
        board = cls(shm, n_slots, owner=True)
        board.slots[:] = 0.0
        return board

    @classmethod
    def attach(cls, name: str, n_slots: int) -> "HeartbeatBoard":
        """Map an existing board without taking ownership (worker side)."""
        return cls(_attach(name), n_slots, owner=False)

    def beat(self, slot: int) -> None:
        """Stamp *slot* with the current monotonic time."""
        import time

        self.slots[slot] = time.monotonic()

    def last_beat(self, slot: int) -> float:
        """Newest stamp of *slot* (0.0 if the worker never beat)."""
        return float(self.slots[slot])

    def close(self) -> None:
        """Release the mapping; the owner also unlinks (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self.slots = None
        try:
            shm.close()
        finally:
            if self._owner:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    get_recorder().add("shm.unlink_errors")

    def __enter__(self) -> "HeartbeatBoard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort safety net; close() is the API
        try:
            self.close()
        except Exception:
            pass


def hypergraph_to_shm(h: Hypergraph) -> SharedHypergraph:
    """Export *h*'s arrays into one fresh shared-memory segment.

    Raises whatever :class:`multiprocessing.shared_memory.SharedMemory`
    raises when shared memory is unavailable (callers fall back to pickle
    transport).
    """
    from multiprocessing import shared_memory

    _fault_trip("shm.create")
    arrays = {}
    total = 0
    for slot in _ARRAY_SLOTS:
        arr = getattr(h, slot)
        if arr is None:  # fixed is optional
            continue
        arr = np.ascontiguousarray(arr)
        arrays[slot] = arr
        total += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    table = {}
    offset = 0
    try:
        for slot, arr in arrays.items():
            end = offset + arr.nbytes
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf[offset:end])
            view[...] = arr
            table[slot] = (offset, str(arr.dtype), int(arr.shape[0]))
            offset = end
    except Exception:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        raise
    meta = {
        "name": shm.name,
        "num_vertices": h.num_vertices,
        "num_nets": h.num_nets,
        "nbytes": total,
        "arrays": table,
    }
    return SharedHypergraph(shm, meta)


def hypergraph_from_shm(meta: dict) -> Hypergraph:
    """Attach to a segment exported by :func:`hypergraph_to_shm`.

    The returned hypergraph's arrays are read-only views over the shared
    buffer — no copy, no re-validation, no transpose rebuild.  The
    attachment handle is parked on the instance so the mapping outlives the
    arrays using it.
    """
    _fault_trip("shm.attach")
    shm = _attach(meta["name"])
    h = Hypergraph.__new__(Hypergraph)
    h.num_vertices = int(meta["num_vertices"])
    h.num_nets = int(meta["num_nets"])
    h.fixed = None
    for slot, (offset, dtype, length) in meta["arrays"].items():
        dt = np.dtype(dtype)
        end = offset + dt.itemsize * length
        view = np.ndarray((length,), dtype=dt, buffer=shm.buf[offset:end])
        view.flags.writeable = False
        setattr(h, slot, view)
    h._views = {"_shm_handle": shm}  # keep the mapping alive
    return h
