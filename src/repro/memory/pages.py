"""Coherence state machine for unified-memory arrays.

Unified memory keeps one logical copy of each array; physically there may
be a host copy, a device copy, or both.  We track validity with an
MSI-like protocol:

====================  ==========  ============
state                 host copy   device copy
====================  ==========  ============
``HOST_ONLY``         valid       stale/absent
``DEVICE_ONLY``       stale       valid
``SHARED``            valid       valid
====================  ==========  ============

Transitions:

* GPU read: needs device validity -> ``SHARED`` (from ``HOST_ONLY``,
  after migrating the stale bytes).
* GPU write: ``DEVICE_ONLY`` (host copy invalidated).
* CPU read: needs host validity -> ``SHARED`` (after migrating back).
* CPU write: ``HOST_ONLY`` (device copy invalidated).

CPU accesses migrate at page granularity (UM's unit of migration is the
OS page, batched by the driver into ~2 MB chunks); GPU accesses migrate
whole arrays, which matches both prefetching and the fact that the
paper's kernels stream their entire inputs.
"""

from __future__ import annotations

import enum

#: Migration granularity for CPU-side accesses.  The CUDA driver batches
#: UM migrations into large chunks; 2 MB (the GPU large-page size) is the
#: customary effective unit.
PAGE_SIZE_BYTES = 2 * 1024 * 1024


class CoherenceState(enum.Enum):
    """Validity of the host/device copies of one array."""

    HOST_ONLY = "host_only"
    DEVICE_ONLY = "device_only"
    SHARED = "shared"

    @property
    def host_valid(self) -> bool:
        return self in (CoherenceState.HOST_ONLY, CoherenceState.SHARED)

    @property
    def device_valid(self) -> bool:
        return self in (CoherenceState.DEVICE_ONLY, CoherenceState.SHARED)


def after_gpu_read(state: CoherenceState) -> CoherenceState:
    """State after the GPU has read the array (device copy made valid)."""
    if state is CoherenceState.HOST_ONLY:
        return CoherenceState.SHARED
    return state


def after_gpu_write(state: CoherenceState) -> CoherenceState:
    """State after a GPU kernel wrote the array."""
    return CoherenceState.DEVICE_ONLY


def after_cpu_read(state: CoherenceState) -> CoherenceState:
    """State after the CPU read the array (host copy made valid)."""
    if state is CoherenceState.DEVICE_ONLY:
        return CoherenceState.SHARED
    return state


def after_cpu_write(state: CoherenceState) -> CoherenceState:
    """State after the CPU wrote the array."""
    return CoherenceState.HOST_ONLY


def pages_for_bytes(nbytes: int) -> int:
    """Number of migration pages covering ``nbytes``."""
    if nbytes <= 0:
        return 0
    return -(-nbytes // PAGE_SIZE_BYTES)


def page_span(touched: int, limit: int) -> int:
    """Bytes a host access of ``touched`` bytes migrates: whole pages,
    at least one, capped at ``limit`` (the array size)."""
    return min(limit, max(1, pages_for_bytes(int(touched))) * PAGE_SIZE_BYTES)
