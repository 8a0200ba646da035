"""Unified-memory device arrays.

A :class:`DeviceArray` is the GrCUDA managed array: a numpy buffer that
the host program indexes like a normal array while the runtime intercepts
every access to (a) keep the coherence state honest and (b) turn
accesses that conflict with in-flight GPU work into computational
elements (section IV-A: "memory accesses by the CPU host program to
GrCUDA UM-backed arrays" are DAG vertices).

Every managed array tracks a *location set*: whether the host copy is
valid, and which devices hold a valid replica.  A single-GPU
:class:`DeviceArray` is the one-device case; the multi-GPU
:class:`~repro.multigpu.array.MultiGpuArray` is the same class with
more devices, so both share one state and one set of transitions.

Values live in one numpy buffer — the host/device "copies" exist only in
the location set used for timing.  This keeps functional results exact
while the simulator charges realistic migration costs.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

import numpy as np

from repro.gpusim.device import Device
from repro.memory.pages import CoherenceState, page_span


class AccessKind(enum.Enum):
    """How a computation touches an array."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"

    def __init__(self, value: str) -> None:
        # Plain attributes: every access declaration reads them.
        self.reads = value != "write"
        self.writes = value != "read"


#: Signature of the CPU-access hook installed by the execution context.
#: Called *before* the numpy access happens.
AccessHook = Callable[["ManagedArray", AccessKind, int], None]


def lowest_device(mask: int) -> int:
    """Index of the lowest set bit of a non-empty device mask."""
    return (mask & -mask).bit_length() - 1


def copy_source(
    valid_mask: int, host_valid: bool, device_index: int
) -> int | None:
    """Cheapest source for making ``device_index`` valid in a location
    set: None if already resident, else the lowest valid peer (a
    peer-to-peer copy), else ``-1`` for the host."""
    if valid_mask >> device_index & 1:
        return None
    if valid_mask:
        return lowest_device(valid_mask)
    assert host_valid, "a location set lost all its copies"
    return -1


class ManagedArray:
    """A UM-backed array: hooked host access over one numpy buffer,
    plus the location set the coherence engine keeps honest.

    ``host_valid`` says whether the host copy is valid; bit ``d`` of
    ``valid_mask`` whether device ``d`` holds a valid replica.  Writes
    invalidate every other copy; reads add one.  Fresh UM memory is
    zeroed, so a new array is valid everywhere.

    Host accesses go through :meth:`_notify` before they happen: with
    an execution context attached it routes them through the context's
    hook, which syncs conflicting work and charges the migration;
    without one the transition applies directly.
    """

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any,
        devices: tuple[Device, ...],
        device_count: int,
        name: str,
        materialize: bool,
    ) -> None:
        self._shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self._dtype = np.dtype(dtype)
        self.name = name or f"arr{id(self) & 0xFFFF:x}"
        self.materialized = materialize
        # Timing-only sweeps at paper scales would need tens of GB of
        # host RAM; a virtual array keeps the declared geometry (all
        # transfer/coherence costs stay exact) without the buffer.
        self._data = np.zeros(
            self._shape if materialize else 1, dtype=self._dtype
        )
        self.devices = devices
        self.device_count = device_count
        self.host_valid = True
        self.valid_mask = (1 << device_count) - 1
        self._alloc_handles = [dev.allocate(self.nbytes) for dev in devices]
        self._on_cpu_access: AccessHook | None = None
        self.freed = False

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def nbytes(self) -> int:
        return self.size * self._dtype.itemsize

    @property
    def size(self) -> int:
        n = 1
        for s in self._shape:
            n *= s
        return n

    @property
    def itemsize(self) -> int:
        return self._dtype.itemsize

    def __len__(self) -> int:
        return self._shape[0] if self._shape else 0

    def _check_alive(self) -> None:
        if self.freed:
            raise ValueError(f"array {self.name} was freed")

    # -- location set ---------------------------------------------------------

    @property
    def valid_on(self) -> set[int]:
        """Devices holding a valid replica."""
        return {d for d in range(self.device_count) if self.valid_mask >> d & 1}

    def resident_on(self, device_index: int) -> bool:
        return bool(self.valid_mask >> device_index & 1)

    def migration_source(self, device_index: int) -> int | None:
        """See :func:`copy_source`."""
        return copy_source(self.valid_mask, self.host_valid, device_index)

    def migration_bytes(self, device_index: int = 0) -> int:
        """Bytes to move before a kernel on ``device_index`` reads this."""
        return 0 if self.resident_on(device_index) else self.nbytes

    def stale_host_bytes(self, touched: int | None = None) -> int:
        """Bytes that must move device->host before a CPU access of
        ``touched`` bytes (page-rounded, capped at the array size)."""
        if self.host_valid:
            return 0
        return page_span(self.nbytes if touched is None else touched, self.nbytes)

    def mark_read(self, device_index: int = 0) -> None:
        """Device obtained a valid copy (after its migration landed)."""
        self.valid_mask |= 1 << device_index

    def mark_write(self, device_index: int = 0) -> None:
        """Device wrote the array: every other copy is stale."""
        self.valid_mask = 1 << device_index
        self.host_valid = False

    def mark_cpu_read(self) -> None:
        self.host_valid = True

    def mark_cpu_write(self) -> None:
        self.host_valid = True
        self.valid_mask = 0

    # -- host access (hooked) ------------------------------------------------

    def set_access_hook(self, hook: AccessHook | None) -> None:
        """Route the array's CPU accesses through an execution context."""
        self._on_cpu_access = hook

    def _notify(self, kind: AccessKind, touched: int) -> None:
        """Declare an imminent host access (see the class docs)."""
        if self._on_cpu_access is not None:
            self._on_cpu_access(self, kind, touched)
            return
        if kind.reads:
            self.mark_cpu_read()
        if kind.writes:
            self.mark_cpu_write()

    def _touched_bytes(self, key: Any) -> int:
        """Rough byte count an indexing expression touches."""
        if isinstance(key, (int, np.integer)):
            rest = 1
            for s in self._shape[1:]:
                rest *= s
            return rest * self.itemsize
        if isinstance(key, slice) and self._shape:
            count = len(range(*key.indices(self._shape[0])))
            rest = 1
            for s in self._shape[1:]:
                rest *= s
            return count * rest * self.itemsize
        if not self.materialized:
            return self.nbytes  # conservative for exotic keys
        try:
            probe = np.empty(self.shape, dtype=np.bool_)[key]
        except Exception:
            return self.nbytes
        if isinstance(probe, np.ndarray):
            return int(probe.size) * self.itemsize
        return self.itemsize

    def _selected_shape(self, key: Any) -> tuple[int, ...]:
        """Shape of a slice selection on a virtual array (cheap cases)."""
        if isinstance(key, slice) and self._shape:
            count = len(range(*key.indices(self._shape[0])))
            return (count, *self._shape[1:])
        return (0,)

    def __getitem__(self, key: Any) -> Any:
        self._check_alive()
        self._notify(AccessKind.READ, self._touched_bytes(key))
        if not self.materialized:
            if isinstance(key, (int, np.integer)):
                return np.zeros(1, dtype=self.dtype)[0]
            return np.zeros(self._selected_shape(key), dtype=self.dtype)
        return self._data[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._check_alive()
        self._notify(AccessKind.WRITE, self._touched_bytes(key))
        if self.materialized:
            self._data[key] = value

    def fill(self, value: Any) -> None:
        """Host-side bulk initialization."""
        self._check_alive()
        self._notify(AccessKind.WRITE, self.nbytes)
        if self.materialized:
            self._data.fill(value)

    def copy_from_host(self, source: np.ndarray) -> None:
        """Host-side bulk write from a numpy array (shape-checked)."""
        self._check_alive()
        src = np.asarray(source, dtype=self.dtype)
        if src.shape != self.shape:
            raise ValueError(
                f"shape mismatch: array {self.shape}, source {src.shape}"
            )
        self._notify(AccessKind.WRITE, self.nbytes)
        if self.materialized:
            np.copyto(self._data, src)

    def touch_write_full(self) -> None:
        """Announce a full-array host overwrite without supplying data.

        Timing-equivalent to :meth:`copy_from_host`; used by timing-only
        sweeps on virtual arrays where generating gigabytes of input
        values would be wasted work.
        """
        self._check_alive()
        self._notify(AccessKind.WRITE, self.nbytes)

    def to_numpy(self) -> np.ndarray:
        """Host-side bulk read; returns a copy."""
        self._check_alive()
        self._notify(AccessKind.READ, self.nbytes)
        if not self.materialized:
            return np.zeros(self.shape, dtype=self.dtype)
        return self._data.copy()

    # -- unchecked access for kernels -----------------------------------------

    @property
    def kernel_view(self) -> np.ndarray:
        """The raw buffer, for use *inside* kernel compute functions only.

        Kernel compute functions run at simulated-completion time, after
        the scheduler has already ordered them; routing them through the
        CPU-access hook would deadlock (the GPU would wait for itself).
        """
        return self._data

    # -- lifecycle ----------------------------------------------------------------

    def free(self) -> None:
        """Release the device allocations.  Idempotent."""
        if self.freed:
            return
        for dev, handle in zip(self.devices, self._alloc_handles):
            dev.free(handle)
        self._alloc_handles = []
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = ["host"] if self.host_valid else []
        where += [f"gpu{i}" for i in sorted(self.valid_on)]
        return (
            f"<{type(self).__name__} {self.name} {self._dtype}"
            f"{list(self._shape)} valid on {'+'.join(where) or 'nowhere'}>"
        )


class DeviceArray(ManagedArray):
    """A unified-memory array visible to both host code and one GPU: the
    one-device location set."""

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float32,
        device: Device | None = None,
        name: str = "",
        materialize: bool = True,
    ) -> None:
        super().__init__(
            shape,
            dtype,
            devices=() if device is None else (device,),
            device_count=1,
            name=name,
            materialize=materialize,
        )
        self.device = device

    @property
    def state(self) -> CoherenceState:
        """The location set as the two-copy MSI state."""
        if not self.valid_mask:
            return CoherenceState.HOST_ONLY
        if self.host_valid:
            return CoherenceState.SHARED
        return CoherenceState.DEVICE_ONLY
