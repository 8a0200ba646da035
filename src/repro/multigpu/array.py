"""Arrays visible to several GPUs.

A :class:`MultiGpuArray` is a :class:`~repro.memory.array.ManagedArray`
whose location set spans every device of the session: the host and any
subset of devices may hold a valid copy, writes invalidate everyone
else, and the scheduler prices migrations from whichever valid copy is
cheapest to reach.  The single-GPU
:class:`~repro.memory.array.DeviceArray` is the one-device case of the
same state and transitions, so host programs — and the polyglot DSL —
are written once and run unchanged whatever the session's device count.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.gpusim.device import Device
from repro.memory.array import DeviceArray, ManagedArray


class MultiGpuArray(ManagedArray):
    """A unified-memory array visible to the host and several GPUs."""

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float32,
        devices: tuple[Device, ...] = (),
        name: str = "",
        materialize: bool = True,
    ) -> None:
        super().__init__(
            shape,
            dtype,
            devices=devices,
            device_count=len(devices),
            name=name,
            materialize=materialize,
        )


def managed_array(
    shape: tuple[int, ...] | int,
    dtype: Any,
    devices: tuple[Device, ...],
    name: str = "",
    materialize: bool = True,
) -> ManagedArray:
    """The array type for ``devices``: a :class:`DeviceArray` on one GPU,
    a :class:`MultiGpuArray` on several."""
    if len(devices) == 1:
        return DeviceArray(
            shape, dtype=dtype, device=devices[0], name=name,
            materialize=materialize,
        )
    return MultiGpuArray(
        shape, dtype=dtype, devices=devices, name=name,
        materialize=materialize,
    )
