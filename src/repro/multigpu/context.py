"""The multi-GPU execution context.

Extends the single-GPU scheduling loop with one extra decision per
computation: *which GPU runs it*.  Everything else is shared machinery —
the dependency-set DAG, per-device stream managers, event
synchronization, the coherence engine (whose location sets are the same
for every device count), kernel history and the one launch path,
:func:`repro.core.context.submit_compute`.

It is the :class:`~repro.core.context.ExecutionContext` implementation
:class:`repro.session.Session` selects when ``gpus > 1``, so device
count is configuration rather than an API choice.  Data moves under the
session's configured :class:`~repro.memory.coherence.MovementPolicy`,
and :class:`~repro.multigpu.array.MultiGpuArray` location sets
transition when operations *complete* on the simulated device, with
placement pricing reading the coherence engine's planned overlay.

Placement policies (:class:`~repro.core.policies.DevicePlacementPolicy`):

* ``ROUND_ROBIN`` — naive; ignores data location;
* ``MIN_TRANSFER`` — the paper's stated requirement: "compute data
  location and migration costs at run time".  Each candidate device is
  priced as (bytes it would have to migrate, on the planned view) plus a
  load-balance tiebreak on outstanding work.
* ``LEAST_LOADED`` — ignores data location and picks the device with the
  least outstanding (estimated) work; the classic serving-fleet dispatch
  rule that :mod:`repro.serve` builds on.
"""

from __future__ import annotations

from repro.core.context import ExecutionContext
from repro.core.policies import DevicePlacementPolicy, SchedulerConfig
from repro.core.streams import StreamManager
from repro.gpusim.engine import SimEngine
from repro.gpusim.stream import SimStream
from repro.kernels.kernel import KernelLaunch


class _PerDevice:
    """Per-GPU scheduling state."""

    def __init__(self, index: int, engine: SimEngine,
                 config: SchedulerConfig) -> None:
        self.index = index
        self._engine = engine
        # StreamManager creates streams on device 0 by default; a custom
        # factory pins this manager's streams to this device.
        self.streams = StreamManager(
            engine,
            new_stream=config.new_stream,
            parent_stream=config.parent_stream,
            stream_factory=self._make_stream,
        )
        self._label_counter = 0
        self.outstanding_work: float = 0.0

    def _make_stream(self) -> SimStream:
        self._label_counter += 1
        return self._engine.create_stream(
            label=f"gpu{self.index}-{self._label_counter}",
            device_index=self.index,
        )


class MultiGpuExecutionContext(ExecutionContext):
    """A GrCUDA-style execution context scheduling across several GPUs."""

    def __init__(self, engine: SimEngine, config: SchedulerConfig) -> None:
        super().__init__(engine, config)
        self.devices = engine.devices
        self.placement = config.resolve_placement()
        self._per_device = [
            _PerDevice(i, engine, config)
            for i in range(len(self.devices))
        ]
        self._rr_next = 0

    # -- placement ----------------------------------------------------------

    def _least_loaded(self) -> int:
        return min(
            range(len(self.devices)),
            key=lambda i: (self._per_device[i].outstanding_work, i),
        )

    def _placement_cost(
        self, device_index: int, launch: KernelLaunch
    ) -> tuple[float, float]:
        """(planned migration bytes, outstanding work) — lexicographic."""
        migration = 0.0
        for array, access in launch.array_args:
            if access.reads:
                migration += self.coherence.migration_bytes(
                    array, device_index
                )
        return migration, self._per_device[device_index].outstanding_work

    def _choose_device(self, launch: KernelLaunch) -> int:
        if self.placement is DevicePlacementPolicy.ROUND_ROBIN:
            choice = self._rr_next
            self._rr_next = (self._rr_next + 1) % len(self.devices)
            return choice
        if self.placement is DevicePlacementPolicy.LEAST_LOADED:
            return self._least_loaded()
        return min(
            range(len(self.devices)),
            key=lambda i: self._placement_cost(i, launch),
        )

    def _place(self, element, parents, launch) -> tuple[SimStream, int]:
        """Place kernels per the placement policy; stream-aware library
        calls declare a flat cost, so there is no migration pricing to
        beat and they go to the least-loaded device.

        The device's stream manager may hand back a parent's stream
        that lives on another device (the DISJOINT first-child rule):
        the op then runs there while its movement and bookkeeping
        target the placed device."""
        device_index = (
            self._least_loaded()
            if launch is None
            else self._choose_device(launch)
        )
        stream = self._per_device[device_index].streams.assign(
            element, parents
        )
        return stream, device_index

    # -- scheduling ------------------------------------------------------------

    def launch(self, launch: KernelLaunch) -> None:
        """Handler for kernel invocations (the shared DAG flow, plus the
        device decision and an outstanding-work estimate per device)."""
        op = self._schedule(launch)
        per_dev = self._per_device[op.info["device"]]
        duration = self.devices[per_dev.index].contention.kernel_duration(op)
        per_dev.outstanding_work += duration
        op.on_complete.append(
            lambda _op, pd=per_dev, d=duration: self._retire(pd, d)
        )

    @staticmethod
    def _retire(per_dev: _PerDevice, duration: float) -> None:
        per_dev.outstanding_work = max(
            0.0, per_dev.outstanding_work - duration
        )

    # -- introspection --------------------------------------------------------

    def reclaimable_streams(self) -> tuple[SimStream, ...]:
        return (
            tuple(
                s
                for per_dev in self._per_device
                for s in per_dev.streams.streams
            )
            + super().reclaimable_streams()
        )


__all__ = [
    "MultiGpuExecutionContext",
    "DevicePlacementPolicy",
]
