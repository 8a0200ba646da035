"""Execution contexts: serial-synchronous baseline and the paper's
parallel-asynchronous scheduler.

The GPU execution context (section IV-B) is the component every kernel
invocation and CPU array access flows through:

1. the invocation is converted to a computational element;
2. the element is registered with the context, which updates the DAG
   with the element's data dependencies;
3. the stream manager assigns an execution stream;
4. cross-stream dependencies are synchronized with events — never by
   blocking the host;
5. the operations are scheduled for execution on the device.

The serial context (original GrCUDA) skips all of that: one stream,
host-blocking sync after every computation, no dependency computation.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from repro.core.dag import ComputationDAG
from repro.core.history import KernelExecutionRecord, KernelHistory
from repro.core.element import (
    ArrayAccessElement,
    ComputationalElement,
    KernelElement,
    LibraryCallElement,
)
from repro.core.policies import SchedulerConfig
from repro.core.streams import StreamManager
from repro.gpusim.engine import SimEngine
from repro.gpusim.ops import (
    KernelOp,
    KernelResourceRequest,
    TransferKind,
)
from repro.gpusim.stream import SimEvent, SimStream
from repro.kernels.kernel import KernelLaunch
from repro.kernels.profile import combine_resources
from repro.memory.array import AccessKind, ManagedArray
from repro.memory.coherence import CoherenceEngine, stamp_access_tokens


def submit_compute(
    coherence: CoherenceEngine,
    stream: SimStream,
    label: str,
    accesses: Sequence[tuple[ManagedArray, AccessKind]],
    resources: KernelResourceRequest,
    compute_fn: Callable[[], None] | None,
    *,
    kind: TransferKind | None = None,
    device: int | None = None,
    on_complete: Callable | None = None,
    finish_label: str | None = None,
) -> tuple[KernelOp, SimEvent | None]:
    """The one launch path every executor submits compute through:
    acquire → kernel op → race tokens → release → submit.

    ``coherence`` plans the movement ``accesses`` need on ``device``
    (default: ``stream``'s; ``kind`` overrides the transfer kind), the
    fault charge lands on the op, the op carries per-copy race-detector
    tokens, the executor's tags and ``on_complete``, and the accesses'
    transitions commit when it completes.  With ``finish_label`` — or
    when the op creates replicas a peer copy may source from — a finish
    event is recorded after it and returned.
    """
    if device is None:
        device = stream.device_index
    plan = coherence.acquire(
        list(accesses), stream, label=label, kind=kind, device=device
    )
    if plan.fault_bytes > 0:
        resources = combine_resources(resources, plan.fault_bytes)
    op = KernelOp(label=label, resources=resources, compute_fn=compute_fn)
    stamp_access_tokens(
        op,
        ([a for a, k in accesses if k.reads], device),
        ([a for a, k in accesses if k.writes], device),
    )
    op.info["device"] = device
    op.info.update(coherence.op_tags)
    if on_complete is not None:
        op.on_complete.append(on_complete)
    coherence.release(plan, op)
    engine = coherence.engine
    engine.submit(stream, op)
    event = None
    if finish_label is not None or plan.fault_replicas:
        event = engine.record_event(stream, label=finish_label or label)
        coherence.register_fault_ordering(plan, event)
    return op, event


def wait_cross_stream_parents(
    engine: SimEngine,
    stream: SimStream,
    parents: list[ComputationalElement],
) -> None:
    """Cross-stream dependencies -> event waits; same-stream ones are
    already ordered by CUDA's FIFO guarantee."""
    for parent in parents:
        if (
            parent.finish_event is not None
            and parent.stream is not stream
            and not parent.finish_event.complete
        ):
            engine.wait_event(stream, parent.finish_event)


def library_call_resources(spec, cost_seconds: float) -> KernelResourceRequest:
    """Model a stream-aware library call of the declared cost as a
    full-device computation on ``spec``."""
    return KernelResourceRequest(
        flops=cost_seconds * spec.flops_rate(False),
        fp64=False,
        dram_bytes=0.0,
        l2_bytes=0.0,
        instructions=0.0,
        threads_total=spec.max_resident_threads,
    )


def kernel_history_recorder(launch: KernelLaunch, sink):
    """An ``on_complete`` callback feeding a
    :class:`KernelExecutionRecord` for ``launch`` into ``sink`` (e.g.
    ``KernelHistory.record`` or a per-tenant list's ``append``)."""
    data_bytes = float(sum(a.nbytes for a, _ in launch.array_args))

    def record(completed_op) -> None:
        sink(
            KernelExecutionRecord(
                kernel_name=launch.label,
                threads_per_block=launch.threads_per_block,
                blocks=launch.blocks,
                data_bytes=data_bytes,
                duration=completed_op.end_time - completed_op.start_time,
                stream_id=(
                    completed_op.stream.stream_id
                    if completed_op.stream is not None
                    else -1
                ),
                end_time=completed_op.end_time,
            )
        )

    return record


class ExecutionContext(abc.ABC):
    """Common machinery of every scheduling policy.

    The base class implements the paper's asynchronous DAG scheduling
    (section IV-B) for any device count: a computation becomes a DAG
    element, :meth:`_place` picks its stream and device,
    cross-stream parents become event waits, and the op goes through
    :func:`submit_compute`.  The serial context overrides the parts the
    original scheduler does differently.
    """

    #: whether this context runs the original serial scheduler (movement
    #: resolution differs: the serial scheduler predates the prefetcher)
    serial = False

    def __init__(self, engine: SimEngine, config: SchedulerConfig) -> None:
        self.engine = engine
        self.device = engine.device
        self.config = config
        self.movement = config.resolve_movement(
            engine.device.spec, serial=self.serial
        )
        self.dag = ComputationDAG()
        #: per-kernel execution history (section IV-A), feeding the
        #: block-size heuristic of section VI
        self.history = KernelHistory()
        #: extra key/values merged into every submitted op's ``info``.
        #: Multi-tenant hosts (``repro.serve``) set e.g. a tenant name
        #: here so shared-engine timeline records stay attributable.
        self.op_tags: dict = {}
        #: all data movement flows through here (shares ``op_tags`` by
        #: reference so tenant tags reach transfer ops too)
        self.coherence = CoherenceEngine(
            engine,
            policy=self.movement,
            op_tags=self.op_tags,
            window=config.movement_window,
        )
        self.kernel_count = 0
        self.cpu_access_fast_path_count = 0
        self.cpu_access_element_count = 0

    # -- public API used by the session ---------------------------------------

    def attach(self, array: ManagedArray) -> None:
        """Route the array's CPU accesses through this context."""
        array.set_access_hook(self._on_cpu_access)

    @abc.abstractmethod
    def launch(self, launch: KernelLaunch) -> None:
        """Schedule one kernel launch (GrCUDA launch handler)."""

    def sync(self) -> None:
        """Host-side device synchronization."""
        self.engine.sync_all()
        self.dag.deactivate_completed()

    def reclaimable_streams(self) -> tuple[SimStream, ...]:
        """Streams a retiring context hands back to the engine (see
        :meth:`repro.session.Session.renew_context`): the ones its
        coherence engine created (window-coalescing streams); DAG
        contexts add their scheduling streams."""
        return self.coherence.take_owned_streams()

    def device_kernel_counts(self) -> list[int]:
        """Kernels executed per GPU (load-balance introspection)."""
        counts = [0] * len(self.engine.devices)
        for rec in self.engine.timeline.kernels():
            counts[rec.meta.get("device", 0)] += 1
        return counts

    # -- DAG scheduling ---------------------------------------------------------

    def _place(
        self,
        element: ComputationalElement,
        parents: list[ComputationalElement],
        launch: KernelLaunch | None,
    ) -> tuple[SimStream, int]:
        """The stream ``element`` is submitted to and the device its
        data movement and bookkeeping target."""
        raise NotImplementedError

    def _schedule(self, launch: KernelLaunch) -> KernelOp:
        """Kernel invocation handler: DAG element, stream, event waits
        on cross-stream parents, then the shared launch path — which
        waits on in-flight shared-input migrations, plans the movement
        the policy calls for (prefetch, batched copies, or fault charges
        inside the kernel — the ablation of section V-C), and binds the
        state transitions to the kernel's completion."""
        self.kernel_count += 1
        self.engine.charge_host_time(
            self.config.scheduling_overhead_us * 1e-6
        )
        element = KernelElement(launch)
        parents = self.dag.add(element)
        stream, device = self._place(element, parents, launch)
        wait_cross_stream_parents(self.engine, stream, parents)
        op, element.finish_event = submit_compute(
            self.coherence,
            stream,
            launch.label,
            launch.array_args,
            launch.resources(),
            launch.execute,
            device=device,
            on_complete=kernel_history_recorder(launch, self.history.record),
            finish_label=f"done:{launch.label}@gpu{device}",
        )
        self.dag.watch_completion(element)
        return op

    def library_call(self, element: LibraryCallElement) -> None:
        """Schedule a pre-registered library function (section IV-A).

        Stream-aware libraries are scheduled asynchronously like kernels,
        modelled as a full-device computation of the declared cost;
        stream-unaware ones force a device sync and run on the host.
        """
        if not element.stream_aware:
            self.sync()
            self.engine.charge_host_time(element.cost_seconds)
            element.fn()
            return
        parents = self.dag.add(element)
        stream, device = self._place(element, parents, None)
        wait_cross_stream_parents(self.engine, stream, parents)
        spec = self.engine.devices[device].spec
        _, element.finish_event = submit_compute(
            self.coherence,
            stream,
            element.label,
            element.accesses,
            library_call_resources(spec, element.cost_seconds),
            element.fn,
            device=device,
            finish_label=f"done:{element.label}@gpu{device}",
        )
        self.dag.watch_completion(element)

    # -- CPU array accesses -------------------------------------------------------

    def _on_cpu_access(
        self, array: ManagedArray, kind: AccessKind, touched: int
    ) -> None:
        """Hook called before every CPU access to a managed array: the
        CPU-access rule of section IV-A over location sets.  Synchronize
        the precise conflicting computations, write back from a valid
        replica when the host copy is stale, and let a full-array
        overwrite kill every device replica without moving a byte."""
        conflicts = (
            self.dag.active_users(array)
            if kind.writes
            else self.dag.active_writers(array)
        )
        needs_migration = self.coherence.needs_host_migration(
            array, kind, touched
        )
        if not conflicts and not needs_migration:
            # Fast path (section IV-A): consecutive accesses, or accesses
            # while no GPU computation is active, bypass the DAG.  The
            # coherence declaration still runs — a write must invalidate
            # the device replicas through the shared transition path
            # even when nothing migrates.
            self.cpu_access_fast_path_count += 1
            if kind.writes:
                self.coherence.cpu_access(array, kind, touched)
            return

        self.cpu_access_element_count += 1
        element = ArrayAccessElement(array, kind, touched)
        parents = self.dag.add(element)
        # Synchronize only the computations operating on this data,
        # through their precise per-computation events.
        for parent in parents:
            if parent.finish_event is not None:
                self.engine.sync_event(parent.finish_event)

        self.coherence.cpu_access(
            array, kind, touched, stream=self.engine.default_stream
        )
        # The access happens synchronously right after this hook returns:
        # it cannot affect later GPU work through anything but coherence,
        # so it leaves the frontier immediately.
        self.dag.deactivate(element)
        self.dag.deactivate_completed()


class SerialExecutionContext(ExecutionContext):
    """The original GrCUDA scheduler: serial and synchronous.

    Every computation runs alone on the default stream; the host blocks
    until it finishes.  No dependencies are computed ("when using serial
    scheduling, GrCUDA does not compute dependencies, making overheads
    even smaller").

    The original scheduler predates the automatic prefetcher, so unified
    memory reaches the GPU through page faults on Pascal+ (plain UM
    behaviour) and through eager copies on Maxwell, which has no fault
    mechanism.  ``SchedulerConfig(prefetch=PrefetchPolicy.SYNC)`` forces
    eager copies everywhere (used by the contention-free measurements);
    ``SchedulerConfig(movement=...)`` selects any movement policy
    explicitly.
    """

    serial = True

    def launch(self, launch: KernelLaunch) -> None:
        self.kernel_count += 1
        self.engine.charge_host_time(self.config.serial_overhead_us * 1e-6)
        stream = self.engine.default_stream
        # The original scheduler's eager copies predate the prefetch API;
        # they surface as plain EAGER transfers whatever the device.
        submit_compute(
            self.coherence,
            stream,
            launch.label,
            launch.array_args,
            launch.resources(),
            launch.execute,
            kind=TransferKind.EAGER,
            on_complete=kernel_history_recorder(launch, self.history.record),
        )
        self.engine.sync_stream(stream)

    def library_call(self, element: LibraryCallElement) -> None:
        """Library calls run on the host after a device sync: the serial
        scheduler never overlaps anything."""
        self.sync()
        self.engine.charge_host_time(element.cost_seconds)
        element.fn()

    def _on_cpu_access(
        self, array: ManagedArray, kind: AccessKind, touched: int
    ) -> None:
        # The device is always idle here (every launch synchronized), so
        # only the data migration cost remains.
        self.coherence.cpu_access(
            array, kind, touched, stream=self.engine.default_stream
        )


class ParallelExecutionContext(ExecutionContext):
    """The paper's scheduler: parallel and asynchronous, on one GPU.

    Kernels are converted to DAG elements, dependencies are inferred from
    dependency sets, streams come from the stream manager, and the host
    never blocks except on CPU accesses that truly need GPU results.
    """

    def __init__(self, engine: SimEngine, config: SchedulerConfig) -> None:
        super().__init__(engine, config)
        self.streams = StreamManager(
            engine,
            new_stream=config.new_stream,
            parent_stream=config.parent_stream,
        )

    def reclaimable_streams(self) -> tuple[SimStream, ...]:
        return self.streams.streams + super().reclaimable_streams()

    def _place(self, element, parents, launch) -> tuple[SimStream, int]:
        return self.streams.assign(element, parents), 0

    def launch(self, launch: KernelLaunch) -> None:
        self._schedule(launch)
