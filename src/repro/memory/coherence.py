"""The unified coherence & data-movement engine.

Every execution mode — the serial, parallel and multi-GPU contexts,
CUDA-graph replay, the hand-tuned baseline and the serving layer's
capture replay — moves the same bytes for the same reasons: a
computation is about to read an array whose copy on its device is
stale, or host code is about to touch an array the GPU owns.  This
module owns that logic once, behind one :class:`CoherenceEngine` API:

* executors *declare accesses* (:meth:`CoherenceEngine.acquire` before
  submitting a compute op, :meth:`CoherenceEngine.release` to bind the
  resulting state transitions to it, :meth:`CoherenceEngine.cpu_access`
  for host-side touches);
* the engine *plans* the :class:`~repro.gpusim.ops.TransferOp` s a
  pluggable :class:`MovementPolicy` calls for, *orders* them against
  in-flight migrations issued on other streams (the shared-input
  hazard), and *applies* location-set transitions when the operation
  completes on the simulated device — never when planned — so that
  concurrent planning observes a consistent split between the
  *committed* state (what the hardware has done) and the *planned*
  overlay (what is already in flight).

Every array is a location set (see :class:`~repro.memory.array.
ManagedArray`): a single-GPU array is the one-device case, so one code
path serves every device count.  A migration into device ``d`` sources
from the lowest (planned-)valid peer replica, or from the host.

Movement policies
-----------------

``PAGE_FAULT``
    Lazy: stale pages reach the GPU through the Pascal+ fault engine,
    charged to the faulting kernel itself.  This is plain UM behaviour
    and what a launched CUDA graph gets (graphs do not prefetch).
``EAGER_PREFETCH``
    Issue a copy as soon as the DAG schedules a consumer
    (``cudaMemPrefetchAsync`` ahead of the kernel) — the paper's
    prefetching mode.  On pre-Pascal devices the copy is a synchronous
    eager transfer; the fault path does not exist there.
``BATCHED``
    Like ``EAGER_PREFETCH``, but stale inputs sharing a source are
    coalesced into a single transfer operation (adjacent-array copies
    ride one DMA submission), trading per-op overhead for transfer
    granularity.  With ``window=0`` (the default) coalescing is per
    *acquire*: one merged transfer per computation and source.  With
    ``window=N > 0`` the engine runs a **submission-window coalescer**:
    the stale inputs of up to ``N`` adjacent acquires are deferred onto
    one dedicated transfer stream per destination and merged into one
    DMA submission per (source, destination) pair, flushed when the
    window fills, when the host synchronizes (engine pre-sync hooks), on
    a CPU access, or at a policy boundary (an acquire under a different
    policy or transfer kind).  Consumers park on the window's
    pre-created event, so correctness is unchanged — only the number of
    transfer submissions shrinks.

All three are functionally identical — values live in one numpy buffer;
the policies only decide *when* and *in how many pieces* the simulator
charges the movement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.gpusim.ops import (
    Operation,
    TransferDirection,
    TransferKind,
    TransferOp,
)
from repro.gpusim.stream import SimEvent
from repro.memory.array import (
    AccessKind,
    ManagedArray,
    copy_source,
    lowest_device,
)
from repro.memory.pages import page_span
from repro.obs.counters import CounterRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.engine import SimEngine
    from repro.gpusim.stream import SimStream

#: location index of the host copy in race-detector tokens and
#: migration sources (devices are 0..N-1)
HOST = -1


class MovementPolicy(enum.Enum):
    """How the runtime moves stale data to the device (see module docs)."""

    PAGE_FAULT = "page-fault"
    EAGER_PREFETCH = "eager-prefetch"
    BATCHED = "batched"


@dataclass(slots=True)
class _Planned:
    """In-flight overlay over one array's committed location set.

    ``host_valid`` / ``valid_mask`` describe the location set *once
    everything already submitted completes*; the committed set on the
    array moves only when operations complete on the simulated device.
    ``outstanding`` counts in-flight transitions: when the last one
    commits, committed == planned again and the overlay retires.
    ``epoch`` guards completion callbacks — a host write bumps the
    array's epoch, so transitions planned before it are dead and must
    not resurrect device replicas when their ops finally land.
    """

    host_valid: bool
    valid_mask: int
    epoch: int
    outstanding: int = 0


@dataclass(slots=True)
class _Pending:
    """The in-flight materialization of one (array, device) replica.

    ``event`` completes once the replica is valid; ``stream`` issued it
    (its own later work is already FIFO-ordered behind it).  A replica
    created by a page fault inside a kernel (``fault``) is not waited
    on by consumers on its device — only a peer copy *sourcing* from it
    orders behind the kernel.
    """

    event: SimEvent
    stream: "SimStream | None"
    fault: bool = False


@dataclass
class AcquirePlan:
    """Outcome of one :meth:`CoherenceEngine.acquire` declaration.

    ``fault_bytes`` must be charged to the compute op (the page-fault
    path migrates *during* execution); ``completion_marks`` are the
    transitions :meth:`CoherenceEngine.release` binds to the op so they
    apply at completion time.
    """

    fault_bytes: float = 0.0
    completion_marks: list[Callable[[], None]] = field(default_factory=list)
    #: (array, device) replicas of multi-device arrays this acquire
    #: materializes through the fault engine — the caller binds the
    #: compute op's finish event to them via
    #: :meth:`CoherenceEngine.register_fault_ordering`, so a later peer
    #: copy sourcing from the replica waits for the kernel creating it
    fault_replicas: list[tuple[ManagedArray, int]] = field(
        default_factory=list
    )


@dataclass
class _WindowGroup:
    """One pending (source, destination) group of the submission-window
    coalescer — the unit one merged DMA submission can cover.

    ``event`` is created *before* any consumer submits (consumers park
    on it) and recorded on the window stream right after the merged
    transfer at flush time.  ``source_events`` order the flush behind
    in-flight materializations of peer source replicas.
    """

    event: SimEvent
    kind: TransferKind
    arrays: list = field(default_factory=list)
    source_events: list = field(default_factory=list)


def stamp_access_tokens(op: Operation, reads, writes) -> None:
    """Stamp race-detector tokens on ``op``: ``reads`` and ``writes``
    are each ``(arrays, location)``.  Tokens are per *copy*, ``(array,
    location)``, so a peer copy reading GPU 0's replica does not
    conflict with a kernel also reading it, but does conflict with
    anything touching the destination replica.  ``array_names`` maps
    each token to its array's name."""
    names = {}
    for key, (arrays, where) in (("reads", reads), ("writes", writes)):
        copies = {(id(a), where): a.name for a in arrays}
        op.info[key] = frozenset(copies)
        names.update(copies)
    op.info["array_names"] = names


class CoherenceEngine:
    """Owns all host<->device (and device<->device) coherence traffic
    for one executor on one :class:`~repro.gpusim.engine.SimEngine`.

    The engine keeps two views of every array it has touched:

    * the **committed** location set on the array itself, updated only
      by completion callbacks on simulator operations;
    * the **planned** overlay — what the set will become once already
      submitted work lands, updated eagerly at planning time so that
      concurrent planning never double-moves the same bytes.

    Cross-stream ordering (the shared-input hazard): when the migration
    of an array's replica was issued on stream A and a computation on
    stream B also touches that replica, ``acquire`` makes B wait on the
    migration's event.  The issuing stream itself is already ordered by
    stream FIFO.
    """

    def __init__(
        self,
        engine: "SimEngine",
        policy: MovementPolicy = MovementPolicy.EAGER_PREFETCH,
        op_tags: dict | None = None,
        window: int = 0,
    ) -> None:
        self.engine = engine
        self.policy = policy
        #: submission-window size for cross-acquire BATCHED coalescing:
        #: 0 flushes per acquire (classic BATCHED); N > 0 merges the
        #: stale inputs of up to N adjacent acquires into one transfer
        self.window = int(window)
        #: extra key/values stamped on every transfer op this engine
        #: submits (shared by reference with the owning executor, e.g.
        #: the tenant tags of ``repro.serve``)
        self.op_tags = op_tags if op_tags is not None else {}
        #: planned overlays, by ``id(array)``
        self._planned: dict[int, _Planned] = {}
        #: per-array epoch, bumped by host writes: completion callbacks
        #: planned in an older epoch are dead
        self._epoch: dict[int, int] = {}
        #: in-flight replica materializations: (id(array), device) ->
        #: _Pending
        self._pending: dict[tuple[int, int], _Pending] = {}
        # -- movement accounting (the movement-bench axis) ---------------
        # One registry per coherence engine: per-instance introspection
        # (one serving request's movement) keeps working even when the
        # serving layer merges many instances into one fleet roll-up.
        self.counters = CounterRegistry()
        #: bytes left to the fault engine (charged inside kernels)
        self._c_fault_bytes = self.counters.counter("coherence.fault_bytes")
        #: bytes moved by engine-issued HtoD/DtoD migrations
        self._c_migrated_bytes = self.counters.counter(
            "coherence.migrated_bytes"
        )
        #: bytes written back to the host on CPU accesses
        self._c_writeback_bytes = self.counters.counter(
            "coherence.writeback_bytes"
        )
        #: transfer operations submitted
        self._c_transfer_ops = self.counters.counter(
            "coherence.transfer_ops"
        )
        #: transfers saved by BATCHED coalescing
        self._c_coalesced = self.counters.counter(
            "coherence.coalesced_transfers"
        )
        # Directional op/byte splits (HtoD migrations, DtoH writebacks,
        # D2D peer mirrors) — created eagerly so merged snapshots always
        # carry the full schema.
        self._c_htod_ops = self.counters.counter("coherence.htod_ops")
        self._c_htod_bytes = self.counters.counter("coherence.htod_bytes")
        self._c_dtoh_ops = self.counters.counter("coherence.dtoh_ops")
        self._c_dtoh_bytes = self.counters.counter("coherence.dtoh_bytes")
        self._c_d2d_ops = self.counters.counter("coherence.d2d_ops")
        self._c_d2d_bytes = self.counters.counter("coherence.d2d_bytes")
        #: submission-window flushes, total and by cause
        self._c_window_flushes = self.counters.counter(
            "coherence.window_flushes"
        )
        # -- submission-window coalescer state --------------------------
        #: pending groups by (source, destination); dict order is flush
        #: order (a group sourcing from another group's destination
        #: replica is necessarily inserted after it)
        self._win_groups: dict[tuple[int, int], _WindowGroup] = {}
        #: acquires deferred into the open window (window-full trigger)
        self._win_acquires = 0
        #: dedicated per-destination transfer streams (lazily created)
        self._win_streams: dict[int, "SimStream"] = {}

    # -- observability --------------------------------------------------------

    @property
    def fault_bytes_total(self) -> float:
        return self._c_fault_bytes.value

    @property
    def migrated_bytes_total(self) -> float:
        return self._c_migrated_bytes.value

    @property
    def writeback_bytes_total(self) -> float:
        return self._c_writeback_bytes.value

    @property
    def transfer_ops(self) -> int:
        return self._c_transfer_ops.value

    @property
    def coalesced_transfers(self) -> int:
        return self._c_coalesced.value

    @property
    def tracer(self):
        """The owning engine's tracer (coherence events ride it); falls
        back to the null tracer for engines without one."""
        return getattr(self.engine, "tracer", NULL_TRACER)

    # -- planned-state queries ------------------------------------------------

    def _view(self, array: ManagedArray) -> _Planned | ManagedArray:
        """The planned overlay if one is open, else the committed set
        (both expose ``host_valid`` and ``valid_mask``)."""
        return self._planned.get(id(array)) or array

    def device_valid(self, array: ManagedArray, device_index: int = 0) -> bool:
        """Will ``device_index`` hold a valid replica once in-flight work
        completes?  (The planned view placement pricing reads.)"""
        return bool(self._view(array).valid_mask >> device_index & 1)

    def host_valid(self, array: ManagedArray) -> bool:
        """Will the host copy be valid once in-flight work completes?"""
        return self._view(array).host_valid

    def migration_bytes(self, array: ManagedArray, device_index: int) -> int:
        """Bytes a computation on ``device_index`` would have to migrate
        (planned view — in-flight migrations already count as resident)."""
        return 0 if self.device_valid(array, device_index) else array.nbytes

    def migration_source(
        self, array: ManagedArray, device_index: int
    ) -> int | None:
        """:func:`~repro.memory.array.copy_source` on the planned view."""
        view = self._view(array)
        return copy_source(view.valid_mask, view.host_valid, device_index)

    def needs_host_migration(
        self, array: ManagedArray, kind: AccessKind, touched: int
    ) -> bool:
        """Would a CPU access of ``touched`` bytes require a writeback?

        Pure query on the planned view — used by the contexts' CPU-access
        fast path *before* any synchronization happens.
        """
        if kind is AccessKind.WRITE and touched >= array.nbytes:
            return False
        return not self.host_valid(array)

    # -- overlay bookkeeping -------------------------------------------------

    def _overlay(self, array: ManagedArray) -> _Planned:
        """Open (or fetch) the planned overlay over ``array``'s committed
        location set."""
        plan = self._planned.get(id(array))
        if plan is None:
            plan = _Planned(
                array.host_valid,
                array.valid_mask,
                self._epoch.get(id(array), 0),
            )
            self._planned[id(array)] = plan
        return plan

    def _committer(
        self,
        array: ManagedArray,
        overlay: _Planned,
        mark: Callable[..., None],
        *args,
    ) -> Callable[[], None]:
        """A completion callback applying ``mark(*args)`` to the committed
        set — dead if a host write bumped the epoch since — retiring
        ``array``'s overlay when the last in-flight transition lands."""
        key = id(array)
        overlay.outstanding += 1
        epoch = overlay.epoch

        def commit() -> None:
            if self._epoch.get(key, 0) != epoch:
                return  # superseded by a host write
            mark(*args)
            plan = self._planned.get(key)
            if plan is not None:
                plan.outstanding -= 1
                if plan.outstanding <= 0:
                    del self._planned[key]

        return commit

    def _host_write(self, array: ManagedArray) -> None:
        """A host write: every device replica dies, the planned overlay
        and in-flight migration bookkeeping for the array are dropped,
        and the epoch bump kills the transitions of anything still in
        flight (its event may still be waited on harmlessly, but it no
        longer marks a replica valid)."""
        key = id(array)
        self._epoch[key] = self._epoch.get(key, 0) + 1
        self._planned.pop(key, None)
        for device_index in range(array.device_count):
            self._pending.pop((key, device_index), None)
        array.mark_cpu_write()

    # -- access declaration: GPU side ---------------------------------------

    def acquire(
        self,
        accesses: list[tuple[ManagedArray, AccessKind]],
        stream: "SimStream",
        label: str = "",
        policy: MovementPolicy | None = None,
        kind: TransferKind | None = None,
        device: int | None = None,
    ) -> AcquirePlan:
        """Declare that a computation on ``stream`` is about to touch
        ``accesses`` on ``device`` (default: the stream's device); plan
        and submit the movement its policy calls for.

        Returns the :class:`AcquirePlan` whose ``fault_bytes`` the caller
        charges to the compute op and which :meth:`release` binds to it.
        ``policy`` overrides the engine's default for this acquire (the
        hand-tuned baseline faults arrays the programmer forgot while
        still prefetching explicitly); ``kind`` overrides the transfer
        kind stamped on migrations (EAGER on pre-Pascal devices).
        """
        if device is None:
            device = stream.device_index
        supports_faults = self.engine.devices[device].spec.supports_page_faults
        policy = policy or self.policy
        if policy is MovementPolicy.PAGE_FAULT and not supports_faults:
            policy = MovementPolicy.EAGER_PREFETCH
        if kind is None:
            kind = (
                TransferKind.PREFETCH if supports_faults else TransferKind.EAGER
            )
        # Policy boundary: an acquire that moves data some other way
        # closes the open coalescing window first, keeping mixed-policy
        # executors (e.g. the hand-tuned baseline) deterministic.
        if self._win_groups and policy is not MovementPolicy.BATCHED:
            self.flush_window("policy-boundary")

        tracer = self.tracer
        span = (
            tracer.span(
                "acquire",
                track="coherence",
                clock=self.engine._clock,
                policy=policy.value,
                label=label,
                device=device,
            )
            if tracer.enabled
            else None
        )
        plan = AcquirePlan()
        bit = 1 << device
        #: stale reads: (array, source, in-flight source event)
        stale: list[tuple[ManagedArray, int, SimEvent | None]] = []
        seen: set[int] = set()
        read: set[int] = set()
        for array, access in accesses:
            key = id(array)
            if key not in seen:
                seen.add(key)
                pending = self._pending.get((key, device))
                if (
                    pending is not None
                    and not pending.fault
                    and pending.stream is not stream
                    and not pending.event.complete
                ):
                    self.engine.wait_event(stream, pending.event)
            if not access.reads or key in read:
                continue
            read.add(key)
            if (self._planned.get(key) or array).valid_mask & bit:
                continue  # (planned-)resident
            source = self.migration_source(array, device)
            source_event = None
            if source != HOST:
                # A peer copy (or a kernel faulting a peer replica)
                # must not start before the source replica is itself
                # materialized.
                src = self._pending.get((key, source))
                if src is not None and not src.event.complete:
                    source_event = src.event
            stale.append((array, source, source_event))

        if stale:
            if policy is MovementPolicy.PAGE_FAULT:
                self._plan_faults(stale, plan, device, stream)
            elif policy is MovementPolicy.BATCHED and self.window > 0:
                self._defer(stale, device, stream, kind)
            else:
                self._submit_moves(
                    stale, device, stream, kind,
                    batched=policy is MovementPolicy.BATCHED,
                )

        # Writes commit at compute-op completion; the overlay flips now
        # so later planning sees the writer's replica as the only copy.
        seen.clear()
        for array, access in accesses:
            if not access.writes or id(array) in seen:
                continue
            seen.add(id(array))
            overlay = self._overlay(array)
            overlay.valid_mask = bit
            overlay.host_valid = False
            plan.completion_marks.append(
                self._committer(array, overlay, array.mark_write, device)
            )
        if span is not None:
            span.annotate(
                stale=len(stale),
                stale_bytes=sum(a.nbytes for a, _, _ in stale),
                fault_bytes=plan.fault_bytes,
            )
            span.close()
        return plan

    def release(
        self, plan: AcquirePlan, op: Operation | None = None
    ) -> None:
        """Bind ``plan``'s state transitions to ``op`` so they apply when
        the compute op completes; with ``op=None`` (host-side executors
        that already synchronized) they apply immediately."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "release",
                track="coherence",
                vt=self.engine.clock,
                marks=len(plan.completion_marks),
                bound=op is not None,
            )
        if not plan.completion_marks:
            return
        if op is None:
            for mark in plan.completion_marks:
                mark()
            return
        marks = list(plan.completion_marks)

        def apply_marks(_op: Operation) -> None:
            for mark in marks:
                mark()

        op.on_complete.append(apply_marks)

    def register_fault_ordering(
        self, plan: AcquirePlan, event: SimEvent
    ) -> None:
        """Bind the finish event of the compute op consuming ``plan`` to
        the replicas its faults materialize, so a later peer copy
        sourcing from one waits for the kernel that creates it."""
        for array, device_index in plan.fault_replicas:
            self._pending[(id(array), device_index)] = _Pending(
                event, None, fault=True
            )

    def _plan_faults(
        self,
        stale: list[tuple[ManagedArray, int, SimEvent | None]],
        plan: AcquirePlan,
        device: int,
        stream: "SimStream",
    ) -> None:
        """Leave the stale bytes to the fault engine: the kernel migrates
        them on demand and the read transition lands at its completion."""
        bit = 1 << device
        for array, _, source_event in stale:
            if source_event is not None:
                self.engine.wait_event(stream, source_event)
            plan.fault_bytes += array.nbytes
            overlay = self._overlay(array)
            overlay.valid_mask |= bit
            plan.completion_marks.append(
                self._committer(array, overlay, array.mark_read, device)
            )
            if array.device_count > 1:
                plan.fault_replicas.append((array, device))
        self._c_fault_bytes.value += plan.fault_bytes

    def _submit_moves(
        self,
        stale: list[tuple[ManagedArray, int, SimEvent | None]],
        device: int,
        stream: "SimStream",
        kind: TransferKind,
        batched: bool,
    ) -> None:
        """Migrate the stale inputs ahead of the consumer on its own
        stream: one copy per array, or (``batched``) one per source."""
        by_source: dict[int, list[ManagedArray]] = {}
        for array, source, source_event in stale:
            if source_event is not None:
                self.engine.wait_event(stream, source_event)
            by_source.setdefault(source, []).append(array)
        for source, arrays in by_source.items():
            if batched:
                self._c_coalesced.value += len(arrays) - 1
                self._submit_migration(
                    arrays, source, device, stream, kind, tag="batch"
                )
            else:
                for array in arrays:
                    self._submit_migration(
                        [array], source, device, stream, kind
                    )

    def _submit_migration(
        self,
        arrays: list[ManagedArray],
        source: int,
        device: int,
        stream: "SimStream",
        kind: TransferKind,
        tag: str = "",
        event: SimEvent | None = None,
    ) -> None:
        """One copy covering ``arrays`` from ``source`` (:data:`HOST` or
        a peer) to ``device``: planned overlay at submission, committed
        location set at completion, ordering event recorded after.
        ``event`` records a pre-created event (the submission-window
        flush path, whose consumers already park on it) instead of a
        fresh one."""
        names = ",".join(a.name for a in arrays)
        route = "HtoD" if source == HOST else f"D{source}toD"
        op = TransferOp(
            label=f"{route}{device}:{f'{tag}[{names}]' if tag else names}",
            direction=(
                TransferDirection.HOST_TO_DEVICE
                if source == HOST
                else TransferDirection.DEVICE_TO_DEVICE
            ),
            nbytes=sum(a.nbytes for a in arrays),
            kind=kind,
        )
        stamp_access_tokens(op, (arrays, source), (arrays, device))
        op.info.update(self.op_tags)
        bit = 1 << device
        marks = []
        for array in arrays:
            overlay = self._overlay(array)
            overlay.valid_mask |= bit
            marks.append(
                self._committer(array, overlay, array.mark_read, device)
            )

        def apply_all() -> None:
            for mark in marks:
                mark()

        op.apply_fn = apply_all
        self.engine.submit(stream, op)
        self._c_transfer_ops.value += 1
        self._c_migrated_bytes.value += op.nbytes
        if source == HOST:
            self._c_htod_ops.value += 1
            self._c_htod_bytes.value += op.nbytes
        else:
            self._c_d2d_ops.value += 1
            self._c_d2d_bytes.value += op.nbytes
        event = self.engine.record_event(
            stream, event=event, label=f"mig:{names}@gpu{device}"
        )
        for array in arrays:
            self._pending[(id(array), device)] = _Pending(event, stream)

    def prefetch(self, array: ManagedArray, stream: "SimStream") -> None:
        """Explicit ``cudaMemPrefetchAsync``: move a (planned-)stale
        array to the stream's device ahead of its consumers."""
        device = stream.device_index
        source = self.migration_source(array, device)
        if source is not None:
            self._submit_migration(
                [array], source, device, stream, TransferKind.PREFETCH
            )

    # -- submission-window coalescer -----------------------------------------

    def _window_stream(self, device_index: int) -> "SimStream":
        """The dedicated transfer stream merged windows flush on (one
        per destination device, created lazily, reclaimed with the
        owning executor via :meth:`take_owned_streams`)."""
        stream = self._win_streams.get(device_index)
        if stream is None:
            stream = self.engine.create_stream(
                label=f"coalesce-g{device_index}",
                device_index=device_index,
            )
            self._win_streams[device_index] = stream
        return stream

    def take_owned_streams(self) -> tuple["SimStream", ...]:
        """Streams this engine created for itself (the window
        coalescer's transfer streams).  A retiring executor hands them
        back to the engine alongside its context streams, so long-lived
        serving engines do not accumulate dead coalescing streams."""
        streams = tuple(self._win_streams.values())
        self._win_streams = {}
        return streams

    def _defer(
        self,
        stale: list[tuple[ManagedArray, int, SimEvent | None]],
        device: int,
        stream: "SimStream",
        kind: TransferKind,
    ) -> None:
        """Defer one acquire's stale reads into the submission window:
        arrays join the (source, destination) group they can share a DMA
        submission with, the planned overlay and pending-migration map
        advance as if the copy were already in flight, and the consumer
        parks on the group's pre-created event.

        A group of a different transfer kind closes the window first (a
        policy boundary).  So does a deferral whose *source* replica is
        itself pending in the open window: two groups each sourcing a
        replica the other creates would otherwise wait on each other's
        unrecorded events (the window streams deadlock).  After the
        flush every source event's record is already submitted, so wait
        chains stay acyclic by construction."""
        win_stream = self._window_stream(device)
        bit = 1 << device
        events: dict[int, SimEvent] = {}
        for array, source, source_event in stale:
            key = (source, device)
            group = self._win_groups.get(key)
            if group is not None and group.kind is not kind:
                self.flush_window("policy-boundary")
            if source_event is not None and any(
                g.event is source_event for g in self._win_groups.values()
            ):
                self.flush_window("source-hazard")
            group = self._win_groups.get(key)
            if group is None:
                if not self._win_groups:
                    # First deferral of this window: make sure any host
                    # sync flushes us (a consumer parked on an
                    # unrecorded window event would deadlock the sync).
                    self.engine.add_pre_sync_hook(
                        id(self), lambda: self.flush_window("pre-sync")
                    )
                group = _WindowGroup(
                    event=SimEvent(label=f"coalesce:{source}to{device}"),
                    kind=kind,
                )
                self._win_groups[key] = group
            group.arrays.append(array)
            if source_event is not None:
                group.source_events.append(source_event)
            self._overlay(array).valid_mask |= bit
            self._pending[(id(array), device)] = _Pending(
                group.event, win_stream
            )
            events[group.event.event_id] = group.event
        for event in events.values():
            self.engine.wait_event(stream, event)
        self._win_acquires += 1
        if self._win_acquires >= self.window:
            self.flush_window("window-full")

    def flush_window(self, cause: str = "manual") -> None:
        """Flush every pending coalescing group: one merged transfer per
        (source, destination) pair on its window stream, followed by the
        group's event record so parked consumers unblock.

        Idempotent; ``cause`` records *why* in the counter registry:
        ``window-full``, ``policy-boundary``, ``cpu-access``,
        ``pre-sync`` (engine host-sync hooks), ``source-hazard``
        (a deferral sourcing a replica the open window creates), or
        ``manual``.
        """
        if not self._win_groups:
            return
        groups = self._win_groups
        self._win_groups = {}
        self._win_acquires = 0
        self.engine.remove_pre_sync_hook(id(self))
        self._c_window_flushes.value += 1
        self.counters.inc(f"coherence.window_flush.{cause}")
        tracer = self.tracer
        span = (
            tracer.span(
                "flush_window",
                track="coherence",
                clock=self.engine._clock,
                cause=cause,
                groups=len(groups),
                nbytes=sum(
                    a.nbytes for g in groups.values() for a in g.arrays
                ),
            )
            if tracer.enabled
            else None
        )
        for (source, device), group in groups.items():
            win_stream = self._window_stream(device)
            for event in group.source_events:
                if not event.complete:
                    self.engine.wait_event(win_stream, event)
            self._c_coalesced.value += len(group.arrays) - 1
            self._submit_migration(
                group.arrays, source, device, win_stream, group.kind,
                tag="window", event=group.event,
            )
        if span is not None:
            span.close()

    # -- access declaration: host side ---------------------------------------

    def cpu_access(
        self,
        array: ManagedArray,
        kind: AccessKind,
        touched: int,
        stream: "SimStream | None" = None,
    ) -> TransferOp | None:
        """Declare an imminent host access; move and transition as needed.

        Reads and partial writes migrate the touched pages back from the
        lowest valid replica (page-granular read-modify-write, like real
        UM); a pure write covering the whole array moves nothing — every
        device replica dies.  The host access itself is synchronous, so
        the writeback is drained and its transition committed before
        returning; any write then leaves the host as the sole valid copy.
        """
        self.flush_window("cpu-access")  # host access closes the window
        if kind is AccessKind.WRITE and touched >= array.nbytes:
            self._host_write(array)
            return None
        tracer = self.tracer
        span = (
            tracer.span(
                "cpu_access",
                track="coherence",
                clock=self.engine._clock,
                array=array.name,
                access=kind.name,
                touched=touched,
            )
            if tracer.enabled
            else None
        )
        op: TransferOp | None = None
        view = self._view(array)
        if not view.host_valid:
            source = lowest_device(view.valid_mask)
            op = TransferOp(
                label=f"D{source}toH:{array.name}",
                direction=TransferDirection.DEVICE_TO_HOST,
                nbytes=page_span(touched, array.nbytes),
                kind=TransferKind.WRITEBACK,
            )
            stamp_access_tokens(op, ([array], source), ([array], HOST))
            op.info.update(self.op_tags)
            overlay = self._overlay(array)
            overlay.host_valid = True
            op.apply_fn = self._committer(array, overlay, array.mark_cpu_read)
            stream = stream or self.engine.default_stream
            self.engine.submit(stream, op)
            self._c_transfer_ops.value += 1
            self._c_writeback_bytes.value += op.nbytes
            self._c_dtoh_ops.value += 1
            self._c_dtoh_bytes.value += op.nbytes
            self.engine.sync_stream(stream)
        if kind.writes:
            self._host_write(array)
        if span is not None:
            span.annotate(writeback_bytes=op.nbytes if op else 0)
            span.close()
        return op

    # perfbench/tracing.py wraps these names by class attribute, so they
    # stay defined; nothing calls them.
    acquire_multi = acquire
    release_multi = release
    cpu_write_full_multi = cpu_access
    cpu_read_multi = cpu_access

    # -- introspection --------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CoherenceEngine {self.policy.value}"
            f" planned={len(self._planned)}"
            f" moved={self.migrated_bytes_total:.0f}B"
            f" faulted={self.fault_bytes_total:.0f}B>"
        )
