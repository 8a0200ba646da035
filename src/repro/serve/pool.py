"""One admission engine for every level of the serving stack.

A :class:`Pool` is a global admission queue in front of *members* whose
fault lifecycles decide when they take work.
:class:`~repro.serve.service.SchedulerService` is a pool of fleet slots;
:class:`~repro.cluster.Cluster` is a pool of nodes, each of which runs
its own service.  A member needs four things: ``index``, ``lifecycle``
(a :class:`~repro.faults.SlotLifecycle`), ``clock`` (the virtual time
its own work has reached) and ``admitting``.

The pool owns, once for both levels, the promise that every submission
reaches a terminal status:

* request ids, submission and tenant registration;
* lifecycle advancement and fault counting (each spec counts once);
* head admission — wait for busy members, fast-forward across a
  transient outage, shed the whole queue on a permanent one, and time
  out a head whose deadline has passed;
* the retry rule: retry *k* waits ``backoff_us * 2**(k-1)`` after the
  failure, at most ``max_retries`` times;
* terminal records for work that never (successfully) ran.

Each level keeps its own round loop.  The service dispatches one batch
per idle slot and executes the round under its
:class:`~repro.parallel.ExecutionStrategy`; the cluster places the whole
queue, then drains its nodes in id order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.core.policies import AdmissionPolicy
from repro.faults import FaultKind, FaultPlan
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer
from repro.parallel.strategy import ExecutionStrategy
from repro.serve.admission import make_queue
from repro.serve.request import (
    GraphRequest,
    GraphResult,
    RequestStatus,
    TaskGraph,
)
from repro.serve.tenant import TenantState


class Pool:
    """Admission, outage handling, retry and terminal records shared by
    the service (members are fleet slots) and the cluster (members are
    nodes)."""

    # The names a level writes.  Fingerprints hash the counters, so
    # each level keeps its names unchanged.
    TRACK: str  # trace track of this level's instants
    KEY: str  # instant attribute naming a member
    FAULT_INSTANT: str  # per lifecycle transition
    RETRY_INSTANT: str  # per re-queued request
    INJECTED: str  # counter: fault specs injected
    RETRIES: str  # counter: requests re-queued
    SHED: str  # counter: requests shed
    QUEUE_PEAK: str  # gauge: deepest the admission queue got

    #: worker pool of this level, built by the subclass on first use
    #: (a pool built only for introspection never pays for workers)
    _strategy: ExecutionStrategy | None = None
    #: member pools closed together with this one
    _inner_pools: Sequence["Pool"] = ()

    def __init__(
        self,
        members: Sequence,
        *,
        admission: AdmissionPolicy,
        faults: FaultPlan | None,
        max_retries: int,
        retry_backoff_us: float,
        tracer: Tracer,
    ) -> None:
        self.members = members
        self.tracer = tracer
        self.queue = make_queue(admission)
        self.tenants: dict[str, TenantState] = {}
        #: terminal records
        self.results: list[GraphResult] = []
        self.counters = CounterRegistry()
        #: lifecycles only move under a fault plan
        self._faulted = faults is not None
        self._max_retries = max_retries
        self._backoff_s = retry_backoff_us * 1e-6
        #: pool-owned request-id allocation: concurrent pools (and
        #: forked workers) never interleave ids
        self._request_ids = itertools.count(1)
        #: monotone virtual-time cursor of the admission decisions
        self._now = 0.0
        #: fault specs already counted as injected (a DRAIN makes two
        #: transitions, a RESTART two more — each spec counts once)
        self._injected: set[int] = set()

    # -- tenant/submission API ---------------------------------------------

    def register_tenant(
        self, name: str, priority: int = 0
    ) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(name=name, priority=priority)
            self.tenants[name] = state
        else:
            state.priority = priority
        return state

    def submit(
        self,
        tenant: str,
        graph: TaskGraph,
        priority: int | None = None,
        arrival_time: float = 0.0,
        deadline: float | None = None,
    ) -> int:
        """Queue one task graph for ``tenant``; returns the request id.

        ``arrival_time`` is the virtual time of the submission (0 means
        "present at start"); ``deadline`` is an absolute virtual time by
        which the results must be readable, else the request ends
        TIMEOUT.
        """
        if deadline is not None and deadline < arrival_time:
            raise ValueError(
                f"deadline {deadline:g} precedes arrival {arrival_time:g}"
            )
        state = self.tenants.get(tenant) or self.register_tenant(tenant)
        return self.enqueue(
            GraphRequest(
                request_id=next(self._request_ids),
                tenant=tenant,
                graph=graph,
                priority=state.priority if priority is None else priority,
                arrival_time=arrival_time,
                deadline=deadline,
            )
        )

    def enqueue(self, request: GraphRequest) -> int:
        """Queue an already-built :class:`GraphRequest`.

        The cluster admits once globally and hands whole request objects
        to the chosen node's service — attempts, backoff floor and
        deadline travel with the request across nodes.
        """
        state = self.tenants.get(request.tenant)
        if state is None:
            state = self.register_tenant(
                request.tenant, priority=request.priority
            )
        state.submitted += 1
        self.queue.push(request)
        self.counters.set_max(self.QUEUE_PEAK, len(self.queue))
        if self.tracer.enabled:
            self.tracer.instant(
                "admit",
                track=self.TRACK,
                vt=request.arrival_time,
                tenant=request.tenant,
                request=request.request_id,
                priority=request.priority,
                queue_depth=len(self.queue),
            )
        return request.request_id

    def close(self) -> None:
        """Release worker pools — this level's and its member pools';
        idempotent.  ``run`` calls this itself; call it after driving
        ``drain`` by hand."""
        if self._strategy is not None:
            self._strategy.close()
            self._strategy = None
        for pool in self._inner_pools:
            pool.close()

    # -- lifecycles ---------------------------------------------------------

    def _advance(self, member, now: float) -> bool:
        """Advance one member's lifecycle to ``max(now, lifecycle.now,
        member.clock)`` — a member that has simulated to its own clock
        has seen every event up to it, and lifecycles never rewind.
        Counts each fault spec once, emits the transition instants and
        returns whether the member crashed."""
        if not self._faulted:
            return False
        lifecycle = member.lifecycle
        made = lifecycle.advance(max(now, lifecycle.now, member.clock))
        crashed = False
        for t in made:
            if id(t.spec) not in self._injected:
                self._injected.add(id(t.spec))
                self.counters.counter(self.INJECTED).value += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.FAULT_INSTANT,
                    track=self.TRACK,
                    vt=t.time,
                    **{self.KEY: member.index},
                    kind=t.spec.kind.value,
                    before=t.before.value,
                    after=t.after.value,
                )
            if t.spec.kind is FaultKind.CRASH and t.before is not t.after:
                crashed = True
                self._on_crash(member)
        return crashed

    def _advance_all(
        self, now: float, skip: "set[int] | frozenset" = frozenset()
    ) -> None:
        for member in self.members:
            if member.index not in skip:
                self._advance(member, now)

    def _on_crash(self, member) -> None:
        """A member's CRASH transition took effect (hook)."""

    def _earliest_revival(self, now: float) -> float | None:
        """Earliest virtual time any member could admit again, or None."""
        times = [
            t
            for m in self.members
            if (t := m.lifecycle.earliest_admit(now)) is not None
        ]
        return min(times) if times else None

    # -- admission ----------------------------------------------------------

    def _admit_heads(
        self, busy: "set[int] | frozenset" = frozenset()
    ) -> Iterator[tuple[GraphRequest, list]]:
        """Pop queue heads in admission order, each with the idle
        admitting members that may take it.

        Members in ``busy`` (the caller adds to it between heads) hold
        work of the round being planned: they are neither offered nor
        advanced (their post-batch events belong to the merge), and
        once one exists a head whose dispatch floor lies past the
        current instant ends the round.  With no member
        admitting, the round waits for busy members, fast-forwards to
        the earliest revival, or — when no member will ever admit
        again — sheds the head and everything still queued.  A head
        whose deadline has passed ends TIMEOUT.
        """
        while len(self.queue):
            head = self.queue.peek()
            if busy and head.dispatch_floor > self._now:
                return
            now = max(self._now, head.dispatch_floor)
            self._advance_all(now, skip=busy)
            eligible = [
                m
                for m in self.members
                if m.admitting and m.index not in busy
            ]
            if not eligible:
                if busy:
                    # Members may revive (or free up) once the in-flight
                    # round joins; revisit this head next round.
                    return
                revive = self._earliest_revival(now)
                if revive is None:
                    # Permanent total outage: shed instead of
                    # deadlocking.
                    while len(self.queue):
                        self._record_dropped(
                            self.queue.pop(), now, RequestStatus.SHED
                        )
                    return
                # Total-but-transient outage: fast-forward to the first
                # restart completion.
                now = max(now, revive)
                self._advance_all(now)
                eligible = [m for m in self.members if m.admitting]
                assert eligible, "a revived member must admit"
            self._now = now
            popped = self.queue.pop()
            assert popped is head
            self._shed_to_watermark(now)
            if head.deadline is not None and now > head.deadline:
                self._record_dropped(head, now, RequestStatus.TIMEOUT)
                continue
            yield head, eligible

    def _shed_to_watermark(self, now: float) -> None:
        """Graceful degradation once a head is popped (hook)."""

    # -- retries and terminal records ----------------------------------------

    def _requeue(self, request: GraphRequest, member, at: float) -> bool:
        """Re-queue a request whose attempt on ``member`` was lost at
        virtual time ``at``: retry *k* may dispatch no earlier than
        ``backoff * 2**(k-1)`` after the loss.  False once the retries
        are exhausted — the caller keeps the terminal record."""
        request.attempts += 1
        if request.attempts > self._max_retries:
            return False
        request.not_before = max(
            request.not_before,
            at + self._backoff_s * (2 ** (request.attempts - 1)),
        )
        self.counters.counter(self.RETRIES).value += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self.RETRY_INSTANT,
                track=self.TRACK,
                vt=at,
                tenant=request.tenant,
                request=request.request_id,
                attempt=request.attempts,
                not_before=request.not_before,
                **{self.KEY: member.index},
            )
        self.queue.push(request)
        return True

    def _record_dropped(
        self, request: GraphRequest, now: float, status: RequestStatus
    ) -> None:
        """Terminal non-completed status for a request that never (or
        never successfully) ran: SHED / TIMEOUT / FAILED."""
        if status is RequestStatus.SHED:
            self.counters.counter(self.SHED).value += 1
        if self.tracer.enabled:
            self.tracer.instant(
                status.value,
                track=self.TRACK,
                vt=now,
                tenant=request.tenant,
                request=request.request_id,
            )
        self.results.append(
            GraphResult(
                request_id=request.request_id,
                tenant=request.tenant,
                graph_name=request.graph.name,
                outputs={},
                arrival_time=request.arrival_time,
                start_time=now,
                finish_time=now,
                device_index=-1,
                batch_id=0,
                batch_size=1,
                replayed=False,
                status=status,
                attempts=request.attempts,
            )
        )


__all__ = ["Pool"]
