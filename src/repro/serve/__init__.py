"""Multi-tenant GPU serving layer.

The paper's scheduler extracts parallelism from *one* host program's
computation DAG.  This package makes the jump to shared infrastructure:
a :class:`SchedulerService` accepts task-graph submissions from many
logical tenants, admission-controls them (FIFO / priority / fair-share),
and dispatches them onto a :class:`GpuFleet` — a *topology spec* of
serving slots (e.g. ``[2, 2, 1, 1]`` GPUs per slot), each a long-lived
multi- or single-GPU :class:`~repro.session.Session`, placed per the
shared policy vocabulary (round-robin / min-transfer / least-loaded at
the service level, composing with the in-slot device placement) — with
request batching, a per-(topology, slot-shape) capture cache and
service-level metrics (p50/p95/p99 latency, throughput, fleet
utilization).

Quickstart::

    from repro.serve import SchedulerService, ServeConfig, AdmissionPolicy
    from repro.serve.workloads import mixed_workload_graphs

    svc = SchedulerService(
        fleet_size=2,
        config=ServeConfig(admission=AdmissionPolicy.FAIR_SHARE),
    )
    for i, graph in enumerate(mixed_workload_graphs(16)):
        svc.submit(f"tenant{i % 4}", graph)
    report = svc.run()
    print(report.render())
"""

from repro.core.policies import DevicePlacementPolicy
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    SlotHealth,
)
from repro.serve.admission import (
    AdmissionPolicy,
    AdmissionQueue,
    FairShareQueue,
    FifoQueue,
    PriorityQueue,
    make_queue,
)
from repro.serve.capture import CaptureCache, CapturePlan, derive_plan
from repro.serve.fleet import (
    FleetDevice,
    FleetSlot,
    GpuFleet,
    parse_fleet_spec,
)
from repro.serve.request import (
    ArrayDecl,
    GraphRequest,
    GraphResult,
    KernelDecl,
    LaunchDecl,
    RequestStatus,
    TaskGraph,
    execute_serial,
)
from repro.serve.service import (
    SchedulerService,
    ServeConfig,
    ServiceReport,
)
from repro.serve.tenant import TenantState

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "ArrayDecl",
    "CaptureCache",
    "CapturePlan",
    "DevicePlacementPolicy",
    "FairShareQueue",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FifoQueue",
    "FleetDevice",
    "FleetSlot",
    "GpuFleet",
    "parse_fleet_spec",
    "GraphRequest",
    "GraphResult",
    "KernelDecl",
    "LaunchDecl",
    "PriorityQueue",
    "RequestStatus",
    "SchedulerService",
    "ServeConfig",
    "ServiceReport",
    "SlotHealth",
    "TaskGraph",
    "TenantState",
    "derive_plan",
    "execute_serial",
    "make_queue",
]
