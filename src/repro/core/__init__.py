"""The paper's primary contribution: a runtime DAG scheduler for GPU
computations with automatic dependency inference, transparent stream
management and transfer/compute overlap.

Public entry point: :class:`repro.session.Session`.
"""

from repro.core.element import (
    ComputationalElement,
    KernelElement,
    ArrayAccessElement,
    LibraryCallElement,
)
from repro.core.dag import ComputationDAG, DependencyEdge
from repro.core.policies import (
    ExecutionPolicy,
    NewStreamPolicy,
    ParentStreamPolicy,
    PrefetchPolicy,
    SchedulerConfig,
)
from repro.core.streams import StreamManager
from repro.core.context import (
    ExecutionContext,
    SerialExecutionContext,
    ParallelExecutionContext,
)
from repro.core.race import check_no_races, find_races


__all__ = [
    "ComputationalElement",
    "KernelElement",
    "ArrayAccessElement",
    "LibraryCallElement",
    "ComputationDAG",
    "DependencyEdge",
    "ExecutionPolicy",
    "NewStreamPolicy",
    "ParentStreamPolicy",
    "PrefetchPolicy",
    "SchedulerConfig",
    "StreamManager",
    "ExecutionContext",
    "SerialExecutionContext",
    "ParallelExecutionContext",
    "check_no_races",
    "find_races",
]
