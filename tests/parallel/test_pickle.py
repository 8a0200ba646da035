"""Pickle-ability audit: everything the process strategy ships over a
pipe must round-trip.  These tests pin the isolation boundary — a new
field that breaks pickling fails here, not as an opaque worker crash.
"""

import pickle

import numpy as np
import pytest

from repro.cluster.network import INTERCONNECTS, LinkSpec
from repro.core.policies import SchedulerConfig
from repro.faults import FaultPlan
from repro.parallel import SlotOutcome, SlotWork
from repro.serve.capture import derive_plan
from repro.serve.request import GraphRequest, GraphResult, RequestStatus
from repro.serve.service import ServeConfig
from repro.serve.workloads import traffic_mix_graphs


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def graphs_equal(a, b) -> bool:
    """Structural TaskGraph equality with bit-equal host inputs
    (dataclass ``==`` would compare the input recipes, not the arrays
    they build)."""
    if a.name != b.name or a.outputs != b.outputs:
        return False
    if a.topology_key() != b.topology_key():
        return False
    inputs, others = a.host_inputs(), b.host_inputs()
    if list(inputs) != list(others):
        return False
    return all(
        data.dtype == others[name].dtype
        and data.shape == others[name].shape
        and data.tobytes() == others[name].tobytes()
        for name, data in inputs.items()
    )


def test_scheduler_config_roundtrip():
    config = SchedulerConfig()
    clone = roundtrip(config)
    assert clone == config


def test_serve_config_roundtrip():
    config = ServeConfig(parallel="process", workers=3)
    clone = roundtrip(config)
    assert clone.parallel == "process"
    assert clone.workers == 3
    assert clone.admission == config.admission


def test_fault_plan_roundtrip():
    plan = FaultPlan.parse(
        "crash:slot=1,at=2e-3;degrade:slot=0,at=1e-3,factor=2.0"
    )
    clone = roundtrip(plan)
    assert clone.describe() == plan.describe()
    assert clone.for_slot(1) == plan.for_slot(1)


def test_link_specs_roundtrip():
    for name, spec in INTERCONNECTS.items():
        clone = roundtrip(spec)
        assert isinstance(clone, LinkSpec)
        assert clone == spec or clone.name == name  # inf bandwidth case


def test_task_graph_payloads_roundtrip():
    for graph in traffic_mix_graphs(6, seed=3):
        clone = roundtrip(graph)
        assert graphs_equal(graph, clone)
        # The kernel callables must survive as *callable* module-level
        # functions — the worker re-executes them.
        for kernel in clone.kernels:
            assert callable(kernel.fn)


def test_task_graph_pickles_its_recipe_not_its_inputs():
    # The process strategy ships every batched graph to a worker.
    graph = traffic_mix_graphs(1)[0]
    assert len(pickle.dumps(graph)) < 64 * 1024


def test_graph_request_roundtrip():
    graph = traffic_mix_graphs(1, seed=3)[0]
    request = GraphRequest(
        tenant="alice",
        graph=graph,
        priority=2,
        arrival_time=1e-4,
        deadline=5e-3,
        request_id=17,
        attempts=1,
        not_before=2e-4,
        last_slot=0,
    )
    clone = roundtrip(request)
    assert clone.request_id == 17
    assert clone.tenant == "alice"
    assert clone.dispatch_floor == request.dispatch_floor
    assert graphs_equal(clone.graph, graph)


def test_graph_result_roundtrip():
    result = GraphResult(
        request_id=5,
        tenant="bob",
        graph_name="vec",
        outputs={"y": np.arange(8, dtype=np.float32)},
        arrival_time=0.0,
        start_time=1e-4,
        finish_time=2e-4,
        device_index=1,
        batch_id=3,
        batch_size=2,
        replayed=True,
        status=RequestStatus.COMPLETED,
    )
    clone = roundtrip(result)
    assert clone.request_id == 5
    assert clone.status is RequestStatus.COMPLETED
    assert np.array_equal(clone.outputs["y"], result.outputs["y"])


def test_capture_plan_roundtrip():
    graph = traffic_mix_graphs(1, seed=3)[0]
    plan = derive_plan(graph)
    clone = roundtrip(plan)
    assert clone.stream_count == plan.stream_count
    assert len(clone.steps) == len(plan.steps)


def test_slot_work_and_outcome_roundtrip():
    graph = traffic_mix_graphs(1, seed=3)[0]
    work = SlotWork(
        slot_index=2,
        batch=[GraphRequest(tenant="t", graph=graph, request_id=1)],
        plan=derive_plan(graph),
        batch_id=7,
        slowdown=2.0,
        transfer_fault=None,
        clock_start=1e-3,
    )
    clone = roundtrip(work)
    assert clone.slot_index == 2
    assert clone.batch_id == 7
    assert clone.plan.stream_count == work.plan.stream_count

    outcome = SlotOutcome(
        slot_index=2,
        batch_id=7,
        finish=2e-3,
        results=[(1, {"y": np.zeros(4)}, 1e-3, 2e-3)],
        histories=[("t", [])],
    )
    clone = roundtrip(outcome)
    assert clone.finish == pytest.approx(2e-3)
    assert np.array_equal(clone.results[0][1]["y"], np.zeros(4))
