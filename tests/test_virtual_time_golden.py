"""Frozen virtual time across the execution paths.

Every value in ``virtual_time_golden.json`` is a virtual-time result
written with ``float.hex``, so equality is bit-exact:

* the paper suite: six benchmarks x three GPUs x five modes, first
  Table-I scale, 2 iterations, timing-only;
* the same six benchmarks on a 2-GPU session (parallel mode) under
  ``EAGER_PREFETCH`` and ``BATCHED`` with windows 0 and 4;
* a timing fingerprint of a 60-request ``2,2,1,1`` service run and of a
  60-request ``2,1|2,1`` affinity cluster run, seed 7: per request its
  status, device, node, batch, start and finish times and an output
  digest;
* the fault paths: every chaos-grid plan (plus a transient blackout
  with a restart, and the same blackout under deadlines) on a 40-request
  ``1,1,1,1,1,1`` service, and the node crash, drain, transfer fault,
  two-node blackout and crash-then-restart plans on a 40-request
  ``2,1|2,1`` spread cluster.  These rows also carry the attempt count,
  and each scenario stores its ``serve.*``, ``faults.*`` and
  ``cluster.*`` counters: retry, shed and re-placement decisions are
  the behaviour under test.

Engine and coherence counters stay out: a refactor may change how many
events or waits it records without moving virtual time.  To print the current values as
JSON (e.g. to capture a golden for a new scenario), run
``PYTHONPATH=src python tests/test_virtual_time_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.policies import DevicePlacementPolicy
from repro.harness.serving import CHAOS_SCENARIOS
from repro.memory.coherence import MovementPolicy
from repro.serve.admission import AdmissionPolicy
from repro.serve.service import SchedulerService, ServeConfig
from repro.serve.workloads import traffic_mix_graphs
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import default_scales

GOLDEN = pathlib.Path(__file__).with_name("virtual_time_golden.json")

BENCHES = ("vec", "b&s", "img", "ml", "hits", "dl")
GPUS = ("GTX 960", "GTX 1660 Super", "Tesla P100")
MULTI_GPU = "GTX 1660 Super"
MULTI_CONFIGS = {
    "eager": (MovementPolicy.EAGER_PREFETCH, 0),
    "batched-w0": (MovementPolicy.BATCHED, 0),
    "batched-w4": (MovementPolicy.BATCHED, 4),
}
SEED = 7
REQUESTS = 60
TENANTS = 4


def suite_makespans() -> dict[str, str]:
    out = {}
    for name in BENCHES:
        for gpu in GPUS:
            scale = default_scales(name, gpu)[0]
            for mode in Mode:
                bench = create_benchmark(
                    name, scale, iterations=2, execute=False
                )
                elapsed = bench.run(gpu, mode).elapsed
                out[f"{name}/{gpu}/{mode.value}"] = elapsed.hex()
    return out


def multi_gpu_makespans() -> dict[str, str]:
    out = {}
    for name in BENCHES:
        scale = default_scales(name, MULTI_GPU)[0]
        for key, (movement, window) in MULTI_CONFIGS.items():
            bench = create_benchmark(name, scale, iterations=2, execute=False)
            elapsed = bench.run(
                MULTI_GPU,
                Mode.PARALLEL,
                movement=movement,
                gpus=2,
                movement_window=window,
            ).elapsed
            out[f"{name}/{key}"] = elapsed.hex()
    return out


def _serve_config() -> ServeConfig:
    return ServeConfig(
        admission=AdmissionPolicy.FAIR_SHARE,
        placement=DevicePlacementPolicy.LEAST_LOADED,
    )


def _serve(
    system,
    mix: str,
    rate: float,
    requests: int = REQUESTS,
    deadline: float | None = None,
):
    for t in range(TENANTS):
        system.register_tenant(f"tenant{t}", priority=TENANTS - 1 - t)
    graphs = traffic_mix_graphs(requests, mix=mix, seed=SEED)
    arrivals = np.cumsum(
        np.random.default_rng(SEED).exponential(1.0 / rate, size=requests)
    )
    for i, (graph, arrival) in enumerate(zip(graphs, arrivals)):
        system.submit(
            f"tenant{i % TENANTS}",
            graph,
            arrival_time=float(arrival),
            deadline=None if deadline is None else float(arrival) + deadline,
        )
    return system.run()


def _rows(report, attempts: bool = False) -> list[str]:
    rows = []
    for r in sorted(report.results, key=lambda r: r.request_id):
        digest = hashlib.sha256()
        for name in sorted(r.outputs):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(r.outputs[name]).tobytes())
        fields = [
            str(r.request_id),
            r.status.value,
            str(r.device_index),
            str(r.node_index),
            str(r.batch_id),
            r.start_time.hex(),
            r.finish_time.hex(),
            digest.hexdigest()[:16],
        ]
        if attempts:
            fields.append(str(r.attempts))
        rows.append("|".join(fields))
    return rows


def service_rows() -> list[str]:
    service = SchedulerService(
        fleet_topology=[2, 2, 1, 1], gpu=MULTI_GPU, config=_serve_config()
    )
    return _rows(_serve(service, "uniform", rate=3000.0))


def _cluster(topologies, policy: str, faults: str | None = None) -> Cluster:
    return Cluster(
        topologies,
        gpu=MULTI_GPU,
        config=ClusterConfig(
            policy=policy,
            interconnect="ethernet-100g",
            faults=faults,
            serve=_serve_config(),
        ),
    )


def cluster_rows() -> list[str]:
    cluster = _cluster([[2, 1], [2, 1]], "affinity")
    return _rows(_serve(cluster, "skewed", rate=5000.0))


#: the fault scenarios run on the chaos grid's arrival process
FAULT_REQUESTS = 40
FAULT_RATE = 1.0 / 120e-6
#: a six-slot blackout with two slots restarting after it
BLACKOUT_RESTART = (
    ";".join(f"crash:slot={s},at=1.5e-3" for s in range(6))
    + ";restart:slot=1,at=2.5e-3,warmup=2e-4"
    + ";restart:slot=4,at=3e-3,warmup=2e-4"
)
#: name -> (slot-scoped plan, arrival-relative deadline in seconds)
SERVICE_FAULTS = {
    **{name: (plan, None) for name, plan in CHAOS_SCENARIOS.items()},
    "blackout-restart": (BLACKOUT_RESTART, None),
    "blackout-deadline": (BLACKOUT_RESTART, 1e-3),
}
#: name -> node-scoped plan (the cluster tests' node fault plans)
CLUSTER_FAULTS = {
    "node-crash": "crash:node=1,at=1e-3",
    "node-drain": "drain:node=0,at=0.0",
    "node-transfer-fault": "transfer-fault:node=0,at=0.0",
    "blackout": "crash:node=0,at=1e-9;crash:node=1,at=1e-9",
    "crash-restart": (
        "crash:node=0,at=1e-9;crash:node=1,at=1e-9;"
        "restart:node=0,at=1e-3,warmup=1e-4"
    ),
}
FAULT_COUNTERS = ("serve.", "faults.", "cluster.")


def _fault_capture(report) -> dict:
    return {
        "rows": _rows(report, attempts=True),
        "counters": {
            name: value
            for name, value in sorted(report.counters.items())
            if name.startswith(FAULT_COUNTERS)
        },
    }


def service_fault_runs() -> dict[str, dict]:
    out = {}
    for name, (plan, deadline) in SERVICE_FAULTS.items():
        service = SchedulerService(
            fleet_topology=[1] * 6,
            gpu=MULTI_GPU,
            config=ServeConfig(
                admission=AdmissionPolicy.FAIR_SHARE,
                placement=DevicePlacementPolicy.LEAST_LOADED,
                faults=plan,
            ),
        )
        report = _serve(
            service, "uniform", FAULT_RATE, FAULT_REQUESTS, deadline
        )
        out[name] = _fault_capture(report)
    return out


def cluster_fault_runs() -> dict[str, dict]:
    out = {}
    for name, plan in CLUSTER_FAULTS.items():
        cluster = _cluster([[2, 1], [2, 1]], "spread", faults=plan)
        report = _serve(cluster, "uniform", FAULT_RATE, FAULT_REQUESTS)
        out[name] = _fault_capture(report)
    return out


CAPTURES = {
    "suite": suite_makespans,
    "multi_gpu": multi_gpu_makespans,
    "service": service_rows,
    "cluster": cluster_rows,
    "service-faults": service_fault_runs,
    "cluster-faults": cluster_fault_runs,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(CAPTURES))
def test_virtual_time_is_frozen(golden, section):
    assert CAPTURES[section]() == golden[section]


if __name__ == "__main__":
    print(
        json.dumps(
            {name: capture() for name, capture in CAPTURES.items()},
            indent=1,
            sort_keys=True,
        )
    )
