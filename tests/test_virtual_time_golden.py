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
  digest.

Counters stay out: a refactor may change how many events or waits it
records without moving virtual time.  To print the current values as
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


def _timing_rows(system, mix: str, rate: float) -> list[str]:
    for t in range(TENANTS):
        system.register_tenant(f"tenant{t}", priority=TENANTS - 1 - t)
    graphs = traffic_mix_graphs(REQUESTS, mix=mix, seed=SEED)
    arrivals = np.cumsum(
        np.random.default_rng(SEED).exponential(1.0 / rate, size=REQUESTS)
    )
    for i, (graph, arrival) in enumerate(zip(graphs, arrivals)):
        system.submit(f"tenant{i % TENANTS}", graph, arrival_time=float(arrival))
    report = system.run()
    rows = []
    for r in sorted(report.results, key=lambda r: r.request_id):
        digest = hashlib.sha256()
        for name in sorted(r.outputs):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(r.outputs[name]).tobytes())
        rows.append(
            "|".join(
                (
                    str(r.request_id),
                    r.status.value,
                    str(r.device_index),
                    str(r.node_index),
                    str(r.batch_id),
                    r.start_time.hex(),
                    r.finish_time.hex(),
                    digest.hexdigest()[:16],
                )
            )
        )
    return rows


def service_rows() -> list[str]:
    service = SchedulerService(
        fleet_topology=[2, 2, 1, 1], gpu=MULTI_GPU, config=_serve_config()
    )
    return _timing_rows(service, "uniform", rate=3000.0)


def cluster_rows() -> list[str]:
    cluster = Cluster(
        [[2, 1], [2, 1]],
        gpu=MULTI_GPU,
        config=ClusterConfig(
            policy="affinity",
            interconnect="ethernet-100g",
            serve=_serve_config(),
        ),
    )
    return _timing_rows(cluster, "skewed", rate=5000.0)


CAPTURES = {
    "suite": suite_makespans,
    "multi_gpu": multi_gpu_makespans,
    "service": service_rows,
    "cluster": cluster_rows,
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
