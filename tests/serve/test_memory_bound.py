"""Serving memory scales with in-flight work, not with request count.

``tracemalloc`` sees numpy buffers, so these peaks count every input and
output array the serving path allocates.
"""

from __future__ import annotations

import tracemalloc

from repro.serve import SchedulerService
from repro.serve.workloads import mixed_workload_graphs, traffic_mix_graphs

SLOTS = 2
REQUESTS = 8
SPACING = 1e-3


def traced_peak(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def serve_vec(count: int) -> None:
    # The caller keeps its graphs for the whole run, as a client that
    # validates results against them does.
    graphs = mixed_workload_graphs(count, seed=3, workloads=["vec"])
    service = SchedulerService(fleet_size=SLOTS)
    for i, graph in enumerate(graphs):
        service.submit("t", graph, arrival_time=i * SPACING)
    report = service.run()
    assert report.metrics.completed == len(graphs)


def test_building_traffic_holds_no_inputs():
    assert traced_peak(
        lambda: traffic_mix_graphs(50, mix="skewed", seed=3)
    ) < 5_000_000


def test_serving_peak_grows_only_by_outputs():
    serve_vec(2)  # warm module-level caches outside the measurement
    graph = mixed_workload_graphs(1, seed=3, workloads=["vec"])[0]
    small = traced_peak(lambda: serve_vec(REQUESTS))
    large = traced_peak(lambda: serve_vec(2 * REQUESTS))
    allowance = REQUESTS * graph.output_bytes + SLOTS * graph.total_bytes
    assert large - small <= allowance, (small, large, allowance)
