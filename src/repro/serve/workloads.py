"""Adapters: suite benchmarks -> servable task graphs.

The paper's benchmark suite (:mod:`repro.workloads.suite`) declares each
workload once — arrays, kernels (with roofline costs) and per-iteration
invocations.  That declaration is exactly a
:class:`~repro.serve.request.TaskGraph`, so the serving layer's mixed
workloads come straight from the suite: a tenant submitting "one VEC
iteration at scale 100k with seed 7" gets the same kernels, cost models
and inputs the figure experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.array import DeviceArray
from repro.serve.request import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.workloads.base import Benchmark
from repro.workloads.suite import create_benchmark


@dataclass(frozen=True)
class BenchmarkInputs:
    """Input recipe of a benchmark graph: rebuilds one iteration's host
    inputs exactly as the benchmark's ``refresh`` writes them.

    Holds the benchmark class (pickled by reference), not an instance:
    an instance keeps a second copy of every input it generated.
    """

    benchmark: type[Benchmark]
    scale: int
    seed: int
    iteration: int

    def __call__(self) -> dict[str, np.ndarray]:
        bench = self.benchmark(self.scale, seed=self.seed, iterations=1)
        # Detached arrays: refresh() writes the inputs into them with no
        # runtime attached, which costs nothing; their buffers are
        # handed out as they are.
        staging = {
            name: DeviceArray(spec.shape, dtype=spec.dtype, name=name)
            for name, spec in bench.array_specs().items()
        }
        bench.refresh(staging, self.iteration)
        return {name: arr.kernel_view for name, arr in staging.items()}


def graph_from_benchmark(
    bench: Benchmark, iteration: int = 0
) -> TaskGraph:
    """One iteration of ``bench`` as a self-contained task graph.

    The graph carries a :class:`BenchmarkInputs` recipe instead of the
    input data: every dispatch regenerates the inputs with the same
    per-iteration RNG.  Launches are the benchmark's invocations
    verbatim.
    """
    if not bench.execute:
        raise ValueError(
            "graph_from_benchmark needs a benchmark with functional"
            " execution on (execute=True)"
        )
    arrays = {
        name: ArrayDecl(
            name=name,
            shape=spec.shape if isinstance(spec.shape, tuple)
            else (spec.shape,),
            dtype=spec.dtype,
        )
        for name, spec in bench.array_specs().items()
    }
    kernels = tuple(
        KernelDecl(
            name=k.name, signature=k.signature, fn=k.fn, cost=k.cost
        )
        for k in bench.kernel_specs()
    )
    launches = tuple(
        LaunchDecl(
            kernel=inv.kernel,
            grid=inv.grid,
            block=inv.block,
            args=tuple(inv.args),
        )
        for inv in bench.invocations()
    )
    return TaskGraph(
        name=f"{bench.name}@{bench.scale}",
        arrays=arrays,
        kernels=kernels,
        launches=launches,
        recipe=BenchmarkInputs(
            type(bench), bench.scale, bench.seed, iteration
        ),
    )


#: Small per-workload scales that keep serving benchmarks fast while
#: still exercising multi-kernel DAGs with real transfers.
SERVING_SCALES: dict[str, int] = {
    "vec": 120_000,
    "b&s": 60_000,
    "ml": 4_000,
}

#: The two serving traffic mixes the benchmark grids sweep: ``uniform``
#: cycles every workload evenly (cold-cache heavy — three topologies
#: alternate); ``skewed`` leans on one hot topology (batching/capture
#: -cache heavy), the classic production shape where one model
#: dominates traffic.
TRAFFIC_MIXES: dict[str, tuple[str, ...]] = {
    "uniform": ("vec", "b&s", "ml"),
    "skewed": ("vec", "vec", "vec", "vec", "b&s", "ml"),
}


def traffic_mix_graphs(
    count: int,
    mix: str = "uniform",
    seed: int = 7,
    scales: dict[str, int] | None = None,
) -> list[TaskGraph]:
    """``count`` task graphs drawn from one named traffic mix."""
    try:
        names = TRAFFIC_MIXES[mix]
    except KeyError:
        raise ValueError(
            f"unknown traffic mix {mix!r}; choose from"
            f" {sorted(TRAFFIC_MIXES)}"
        ) from None
    return mixed_workload_graphs(
        count, seed=seed, workloads=list(names), scales=scales
    )


def mixed_workload_graphs(
    count: int,
    seed: int = 7,
    workloads: list[str] | None = None,
    scales: dict[str, int] | None = None,
) -> list[TaskGraph]:
    """``count`` task graphs cycling over the suite's workloads.

    Graphs of the same workload share a topology (same kernels, shapes
    and launch wiring) but carry different input data (per-graph seeds),
    which is exactly the mix the batching window and capture cache are
    built for.
    """
    names = workloads or list(SERVING_SCALES)
    scales = scales or SERVING_SCALES
    graphs: list[TaskGraph] = []
    for i in range(count):
        name = names[i % len(names)]
        bench = create_benchmark(
            name,
            scales.get(name, SERVING_SCALES.get(name, 10_000)),
            seed=seed + i,
            iterations=1,
        )
        graphs.append(graph_from_benchmark(bench, iteration=0))
    return graphs
