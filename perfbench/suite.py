"""The ``suite`` workload: the paper's evaluation grid.

Six benchmarks at the first Table-I scale, on the GTX 960, GTX 1660
Super and Tesla P100, under all five execution modes, timing-only, 20
iterations per cell: the cells behind Fig. 7 (parallel vs serial) and
Fig. 8 (parallel vs the CUDA Graphs and hand-tuned baselines).  DAG
inference, stream assignment, the single-GPU coherence path, the engine
and the graph baselines do all the host work; the kernel payload, input
synthesis, serving, parallel strategies and the cluster do none.

A "request" of this workload is one cell: one benchmark run of 20
iterations on one GPU in one mode.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from repro.metrics import geomean
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import default_scales

from measure import add_counters
from tracing import SpanRecorder, instrument

BENCHES = ("vec", "b&s", "img", "ml", "hits", "dl")
GPUS = ("GTX 960", "GTX 1660 Super", "Tesla P100")
MODES = tuple(Mode)
GRAPH_MODES = (Mode.GRAPH_MANUAL, Mode.GRAPH_CAPTURE, Mode.HANDTUNED)
ITERATIONS = 20

#: Fig. 7 speedups the repository records for the paper
#: (``repro.harness.figures.figure7``, ``benchmarks/test_fig7_speedup.py``)
PAPER_SPEEDUP = {"all GPUs": 1.44, "GTX 960": 1.25, "Tesla P100": 1.61}


def cells() -> list[tuple[str, str, int, Mode]]:
    return [
        (name, gpu, default_scales(name, gpu)[0], mode)
        for name in BENCHES
        for gpu in GPUS
        for mode in MODES
    ]


@dataclass
class SuitePass:
    """One pass over every cell."""

    cell_s: list[float] = field(default_factory=list)
    launches: int = 0
    failed: int = 0
    #: (benchmark, gpu, mode) -> virtual makespan
    makespans: dict[tuple[str, str, Mode], float] = field(
        default_factory=dict
    )
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def host_s(self) -> float:
        return sum(self.cell_s)


def run_pass(recorder: SpanRecorder | None = None) -> SuitePass:
    """Run every cell once; with ``recorder``, inside the span wrappers.

    Only the benchmark construction and run are timed.  The launch-count
    check reads the timeline afterwards.
    """
    out = SuitePass()
    for name, gpu, scale, mode in cells():
        scope = (
            instrument(recorder) if recorder else contextlib.nullcontext()
        )
        with scope:
            start = time.perf_counter()
            try:
                bench = create_benchmark(
                    name, scale, iterations=ITERATIONS, execute=False
                )
                result = bench.run(gpu, mode)
            except Exception as exc:  # a failed cell is counted, not fatal
                out.cell_s.append(time.perf_counter() - start)
                out.failed += 1
                print(f"cell {name}/{gpu}/{mode.value} raised {exc!r}")
                continue
            out.cell_s.append(time.perf_counter() - start)
        launched = len(result.timeline.kernels())
        out.launches += launched
        if launched != bench.kernel_count_per_iteration() * ITERATIONS:
            out.failed += 1
            print(
                f"cell {name}/{gpu}/{mode.value} launched {launched}"
                f" kernels, expected"
                f" {bench.kernel_count_per_iteration() * ITERATIONS}"
            )
        out.makespans[(name, gpu, mode)] = result.elapsed
        add_counters(out.counters, result.counters)
    return out


def figures(makespans: dict[tuple[str, str, Mode], float]) -> dict:
    """Fig. 7 and Fig. 8 geomeans from one pass's makespans."""
    speedups: dict[str, list[float]] = {gpu: [] for gpu in GPUS}
    vs_graphs = []
    for name in BENCHES:
        for gpu in GPUS:
            parallel = makespans[(name, gpu, Mode.PARALLEL)]
            speedups[gpu].append(
                makespans[(name, gpu, Mode.SERIAL)] / parallel
            )
            vs_graphs.append(
                min(makespans[(name, gpu, m)] for m in GRAPH_MODES)
                / parallel
            )
    per_gpu = {gpu: geomean(v) for gpu, v in speedups.items()}
    per_gpu["all GPUs"] = geomean([s for v in speedups.values() for s in v])
    return {"speedup": per_gpu, "vs_graphs": geomean(vs_graphs)}


def paper_lines(speedup: dict[str, float]) -> list[str]:
    lines = ["Fig. 7 speedup_geomean vs the paper:"]
    for key, value in speedup.items():
        ref = PAPER_SPEEDUP.get(key)
        if ref is None:
            lines.append(f"  {key:<15} {value:.3f}  (no paper value)")
        else:
            lines.append(
                f"  {key:<15} {value:.3f}  paper {ref:.2f}"
                f"  error {100 * (value - ref) / ref:+.1f}%"
            )
    return lines

