"""The serving workloads: open-loop traffic in virtual time.

Seeded Poisson arrivals from four tenants under fair-share admission,
least-loaded placement and the ``sequential`` strategy on GTX 1660
Super GPUs.  Arrivals are virtual timestamps, so the generator can
never run late.  Each workload sweeps a ladder of arrival rates with
200 requests per rate; the nominal rate gives the latency metrics.

Every rate regenerates the same seeded graphs, so the serial reference
outputs are computed once per run, kept as digests, and every completed
request at every rate is compared against them outside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.serve.workloads as serve_workloads
from repro.cluster import Cluster, ClusterConfig
from repro.multigpu.scheduler import DevicePlacementPolicy
from repro.serve.admission import AdmissionPolicy
from repro.serve.request import RequestStatus, execute_serial
from repro.serve.service import SchedulerService, ServeConfig
from repro.serve.workloads import SERVING_SCALES, TRAFFIC_MIXES
from repro.workloads import Mode, create_benchmark

from measure import nearest_rank
from suite import GRAPH_MODES
from tracing import SpanRecorder, instrument

GPU = "GTX 1660 Super"
TENANTS = 4
REQUESTS = 200
#: capacity: p95 at or under this latency ...
P95_LIMIT_S = 4e-3
#: ... and the last quarter of arrivals waits at most this long
#: (median), so the backlog is not growing
BACKLOG_LIMIT_S = 1e-3


@dataclass(frozen=True)
class ServingSpec:
    name: str
    mix: str
    ladder: tuple[int, ...]
    nominal: int
    #: GPUs per fleet slot, one tuple per node
    nodes: tuple[tuple[int, ...], ...]
    #: ladders per run, each with its own arrival stream; latency and
    #: speedups pool the nominal rate over them and capacity is their
    #: median, which damps the seed-to-seed spread
    replicas: int = 1
    policy: str = ""
    interconnect: str = ""

    def build(self):
        """The service (one node) or cluster, with tenants registered:
        the set-up this workload pays before its first request."""
        serve = ServeConfig(
            admission=AdmissionPolicy.FAIR_SHARE,
            placement=DevicePlacementPolicy.LEAST_LOADED,
            parallel="sequential",
        )
        if len(self.nodes) == 1:
            system = SchedulerService(
                fleet_topology=list(self.nodes[0]), gpu=GPU, config=serve
            )
        else:
            system = Cluster(
                [list(slots) for slots in self.nodes],
                gpu=GPU,
                config=ClusterConfig(
                    policy=self.policy,
                    interconnect=self.interconnect,
                    serve=serve,
                ),
            )
        for t in range(TENANTS):
            system.register_tenant(f"tenant{t}", priority=TENANTS - 1 - t)
        return system


SPECS = {
    spec.name: spec
    for spec in (
        ServingSpec(
            name="serve-uniform",
            mix="uniform",
            ladder=(1500, 3000, 4500, 6000),
            nominal=3000,
            nodes=((2, 2, 1, 1),),
            replicas=2,
        ),
        ServingSpec(
            name="cluster-skewed",
            mix="skewed",
            ladder=(2500, 5000, 7000, 9000),
            nominal=5000,
            nodes=((2, 1), (2, 1)),
            replicas=3,
            policy="affinity",
            interconnect="ethernet-100g",
        ),
    )
}


def output_digest(outputs: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        h.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@dataclass
class References:
    """Serial ground truth for one seed."""

    #: request index -> output digest of ``execute_serial``
    digests: list[str]
    #: graph name -> stand-alone virtual makespan, serial mode
    serial_s: dict[str, float]
    #: graph name -> best stand-alone makespan of the graph baselines
    graphs_s: dict[str, float]


def references(spec: ServingSpec, seed: int) -> References:
    graphs = serve_workloads.traffic_mix_graphs(
        REQUESTS, mix=spec.mix, seed=seed
    )
    digests = [output_digest(execute_serial(g, gpu=GPU)) for g in graphs]
    serial_s: dict[str, float] = {}
    graphs_s: dict[str, float] = {}
    for name in sorted(set(TRAFFIC_MIXES[spec.mix])):
        bench = create_benchmark(
            name, SERVING_SCALES[name], iterations=1, execute=False
        )
        key = f"{bench.name}@{bench.scale}"
        serial_s[key] = bench.run(GPU, Mode.SERIAL).elapsed
        graphs_s[key] = min(bench.run(GPU, m).elapsed for m in GRAPH_MODES)
    return References(digests, serial_s, graphs_s)


@dataclass
class Rung:
    """One rate of the ladder: 200 requests served by a fresh system."""

    rate: int
    host_s: float
    attempted: int
    failed: int
    launches: int
    fingerprint: str
    #: virtual latencies of the completed requests, ascending
    latencies: list[float]
    #: median queue wait of the last quarter of arrivals
    tail_wait_s: float
    throughput_rps: float
    #: per completed request: stand-alone makespan of its graph in
    #: serial mode, and under the best graph baseline, each divided by
    #: its execution span in the fleet
    speedups: list[float]
    vs_graphs: list[float]
    input_bytes: int
    #: serving indicators for the per-layer report
    layer: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def p50_s(self) -> float:
        return statistics.median(self.latencies)

    @property
    def p95_s(self) -> float:
        return nearest_rank(self.latencies, 0.95)

    @property
    def meets_limits(self) -> bool:
        return (
            self.p95_s <= P95_LIMIT_S and self.tail_wait_s <= BACKLOG_LIMIT_S
        )

    @property
    def margin(self) -> float:
        """Worst share of a capacity limit used (> 1 = limit missed)."""
        return max(
            self.p95_s / P95_LIMIT_S, self.tail_wait_s / BACKLOG_LIMIT_S
        )


def arrival_times(seed: int, replica: int, rate: int) -> np.ndarray:
    """Poisson arrivals conditioned on exactly ``REQUESTS`` of them in
    ``REQUESTS / rate`` seconds: sorted uniform times, drawn as
    normalised exponential gaps.

    The offered load then equals the ladder rate.  An unconditioned
    stream of 200 arrivals misses its rate by 7% (one standard
    deviation), which near the capacity knee moves latency between
    seeds far more than the bounds allow.
    """
    gaps = np.random.default_rng([seed, replica]).exponential(
        size=REQUESTS + 1
    )
    return np.cumsum(gaps[:-1]) * (REQUESTS / rate) / gaps.sum()


def run_rung(
    spec: ServingSpec,
    seed: int,
    rate: int,
    refs: References,
    replica: int = 0,
    recorder: SpanRecorder | None = None,
) -> Rung:
    """Serve one rate.  Timed: synthesis + submit + run + fingerprint.

    The graphs depend on ``seed`` alone; the arrival times on ``seed``
    and ``replica``.
    """
    system = spec.build()
    scope = instrument(recorder) if recorder else contextlib.nullcontext()
    with scope:
        start = time.perf_counter()
        graphs = serve_workloads.traffic_mix_graphs(
            REQUESTS, mix=spec.mix, seed=seed
        )
        arrivals = arrival_times(seed, replica, rate)
        ids = [
            system.submit(
                f"tenant{i % TENANTS}", graph, arrival_time=float(arrival)
            )
            for i, (graph, arrival) in enumerate(zip(graphs, arrivals))
        ]
        report = system.run()
        fingerprint = report.fingerprint()
        host_s = time.perf_counter() - start

    by_id = {r.request_id: r for r in report.results}
    done = []
    failed = 0
    for index, request_id in enumerate(ids):
        result = by_id.get(request_id)
        if (
            result is None
            or result.status is not RequestStatus.COMPLETED
            or output_digest(result.outputs) != refs.digests[index]
        ):
            failed += 1
        else:
            done.append(result)
    by_arrival = sorted(done, key=lambda r: r.arrival_time)
    tail = by_arrival[-(len(by_arrival) // 4):] or by_arrival
    spans = [(r.graph_name, r.finish_time - r.start_time) for r in done]
    m = report.metrics
    return Rung(
        rate=rate,
        host_s=host_s,
        attempted=len(ids),
        failed=failed,
        launches=sum(len(g.launches) for g in graphs),
        fingerprint=fingerprint,
        latencies=sorted(r.latency for r in done) or [float("inf")],
        tail_wait_s=(
            statistics.median(r.queue_wait for r in tail)
            if tail
            else float("inf")
        ),
        throughput_rps=m.throughput_rps,
        speedups=[refs.serial_s[g] / s for g, s in spans],
        vs_graphs=[refs.graphs_s[g] / s for g, s in spans],
        input_bytes=sum(g.input_bytes for g in graphs),
        layer={
            "serve.queue_wait_p95_ms": m.queue_wait.p95 * 1e3,
            "serve.batch_size_mean": m.completed / max(1, m.batches),
            "serve.capture_hit_ratio": m.capture_hits
            / max(1, m.capture_hits + m.capture_misses),
            "serve.utilization_mean": m.mean_utilization,
        },
        counters=dict(report.counters),
    )


def capacity(rungs: list[Rung]) -> tuple[float, int]:
    """Highest sustainable rate: interpolated, and the bare ladder rate.

    The bare rate is the highest ladder rate that meets both limits.
    Because it jumps a whole rung when one seed's tail wait crosses the
    limit, the reported capacity interpolates the limit margin linearly
    between that rate and the next rung up.
    """
    ordered = sorted(rungs, key=lambda r: r.rate)
    passing = [i for i, r in enumerate(ordered) if r.meets_limits]
    if not passing:
        return 0.0, 0
    i = passing[-1]
    low = ordered[i]
    if i + 1 == len(ordered):
        return float(low.rate), low.rate
    high = ordered[i + 1]
    share = (1.0 - low.margin) / (high.margin - low.margin)
    return low.rate + share * (high.rate - low.rate), low.rate
