"""The ``serve-bench --cluster`` experiment: multi-node serving.

The cluster-level counterpart of :mod:`repro.harness.serving`: the same
tenants and Poisson arrival process, but requests are admitted once
globally and placed across N nodes (each a full fleet with its own
topology) over a priced host-to-host interconnect.  The benchmark runs
the whole scenario ``runs`` times (request ids reset between runs) and
asserts the :meth:`~repro.cluster.ClusterReport.fingerprint` is
bit-identical across them — replay determinism is an output of the
benchmark, not a separate test — then writes the headline numbers to
``BENCH_cluster.json`` (the CI ``cluster-smoke`` artifact).
"""

from __future__ import annotations

import json

import numpy as np

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterReport,
    parse_cluster_spec,
)
from repro.faults import FaultPlan
from repro.multigpu.scheduler import DevicePlacementPolicy
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.serve.admission import AdmissionPolicy
from repro.serve.request import execute_serial
from repro.serve.service import ServeConfig
from repro.serve.workloads import traffic_mix_graphs

#: default Chrome-trace artifact path when ``--trace`` is given bare
DEFAULT_TRACE_PATH = "TRACE_cluster.json"


def _coerce(value, enum_cls):
    if isinstance(value, enum_cls):
        return value
    for member in enum_cls:
        if member.value == value or member.name.lower() == str(value).lower():
            return member
    raise ValueError(
        f"unknown {enum_cls.__name__} {value!r}; choose from"
        f" {[m.value for m in enum_cls]}"
    )


def cluster_report_summary(report: ClusterReport) -> dict:
    """The headline numbers of one cluster run as JSON-ready data."""
    m = report.metrics
    link = report.config.interconnect
    return {
        "nodes": report.nodes,
        "policy": report.config.policy.value,
        "interconnect": link if isinstance(link, str) else link.name,
        "requests": m.completed,
        "tenants": m.tenants,
        "makespan_s": m.makespan,
        "throughput_rps": m.throughput_rps,
        "latency_ms": {
            "p50": m.latency.p50 * 1e3,
            "p95": m.latency.p95 * 1e3,
            "p99": m.latency.p99 * 1e3,
            "worst": m.latency.worst * 1e3,
        },
        "shed": m.shed,
        "timed_out": m.timed_out,
        "failed": m.failed,
        "terminal": m.terminal,
        "network": {
            "ops": report.counters.get("cluster.net_ops", 0),
            "bytes": report.counters.get("cluster.net_bytes", 0),
            "stage_bytes": report.counters.get(
                "cluster.net_stage_bytes", 0
            ),
            "readback_bytes": report.counters.get(
                "cluster.net_readback_bytes", 0
            ),
            "retries": report.counters.get("cluster.net_retries", 0),
        },
        "placements": report.counters.get("cluster.placements", 0),
        "replacements": report.counters.get("cluster.replacements", 0),
        "node_faults_injected": report.counters.get(
            "cluster.node_faults_injected", 0
        ),
        "per_node": {
            str(index): {
                "requests": len(node_report.results),
                "completed": node_report.metrics.completed,
                "shed": node_report.metrics.shed,
                "failed": node_report.metrics.failed,
                "batches": node_report.metrics.batches,
                "capture_hits": node_report.metrics.capture_hits,
            }
            for index, node_report in sorted(report.per_node.items())
        },
        "fingerprint": report.fingerprint(),
        "counters": dict(report.counters),
    }


def cluster_bench(
    cluster: "str | list[list[int]]" = "2,1|2",
    tenants: int = 4,
    requests: int = 100,
    policy: str = "spread",
    interconnect: str = "ethernet-100g",
    admission: "AdmissionPolicy | str" = AdmissionPolicy.FAIR_SHARE,
    placement: "DevicePlacementPolicy | str" = (
        DevicePlacementPolicy.LEAST_LOADED
    ),
    gpu: str = "GTX 1660 Super",
    seed: int = 7,
    mean_interarrival_us: float = 120.0,
    traffic: str = "uniform",
    faults: "str | FaultPlan | None" = None,
    fault_seed: int | None = None,
    deadline_us: float | None = None,
    runs: int = 2,
    validate: bool = False,
    render: bool = False,
    bench_out: str | None = None,
    trace: bool = False,
    trace_out: str | None = None,
) -> ClusterReport:
    """Run one cluster benchmark (``runs`` replays) and return the last
    report.

    ``cluster`` is a ``|``-separated per-node topology spec
    (``"2,1|2"`` = node0 with slots of 2 and 1 GPUs, node1 with one
    2-GPU slot); ``policy`` picks the node scheduler (bin-pack /
    spread / affinity); ``interconnect`` prices cross-node staging and
    readback.  ``faults`` takes a node-scoped plan (DSL:
    ``"crash:node=1,at=2e-3"``); ``fault_seed`` generates one with
    :meth:`FaultPlan.random_nodes` over the arrival horizon.

    The scenario executes ``runs`` times with request ids reset between
    runs and the fingerprints are asserted equal — a nondeterministic
    cluster is a failed benchmark.  ``validate=True`` additionally
    checks every completed request against private serial execution.
    """
    if tenants <= 0 or requests <= 0:
        raise ValueError("tenants and requests must be positive")
    if runs <= 0:
        raise ValueError("runs must be positive")
    if faults is not None and fault_seed is not None:
        raise ValueError("pass either faults or fault_seed, not both")
    admission = _coerce(admission, AdmissionPolicy)
    placement = _coerce(placement, DevicePlacementPolicy)
    topologies = (
        parse_cluster_spec(cluster)
        if isinstance(cluster, str)
        else [list(t) for t in cluster]
    )
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if fault_seed is not None:
        faults = FaultPlan.random_nodes(
            fault_seed,
            nodes=len(topologies),
            horizon=requests * mean_interarrival_us * 1e-6,
        )

    tracer = Tracer() if (trace or trace_out) else None

    def one_run() -> tuple[ClusterReport, list]:
        c = Cluster(
            [list(t) for t in topologies],
            gpu=gpu,
            config=ClusterConfig(
                policy=policy,
                interconnect=interconnect,
                faults=faults,
                serve=ServeConfig(
                    admission=admission, placement=placement
                ),
            ),
            tracer=tracer,
        )
        for t in range(tenants):
            c.register_tenant(f"tenant{t}", priority=tenants - 1 - t)
        graphs = traffic_mix_graphs(requests, mix=traffic, seed=seed)
        rng = np.random.default_rng(seed)
        arrival = 0.0
        submitted = []
        for i, graph in enumerate(graphs):
            arrival += float(
                rng.exponential(mean_interarrival_us * 1e-6)
            )
            submitted.append(
                (
                    c.submit(
                        f"tenant{i % tenants}",
                        graph,
                        arrival_time=arrival,
                        deadline=(
                            arrival + deadline_us * 1e-6
                            if deadline_us is not None
                            else None
                        ),
                    ),
                    graph,
                )
            )
        return c.run(), submitted

    report, submitted = one_run()
    fingerprint = report.fingerprint()
    for _ in range(runs - 1):
        replay, _ = one_run()
        other = replay.fingerprint()
        if other != fingerprint:
            raise AssertionError(
                f"cluster run is not deterministic:"
                f" {fingerprint[:16]} != {other[:16]}"
            )
        report = replay

    # The no-hang invariant: every submission reached a terminal status.
    by_id = {r.request_id: r for r in report.results}
    missing = [rid for rid, _ in submitted if rid not in by_id]
    if missing:
        raise AssertionError(
            f"{len(missing)} request(s) never reached a terminal"
            f" status: {missing[:10]}"
        )

    if validate:
        for request_id, graph in submitted:
            result = by_id[request_id]
            if not result.ok:
                continue
            reference = execute_serial(graph, gpu=gpu)
            for name, expected in reference.items():
                got = result.outputs[name]
                if not np.array_equal(got, expected):
                    raise AssertionError(
                        f"request {request_id} ({graph.name}) output"
                        f" {name!r} diverges from serial execution"
                    )

    if bench_out:
        summary = cluster_report_summary(report)
        summary["traffic"] = traffic
        summary["runs"] = runs
        summary["deterministic"] = True
        summary["hung_requests"] = 0
        summary["validated"] = bool(validate)
        if faults is not None:
            summary["faults"] = {
                "plan": faults.describe(),
                "seed": faults.seed,
            }
        with open(bench_out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    trace_path: str | None = None
    if tracer is not None:
        trace_path = trace_out or DEFAULT_TRACE_PATH
        write_chrome_trace(
            trace_path,
            tracer,
            results=report.results,
            other={
                "benchmark": "cluster-bench",
                "cluster": report.nodes,
                "policy": report.config.policy.value,
                "gpu": gpu,
                "traffic": traffic,
                "requests": report.metrics.completed,
            },
        )

    if render:
        print(report.render())
        print(
            f"\ndeterministic: {runs} run(s) fingerprint-equal"
            f" ({fingerprint[:16]}...)"
        )
        if validate:
            done = sum(1 for r in report.results if r.ok)
            print(
                f"validated: all {done} completed requests match"
                " serial single-runtime execution"
                + (
                    f" ({len(submitted) - done} shed/timed-out/failed)"
                    if done < len(submitted)
                    else ""
                )
            )
        if bench_out:
            print(f"wrote {bench_out}")
        if trace_path:
            print(f"wrote {trace_path}")
    return report


__all__ = ["cluster_bench", "cluster_report_summary"]
