"""End-to-end scheduler tests through the Session facade.

These exercise the VEC micro-program of the paper's Fig. 4 under both
scheduling policies and check timing, overlap, coherence and results.
"""

import numpy as np
import pytest

from repro import (
    ExecutionPolicy,
    Session,
    PrefetchPolicy,
    SchedulerConfig,
    GTX960,
    GTX1660_SUPER,
)
from repro.core.race import check_no_races
from repro.gpusim.ops import TransferKind
from repro.gpusim.timeline import IntervalKind
from repro.kernels import LinearCostModel


N = 1 << 20


def square_fn(x, n):
    np.square(x[:n], out=x[:n])


def sum_fn(x, y, z, n):
    z[0] = float(np.sum(x[:n] - y[:n]))


# ~4 MB arrays; compute-heavy enough that kernels outlast the (DMA-
# serialized) input transfers, so independent kernels visibly overlap.
COST = LinearCostModel(
    flops_per_item=3000.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=4.0,
)


def make_runtime(policy=ExecutionPolicy.PARALLEL, gpu=GTX1660_SUPER, **kw):
    return Session(
        gpu=gpu, config=SchedulerConfig(execution=policy, **kw)
    )


def run_vec(rt, iterations=1):
    """The paper's Fig. 4 program (VEC): two squares + a sum reduction."""
    square = rt.build_kernel(square_fn, "square", "ptr, sint32", COST)
    vsum = rt.build_kernel(
        sum_fn, "sum", "const ptr, const ptr, ptr, sint32", COST
    )
    X, Y, Z = rt.array(N, name="X"), rt.array(N, name="Y"), rt.array(1, name="Z")
    results = []
    for _ in range(iterations):
        X.copy_from_host(np.full(N, 2.0, dtype=np.float32))
        Y.copy_from_host(np.full(N, 3.0, dtype=np.float32))
        square(256, 256)(X, N)
        square(256, 256)(Y, N)
        vsum(256, 256)(X, Y, Z, N)
        results.append(Z[0])
    rt.sync()
    return results


class TestFunctionalCorrectness:
    @pytest.mark.parametrize(
        "policy", [ExecutionPolicy.SERIAL, ExecutionPolicy.PARALLEL]
    )
    def test_vec_result(self, policy):
        rt = make_runtime(policy)
        [res] = run_vec(rt)
        assert res == pytest.approx(N * (4.0 - 9.0))

    def test_policies_agree_over_iterations(self):
        serial = run_vec(make_runtime(ExecutionPolicy.SERIAL), iterations=3)
        parallel = run_vec(
            make_runtime(ExecutionPolicy.PARALLEL), iterations=3
        )
        assert serial == parallel

    def test_parallel_faster_than_serial(self):
        rs = make_runtime(ExecutionPolicy.SERIAL)
        run_vec(rs, iterations=4)
        rp = make_runtime(ExecutionPolicy.PARALLEL)
        run_vec(rp, iterations=4)
        assert rp.elapsed() < rs.elapsed()

    def test_no_races_under_parallel_scheduling(self):
        rt = make_runtime(ExecutionPolicy.PARALLEL)
        run_vec(rt, iterations=3)
        check_no_races(rt.timeline)


class TestSchedulingStructure:
    def test_independent_squares_use_two_streams(self):
        rt = make_runtime()
        run_vec(rt)
        kernels = rt.timeline.kernels()
        squares = [k for k in kernels if k.label == "square"]
        assert len(squares) == 2
        assert squares[0].stream_id != squares[1].stream_id

    def test_squares_overlap_in_time(self):
        rt = make_runtime()
        run_vec(rt)
        a, b = [k for k in rt.timeline.kernels() if k.label == "square"]
        assert a.overlaps(b)

    def test_sum_waits_for_both_squares(self):
        rt = make_runtime()
        run_vec(rt)
        kernels = rt.timeline.kernels()
        s = next(k for k in kernels if k.label == "sum")
        for sq in (k for k in kernels if k.label == "square"):
            assert s.start >= sq.end

    def test_sum_scheduled_on_parent_stream(self):
        # First child reuses a parent's stream (section IV-C).
        rt = make_runtime()
        run_vec(rt)
        kernels = rt.timeline.kernels()
        s = next(k for k in kernels if k.label == "sum")
        square_streams = {
            k.stream_id for k in kernels if k.label == "square"
        }
        assert s.stream_id in square_streams

    def test_serial_uses_single_stream(self):
        rt = make_runtime(ExecutionPolicy.SERIAL)
        run_vec(rt)
        assert len({k.stream_id for k in rt.timeline.kernels()}) == 1

    def test_dag_shape_matches_fig4(self):
        rt = make_runtime()
        run_vec(rt)
        dag = rt.dag
        # 3 kernels + 1 CPU access element (Z[0] read conflicts with sum).
        kernel_vertices = [v for v in dag.vertices if v.is_kernel]
        assert len(kernel_vertices) == 3
        cpu_vertices = [v for v in dag.vertices if v.is_cpu_access]
        assert len(cpu_vertices) == 1


class TestTransfersAndCoherence:
    def test_parallel_prefetches_inputs(self):
        rt = make_runtime()
        run_vec(rt)
        prefetches = [
            t
            for t in rt.timeline.transfers()
            if t.meta.get("kind") is TransferKind.PREFETCH
        ]
        # X and Y are written on the host each iteration: 2 prefetches.
        assert len(prefetches) == 2
        assert all(t.nbytes == N * 4 for t in prefetches)

    def test_maxwell_uses_eager_transfers(self):
        rt = make_runtime(gpu=GTX960)
        run_vec(rt)
        kinds = {t.meta.get("kind") for t in rt.timeline.transfers()
                 if t.kind is IntervalKind.TRANSFER_HTOD}
        assert kinds == {TransferKind.EAGER}

    def test_pagefault_policy_skips_transfers(self):
        rt = make_runtime(prefetch=PrefetchPolicy.NONE)
        run_vec(rt)
        htod = [
            t
            for t in rt.timeline.transfers()
            if t.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert htod == []
        # Fault bytes appear in kernel resources instead.
        fault = sum(
            r.meta["resources"].fault_bytes for r in rt.timeline.kernels()
        )
        assert fault == pytest.approx(2 * N * 4)

    def test_pagefault_slower_than_prefetch(self):
        r1 = make_runtime(prefetch=PrefetchPolicy.AUTO)
        run_vec(r1, iterations=3)
        r2 = make_runtime(prefetch=PrefetchPolicy.NONE)
        run_vec(r2, iterations=3)
        assert r1.elapsed() < r2.elapsed()

    def test_result_readback_charges_page_migration(self):
        rt = make_runtime()
        run_vec(rt)
        dtoh = [
            t
            for t in rt.timeline.transfers()
            if t.kind is IntervalKind.TRANSFER_DTOH
        ]
        assert len(dtoh) == 1  # Z[0] readback
        assert dtoh[0].nbytes == 4  # capped at the tiny array's size

    def test_no_duplicate_transfer_for_shared_input(self):
        # Two kernels reading the same stale array: one migration only,
        # the second kernel waits on the in-flight copy.
        rt = make_runtime()
        k = rt.build_kernel(
            lambda x, o, n: None, "read", "const ptr, ptr, sint32", COST
        )
        X = rt.array(N, name="X")
        O1, O2 = rt.array(N, name="O1"), rt.array(N, name="O2")
        X.copy_from_host(np.ones(N, dtype=np.float32))
        k(256, 256)(X, O1, N)
        k(256, 256)(X, O2, N)
        rt.sync()
        htod = [
            t
            for t in rt.timeline.transfers()
            if t.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 1


class TestCpuAccessPaths:
    def test_fast_path_when_gpu_idle(self):
        rt = make_runtime()
        X = rt.array(16, name="X")
        X[0] = 1.0
        _ = X[0]
        ctx = rt.context
        assert ctx.cpu_access_fast_path_count == 2
        assert ctx.cpu_access_element_count == 0

    def test_conflicting_access_becomes_element(self):
        rt = make_runtime()
        run_vec(rt)
        assert rt.context.cpu_access_element_count == 1

    def test_access_syncs_only_needed_stream(self):
        rt = make_runtime()
        k = rt.build_kernel(
            lambda x, n: None, "touch", "ptr, sint32", COST
        )
        slow = rt.build_kernel(
            lambda x, n: None,
            "slow",
            "ptr, sint32",
            LinearCostModel(flops_per_item=50_000.0),  # ~14 ms on the 1660
        )
        X, Y = rt.array(N, name="X"), rt.array(N, name="Y")
        k(256, 256)(X, N)
        slow(256, 256)(Y, N)
        _ = X[0]  # needs only the fast kernel
        # The slow kernel is still in flight.
        assert not rt.engine.idle

    def test_overhead_counters(self):
        rt = make_runtime()
        run_vec(rt, iterations=2)
        assert rt.context.kernel_count == 6


class TestLibraryCalls:
    def test_stream_aware_library_schedules_async(self):
        rt = make_runtime()
        X = rt.array(N, name="X")
        calls = []
        rt.library_call(
            lambda: calls.append("lib"),
            [(X, __import__("repro").AccessKind.READ_WRITE)],
            label="rapids",
            stream_aware=True,
            cost_seconds=1e-3,
        )
        assert calls == []  # asynchronous: runs at sim completion
        rt.sync()
        assert calls == ["lib"]
        assert rt.elapsed() == pytest.approx(1e-3, rel=0.05)

    def test_stream_unaware_library_syncs(self):
        rt = make_runtime()
        X = rt.array(N, name="X")
        calls = []
        rt.library_call(
            lambda: calls.append("lib"),
            [(X, __import__("repro").AccessKind.READ_WRITE)],
            label="legacy",
            stream_aware=False,
            cost_seconds=1e-3,
        )
        assert calls == ["lib"]  # ran synchronously
