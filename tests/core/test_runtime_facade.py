"""Tests for the Session facade API."""

import numpy as np
import pytest

from repro import (
    AccessKind,
    ExecutionPolicy,
    Session,
    SchedulerConfig,
    TESLA_P100,
)
from repro.kernels import LinearCostModel

COST = LinearCostModel(flops_per_item=100.0, dram_bytes_per_item=8.0)


class TestConstruction:
    def test_gpu_by_string(self):
        rt = Session(gpu="p100")
        assert rt.spec is TESLA_P100

    def test_gpu_by_spec(self):
        rt = Session(gpu=TESLA_P100)
        assert rt.spec is TESLA_P100

    def test_default_is_parallel(self):
        rt = Session()
        assert rt.config.execution is ExecutionPolicy.PARALLEL

    def test_serial_config(self):
        rt = Session(
            config=SchedulerConfig(execution=ExecutionPolicy.SERIAL)
        )
        from repro.core.context import SerialExecutionContext

        assert isinstance(rt.context, SerialExecutionContext)

    def test_repr(self):
        assert "GTX 1660 Super" in repr(Session())


class TestArrays:
    def test_array_attached_and_accounted(self):
        rt = Session()
        a = rt.array(1000, name="a")
        assert rt.device.allocated_bytes == a.nbytes
        a[0] = 1.0  # hook active: no error, coherence handled

    def test_free_arrays(self):
        rt = Session()
        rt.array(1000)
        rt.array(2000, dtype=np.float64)
        rt.free_arrays()
        assert rt.device.allocated_bytes == 0

    def test_virtual_array(self):
        rt = Session()
        a = rt.array(10**9, materialize=False)
        assert a.nbytes == 4 * 10**9 > 0
        assert not a.materialized


class TestExecution:
    def test_elapsed_and_clock(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 20)
        k(512, 256)(x, 1 << 20)
        rt.sync()
        assert rt.elapsed() > 0
        assert rt.clock >= rt.elapsed()

    def test_reset_measurement(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 20)
        k(512, 256)(x, 1 << 20)
        rt.reset_measurement()
        assert rt.elapsed() == 0.0
        k(512, 256)(x, 1 << 20)
        rt.sync()
        assert rt.elapsed() > 0

    def test_library_call_serial_context(self):
        rt = Session(
            config=SchedulerConfig(execution=ExecutionPolicy.SERIAL)
        )
        x = rt.array(100)
        calls = []
        rt.library_call(
            lambda: calls.append(1),
            [(x, AccessKind.READ_WRITE)],
            cost_seconds=1e-3,
        )
        assert calls == [1]
        assert rt.clock >= 1e-3

    def test_dag_exposed(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 16)
        k(64, 256)(x, 1 << 16)
        rt.sync()
        assert rt.dag.num_vertices == 1

    def test_history_exposed(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 16)
        k(64, 256)(x, 1 << 16)
        rt.sync()
        assert rt.history.execution_count("k") == 1


class TestRegistryIntegration:
    def test_runtime_with_custom_registry(self):
        from repro.kernels.registry import KernelRegistry

        reg = KernelRegistry()
        reg.register("scale2", lambda x, n: None, COST)
        rt = Session(registry=reg)
        k = rt.build_kernel("scale2", "scale2", "ptr, sint32")
        x = rt.array(1 << 16)
        k(64, 256)(x, 1 << 16)
        rt.sync()
        assert rt.elapsed() > 0


class TestReentrantContextReuse:
    """renew_context: one long-lived runtime, many isolated contexts
    (the substrate of the repro.serve fleet)."""

    def _run_square(self, rt, kernel, n=1024):
        x = rt.array(n, name="x")
        x.copy_from_host(np.full(n, 3.0, dtype=np.float32))
        kernel(8, 128)(x, n)
        return x

    def test_fresh_dag_and_history_per_context(self):
        rt = Session()
        k = rt.build_kernel(
            lambda x, n: np.square(x[:n], out=x[:n]),
            "square", "ptr, sint32", COST,
        )
        x = self._run_square(rt, k)
        assert x[0] == pytest.approx(9.0)
        assert rt.dag.num_vertices > 0
        assert rt.history.execution_count("square") == 1
        first = rt.context

        rt.free_arrays()
        ctx = rt.renew_context(op_tags={"tenant": "t1"})
        assert ctx is rt.context and ctx is not first
        assert rt.dag.num_vertices == 0
        assert rt.history.execution_count("square") == 0
        assert rt.context_generation == 1

        # The same kernel object keeps launching into the new context.
        y = self._run_square(rt, k)
        assert y[0] == pytest.approx(9.0)
        assert rt.history.execution_count("square") == 1
        tagged = [
            r for r in rt.timeline.kernels()
            if r.meta.get("tenant") == "t1"
        ]
        assert len(tagged) == 1

    def test_renewal_reclaims_engine_streams(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        for _ in range(6):
            self._run_square(rt, k)
            rt.free_arrays()
            rt.renew_context()
        # One default stream + at most the live context's streams: dead
        # contexts do not leak streams into the engine's scheduling scan.
        assert len(rt.engine.streams) <= 3

    def test_undrained_renewal_keeps_work_in_flight(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1024, name="x")
        x.copy_from_host(np.zeros(1024, dtype=np.float32))
        k(8, 128)(x, 1024)
        old = rt.context
        rt.renew_context(drain=False)
        assert rt.context is not old
        assert not rt.engine.idle  # the old context's kernel still queued
        rt.engine.sync_all()

    def test_surviving_arrays_reattach_on_drained_renewal(self):
        rt = Session()
        x = rt.array(16, name="x")
        rt.renew_context()
        assert x._on_cpu_access is not None
        x[0]  # routed through the fresh context without error
