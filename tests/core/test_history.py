"""Tests for kernel-execution history and the block-size heuristic
(sections IV-A and VI)."""

import pytest

from repro import Session, SchedulerConfig, ExecutionPolicy
from repro.core.history import (
    KernelExecutionRecord,
    KernelHistory,
    _size_bucket,
)
from repro.kernels import LinearCostModel


def rec(name="k", block=256, data=1e6, duration=1e-3, blocks=64):
    return KernelExecutionRecord(
        kernel_name=name,
        threads_per_block=block,
        blocks=blocks,
        data_bytes=data,
        duration=duration,
        stream_id=1,
        end_time=duration,
    )


class TestHistoryBookkeeping:
    def test_empty(self):
        h = KernelHistory()
        assert h.kernels() == []
        assert h.execution_count("k") == 0

    def test_record_and_query(self):
        h = KernelHistory()
        h.record(rec(duration=2e-3))
        h.record(rec(duration=4e-3))
        assert h.kernels() == ["k"]
        assert h.execution_count("k") == 2
        assert h.mean_duration("k") == pytest.approx(3e-3)

    def test_mean_by_block_size(self):
        h = KernelHistory()
        h.record(rec(block=32, duration=8e-3))
        h.record(rec(block=256, duration=1e-3))
        assert h.mean_duration("k", 32) == pytest.approx(8e-3)
        assert h.mean_duration("k", 256) == pytest.approx(1e-3)

    def test_missing_kernel_raises(self):
        with pytest.raises(KeyError):
            KernelHistory().mean_duration("nope")

    def test_record_cap(self):
        h = KernelHistory(max_records_per_kernel=3)
        for _ in range(10):
            h.record(rec())
        assert h.execution_count("k") == 3

    def test_summary(self):
        h = KernelHistory()
        h.record(rec(duration=1e-3))
        h.record(rec(duration=3e-3))
        s = h.summary()["k"]
        assert s["executions"] == 2
        assert s["mean_ms"] == pytest.approx(2.0)
        assert s["best_ms"] == pytest.approx(1.0)


class TestSizeBuckets:
    def test_monotonic(self):
        assert _size_bucket(1024) < _size_bucket(1 << 20)

    def test_same_bucket_within_2x(self):
        assert _size_bucket(1000) in (
            _size_bucket(1500),
            _size_bucket(1500) - 1,
        )

    def test_zero_safe(self):
        assert _size_bucket(0) == 0


class TestRecommendation:
    def test_no_evidence_returns_none(self):
        h = KernelHistory()
        assert h.recommend_block_size("k", 1e6) is None

    def test_picks_fastest_block(self):
        h = KernelHistory()
        for _ in range(3):
            h.record(rec(block=32, duration=8e-3))
            h.record(rec(block=256, duration=1e-3))
            h.record(rec(block=1024, duration=2e-3))
        assert h.recommend_block_size("k", 1e6) == 256

    def test_respects_data_size_bucket(self):
        h = KernelHistory()
        # Small inputs favour small blocks; large inputs large blocks.
        h.record(rec(block=32, data=1e3, duration=1e-6))
        h.record(rec(block=1024, data=1e3, duration=5e-6))
        h.record(rec(block=32, data=1e9, duration=5e-1))
        h.record(rec(block=1024, data=1e9, duration=1e-1))
        assert h.recommend_block_size("k", 1e3) == 32
        assert h.recommend_block_size("k", 1e9) == 1024

    def test_other_kernels_ignored(self):
        h = KernelHistory()
        h.record(rec(name="a", block=32))
        assert h.recommend_block_size("b", 1e6) is None


class TestRuntimeIntegration:
    def _run(self, block_size, policy=ExecutionPolicy.PARALLEL):
        rt = Session(
            gpu="GTX 1660 Super",
            config=SchedulerConfig(execution=policy),
        )
        n = 1 << 20
        k = rt.build_kernel(
            lambda x, m: None,
            "probe",
            "ptr, sint32",
            LinearCostModel(flops_per_item=200.0, instructions_per_item=50.0),
        )
        x = rt.array(n, materialize=False)
        for _ in range(3):
            k(512, block_size)(x, n)
        rt.sync()
        return rt

    def test_history_populated_by_scheduler(self):
        rt = self._run(256)
        assert rt.history.execution_count("probe") == 3
        assert rt.history.mean_duration("probe") > 0

    def test_history_populated_by_serial_scheduler(self):
        rt = self._run(256, policy=ExecutionPolicy.SERIAL)
        assert rt.history.execution_count("probe") == 3

    def test_end_to_end_recommendation(self):
        # Compute-bound kernel: 32-thread blocks under-occupy the GPU
        # and run slower; the heuristic should learn to prefer 1024.
        rt = Session(gpu="GTX 1660 Super")
        n = 1 << 20
        k = rt.build_kernel(
            lambda x, m: None,
            "probe",
            "ptr, sint32",
            LinearCostModel(flops_per_item=200.0, instructions_per_item=50.0),
        )
        x = rt.array(n, materialize=False)
        for block in (32, 128, 1024):
            k(512, block)(x, n)
            rt.sync()
        best = rt.history.recommend_block_size("probe", x.nbytes)
        assert best == 1024
