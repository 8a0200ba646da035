"""Tests for kernel objects, launch geometry and cost models."""

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.kernels import (
    FixedCostModel,
    LinearCostModel,
    build_kernel,
    normalize_dim,
)
from repro.kernels.registry import KernelRegistry
from repro.memory import AccessKind, DeviceArray


def make_kernel(launches, signature="const ptr, ptr, sint32", name="axpy"):
    def axpy(x, y, n):
        y[:n] += 2.0 * x[:n]

    return build_kernel(
        axpy, name, signature, launch_handler=launches.append
    )


class TestNormalizeDim:
    def test_int(self):
        assert normalize_dim(8) == (8, 1, 1)

    def test_tuple_2d(self):
        assert normalize_dim((8, 8)) == (8, 8, 1)

    def test_tuple_3d(self):
        assert normalize_dim((4, 4, 4)) == (4, 4, 4)

    def test_zero_rejected(self):
        with pytest.raises(LaunchError):
            normalize_dim(0)

    def test_too_many_dims_rejected(self):
        with pytest.raises(LaunchError):
            normalize_dim((1, 2, 3, 4))


class TestLaunchValidation:
    def test_block_limit(self):
        k = make_kernel([])
        with pytest.raises(LaunchError):
            k(4, 2048)

    def test_2d_block_limit(self):
        k = make_kernel([])
        with pytest.raises(LaunchError):
            k(4, (64, 64))  # 4096 threads

    def test_wrong_arg_count(self):
        launches = []
        k = make_kernel(launches)
        x = DeviceArray(8)
        with pytest.raises(LaunchError):
            k(1, 32)(x, x)

    def test_scalar_in_pointer_slot(self):
        k = make_kernel([])
        x = DeviceArray(8)
        with pytest.raises(LaunchError):
            k(1, 32)(3, x, 8)

    def test_array_in_scalar_slot(self):
        k = make_kernel([])
        x = DeviceArray(8)
        with pytest.raises(LaunchError):
            k(1, 32)(x, x, x)

    def test_unattached_kernel_rejects_launch(self):
        k = build_kernel(lambda x, n: None, "k", "ptr, sint32")
        with pytest.raises(LaunchError):
            k(1, 32)(DeviceArray(4), 4)


class TestEveryLaunchPathChecksGeometry:
    """CUDA-graph nodes and the hand-tuned baseline bind their launches
    through the same geometry check as ``kernel(grid, block)``."""

    def test_bind_rejects_oversized_block(self):
        k = make_kernel([])
        x, y = DeviceArray(8), DeviceArray(8)
        with pytest.raises(LaunchError):
            k.bind(4, 2048, (x, y, 8))

    def test_graph_kernel_node_rejects_oversized_block(self):
        from repro.graphs import CudaGraph

        k = make_kernel([])
        x, y = DeviceArray(8), DeviceArray(8)
        with pytest.raises(LaunchError):
            CudaGraph().add_kernel_node(k, 4, 2048, (x, y, 8))

    def test_handtuned_launch_rejects_oversized_block(self):
        from repro.gpusim import GTX1660_SUPER, Device, SimEngine
        from repro.graphs import HandTunedScheduler

        ht = HandTunedScheduler(SimEngine(Device(GTX1660_SUPER)))
        k = make_kernel([])
        x, y = DeviceArray(8), DeviceArray(8)
        with pytest.raises(LaunchError):
            ht.launch(ht.stream(), k, 4, (64, 32), (x, y, 8))


class TestLaunchPackaging:
    def test_launch_captures_geometry(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        k(4, 32)(x, y, 8)
        [launch] = launches
        assert launch.grid == (4, 1, 1)
        assert launch.block == (32, 1, 1)
        assert launch.blocks == 4
        assert launch.threads_per_block == 32
        assert launch.threads_total == 128
        assert launch.label == "axpy"

    def test_access_kinds_from_signature(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        k(1, 32)(x, y, 8)
        [launch] = launches
        accesses = dict(
            (arr.name, kind) for arr, kind in launch.array_args
        )
        assert accesses[x.name] is AccessKind.READ
        assert accesses[y.name] is AccessKind.READ_WRITE

    def test_scalars_separated(self):
        launches = []
        k = make_kernel(launches)
        k(1, 32)(DeviceArray(8), DeviceArray(8), 8)
        assert launches[0].scalar_args == (8,)

    def test_execute_runs_numpy(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        x.kernel_view[:] = 1.0
        k(1, 32)(x, y, 8)
        launches[0].execute()
        assert np.all(y.kernel_view == 2.0)

    def test_launch_count(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        k(1, 32)(x, y, 8)
        k(1, 32)(x, y, 8)
        assert k.launch_count == 2


class TestCostModels:
    def _launch(self, model, n=1000):
        launches = []
        k = build_kernel(
            lambda x, n: None,
            "k",
            "ptr, sint32",
            cost_model=model,
            launch_handler=launches.append,
        )
        k(8, 128)(DeviceArray(n), n)
        return launches[0]

    def test_linear_scales_with_array_size(self):
        model = LinearCostModel(flops_per_item=2.0, dram_bytes_per_item=8.0)
        res = self._launch(model, n=1000).resources()
        assert res.flops == 2000.0
        assert res.dram_bytes == 8000.0
        assert res.threads_total == 8 * 128

    def test_linear_custom_items_fn(self):
        model = LinearCostModel(
            flops_per_item=1.0, items_fn=lambda launch: launch.scalar_args[0]
        )
        res = self._launch(model, n=500).resources()
        assert res.flops == 500.0

    def test_linear_base_terms(self):
        model = LinearCostModel(flops_per_item=1.0, flops_base=100.0)
        res = self._launch(model, n=10).resources()
        assert res.flops == 110.0

    def test_fixed_model(self):
        model = FixedCostModel(flops=42.0, dram_bytes=7.0)
        res = self._launch(model).resources()
        assert res.flops == 42.0
        assert res.dram_bytes == 7.0

    def test_fp64_flag_propagates(self):
        res = self._launch(LinearCostModel(fp64=True)).resources()
        assert res.fp64

    def test_no_array_args_falls_back_to_threads(self):
        launches = []
        k = build_kernel(
            lambda n: None,
            "k",
            "sint32",
            cost_model=LinearCostModel(flops_per_item=1.0),
            launch_handler=launches.append,
        )
        k(2, 64)(5)
        assert launches[0].resources().flops == 128.0


class TestRegistry:
    def test_register_and_build_by_name(self):
        reg = KernelRegistry()
        reg.register("scale", lambda x, n: None, FixedCostModel(flops=1.0))
        k = build_kernel("scale", "scale_k", "ptr, sint32", registry=reg)
        assert k.name == "scale_k"
        assert k.cost_model.flops == 1.0

    def test_duplicate_rejected(self):
        reg = KernelRegistry()
        reg.register("a", lambda: None)
        with pytest.raises(ValueError):
            reg.register("a", lambda: None)

    def test_unknown_name_rejected(self):
        reg = KernelRegistry()
        with pytest.raises(LaunchError):
            build_kernel("nope", "k", "ptr", registry=reg)

    def test_contains_and_names(self):
        reg = KernelRegistry()
        reg.register("b", lambda: None)
        reg.register("a", lambda: None)
        assert "a" in reg and "c" not in reg
        assert reg.names() == ["a", "b"]

    def test_cost_model_override(self):
        reg = KernelRegistry()
        reg.register("k", lambda x, n: None, FixedCostModel(flops=1.0))
        k = build_kernel(
            "k", "k", "ptr, sint32",
            cost_model=FixedCostModel(flops=9.0), registry=reg,
        )
        assert k.cost_model.flops == 9.0
