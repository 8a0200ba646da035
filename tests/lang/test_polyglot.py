"""Tests for the polyglot front-end, including the paper's Fig. 4
listing executed verbatim (modulo the CUDA source strings)."""

import numpy as np
import pytest

from repro import Session
from repro.errors import PolyglotError
from repro.lang import Polyglot


@pytest.fixture
def poly():
    return Polyglot(Session(gpu="GTX 1660 Super"))


class TestArrayExpressions:
    def test_float_array(self, poly):
        x = poly.eval("grcuda", "float[100]")
        assert x.shape == (100,)
        assert x.dtype == np.float32

    def test_double_array(self, poly):
        x = poly.eval("grcuda", "double[8]")
        assert x.dtype == np.float64

    def test_int_array(self, poly):
        assert poly.eval("grcuda", "int[4]").dtype == np.int32

    def test_2d_array(self, poly):
        x = poly.eval("grcuda", "float[10][20]")
        assert x.shape == (10, 20)

    def test_whitespace_tolerated(self, poly):
        assert poly.eval("grcuda", "  float[ 7 ] ").shape == (7,)

    def test_format_pattern_from_paper(self, poly):
        n = 123
        x = poly.eval("grcuda", "float[{}]".format(n))
        assert x.shape == (123,)

    def test_arrays_attached_to_runtime(self, poly):
        x = poly.eval("grcuda", "float[10]")
        x[0] = 1.0  # goes through the scheduler hook without error
        assert x[0] == 1.0

    @pytest.mark.parametrize(
        "bad",
        ["banana[10]", "float[]", "float[-3]", "float[0]", "float", "42"],
    )
    def test_bad_expressions_rejected(self, poly, bad):
        with pytest.raises(PolyglotError):
            poly.eval("grcuda", bad)

    def test_unknown_language_rejected(self, poly):
        with pytest.raises(PolyglotError):
            poly.eval("js", "float[1]")


class TestBuiltins:
    def test_device_array_builtin(self, poly):
        factory = poly.eval("grcuda", "DeviceArray")
        x = factory("float", 5, 6)
        assert x.shape == (5, 6)

    def test_sync_builtin(self, poly):
        sync = poly.eval("grcuda", "cudaDeviceSynchronize")
        sync()  # no-op on an idle device


class TestFigure4Listing:
    """The paper's Fig. 4 VEC host program, as written."""

    def test_full_listing(self, poly):
        from repro.kernels import LinearCostModel

        N = 1000
        NUM_BLOCKS, NUM_THREADS = 32, 128
        # Costed so the kernels outlive the host's submission loop (the
        # FIFO policy would otherwise rightly reuse one stream).
        cost = LinearCostModel(flops_per_item=1e6)

        def K1_CODE(x, n):
            np.square(x[:n], out=x[:n])

        def K2_CODE(x, y, z, n):
            z[0] = float(np.sum(x[:n] - y[:n]))

        buildkernel = poly.eval("grcuda", "buildkernel")
        K1 = buildkernel(K1_CODE, "square", "ptr, sint32", cost)
        K2 = buildkernel(
            K2_CODE, "sum", "const ptr, const ptr, ptr, sint32", cost
        )
        X = poly.eval("grcuda", "float[{}]".format(N))
        Y = poly.eval("grcuda", "float[{}]".format(N))
        Z = poly.eval("grcuda", "float[1]")
        X.fill(2.0)
        Y.fill(3.0)
        K1(NUM_BLOCKS, NUM_THREADS)(X, N)
        K1(NUM_BLOCKS, NUM_THREADS)(Y, N)
        K2(NUM_BLOCKS, NUM_THREADS)(X, Y, Z, N)
        res = Z[0]
        assert res == pytest.approx(N * (4.0 - 9.0))
        # The scheduler ran the two squares on different streams.
        squares = [
            r
            for r in poly.runtime.timeline.kernels()
            if r.label == "square"
        ]
        assert len({s.stream_id for s in squares}) == 2
