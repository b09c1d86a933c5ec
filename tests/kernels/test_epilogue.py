"""The kernel-layer matmul epilogue and execution-schedule variants."""

import numpy as np
import pytest

from repro.core.bdr import BDRConfig
from repro.formats.registry import get_format
from repro.kernels.base import EPILOGUES, gelu_reference
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.plan import (
    checkout_scratch,
    clear_plan_cache,
    plan_cache_info,
    release_scratch,
)
from repro.kernels.reference import ReferenceBackend
from repro.kernels.registry import use_backend

NUMPY = NumpyBackend()
REFERENCE = ReferenceBackend()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMatmulEpilogue:
    @pytest.mark.parametrize("epilogue", [None, *EPILOGUES])
    @pytest.mark.parametrize("shape", [(4, 16), (3, 5, 16), (2, 3, 4, 16)])
    def test_fused_matches_reference(self, rng, shape, epilogue):
        a = rng.normal(size=shape)
        w = rng.normal(size=(16, 12))
        bias = rng.normal(size=12) if epilogue in ("bias", "bias_gelu") else None
        fused = NUMPY.matmul_epilogue(a, w, epilogue, bias)
        oracle = REFERENCE.matmul_epilogue(a, w, epilogue, bias)
        np.testing.assert_array_equal(fused, oracle)

    def test_reference_is_the_unfused_sequence(self, rng):
        a = rng.normal(size=(5, 8))
        w = rng.normal(size=(8, 6))
        bias = rng.normal(size=6)
        out = REFERENCE.matmul_epilogue(a, w, "bias_gelu", bias)
        np.testing.assert_array_equal(out, gelu_reference(a @ w + bias))

    def test_gelu_reference_matches_functional(self, rng):
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        x = rng.normal(size=(4, 9))
        np.testing.assert_array_equal(gelu_reference(x), F.gelu(Tensor(x)).data)

    def test_quantized_operands(self, rng):
        fmt = get_format("mx6")
        a = fmt.quantize(rng.normal(size=(6, 32)), axis=-1)
        w = fmt.quantize(rng.normal(size=(32, 8)), axis=0)
        bias = rng.normal(size=8)
        np.testing.assert_array_equal(
            NUMPY.matmul_epilogue(a, w, "bias_gelu", bias),
            REFERENCE.matmul_epilogue(a, w, "bias_gelu", bias),
        )

    @pytest.mark.parametrize("backend", [NUMPY, REFERENCE])
    def test_unknown_epilogue_rejected(self, rng, backend):
        a, w = rng.normal(size=(2, 4)), rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="unknown epilogue"):
            backend.matmul_epilogue(a, w, "bias_relu", np.zeros(3))

    @pytest.mark.parametrize("backend", [NUMPY, REFERENCE])
    def test_bias_epilogue_requires_bias(self, rng, backend):
        a, w = rng.normal(size=(2, 4)), rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="requires a bias"):
            backend.matmul_epilogue(a, w, "bias", None)


class TestScratchPool:
    def test_checkout_release_roundtrip(self):
        clear_plan_cache()
        buf = checkout_scratch((7, 5))
        assert buf.shape == (7, 5) and buf.dtype == np.float64
        release_scratch(buf)
        info = plan_cache_info()
        assert info["pool_buffers"] == 1
        again = checkout_scratch((7, 5))
        assert again is buf  # pooled buffer reused
        release_scratch(again)
        clear_plan_cache()

    def test_distinct_shapes_do_not_collide(self):
        clear_plan_cache()
        a = checkout_scratch((3, 4))
        b = checkout_scratch((4, 3))
        assert a.shape != b.shape
        release_scratch(a)
        release_scratch(b)
        assert plan_cache_info()["pool_shapes"] == 2
        clear_plan_cache()
        assert plan_cache_info()["pool_buffers"] == 0

    def test_scratch_bytes_never_negative(self):
        clear_plan_cache()
        bufs = [checkout_scratch((64, 64)) for _ in range(6)]
        for buf in bufs:
            release_scratch(buf)
        info = plan_cache_info()
        assert 0 <= info["scratch_bytes"] <= info["max_scratch_bytes"]
        clear_plan_cache()
        assert plan_cache_info()["scratch_bytes"] >= 0


class TestScheduleVariants:
    @pytest.mark.parametrize("name", ["mx4", "mx6", "mx9", "msfp12", "msfp16"])
    @pytest.mark.parametrize(
        "shape,axis", [((8, 64), -1), ((4, 8, 24), -1), ((3, 40, 7), 1), ((512, 96), -1)]
    )
    def test_fused_kernel_matches_reference(self, rng, name, shape, axis):
        """The pow2 fused kernel body, reached through format dispatch,
        agrees with the reference backend on every named format."""
        fmt = get_format(name)
        x = rng.normal(size=shape)
        with use_backend("numpy"):
            fast = fmt.quantize(x, axis=axis)
        with use_backend("reference"):
            oracle = fmt.quantize(x, axis=axis)
        np.testing.assert_array_equal(fast, oracle)

    @pytest.mark.parametrize("name", ["mx6", "mx9", "msfp12"])
    def test_tiled_large_call_bit_identical(self, rng, name):
        """Tiling along a batch axis cannot change fiber-local results."""
        fmt = get_format(name)
        x = rng.normal(size=(16, 128, 96))  # well past the tile threshold
        fast = NUMPY.quantize(x, fmt.config, -1, "nearest", None, None, False)
        oracle = REFERENCE.quantize(x, fmt.config, -1, "nearest", None, None, False)
        np.testing.assert_array_equal(fast, oracle)

    def test_tiled_nonfinite_chunk_falls_back(self, rng):
        """A chunk holding inf/NaN delegates that chunk to the oracle."""
        fmt = get_format("mx6")
        x = rng.normal(size=(16, 128, 96))
        x[11, 3, 5] = np.inf
        x[2, 0, 0] = np.nan
        fast = NUMPY.quantize(x, fmt.config, -1, "nearest", None, None, False)
        oracle = REFERENCE.quantize(x, fmt.config, -1, "nearest", None, None, False)
        np.testing.assert_array_equal(fast, oracle)

    def test_shifted_clip_saturates_exactly(self):
        """Values past the top code clamp to qmax * step, as before."""
        config = BDRConfig.mx(m=4, k1=16, k2=2, d1=8, d2=1)
        x = np.zeros((1, 16))
        x[0, 0] = 3.0
        x[0, 1] = 2.9999999
        fast = NUMPY.quantize(x, config, -1, "nearest", None, None, False)
        oracle = REFERENCE.quantize(x, config, -1, "nearest", None, None, False)
        np.testing.assert_array_equal(fast, oracle)
