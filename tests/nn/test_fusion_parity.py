"""Bit-identity of the fused inference schedule against the unfused one.

The fused schedule (activation residency, kernel epilogues + the in-place
attention pipeline, fused sibling projections) is a pure *schedule*
change: on every kernel backend and BDR format it must reproduce the
unfused outputs bit for bit.  Cached incremental decoding is held to the
same bar — a fused decode step must match both the fused and the unfused
full-prefix forward exactly.
"""

import numpy as np
import pytest

from repro.kernels.registry import use_backend
from repro.models.gpt import GPT, GPT_SIZES
from repro.models.moe import MoEGPT
from repro.nn.residency import fusion_disabled
from repro.nn.tensor import no_grad
from repro.serve.compile import compile_model

FORMATS = ["mx4", "mx6", "mx9", "msfp12", "msfp16"]
BACKENDS = ["numpy", "reference"]


def _model(model_cls, fmt):
    model = model_cls(50, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
    compile_model(model, fmt)
    return model


def _tokens(batch=4, length=32):
    return np.random.default_rng(1).integers(0, 50, size=(batch, length), dtype=np.int64)


class TestForwardParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("model_cls", [GPT, MoEGPT], ids=["gpt", "moe"])
    def test_all_stages_bit_identical(self, model_cls, fmt, backend):
        model = _model(model_cls, fmt)
        tokens = _tokens()
        with use_backend(backend), no_grad():
            with fusion_disabled():
                baseline = model.forward(tokens).data
            fused = model.forward(tokens).data
        np.testing.assert_array_equal(fused, baseline)

    @pytest.mark.parametrize(
        "batch,length", [(1, 1), (1, 17), (3, 5), (2, 33), (6, 8)]
    )
    def test_input_geometry_bit_identical(self, batch, length):
        """Single tokens, odd lengths and wide batches fuse exactly too."""
        model = _model(GPT, "mx6")
        tokens = _tokens(batch=batch, length=length)
        with no_grad():
            with fusion_disabled():
                baseline = model.forward(tokens).data
            fused = model.forward(tokens).data
        np.testing.assert_array_equal(fused, baseline)

    def test_weight_only_cast_parity(self):
        """Activation=None specs: fused projections gate off, epilogue on."""
        model = GPT(50, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        compile_model(model, "mx6", activation="fp32")
        tokens = _tokens()
        with no_grad():
            with fusion_disabled():
                baseline = model.forward(tokens).data
            fused = model.forward(tokens).data
        np.testing.assert_array_equal(fused, baseline)

    def test_fp32_model_parity(self):
        """Unquantized models: residency/fusion must be inert."""
        model = GPT(50, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        model.eval()
        tokens = _tokens()
        with no_grad():
            with fusion_disabled():
                baseline = model.forward(tokens).data
            fused = model.forward(tokens).data
        np.testing.assert_array_equal(fused, baseline)

    def test_training_forward_never_fuses(self):
        """With gradients enabled the autograd path runs regardless."""
        model = _model(GPT, "mx6")
        model.train()
        tokens = _tokens(batch=2, length=16)
        out = model.loss(tokens)
        with fusion_disabled():
            model_b = _model(GPT, "mx6")
            model_b.train()
            expected = model_b.loss(tokens)
        np.testing.assert_array_equal(out.data, expected.data)
        out.backward()  # the fused-schedule flags must not break training


class TestCachedDecodeParity:
    @pytest.mark.parametrize("fmt", ["mx6", "mx9", "msfp12"])
    @pytest.mark.parametrize("model_cls", [GPT, MoEGPT], ids=["gpt", "moe"])
    def test_fused_decode_matches_fused_and_unfused_forward(self, model_cls, fmt):
        """Cached decode under fusion == full forward under either schedule."""
        model = _model(model_cls, fmt)
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, 50, size=(2, 9), dtype=np.int64)
        with no_grad():
            state = model.init_decode_state(batch=2)
            window = prompt
            logits_step = model.forward_step(window, state)
            for _ in range(6):
                nxt = np.argmax(logits_step.data[:, -1], axis=-1)[:, None]
                window = np.concatenate([window, nxt], axis=1)
                logits_step = model.forward_step(window, state)
            full_fused = model.forward(window).data
            with fusion_disabled():
                full_unfused = model.forward(window).data
        np.testing.assert_array_equal(full_fused, full_unfused)
        np.testing.assert_array_equal(logits_step.data[:, -1], full_fused[:, -1])

    def test_unfused_decode_matches_too(self):
        """The decode path with fusion off still reproduces the forward."""
        model = _model(GPT, "mx6")
        rng = np.random.default_rng(4)
        window = rng.integers(0, 50, size=(1, 12), dtype=np.int64)
        with no_grad(), fusion_disabled():
            state = model.init_decode_state(batch=1)
            logits_step = model.forward_step(window, state)
            full = model.forward(window).data
        np.testing.assert_array_equal(logits_step.data[:, -1], full[:, -1])


class TestBackendEpilogueParity:
    @pytest.mark.parametrize("fmt", ["mx6", "mx9", "msfp12"])
    def test_backends_agree_under_fusion(self, fmt):
        model = _model(GPT, fmt)
        tokens = _tokens(batch=2, length=24)
        with no_grad():
            with use_backend("numpy"):
                fast = model.forward(tokens).data
            with use_backend("reference"):
                oracle = model.forward(tokens).data
        np.testing.assert_array_equal(fast, oracle)
