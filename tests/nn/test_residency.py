"""Quantized activation residency: payload sharing, flags, observability."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.quantize import quantize_call_count, reset_quantize_calls
from repro.formats.registry import get_format
from repro.nn.layers import Linear
from repro.nn.quantized import QuantSpec, memo_quantize, quantized_matmul
from repro.nn.residency import (
    FusedWeightCache,
    configure_fusion,
    fusion_disabled,
    fusion_enabled,
    supports_epilogue,
    supports_fused_projection,
)
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def spec():
    return QuantSpec.inference("mx6", activation="mx6")


@pytest.fixture(autouse=True)
def _fused_on():
    """Pin the fused schedule on so the suite is REPRO_FUSION-independent."""
    previous = configure_fusion(True)
    try:
        yield
    finally:
        configure_fusion(previous)


class TestMemoQuantize:
    """The resident payload: ``memo_quantize`` on an activation tensor."""

    def test_payload_matches_direct_quantization(self, rng, spec):
        t = Tensor(rng.normal(size=(4, 32)))
        payload = memo_quantize(t, spec.activation, -1)
        np.testing.assert_array_equal(
            payload, spec.activation.quantize(t.data, axis=-1)
        )

    def test_shared_across_consumers(self, rng, spec):
        t = Tensor(rng.normal(size=(4, 32)))
        with no_grad():
            first = memo_quantize(t, spec.activation, -1)
            second = memo_quantize(t, spec.activation, -1)
        assert first is second  # one resident payload

    def test_stale_after_rebind(self, rng, spec):
        t = Tensor(rng.normal(size=(4, 32)))
        with no_grad():
            payload = memo_quantize(t, spec.activation, -1)
            t.data = rng.normal(size=(4, 32))
            fresh = memo_quantize(t, spec.activation, -1)
        assert fresh is not payload
        np.testing.assert_array_equal(
            fresh, spec.activation.quantize(t.data, axis=-1)
        )

    def test_none_format_passthrough(self, rng):
        t = Tensor(rng.normal(size=(3, 8)))
        assert memo_quantize(t, None, -1) is t.data


class TestResidencyInMatmul:
    def test_sibling_consumers_quantize_once(self, rng, spec):
        """Three projections of one activation: one engine entry."""
        x = Tensor(rng.normal(size=(4, 32)))
        ws = [Tensor(rng.normal(size=(32, 16)), requires_grad=True) for _ in range(3)]
        with no_grad():
            for w in ws:
                quantized_matmul(x, w, spec)  # warm the weight memos
            before = quantize_call_count()
            for w in ws:
                quantized_matmul(x, w, spec)
            assert quantize_call_count() - before == 0  # all resident

    def test_residency_off_requantizes_per_consumer(self, rng, spec):
        x = Tensor(rng.normal(size=(4, 32)))
        ws = [Tensor(rng.normal(size=(32, 16)), requires_grad=True) for _ in range(3)]
        with no_grad(), fusion_disabled():
            for w in ws:
                quantized_matmul(x, w, spec)
            before = quantize_call_count()
            for w in ws:
                quantized_matmul(x, w, spec)
            assert quantize_call_count() - before == 3  # one per consumer

    def test_training_path_unchanged(self, rng, spec):
        """Gradient-mode activations are never cached (non-leaf inputs)."""
        x = Tensor(rng.normal(size=(4, 32)), requires_grad=True)
        y = x * 2.0  # non-leaf
        w = Tensor(rng.normal(size=(32, 16)), requires_grad=True)
        quantized_matmul(y, w, spec)
        before = quantize_call_count()
        quantized_matmul(y, w, spec)
        assert quantize_call_count() - before >= 1


def _fusion_default(env_value):
    """``fusion_enabled()`` as a fresh interpreter reads it at import."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FUSION"}
    if env_value is not None:
        env["REPRO_FUSION"] = env_value
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import repro.nn; print(repro.nn.fusion_enabled())"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip()


class TestFusionSwitchboard:
    def test_fused_inside_fixture(self):
        # the autouse fixture pins the schedule on; the process default
        # itself follows REPRO_FUSION (test_env_var_sets_process_default)
        assert fusion_enabled()

    @pytest.mark.parametrize(
        "env_value,expected",
        [("0", "False"), ("off", "False"), ("FALSE", "False"), (" no ", "False"),
         ("1", "True"), (None, "True")],
        ids=["0", "off", "FALSE", "no-padded", "1", "unset"],
    )
    def test_env_var_sets_process_default(self, env_value, expected):
        assert _fusion_default(env_value) == expected

    def test_configure_restores(self):
        previous = configure_fusion(False)
        try:
            assert previous is True
            assert not fusion_enabled()
        finally:
            configure_fusion(previous)
        assert fusion_enabled()

    def test_context_managers_nest(self):
        with fusion_disabled():
            assert not fusion_enabled()
            with fusion_disabled():
                assert not fusion_enabled()
            assert not fusion_enabled()
        assert fusion_enabled()


class TestEligibility:
    def test_epilogue_needs_spec_and_inference(self, spec):
        assert not supports_epilogue(None)
        assert not supports_epilogue(spec)  # grad enabled
        with no_grad():
            assert supports_epilogue(spec)
            with fusion_disabled():
                assert not supports_epilogue(spec)

    def test_fused_projection_gate(self):
        with no_grad():
            assert supports_fused_projection(QuantSpec.inference("mx6", activation="mx6"))
            assert supports_fused_projection(QuantSpec.inference("msfp12", activation="msfp12"))
            # weight-only cast: raw fp32 activations make dots inexact
            assert not supports_fused_projection(QuantSpec.inference("mx6"))
            # software-scaled formats are not order-independent
            assert not supports_fused_projection(
                QuantSpec.inference("int8", activation="int8")
            )
            stochastic = QuantSpec(
                activation=get_format("mx6"), weight=get_format("mx6"),
                rounding="stochastic", rng=np.random.default_rng(0),
            )
            assert not supports_fused_projection(stochastic)
            assert not supports_fused_projection(None)


class TestFusedWeightCache:
    def _layers(self, rng, spec, n=3):
        layers = [Linear(16, 8, rng=rng, quant=spec) for _ in range(n)]
        return layers

    def test_payload_concatenates_memoized_weights(self, rng, spec):
        layers = self._layers(rng, spec)
        cache = FusedWeightCache()
        weight, bias = cache.payload(layers, spec)
        expected = np.concatenate(
            [spec.weight.quantize(l.weight.data, axis=0) for l in layers], axis=1
        )
        np.testing.assert_array_equal(weight, expected)
        np.testing.assert_array_equal(
            bias, np.concatenate([l.bias.data for l in layers])
        )

    def test_payload_cached_until_weights_change(self, rng, spec):
        layers = self._layers(rng, spec)
        cache = FusedWeightCache()
        first, _ = cache.payload(layers, spec)
        second, _ = cache.payload(layers, spec)
        assert first is second
        layers[1].weight.data = rng.normal(size=(16, 8))
        third, _ = cache.payload(layers, spec)
        assert third is not first

    def test_bias_none_when_any_missing(self, rng, spec):
        layers = self._layers(rng, spec)
        layers[2].bias = None
        cache = FusedWeightCache()
        _, bias = cache.payload(layers, spec)
        assert bias is None

    def test_invalidate(self, rng, spec):
        layers = self._layers(rng, spec)
        cache = FusedWeightCache()
        first, _ = cache.payload(layers, spec)
        cache.invalidate()
        second, _ = cache.payload(layers, spec)
        assert second is not first
        np.testing.assert_array_equal(first, second)


class TestCounters:
    def test_counter_counts_engine_entries(self, rng):
        fmt = get_format("mx6")
        x = rng.normal(size=(4, 32))
        before = quantize_call_count()
        fmt.quantize(x, axis=-1)
        fmt.quantize(x, axis=-1)
        assert quantize_call_count() - before == 2

    def test_reset_returns_previous(self, rng):
        fmt = get_format("mx6")
        fmt.quantize(rng.normal(size=(2, 16)), axis=-1)
        previous = reset_quantize_calls()
        assert previous >= 1
        assert quantize_call_count() == 0
