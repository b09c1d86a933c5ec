"""Unit tests for the parametric scalar minifloat formats."""

import numpy as np
import pytest

from repro.formats.scalar_float import (
    BF16,
    FP4_E2M1,
    FP4_E3M0,
    FP6_E2M3,
    FP6_E3M2,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FloatSpec,
    ScalarFloatFormat,
    quantize_to_spec,
)


class TestSpecConstants:
    """Max values must match the published encodings."""

    @pytest.mark.parametrize(
        "spec,max_value",
        [
            (FP8_E4M3, 448.0),
            (FP8_E5M2, 57344.0),
            (FP6_E3M2, 28.0),
            (FP6_E2M3, 7.5),
            (FP4_E2M1, 6.0),
            (FP4_E3M0, 16.0),
            (FP16, 65504.0),
        ],
    )
    def test_max_values(self, spec, max_value):
        assert spec.max_value == max_value

    def test_bf16_range_matches_fp32(self):
        assert BF16.emax == 127
        assert BF16.emin == -126

    def test_total_bits(self):
        assert FP8_E4M3.total_bits == 8
        assert FP4_E2M1.total_bits == 4
        assert BF16.total_bits == 16

    def test_min_subnormals(self):
        assert FP8_E4M3.min_subnormal == 2.0**-9
        assert FP4_E2M1.min_subnormal == 0.5

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            FloatSpec(0, 3)
        with pytest.raises(ValueError):
            FloatSpec(4, -1)
        with pytest.raises(ValueError):
            FloatSpec(4, 3, "bogus")


class TestQuantizeToSpec:
    def test_outputs_in_value_set(self):
        rng = np.random.default_rng(0)
        for spec in (FP8_E4M3, FP8_E5M2, FP4_E2M1, FP6_E2M3):
            values = spec.decode_all_values()
            x = rng.normal(scale=spec.max_value / 3, size=500)
            q = quantize_to_spec(x, spec)
            for v in np.abs(q):
                assert np.any(np.isclose(values, v, rtol=0, atol=0)), (spec.name, v)

    def test_saturation(self):
        q = quantize_to_spec(np.array([1e9, -1e9]), FP8_E4M3)
        np.testing.assert_array_equal(q, [448.0, -448.0])

    def test_exact_values_preserved(self):
        # representable values must round-trip exactly
        x = np.array([1.0, 1.5, 2.0, 3.0, 6.0, 0.5, -6.0])
        np.testing.assert_array_equal(quantize_to_spec(x, FP4_E2M1), x)

    def test_fp4_grid(self):
        # E2M1 representable magnitudes: 0 .5 1 1.5 2 3 4 6
        expected = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        np.testing.assert_array_equal(FP4_E2M1.decode_all_values(), expected)

    def test_subnormal_rounding(self):
        # halfway between 0 and min subnormal of E4M3 rounds to even (0)
        tiny = FP8_E4M3.min_subnormal
        q = quantize_to_spec(np.array([tiny / 2, tiny * 0.76]), FP8_E4M3)
        np.testing.assert_array_equal(q, [0.0, tiny])

    def test_zero(self):
        assert quantize_to_spec(np.array([0.0]), FP8_E4M3)[0] == 0.0
        # like an IEEE cast (np.float16(-1e-9) is -0.0), -0.0 and a negative
        # value that rounds to zero keep the sign
        tiny = FP8_E4M3.min_subnormal
        q = quantize_to_spec(np.array([-0.0, -tiny / 4, tiny / 4]), FP8_E4M3)
        np.testing.assert_array_equal(q, 0.0)
        np.testing.assert_array_equal(np.signbit(q), [True, True, False])

    def test_bf16_matches_bit_manipulation(self):
        from repro.nn.precision import round_bf16

        rng = np.random.default_rng(1)
        x = rng.normal(size=1000) * rng.uniform(1e-3, 1e3, size=1000)
        np.testing.assert_allclose(quantize_to_spec(x, BF16), round_bf16(x), rtol=0)


class TestScalarFloatFormat:
    def test_direct_cast_mode(self):
        fmt = ScalarFloatFormat(FP8_E4M3, scaling="none")
        x = np.array([100.0, 200.0, 500.0])
        q = fmt.quantize(x)
        assert q[-1] == 448.0  # saturated, no rescaling

    def test_jit_scaling_avoids_saturation(self):
        fmt = ScalarFloatFormat(FP8_E4M3, scaling="jit")
        x = np.array([100.0, 200.0, 5000.0])
        q = fmt.quantize(x)
        assert abs(q[-1] - 5000.0) / 5000.0 < 0.1

    def test_delayed_scaling_uses_history(self):
        fmt = ScalarFloatFormat(FP8_E4M3, scaling="delayed", window=4)
        fmt.quantize(np.array([1000.0]))  # builds history
        q = fmt.quantize(np.array([1.0]))
        # scale from history (1000/448) makes the grid coarse
        assert q[0] != 1.0

    def test_reset_state(self):
        fmt = ScalarFloatFormat(FP8_E4M3, scaling="delayed")
        fmt.quantize(np.array([1000.0]))
        fmt.reset_state()
        assert fmt._scaler.history_amax == 0.0

    def test_bits_per_element(self):
        assert ScalarFloatFormat(FP8_E4M3, scaling="none").bits_per_element == 8.0
        delayed = ScalarFloatFormat(FP8_E4M3, scaling="delayed", k1=32)
        assert delayed.bits_per_element == pytest.approx(9.0)

    def test_bad_scaling_mode(self):
        with pytest.raises(ValueError):
            ScalarFloatFormat(FP8_E4M3, scaling="static")
