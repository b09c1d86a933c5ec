"""Property-based tests on the scalar minifloat quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.scalar_float import (
    FP4_E2M1,
    FP6_E2M3,
    FP6_E3M2,
    FP8_E4M3,
    FP8_E5M2,
    quantize_to_spec,
)

SPECS = [FP8_E4M3, FP8_E5M2, FP6_E3M2, FP6_E2M3, FP4_E2M1]

spec_strategy = st.sampled_from(SPECS)
value_strategy = st.floats(
    min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False
).map(lambda v: 0.0 if abs(v) < 1e-12 else v)


@given(spec=spec_strategy, values=st.lists(value_strategy, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_idempotent(spec, values):
    x = np.array(values)
    once = quantize_to_spec(x, spec)
    np.testing.assert_array_equal(quantize_to_spec(once, spec), once)


@given(spec=spec_strategy, values=st.lists(value_strategy, min_size=2, max_size=40))
@settings(max_examples=80, deadline=None)
def test_monotone(spec, values):
    """Round-to-nearest is order preserving."""
    x = np.sort(np.array(values))
    q = quantize_to_spec(x, spec)
    assert np.all(np.diff(q) >= 0)


@given(spec=spec_strategy, values=st.lists(value_strategy, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_sign_antisymmetric(spec, values):
    """Bit for bit, sign of zero included: like an IEEE cast, a negative
    value that rounds to zero gives -0.0."""
    x = np.array(values)
    np.testing.assert_array_equal(
        quantize_to_spec(-x, spec).view(np.int64), (-quantize_to_spec(x, spec)).view(np.int64)
    )


@given(spec=spec_strategy, values=st.lists(value_strategy, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_error_bounded_by_half_ulp_in_range(spec, values):
    x = np.array(values)
    in_range = np.abs(x) <= spec.max_value
    q = quantize_to_spec(x, spec)
    exp = np.clip(
        np.floor(np.log2(np.maximum(np.abs(x), 1e-300))), spec.emin, spec.emax
    )
    half_ulp = 2.0 ** (exp - spec.mantissa_bits - 1)
    err = np.abs(q - x)
    # rounding up at an exponent boundary doubles the step, so allow 1 ulp
    assert np.all(err[in_range] <= 2 * half_ulp[in_range] + 1e-300)


@given(spec=spec_strategy, value=st.floats(min_value=1e5, max_value=1e30))
@settings(max_examples=30, deadline=None)
def test_saturates_to_max(spec, value):
    if value <= spec.max_value:
        return
    assert quantize_to_spec(np.array([value]), spec)[0] == spec.max_value


@pytest.mark.parametrize("spec", SPECS)
def test_all_grid_values_fixed_points(spec):
    grid = spec.decode_all_values()
    both = np.concatenate([-grid[::-1], grid])
    np.testing.assert_array_equal(quantize_to_spec(both, spec), both)
