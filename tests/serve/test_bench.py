"""The serving bench protocols refuse a run with no timed pass."""

import pytest

from repro.serve.bench import (
    measure_continuous_speedup,
    measure_decode_speedup,
    measure_forward_speedup,
    measure_serving_speedup,
)


@pytest.mark.parametrize("repeats", [0, -1])
@pytest.mark.parametrize(
    "measure",
    [
        lambda repeats: measure_serving_speedup(None, [], repeats=repeats),
        lambda repeats: measure_forward_speedup(None, repeats=repeats),
        lambda repeats: measure_decode_speedup(None, repeats=repeats),
        lambda repeats: measure_continuous_speedup(None, repeats=repeats),
    ],
    ids=["serving", "forward", "decode", "continuous"],
)
def test_no_timed_pass_refused_before_any_work(measure, repeats):
    # no model at all: only a check made before any work can answer
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        measure(repeats)
