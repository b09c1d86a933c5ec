"""Unit tests for the QSNR methodology."""

import numpy as np
import pytest

from repro.fidelity.qsnr import QSNR_FLOOR, measure_qsnr, qsnr, qsnr_per_vector
from repro.formats.registry import get_format


class TestQsnr:
    def test_identical_is_ceiling(self):
        x = np.ones((4, 8))
        assert qsnr(x, x) == 300.0

    def test_zero_signal_is_floor(self):
        x = np.zeros((2, 4))
        assert qsnr(x, x + 1) == QSNR_FLOOR

    def test_known_value(self):
        x = np.array([[1.0, 1.0]])
        q = np.array([[1.1, 1.0]])
        expected = -10 * np.log10(0.01 / 2.0)
        assert qsnr(x, q) == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            qsnr(np.zeros(3), np.zeros(4))

    def test_per_vector(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0]])
        q = np.array([[1.1, 0.0], [2.0, 0.0]])
        out = qsnr_per_vector(x, q)
        assert out.shape == (2,)
        assert out[1] == 300.0
        assert out[0] == pytest.approx(-10 * np.log10(0.01 / 1.0))


class TestMeasureQsnr:
    def test_reproducible(self):
        a = measure_qsnr(get_format("mx6"), n_vectors=200, seed=5)
        b = measure_qsnr(get_format("mx6"), n_vectors=200, seed=5)
        assert a == b

    def test_seed_changes_sample(self):
        a = measure_qsnr(get_format("mx6"), n_vectors=200, seed=5)
        b = measure_qsnr(get_format("mx6"), n_vectors=200, seed=6)
        assert a != b

    def test_mantissa_ordering(self):
        q4 = measure_qsnr(get_format("mx4"), n_vectors=300)
        q6 = measure_qsnr(get_format("mx6"), n_vectors=300)
        q9 = measure_qsnr(get_format("mx9"), n_vectors=300)
        assert q4 < q6 < q9

    def test_fp32_is_ceiling(self):
        assert measure_qsnr(get_format("fp32"), n_vectors=50) == 300.0

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            measure_qsnr(get_format("mx9"), distribution="cauchy", n_vectors=10)

    def test_paper_headline_deltas(self):
        """MX9 ~ E4M3 + 16 dB; MX9 ~ MSFP16 + 3.6 dB (both within 2 dB)."""
        mx9 = measure_qsnr(get_format("mx9"), n_vectors=2000)
        e4m3 = measure_qsnr(get_format("fp8_e4m3"), n_vectors=2000)
        msfp16 = measure_qsnr(get_format("msfp16"), n_vectors=2000)
        assert mx9 - e4m3 == pytest.approx(16.0, abs=2.0)
        assert mx9 - msfp16 == pytest.approx(3.6, abs=1.0)

    def test_mx6_between_fp8_variants(self):
        mx6 = measure_qsnr(get_format("mx6"), n_vectors=2000)
        e4m3 = measure_qsnr(get_format("fp8_e4m3"), n_vectors=2000)
        e5m2 = measure_qsnr(get_format("fp8_e5m2"), n_vectors=2000)
        assert e5m2 < mx6 < e4m3


class _ForceSequential:
    """Shim hiding a format's statelessness to force the chunked loop."""

    def __init__(self, fmt):
        self._fmt = fmt
        self.name = fmt.name

    is_stateless = False

    def quantize(self, *args, **kwargs):
        return self._fmt.quantize(*args, **kwargs)

    def reset_state(self):
        self._fmt.reset_state()

    @property
    def bits_per_element(self):
        return self._fmt.bits_per_element


class TestBatchedMeasureQsnr:
    """Stateless formats collapse to one batched quantize call; the result
    must be bit-identical to the sequential chunked loop."""

    @pytest.mark.parametrize("name", ["mx9", "mx6", "msfp16", "fp32"])
    def test_batched_equals_sequential(self, name):
        fmt = get_format(name)
        assert fmt.is_stateless
        batched = measure_qsnr(fmt, n_vectors=1000, seed=3)
        sequential = measure_qsnr(
            _ForceSequential(get_format(name)), n_vectors=1000, seed=3
        )
        assert batched == sequential

    def test_uneven_final_chunk(self):
        fmt = get_format("mx6")
        batched = measure_qsnr(fmt, n_vectors=601, chunk=256, seed=1)
        sequential = measure_qsnr(
            _ForceSequential(get_format("mx6")), n_vectors=601, chunk=256, seed=1
        )
        assert batched == sequential

    def test_zero_vectors_is_floor(self):
        """Regression: an empty ensemble must return the floor, not raise."""
        assert measure_qsnr(get_format("mx6"), n_vectors=0) == QSNR_FLOOR

    def test_oversized_ensemble_bypasses_cache(self):
        import importlib

        # the package re-exports the qsnr *function*, shadowing the module
        qsnr_mod = importlib.import_module("repro.fidelity.qsnr")

        before = qsnr_mod._cached_ensemble.cache_info().currsize
        n = qsnr_mod.MAX_CACHED_ENSEMBLE_BYTES // (8 * 16) + 1
        x, sizes, _ = qsnr_mod._sample_ensemble("standard_normal", n, 16, 0, 1 << 20)
        assert x.shape == (n, 16)
        assert qsnr_mod._cached_ensemble.cache_info().currsize == before

    def test_streaming_path_matches_cached_path(self, monkeypatch):
        """Oversized requests stream chunk-by-chunk (bounded memory) and
        must produce the same value as the materialized path."""
        import importlib

        qsnr_mod = importlib.import_module("repro.fidelity.qsnr")
        stateless = measure_qsnr(get_format("mx6"), n_vectors=600, seed=4)
        stateful = measure_qsnr(get_format("int8"), n_vectors=600, seed=4)
        monkeypatch.setattr(qsnr_mod, "MAX_CACHED_ENSEMBLE_BYTES", 0)
        assert measure_qsnr(get_format("mx6"), n_vectors=600, seed=4) == stateless
        assert measure_qsnr(get_format("int8"), n_vectors=600, seed=4) == stateful

    @pytest.mark.parametrize("name", ["mx6", "int8"])
    def test_memoized_signal_gives_the_plain_chunked_qsnr(self, name):
        """The signal power memoized with the ensemble, and the noise summed
        through the reused buffer, give the bits of Eq. 3 summed chunk by
        chunk with plain temporaries, on a fresh ensemble and on a memo
        hit, for a batched and a sequential format."""
        import importlib

        from repro.fidelity.distributions import sample

        qsnr_mod = importlib.import_module("repro.fidelity.qsnr")
        fmt = get_format(name)
        rng = np.random.default_rng(5)
        noise = signal = 0.0
        for n in (256, 256, 89):
            x = sample("variable_normal", rng, n, 256)
            noise += float(np.sum((fmt.quantize(x, axis=-1) - x) ** 2))
            signal += float(np.sum(x**2))
        expected = -10.0 * float(np.log10(noise / signal))
        qsnr_mod.clear_ensemble_cache()
        assert measure_qsnr(get_format(name), n_vectors=601, seed=5) == expected
        assert measure_qsnr(get_format(name), n_vectors=601, seed=5) == expected
        # the QSNR's log hides an ulp of the signal, so check the sum itself
        assert qsnr_mod._sample_ensemble("variable_normal", 601, 256, 5, 256)[2] == signal

    def test_stateful_formats_stay_sequential(self):
        """Delayed scaling depends on chunk order; it must keep the loop
        (and therefore keep matching its own historical values)."""
        fmt = get_format("int8")
        assert not fmt.is_stateless
        a = measure_qsnr(fmt, n_vectors=600, seed=2)
        b = measure_qsnr(get_format("int8"), n_vectors=600, seed=2)
        assert a == b
