"""Unit tests for the KV-cache decode subsystem (:mod:`repro.nn.decode`).

The central invariant: cached quantized payloads are bit-identical to the
corresponding slices of a full-tensor quantization, for every append
pattern — that is what makes incremental decoding exact.  Exercised under
both kernel backends.
"""

import numpy as np
import pytest

from repro.formats import get_format
from repro.formats.base import Format
from repro.kernels import use_backend
from repro.nn.attention import MultiHeadAttention, causal_mask
from repro.nn.decode import (
    CrossKV,
    DecodeState,
    KVCache,
    PagedKVCache,
    supports_cached_decode,
)
from repro.nn.quantized import (
    QuantSpec,
    quantize_partial_block,
    quantized_bmm_prequant,
)
from repro.nn.tensor import Tensor, no_grad
from repro.serve.sched import PagePool

BACKENDS = ("numpy", "reference")
#: the append patterns every cache layout is checked over
APPEND_PATTERNS = [[1] * 37, [10, 1, 1, 5, 16, 3, 1], [37], [16, 16, 5]]


def make_cache(spec, batch=2, heads=2, head_dim=12, capacity=48):
    return KVCache(batch, heads, head_dim, capacity, spec)


def append_pattern(cache, k, v, sizes):
    start = 0
    for size in sizes:
        cache.append(k[:, :, start : start + size], v[:, :, start : start + size])
        start += size


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", ["mx6", "mx9", "mx4"])
@pytest.mark.parametrize("sizes", APPEND_PATTERNS)
def test_cache_payloads_match_full_quantize(backend, fmt_name, sizes):
    """Sealed blocks + requantized tail == one full-tensor quantization."""
    spec = QuantSpec.inference(fmt_name, activation=fmt_name)
    rng = np.random.default_rng(7)
    total = sum(sizes)
    k = rng.normal(size=(2, 2, total, 12))
    v = rng.normal(size=(2, 2, total, 12))
    with use_backend(backend):
        cache = make_cache(spec)
        append_pattern(cache, k, v, sizes)
        fmt = spec.activation
        expect_kT = fmt.quantize(np.swapaxes(k, -1, -2), axis=-2)
        expect_v = fmt.quantize(v, axis=-2)
    np.testing.assert_array_equal(cache.keys_t, expect_kT)
    np.testing.assert_array_equal(cache.values, expect_v)
    assert cache.length == total
    assert cache.sealed == (total // fmt.block_size()) * fmt.block_size()


@pytest.mark.parametrize("fmt_name", ["mx6", "mx9"])
@pytest.mark.parametrize("sizes", APPEND_PATTERNS)
def test_batched_cache_equals_stacked_single_caches(fmt_name, sizes):
    """The batch folds into the arena's head axis without moving a bit."""
    spec = QuantSpec.inference(fmt_name, activation=fmt_name)
    rng = np.random.default_rng(17)
    total = sum(sizes)
    k = rng.normal(size=(3, 2, total, 12))
    v = rng.normal(size=(3, 2, total, 12))
    batched = make_cache(spec, batch=3)
    append_pattern(batched, k, v, sizes)
    singles = [make_cache(spec, batch=1) for _ in range(3)]
    for i, single in enumerate(singles):
        append_pattern(single, k[i : i + 1], v[i : i + 1], sizes)
    np.testing.assert_array_equal(
        batched.keys_t, np.concatenate([s.keys_t for s in singles])
    )
    np.testing.assert_array_equal(
        batched.values, np.concatenate([s.values for s in singles])
    )
    assert all(
        (s.length, s.sealed) == (batched.length, batched.sealed) for s in singles
    )


def test_cache_payloads_are_views_of_the_arena():
    """A private pool's pages form one ascending run: reads copy nothing."""
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = make_cache(spec)
    rng = np.random.default_rng(4)
    k = rng.normal(size=(2, 2, 37, 12))
    v = rng.normal(size=(2, 2, 37, 12))
    append_pattern(cache, k, v, [10, 20, 7])  # crosses into the third page
    assert cache.pages == 3
    assert np.shares_memory(cache.keys_t, cache.pool.kT)
    assert np.shares_memory(cache.values, cache.pool.v)


class _Unblocked(Format):
    """Stateless and deterministic, but with no level-1 block size."""

    name = "unblocked"

    def quantize(self, x, axis=-1, rounding="nearest", rng=None):
        return np.asarray(x, dtype=np.float64).copy()

    @property
    def bits_per_element(self) -> float:
        return 32.0

    def cache_key(self):
        return ("unblocked",)


def test_caches_reject_formats_without_block_size():
    fmt = _Unblocked()
    assert fmt.cache_key() is not None and fmt.block_size() is None
    spec = QuantSpec.inference(None, activation=fmt)
    with pytest.raises(ValueError, match="block size"):
        make_cache(spec)
    pool = PagePool(num_heads=2, head_dim=12, page_size=16, total_pages=4)
    with pytest.raises(ValueError, match="block size"):
        PagedKVCache(pool, "s0", 2, 12, 48, spec)
    assert pool.leaked() == {}


def test_cache_fp32_passthrough():
    cache = make_cache(None)
    rng = np.random.default_rng(0)
    k = rng.normal(size=(2, 2, 9, 12))
    v = rng.normal(size=(2, 2, 9, 12))
    append_pattern(cache, k, v, [4, 5])
    np.testing.assert_array_equal(cache.keys_t, np.swapaxes(k, -1, -2))
    np.testing.assert_array_equal(cache.values, v)
    assert cache.sealed == 9  # position-local: everything seals immediately


def test_cache_rewind_drops_unsealed_suffix():
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = make_cache(spec)
    rng = np.random.default_rng(1)
    k = rng.normal(size=(2, 2, 21, 12))
    v = rng.normal(size=(2, 2, 21, 12))
    append_pattern(cache, k, v, [21])
    assert (cache.length, cache.sealed) == (21, 16)
    cache.rewind()
    assert (cache.length, cache.sealed) == (16, 16)
    # re-appending the dropped suffix restores identical payloads
    cache.append(k[:, :, 16:], v[:, :, 16:])
    fmt = spec.activation
    np.testing.assert_array_equal(cache.values, fmt.quantize(v, axis=-2))


def test_cache_reset_reuses_buffers():
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = make_cache(spec)
    rng = np.random.default_rng(2)
    k = rng.normal(size=(2, 2, 10, 12))
    v = rng.normal(size=(2, 2, 10, 12))
    append_pattern(cache, k, v, [10])
    buf = cache.kT
    cache.reset()
    assert cache.length == 0 and cache.sealed == 0
    append_pattern(cache, k, v, [10])
    assert cache.kT is buf  # eviction keeps the preallocated storage


def test_cache_overflow_and_spec_change_rejected():
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = KVCache(1, 2, 12, 8, spec)
    rng = np.random.default_rng(3)
    k = rng.normal(size=(1, 2, 9, 12))
    with pytest.raises(ValueError, match="overflow"):
        cache.append(k, k)
    other = QuantSpec.inference("mx6", activation="mx6")
    with pytest.raises(ValueError, match="spec changed"):
        cache.append(k[:, :, :1], k[:, :, :1], spec=other)


def test_cache_rejects_stochastic_and_stateful_formats():
    stochastic = QuantSpec.uniform("mx6")
    stochastic.rounding = "stochastic"
    with pytest.raises(ValueError, match="stateless"):
        make_cache(stochastic)
    delayed = QuantSpec.inference("int8", activation=get_format("int8"))
    assert delayed.activation.cache_key() is None  # delayed scaling: stateful
    with pytest.raises(ValueError, match="stateless"):
        make_cache(delayed)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", ["mx6", "mx9", "msfp16", "mx4"])
@pytest.mark.parametrize("axis", [-1, -2])
def test_quantize_partial_block_matches_quantize(backend, fmt_name, axis):
    """The partial-block entry point is bit-identical to Format.quantize."""
    try:
        fmt = get_format(fmt_name)
    except ValueError:
        pytest.skip(f"format {fmt_name} not registered")
    block = fmt.block_size()
    rng = np.random.default_rng(11)
    for length in (1, block // 2 or 1, block):
        shape = [3, 5, 7]
        shape[axis] = length
        x = rng.normal(size=shape) * np.exp2(rng.integers(-30, 30, size=(3, 1, 1)))
        with use_backend(backend):
            full = fmt.quantize(x, axis=axis)
            part = fmt.quantize_partial(x, axis=axis)
        np.testing.assert_array_equal(full, part, err_msg=f"{fmt_name} len={length}")


def test_quantize_partial_block_passthrough_and_helper():
    x = np.ones((2, 3))
    assert quantize_partial_block(x, None, axis=-1) is x
    fmt = get_format("mx6")
    np.testing.assert_array_equal(
        quantize_partial_block(x, fmt, axis=-1), fmt.quantize(x, axis=-1)
    )


def test_bmm_prequant_requires_no_grad():
    a = Tensor(np.ones((1, 2, 3)), requires_grad=True)
    with pytest.raises(RuntimeError, match="no_grad"):
        quantized_bmm_prequant(a, np.ones((1, 3, 2)), None)
    with no_grad():
        out = quantized_bmm_prequant(a, np.ones((1, 3, 2)), None)
    assert out.shape == (1, 2, 2)


@pytest.mark.parametrize("fmt_name", [None, "mx6"])
def test_cached_attention_matches_full(fmt_name):
    """Prefill + per-token steps reproduce full attention bit-for-bit."""
    rng = np.random.default_rng(5)
    spec = QuantSpec.inference(fmt_name, activation=fmt_name) if fmt_name else None
    attn = MultiHeadAttention(24, 2, rng=rng, quant=spec)
    x = Tensor(rng.normal(size=(2, 20, 24)))
    with no_grad():
        full = attn(x, mask=causal_mask(20))
        cache = KVCache(2, 2, 12, 32, spec)
        prefill = attn(Tensor(x.data[:, :20]), mask=causal_mask(20), cache=cache)
    np.testing.assert_array_equal(full.data, prefill.data)


def test_cross_kv_builds_once():
    rng = np.random.default_rng(6)
    spec = QuantSpec.inference("mx6", activation="mx6")
    attn = MultiHeadAttention(24, 2, rng=rng, quant=spec)
    memory = Tensor(rng.normal(size=(2, 13, 24)))
    cross = CrossKV()
    with no_grad():
        kT1, v1 = cross.project(attn, memory)
        kT2, v2 = cross.project(attn, Tensor(np.zeros((2, 13, 24))))
    assert kT1 is kT2 and v1 is v2  # frozen after the first build
    k = attn._split_heads(attn.k_proj(memory)).data
    fmt = spec.activation
    np.testing.assert_array_equal(kT1, fmt.quantize(np.swapaxes(k, -1, -2), axis=-2))


def test_decode_state_rewind_boundary():
    spec = QuantSpec.inference("mx6", activation="mx6")
    layers = [make_cache(spec), make_cache(spec)]
    state = DecodeState(layers, capacity=48)
    rng = np.random.default_rng(8)
    k = rng.normal(size=(2, 2, 21, 12))
    for cache in layers:
        append_pattern(cache, k, k, [21])
    state.position = 21
    assert state.rewind() == 16
    assert state.position == 16
    assert all(cache.length == 16 for cache in layers)


def test_supports_cached_decode_gating():
    from repro.data.synthetic import SyntheticLanguage
    from repro.flow.cast import direct_cast
    from repro.models.gpt import GPT, GPT_SIZES

    lang = SyntheticLanguage(seed=0)
    model = GPT(lang.vocab_size, GPT_SIZES["GPT-XS"], rng=np.random.default_rng(0))
    assert supports_cached_decode(model)  # fp32
    direct_cast(model, "mx6")
    assert supports_cached_decode(model)
    direct_cast(model, "mx6?rounding=stochastic")
    assert not supports_cached_decode(model)
