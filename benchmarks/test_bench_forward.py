"""Forward-path throughput benchmarks (the ``bench-forward`` regression gate).

Four benchmarks time one batched ``model.forward`` pass for GPT-S and the
MoE variant, each under the unfused schedule
(:func:`~repro.nn.residency.fusion_disabled` — per-consumer quantization,
separate projections and Tensor-op attention, over today's kernels) and
under quantized activation residency + the fused projection/epilogue
pipeline.  ``benchmarks/check_regression.py`` gates
every median against the committed ``benchmarks/BENCH_forward.json``
baseline.

The headline assertion uses the same shared measurement protocol as
``python -m repro bench-forward``
(:func:`repro.serve.bench.measure_forward_speedup`): interleaved
baseline/fused passes over the serve bench's batched score stream, with
the median per-repeat ratio as the drift-cancelling estimator.  It
requires the fused schedule to sustain >= 1.5x (GPT-S) and >= 1.3x (MoE)
the unfused throughput, and asserts the *structural* win alongside
the wall-clock one: a steady-state fused forward enters the quantization
engine exactly once per unique activation (two consecutive passes cost
the same), and never more often than the unfused schedule.
"""

import numpy as np
import pytest

from repro.core.quantize import quantize_call_count
from repro.data.synthetic import SyntheticLanguage
from repro.models.gpt import GPT, GPT_SIZES
from repro.models.moe import MoEGPT
from repro.nn.residency import fusion_disabled
from repro.nn.tensor import no_grad
from repro.serve.compile import compile_model

FORMAT = "mx6"
BATCH = 8
SEQ_LEN = 64


def _compiled_model(model_cls):
    lang = SyntheticLanguage(seed=0)
    model = model_cls(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
    compile_model(model, FORMAT)
    tokens = np.random.default_rng(1).integers(
        0, lang.vocab_size, size=(BATCH, SEQ_LEN), dtype=np.int64
    )
    return model, tokens


@pytest.fixture(scope="module")
def gpt_setup():
    model, tokens = _compiled_model(GPT)
    with no_grad():
        model.forward(tokens)  # warm fused-weight payloads + plan cache
        with fusion_disabled():
            model.forward(tokens)
    return model, tokens


@pytest.fixture(scope="module")
def moe_setup():
    model, tokens = _compiled_model(MoEGPT)
    with no_grad():
        model.forward(tokens)
        with fusion_disabled():
            model.forward(tokens)
    return model, tokens


def _run_fused(model, tokens):
    with no_grad():
        return model.forward(tokens)


def _run_unfused(model, tokens):
    with no_grad(), fusion_disabled():
        return model.forward(tokens)


def test_forward_gpt_unfused(benchmark, gpt_setup):
    """The unfused schedule: per-consumer quantization, unfused ops."""
    model, tokens = gpt_setup
    out = benchmark.pedantic(lambda: _run_unfused(model, tokens), rounds=5, iterations=2)
    assert out.shape == (BATCH, SEQ_LEN, model.vocab_size)


def test_forward_gpt_fused(benchmark, gpt_setup):
    """Residency + fused projections/epilogues (the serving default)."""
    model, tokens = gpt_setup
    out = benchmark.pedantic(lambda: _run_fused(model, tokens), rounds=5, iterations=2)
    assert out.shape == (BATCH, SEQ_LEN, model.vocab_size)


def test_forward_moe_unfused(benchmark, moe_setup):
    model, tokens = moe_setup
    out = benchmark.pedantic(lambda: _run_unfused(model, tokens), rounds=5, iterations=2)
    assert out.shape == (BATCH, SEQ_LEN, model.vocab_size)


def test_forward_moe_fused(benchmark, moe_setup):
    model, tokens = moe_setup
    out = benchmark.pedantic(lambda: _run_fused(model, tokens), rounds=5, iterations=2)
    assert out.shape == (BATCH, SEQ_LEN, model.vocab_size)


@pytest.mark.parametrize("model_cls", [GPT, MoEGPT], ids=["gpt", "moe"])
def test_forward_fused_bit_identical(model_cls):
    """The fused schedule may not change one output bit."""
    model, tokens = _compiled_model(model_cls)
    with no_grad():
        fused = model.forward(tokens).data
        with fusion_disabled():
            baseline = model.forward(tokens).data
    np.testing.assert_array_equal(fused, baseline)


@pytest.mark.parametrize("model_cls", [GPT, MoEGPT], ids=["gpt", "moe"])
def test_forward_quantize_call_residency(model_cls):
    """One engine entry per unique activation per step, steady state.

    Two consecutive fused passes over the same geometry must cost the
    same number of quantization-engine entries (no warm-up work leaking
    into steady state, weights never requantized), and the fused schedule
    must enter the engine strictly fewer times than the unfused
    schedule, which requantizes the same activation once per consumer.
    """
    model, tokens = _compiled_model(model_cls)
    with no_grad():
        model.forward(tokens)
        before = quantize_call_count()
        model.forward(tokens)
        first = quantize_call_count() - before
        before = quantize_call_count()
        model.forward(tokens)
        second = quantize_call_count() - before
        with fusion_disabled():
            model.forward(tokens)
            before = quantize_call_count()
            model.forward(tokens)
            unfused = quantize_call_count() - before
    assert first == second, "fused steady state requantized something"
    assert first < unfused, (
        f"residency did not reduce engine entries: fused {first} vs "
        f"unfused {unfused}"
    )


def test_forward_speedup_headline():
    """Fused batched forward >= 1.5x (GPT-S) and >= 1.3x (MoE) unfused.

    Shared protocol with ``python -m repro bench-forward``
    (:func:`repro.serve.bench.measure_forward_speedup`), so the gated
    number and the CLI-reported number cannot drift apart.  The measured
    speedups on this machine run well above the gates (~2.5-2.9x); the
    gate values are the acceptance floors.
    """
    from repro.serve.bench import measure_forward_speedup

    lang = SyntheticLanguage(seed=0)
    for model_cls, floor in ((GPT, 1.5), (MoEGPT, 1.3)):
        model = model_cls(
            lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0)
        )
        result = measure_forward_speedup(model, fmt=FORMAT, requests=48, repeats=8)
        assert result["speedup"] >= floor, (
            f"{result['family']} fused schedule only {result['speedup']:.2f}x "
            f"the unfused baseline ({result['fused_rps']:.0f} vs "
            f"{result['baseline_rps']:.0f} req/s); the residency headline "
            f"requires >= {floor}x"
        )
        assert (
            result["fused_quant_calls_per_request"]
            <= result["baseline_quant_calls_per_request"]
        )
