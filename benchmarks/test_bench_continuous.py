"""Continuous-batching throughput benchmarks (``bench-serve --continuous``).

Two benchmarks drain the same 64-stream ragged ``generate`` workload
through both serving paths: ``lockstep_drain`` times the classic
micro-batched session (whose equal-shape grouping degrades ragged decode
traffic to serial singletons), and ``continuous_drain`` times the
token-granularity scheduler over the paged KV pool.  The headline test
asserts the scheduler sustains >= 2x the lockstep tokens/sec — measured
through the same protocol as ``python -m repro bench-serve --continuous``
(:func:`repro.serve.bench.measure_continuous_speedup`), which refuses to
report at all unless both paths are bit-identical to serial decode and
the page pool drains empty.  ``benchmarks/check_regression.py`` gates the
medians against ``benchmarks/BENCH_continuous.json``.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticLanguage
from repro.models.gpt import GPT, GPT_SIZES
from repro.serve import SessionConfig, compile_model

STREAMS = 64
MAX_NEW = 8
PROMPT_LENS = (4, 88)
FORMAT = "mx6"


@pytest.fixture(scope="module")
def continuous_setup():
    """One compiled GPT-S plus a fixed ragged generate workload."""
    lang = SyntheticLanguage(seed=0)
    model = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
    compiled = compile_model(model, FORMAT)
    rng = np.random.default_rng(0)
    requests = [
        {
            "task": "generate",
            "prompt": rng.integers(1, lang.vocab_size, size=int(n)).tolist(),
            "max_new_tokens": MAX_NEW,
        }
        for n in rng.integers(*PROMPT_LENS, size=STREAMS)
    ]
    return compiled, requests


def test_lockstep_drain(benchmark, continuous_setup):
    """The classic session on ragged decode: mostly serial fallbacks."""
    compiled, requests = continuous_setup
    config = SessionConfig(format=FORMAT, max_batch=STREAMS, max_wait=0.05)
    with compiled.session(config) as session:
        session.map(requests)  # warm
        results = benchmark.pedantic(
            lambda: session.map(requests), rounds=3, iterations=1
        )
    assert len(results) == STREAMS


def test_continuous_drain(benchmark, continuous_setup):
    """The paged-KV scheduler on the same workload, fused across streams."""
    compiled, requests = continuous_setup
    config = SessionConfig(format=FORMAT, scheduler={"max_streams": STREAMS})
    with compiled.session(config) as session:
        session.map(requests)  # warm
        results = benchmark.pedantic(
            lambda: session.map(requests), rounds=3, iterations=1
        )
        pool = session._sched.pool
    assert len(results) == STREAMS
    assert pool.leaked() == {}


def test_continuous_speedup_headline(continuous_setup):
    """Continuous batching >= 2x lockstep generate tokens/sec at 64 streams.

    The gated number is the median of the per-repeat ratios of interleaved
    lockstep and continuous drains (alternating which runs first).  The
    shared protocol asserts bit-identity of every stream against the
    serial ``generate_stream`` decode (both paths) and an empty page pool
    before any throughput number is produced, so this gate cannot pass on
    wrong tokens.
    """
    from repro.serve.bench import measure_continuous_speedup

    compiled, _ = continuous_setup
    result = measure_continuous_speedup(
        compiled.model,
        fmt=FORMAT,
        streams=STREAMS,
        max_new_tokens=MAX_NEW,
        prompt_lens=PROMPT_LENS,
        repeats=3,
    )
    assert result["speedup"] >= 2.0, (
        f"continuous batching only {result['speedup']:.2f}x lockstep "
        f"({result['continuous_tokens_per_sec']:.0f} vs "
        f"{result['lockstep_tokens_per_sec']:.0f} tok/s); "
        "the scheduler headline requires >= 2x"
    )
