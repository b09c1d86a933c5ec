"""Self-test of the benchmark's oracles and tracer.

    PYTHONPATH=src python -m pytest perfbench/test_oracles.py -q

Every workload's check must pass on the unmodified program and fail on an
injected fault, which proves the checks are not vacuous:

* a one-ulp perturbation of one kernel output: every element of the last
  output the active backend returns during the check is moved to the next
  float.  That output feeds the numbers the check compares with its
  oracle (the head logits of the last oracle batch or decode step, the
  quantized ensemble chunk of the last sampled design point), which no
  later quantization rounds away;
* two swapped ``score`` results;
* one altered ``generate`` token.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import repro.kernels
import repro.serve
from perfbench import loadgen, metrics, tracing, workloads

SEED = 5
ROOT = Path(__file__).resolve().parent.parent


class UlpFault:
    """Counts the active backend's kernel calls; perturbs call ``at`` by one ulp."""

    ENTRY_POINTS = ("quantize", "quantize_partial", "matmul_epilogue")

    def __init__(self, at: int | None = None):
        self.at = at
        self.calls = 0

    @contextlib.contextmanager
    def installed(self):
        backend = repro.kernels.get_backend()
        for name in self.ENTRY_POINTS:
            setattr(backend, name, self._wrap(getattr(backend, name)))
        try:
            yield self
        finally:
            for name in self.ENTRY_POINTS:
                delattr(backend, name)  # the class methods show through again

    def _wrap(self, method):
        def faulty(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls += 1
            if self.calls == self.at and isinstance(out, np.ndarray):
                out = np.nextafter(out, np.inf)
            return out

        return faulty


def ulp_failures(check) -> list[str]:
    """Run ``check`` once counting kernel calls, then again perturbing the last."""
    with UlpFault().installed() as counting:
        assert check() == []
    assert counting.calls > 0
    with UlpFault(at=counting.calls).installed() as fault:
        failures = check()
    assert fault.calls == counting.calls
    return failures


def oracle_rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="module")
def score_run():
    compiled = repro.serve.compile_model(workloads.build_model(), workloads.FORMAT)
    rng = np.random.default_rng(SEED)
    requests = workloads.Score().make_requests(rng, compiled.model.vocab_size, 24)
    # fixed ragged batches, as the micro-batcher would form them, so the
    # padding drift (and any choice it flips) does not depend on timing
    results = compiled.run(requests[:16]) + compiled.run(requests[16:])
    return compiled, requests, results


def test_score_check_passes_and_catches_faults(score_run):
    compiled, requests, results = score_run

    def check(served=results):
        return workloads.check_score(compiled, requests, served, oracle_rng())[0]

    assert check() == []
    assert ulp_failures(check)
    # swap request 0's result with one whose candidates differ in length
    # (a swap between two payloads identical up to the drift tolerance
    # is indistinguishable by construction)
    lengths = [sorted(len(c) for c in r.payload["candidates"]) for r in requests]
    other = next(i for i in range(1, len(requests))
                 if len(lengths[i]) == len(lengths[0]) and lengths[i] != lengths[0])
    swapped = list(results)
    swapped[0], swapped[other] = swapped[other], swapped[0]
    assert check(swapped)


def test_score_reports_padding_drift(score_run):
    compiled, requests, results = score_run
    _, values = workloads.check_score(compiled, requests, results, oracle_rng())
    # the documented defect: ragged batches drift from solo scoring
    assert 0 < values["drift_share"] <= 1
    assert 0 < values["drift_max"] <= workloads.Score.DRIFT_TOLERANCE


@pytest.fixture(scope="module")
def generate_run():
    workload = workloads.Generate()
    ctx = workload.setup(SEED)
    rng = np.random.default_rng(SEED)
    vocab = ctx["compiled"].model.vocab_size
    requests = workload.make_requests(rng, vocab, 12)
    phase = loadgen.burst(ctx["session"], requests, workloads.PHASE_TIMEOUT_S)
    assert phase.failed == 0
    yield ctx, requests, phase.results
    workload.teardown(ctx)


def test_generate_check_passes_and_catches_faults(generate_run):
    ctx, requests, results = generate_run
    expected = ctx["warmed"] + len(requests)

    def check(served=results):
        return workloads.check_generate(
            ctx["compiled"], ctx["session"], requests, served, expected, oracle_rng()
        )[0]

    assert check() == []
    assert ulp_failures(check)
    altered = [dict(r) for r in results]
    tokens = list(altered[0]["tokens"])
    tokens[-1] = (tokens[-1] + 1) % ctx["compiled"].model.vocab_size
    altered[0]["tokens"] = tokens
    assert check(altered)


def test_sweep_check_passes_and_catches_faults():
    workload = workloads.Sweep()
    ctx = workload.setup(SEED)
    points = ctx["points"][:4] + ctx["points"][-4:]  # BFP/MX grid and named formats
    requests, results, _, errors, _ = workload._sweep(points, [("variable_normal", SEED)])
    assert errors == []

    def check():
        return workloads.check_sweep(requests, results, oracle_rng())[0]

    assert check() == []
    assert ulp_failures(check)


def test_tracer_tables_sum_to_wall_and_uninstall_restores():
    import repro.fidelity
    from repro.nn.decode import batched_causal_decode_step
    from repro.serve.sched import scheduler

    original_step = scheduler.batched_causal_decode_step
    tracer = tracing.Tracer()
    with tracer:
        assert scheduler.batched_causal_decode_step is not original_step
        repro.fidelity.run_sweep(configs=repro.fidelity.bdr_design_space()[:2],
                                 include_named=False, n_vectors=64)
    assert scheduler.batched_causal_decode_step is original_step is batched_causal_decode_step
    names = {span[1] for span in tracer.spans}
    assert {"fidelity.run_sweep", "fidelity.measure_qsnr", "kernels.quantize"} <= names
    for table in tracer.self_times().values():
        rows = sum(own for _, own, _ in table["rows"].values())
        assert math.isclose(rows + table["unattributed_ms"], table["wall_ms"])
        assert table["unattributed_ms"] >= 0


def test_benchmark_json_declares_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
