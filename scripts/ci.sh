#!/usr/bin/env bash
# One-command CI gate: tier-1 tests, perf regression (kernels + serving),
# CLI smoke including the serving tier, seeded chaos smoke (classic and
# continuous-scheduler), and the invariant static analyzer (docs/ANALYSIS.md).
#
# Usage:
#   scripts/ci.sh                 # full gate
#   SKIP_BENCH=1 scripts/ci.sh    # skip the perf gate (e.g. noisy machines)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== [1/6] tier-1 pytest ==="
python -m pytest -x -q

if [ -z "${SKIP_BENCH:-}" ]; then
    echo "=== [2/6] perf regression gate (kernels + serving + decode + forward + continuous) ==="
    python benchmarks/check_regression.py
else
    echo "=== [2/6] perf regression gate (skipped: SKIP_BENCH set) ==="
fi

echo "=== [3/6] spec-layer CLI smoke ==="
python -m repro list > /dev/null
python -m repro list-formats > /dev/null
python -m repro describe "bdr(m=4,k1=16,d1=8,k2=2,d2=1,ss=pow2)" > /dev/null
python -m repro describe "mx9?rounding=stochastic" > /dev/null
python -m repro qsnr mx6 --n-vectors 200 > /dev/null
# the compiled pow2 kernel is active, and a warm load (the commands above
# built it if the C source changed) imports no build tooling and starts no
# process: a broken build would otherwise show only as a 2x slowdown
python scripts/check_kernel_load.py
# unknown specs must fail with exit code 2
if python -m repro describe mx7 2> /dev/null; then
    echo "describe mx7 should have failed" >&2
    exit 1
fi
# a bench with no timed pass is a usage error (exit 2), refused up front
status=0
timeout 10 python -m repro bench-forward --repeats 0 2> /dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "bench-forward --repeats 0 should exit 2, got $status" >&2
    exit 1
fi

echo "=== [4/6] serving CLI smoke ==="
# tiny model, ~2s budget: exercises compile -> session -> metrics end to end
python -m repro serve --model gpt-xs --requests 8 --max-batch 4 > /dev/null
python -m repro bench-serve --quick > /dev/null
# continuous batching: bit-identity to serial decode is asserted inside
# the measurement (it refuses to report a speedup on wrong tokens)
python -m repro bench-serve --continuous --quick > /dev/null
python -m repro bench-decode --quick > /dev/null
python -m repro bench-forward --quick > /dev/null
# the unfused schedule must stay a working end-to-end configuration
REPRO_FUSION=0 python -m repro bench-forward --quick > /dev/null

echo "=== [5/6] seeded chaos smoke ==="
# fixed seed: the same faults inject at the same sites on every CI run.
# the session must stay available, isolate the failures, retry the
# transients, and leave zero unresolved futures (asserted by the suite).
REPRO_FAULTS="seed=11 adapter.run_batch:kind=transient,rate=0.2" \
    python -m pytest tests/serve/test_chaos.py -q
# scheduler storm: preemption churn + admit/preempt faults under a tiny
# page pool; asserts bit-identity and zero leaked pages
python -m pytest tests/serve/test_sched_chaos.py -q
# CLI under injected transients: served N/N with retries absorbed
python -m repro serve --model gpt-xs --requests 16 --max-batch 4 --retries 3 \
    --faults "seed=7 adapter.run_batch:kind=transient,rate=0.3" > /dev/null

echo "=== [6/6] static analysis gate ==="
# every repo invariant rule (exactness, locks, lifecycle, taxonomy,
# determinism) must run clean modulo the committed, justified baseline
python -m repro analyze --baseline

echo "ci: all gates passed"
