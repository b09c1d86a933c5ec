#!/usr/bin/env python
"""Throughput regression gate (kernels + serving + decode suites).

Runs each suite's benchmark module under ``pytest-benchmark`` with
``--benchmark-json``, then compares the median time of every benchmark
against the committed baseline (``benchmarks/BENCH_kernels.json`` /
``benchmarks/BENCH_serving.json``) and exits nonzero if any benchmark
regressed by more than the threshold (default 25%).  Every suite runs and
is compared even when an earlier one fails (a failing test in a module
counts as a failure of its suite); all failures print together at the end.

Usage::

    python benchmarks/check_regression.py                  # gate all suites
    python benchmarks/check_regression.py --suite serving  # one suite
    python benchmarks/check_regression.py --update-baseline
    python benchmarks/check_regression.py --threshold 0.4  # looser gate
    python benchmarks/check_regression.py --suite kernels --no-run --json out.json
                                            # compare an existing run

Medians are wall-clock on the current machine; the committed baseline is a
same-machine anchor for CI, not a cross-machine contract.  Re-baseline with
``--update-baseline`` after intentional performance changes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: suite name -> (benchmark module, committed baseline)
SUITES = {
    "kernels": (BENCH_DIR / "test_bench_kernels.py", BENCH_DIR / "BENCH_kernels.json"),
    "serving": (BENCH_DIR / "test_bench_serving.py", BENCH_DIR / "BENCH_serving.json"),
    "decode": (BENCH_DIR / "test_bench_decode.py", BENCH_DIR / "BENCH_decode.json"),
    "continuous": (
        BENCH_DIR / "test_bench_continuous.py",
        BENCH_DIR / "BENCH_continuous.json",
    ),
    "forward": (BENCH_DIR / "test_bench_forward.py", BENCH_DIR / "BENCH_forward.json"),
}


def run_benchmarks(bench_file: Path, json_path: Path) -> int:
    """Run one suite's benchmark module, writing pytest-benchmark JSON;
    returns pytest's exit code."""
    cmd = [
        sys.executable, "-m", "pytest", str(bench_file), "-q",
        "--benchmark-json", str(json_path),
    ]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env).returncode


def load_medians(json_path: Path) -> dict[str, float]:
    payload = json.loads(json_path.read_text())
    return {b["name"]: b["stats"]["median"] for b in payload["benchmarks"]}


def compare(baseline: dict[str, float], current: dict[str, float],
            threshold: float) -> list[str]:
    """Return a list of failure messages for regressed benchmarks.

    Benchmarks with ``smoke`` in the name are reported but never gate:
    they run a single round (process-pool dispatch, etc.) and are too noisy
    for a 25% threshold.
    """
    failures = []
    width = max((len(n) for n in current), default=0)
    print(f"{'benchmark':<{width}}  baseline(ms)  current(ms)   ratio")
    for name in sorted(current):
        cur = current[name]
        old = baseline.get(name)
        if old is None:
            print(f"{name:<{width}}  {'--':>12}  {cur * 1e3:>11.3f}     new")
            continue
        ratio = cur / old if old > 0 else float("inf")
        gated = "smoke" not in name
        flag = "  REGRESSED" if gated and ratio > 1.0 + threshold else ""
        if not gated:
            flag = "  (not gated)"
        print(f"{name:<{width}}  {old * 1e3:>12.3f}  {cur * 1e3:>11.3f}  {ratio:>6.2f}{flag}")
        if gated and ratio > 1.0 + threshold:
            failures.append(
                f"{name}: median {cur * 1e3:.3f} ms vs baseline "
                f"{old * 1e3:.3f} ms ({(ratio - 1.0) * 100:+.0f}%, "
                f"threshold +{threshold * 100:.0f}%)"
            )
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<{width}}  (missing from current run)")
        if "smoke" not in name:
            failures.append(
                f"{name}: present in baseline but missing from the current "
                "run (renamed/deleted benchmarks need --update-baseline)"
            )
    return failures


def run_suite(name: str, bench_file: Path, baseline_path: Path,
              args: argparse.Namespace) -> list[str]:
    """Run/compare one suite; returns its failure messages.

    A failing test in the suite's module is a failure, but the medians its
    run did record are still compared: one failing headline must not hide a
    regression elsewhere in the suite.
    """
    json_path = args.json
    tmp = None
    if json_path is None:
        tmp = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
        tmp.close()
        json_path = Path(tmp.name)

    failures = []
    try:
        if not args.no_run:
            status = run_benchmarks(bench_file, json_path)
            if status != 0:
                failures.append(f"benchmark run failed with exit code {status}")
        if not json_path.exists() or not json_path.stat().st_size:
            return failures + [f"no benchmark JSON at {json_path}"]

        if args.update_baseline:
            if failures:
                return failures + ["baseline not updated"]
            shutil.copyfile(json_path, baseline_path)
            print(f"[{name}] baseline updated: {baseline_path}")
            return []

        if not baseline_path.exists():
            return failures + [
                f"no baseline at {baseline_path}; run with --update-baseline "
                "to create one"
            ]
        print(f"=== suite: {name} ===")
        return failures + compare(
            load_medians(baseline_path), load_medians(json_path), args.threshold
        )
    finally:
        if tmp is not None:
            Path(tmp.name).unlink(missing_ok=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES), action="append",
                        default=None,
                        help="suite(s) to gate (default: all); repeatable")
    parser.add_argument("--json", type=Path, default=None,
                        help="where to write (or with --no-run, read) the "
                             "benchmark JSON; requires a single --suite")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write this run as the new baseline and exit 0")
    parser.add_argument("--no-run", action="store_true",
                        help="skip running; compare an existing --json file")
    args = parser.parse_args()

    suites = args.suite or sorted(SUITES)
    if args.json is not None and len(suites) != 1:
        sys.exit("--json needs exactly one --suite")

    failures: list[str] = []
    for name in suites:
        bench_file, baseline_path = SUITES[name]
        failures.extend(
            f"[{name}] {message}"
            for message in run_suite(name, bench_file, baseline_path, args)
        )
    if failures:
        print("\nthroughput regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if not args.update_baseline:
        print("\nno throughput regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
