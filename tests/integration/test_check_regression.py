"""The throughput gate (``benchmarks/check_regression.py``) measures every
suite: a suite whose module has a failing test is reported, and the suites
after it still run and are compared."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

FAILING = """
def test_headline(benchmark):
    benchmark(lambda: None)
    assert False, "a failing headline"
"""

SLOW = """
import time

def test_kernel(benchmark):
    benchmark.pedantic(lambda: time.sleep(0.002), rounds=3, iterations=1)
"""


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def baseline(path, name, median):
    path.write_text(json.dumps({"benchmarks": [{"name": name, "stats": {"median": median}}]}))
    return path


def test_a_failing_suite_leaves_the_later_ones_measured(tmp_path, monkeypatch, capsys):
    gate = load_gate()
    (tmp_path / "bench_failing.py").write_text(FAILING)
    (tmp_path / "bench_slow.py").write_text(SLOW)
    monkeypatch.setattr(gate, "SUITES", {
        "a": (tmp_path / "bench_failing.py",
              baseline(tmp_path / "a.json", "test_headline", 1.0)),
        "b": (tmp_path / "bench_slow.py",
              baseline(tmp_path / "b.json", "test_kernel", 1e-4)),
    })
    monkeypatch.setattr(sys, "argv", ["check_regression.py"])
    assert gate.main() == 1
    out, err = capsys.readouterr()
    assert "=== suite: a ===" in out and "=== suite: b ===" in out
    assert "[a] benchmark run failed with exit code 1" in err
    assert "[b] test_kernel: median" in err  # 2 ms against a 0.1 ms anchor
