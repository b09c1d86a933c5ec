"""Run one benchmark workload; the last line of stdout is its JSON result.

    python3 perfbench/run.py --workload score|generate|sweep --seed N \\
        [--seconds 25] [--trace 0|1]

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same workload again with spans around every layer's entry
points and prints the per-layer metrics and the self-time table.  The last
line is ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
1 when a correctness check failed and 2 when the run was refused (a
``REPRO_*`` override is set, or there is no ``src/repro`` to measure).
Results and traces are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("score", "generate", "sweep")
#: Overrides that would change what is measured; a run refuses them.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_KERNEL_BACKEND", "REPRO_FUSION")
#: BLAS/OpenMP pools pinned to one thread, set before numpy loads.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: setup_s is the median of this many set-ups: this process's own and
#: fresh interpreters running only the set-up.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up sampling: a fresh interpreter sets up, prints setup_s, exits
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def refusal() -> str | None:
    for name in REFUSED_ENV:
        if name in os.environ:
            return f"{name} is set; unset it to measure the default configuration"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program to measure: {ROOT / 'src' / 'repro'} is missing"
    return None


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": PINNED_ENV,
    }


def setup_samples(args) -> list[float]:
    """Set-up times of fresh interpreters (each stopped before returning)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def table(rows, header) -> list[str]:
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    return ["  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in [header] + rows]


def run(args) -> int:
    from perfbench import metrics, tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.setup(args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        workload.teardown(ctx)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        inputs = workload.inputs(ctx, args.seed, args.seconds)
        tracer = tracing.Tracer() if args.trace else None
        outcome = workload.run(ctx, inputs, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, values = workload.check(ctx, outcome, inputs["oracle_rng"])
        failures = workloads.failed_requests(outcome) + failures
        model = ctx["compiled"].model if "compiled" in ctx else None
        if tracer is not None:
            measured = metrics.per_layer(tracer, outcome, values, model)
            catalogue = metrics.PER_LAYER
        else:
            measured = workload.end_to_end(outcome, values)
            measured["peak_rss_mb"] = peak_rss_mb
            catalogue = metrics.END_TO_END
    finally:
        workload.teardown(ctx)
    if tracer is None:
        samples = [setup_s] + setup_samples(args)
        measured["setup_s"] = statistics.median(samples)

    env = environment()
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
        + " pinned " + ",".join(f"{k}={v}" for k, v in PINNED_ENV.items()),
        "phases:",
        *table(
            [[p.name, p.attempted, p.succeeded, p.failed, f"{p.wall_s:.3f}"] for p in outcome.phases],
            ["phase", "attempted", "succeeded", "failed", "wall_s"],
        ),
    ]
    late = [ms for phase in outcome.phases for ms in phase.late_ms]
    if late:
        lines.append(
            f"paced: {len(outcome.latency_ms)} latency samples, generator late "
            f"p50 {workloads.percentile(late, 50):.3f} ms, "
            f"p99 {workloads.percentile(late, 99):.3f} ms"
        )
    if tracer is None:
        lines.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
        lines.append(f"p99_ms (printed, not in the result; see perfbench/README.md): "
                     f"{measured['p99_ms']:.3f} ms over {len(outcome.latency_ms)} samples")
        if args.workload == "generate":
            lines.append(f"tokens_per_s (median burst): {outcome.extra['tokens_per_s']:.2f} tok/s")
            sched = outcome.extra["sched"]
            lines.append(f"scheduler: preempted {sched['preempted']}, resumed {sched['resumed']}, "
                         f"pool high water {sched['pool']['high_water']} pages")
        if args.workload == "sweep":
            lines.append(f"points_per_s: {measured['capacity_rps']:.2f} points/s")
            lines.append("pass walls: " + ", ".join(f"{w:.3f}" for w in outcome.extra["pass_walls"]))
    else:
        tables = tracer.self_times()
        lines += ["self time per thread (rows + unattributed = traced wall):",
                  *tracing.format_self_times(tables)]
        if args.workload == "sweep":
            lines += ["cost model: measured quantize time beside hardware_cost area x memory",
                      *metrics.sweep_cost_lines(tracer, outcome)]
        if args.workload == "generate":
            lines += ["cost model: KV pool footprint beside hardware.memory",
                      *metrics.pool_cost_lines(measured["serve.sched.pool.bytes_per_position"], model)]
    if "drift_share" in values:
        lines.append(
            f"padding defect (perfbench/README.md): serve.adapters.score.drift_share="
            f"{values['drift_share']:.4f} drift_max={values['drift_max']:.4g} nats"
        )
    lines.append(("metrics (per layer):" if tracer is not None else "metrics (end to end):"))
    lines += table([[name, f"{measured[name]:.6g}", unit] for name, unit in catalogue],
                   ["metric", "value", "unit"])
    lines.append("checks: ok" if not failures else "checks: FAILED")
    lines += [f"  - {failure}" for failure in failures]

    result = {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in catalogue},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "env": env, "args": vars(args), "failures": failures,
              "phases": [{"name": p.name, "attempted": p.attempted, "failed": p.failed,
                          "wall_s": p.wall_s, "p50_ms": workloads.percentile(p.latency_ms, 50)}
                         for p in outcome.phases]}
    if tracer is None:
        record.update(p99_ms=measured["p99_ms"], latency_samples=len(outcome.latency_ms))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        requests = {id(request): i for i, request in enumerate(outcome.requests)}
        tracer.write(OUT / f"trace-{stem}.json.gz", record, requests)
        lines.append(f"trace: {OUT / f'trace-{stem}.json.gz'}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = refusal()
    if problem:
        print(f"perfbench: refusing to run: {problem}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
