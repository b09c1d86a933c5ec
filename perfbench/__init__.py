"""The repository benchmark: seeded serving and sweep workloads measured
through the public API, with an outside-in per-layer trace.

Run one workload with ``python3 perfbench/run.py --workload score --seed 1
--seconds 25 --trace 0``; see ``perfbench/README.md``.
"""
