"""Compare two traced runs: self-time and call-count deltas per layer x op.

    python3 perfbench/tracediff.py PARENT_TRACE CHANGE_TRACE

The inputs are the ``.perfbench_out/trace-*.json.gz`` files that
``perfbench/run.py --trace 1`` writes.  Rows are keyed by (thread, layer,
op); every thread also has its unattributed row (idle time and code
between traced calls), so each side's rows sum to that thread's traced
wall.  Rows are sorted by the size of the self-time change: the layer where
a saving or a loss appeared comes first.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import read_trace, split_name  # noqa: E402

UNATTRIBUTED = "(unattributed)"


def rows(trace: dict) -> dict:
    """``{(thread, name): (calls, self_ms)}``, unattributed rows included."""
    out = {}
    for thread, table in trace["threads"].items():
        for name, (calls, own, _) in table["rows"].items():
            out[(thread, name)] = (calls, own)
        out[(thread, UNATTRIBUTED)] = (None, table["unattributed_ms"])
    return out


def describe(trace: dict) -> str:
    meta = trace["meta"]
    args, env = meta.get("args", {}), meta.get("env", {})
    return (f"{args.get('workload')} seed={args.get('seed')} "
            f"seconds={args.get('seconds')} commit={env.get('commit')}")


def diff_lines(parent: dict, change: dict) -> list[str]:
    before, after = rows(parent), rows(change)
    keys = sorted(
        set(before) | set(after),
        key=lambda k: -abs(after.get(k, (0, 0.0))[1] - before.get(k, (0, 0.0))[1]),
    )
    header = (f"{'thread':<15} {'layer':<15} {'op':<18} {'calls':>9} {'calls':>9} {'d calls':>8}"
              f" {'self_ms':>10} {'self_ms':>10} {'d self_ms':>10}")
    lines = [
        f"parent: {describe(parent)}",
        f"change: {describe(change)}",
        f"{'':<50}{'parent':>9} {'change':>9} {'':>8} {'parent':>10} {'change':>10}",
        header,
    ]
    for thread, name in keys:
        calls0, own0 = before.get((thread, name), (0, 0.0))
        calls1, own1 = after.get((thread, name), (0, 0.0))
        layer, op = (name, "") if name == UNATTRIBUTED else split_name(name)
        if calls0 is None or calls1 is None:
            counts = f"{'':>9} {'':>9} {'':>8}"
        else:
            counts = f"{calls0:>9} {calls1:>9} {calls1 - calls0:>+8}"
        lines.append(f"{thread:<15} {layer:<15} {op:<18} {counts} {own0:>10.1f} {own1:>10.1f} {own1 - own0:>+10.1f}")
    for thread in sorted(set(parent["threads"]) | set(change["threads"])):
        wall0 = parent["threads"].get(thread, {}).get("wall_ms", 0.0)
        wall1 = change["threads"].get(thread, {}).get("wall_ms", 0.0)
        lines.append(f"{thread:<15} {'(traced wall)':<34} {'':>9} {'':>9} {'':>8} "
                     f"{wall0:>10.1f} {wall1:>10.1f} {wall1 - wall0:>+10.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = read_trace(args.parent), read_trace(args.change)
    if parent["meta"]["args"]["workload"] != change["meta"]["args"]["workload"]:
        print("tracediff: the two traces ran different workloads", file=sys.stderr)
        return 2
    print("\n".join(diff_lines(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
