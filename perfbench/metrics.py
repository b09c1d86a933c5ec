"""The metric catalogue, and the per-layer metrics of a traced run.

``END_TO_END`` and ``PER_LAYER`` list every metric a run prints, with its
unit; ``BENCHMARK.json`` declares the same lists.  A per-layer metric of a
layer the workload leaves idle reads 0.
"""

from __future__ import annotations

from collections import defaultdict

import repro.hardware.cost
import repro.hardware.memory

from .tracing import execution_thread
from .workloads import percentile

END_TO_END = (
    ("setup_s", "s"),
    ("capacity_rps", "req/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("choice_agree", "share"),
)

PER_LAYER = (
    ("kernels.quantize.calls", "count"),
    ("kernels.quantize.ms", "ms"),
    ("kernels.quantize.melems", "Melem"),
    ("kernels.quantize_partial.calls", "count"),
    ("kernels.quantize_partial.ms", "ms"),
    ("kernels.matmul_epilogue.calls", "count"),
    ("kernels.matmul_epilogue.ms", "ms"),
    ("kernels.matmul_epilogue.mbytes", "MB"),
    ("kernels.plan.hit_share", "share"),
    ("core.quantize_calls_per_op", "count/op"),
    ("nn.matmul.ms", "ms"),
    ("nn.attention.ms", "ms"),
    ("nn.forward_rows.ms", "ms"),
    ("nn.decode.step.calls", "count"),
    ("nn.decode.step.ms_p50", "ms"),
    ("nn.decode.step.streams_mean", "streams"),
    ("nn.decode.kv_append.ms", "ms"),
    ("nn.decode.kv_gather.ms", "ms"),
    ("nn.decode.kv_gather.mbytes", "MB"),
    ("nn.decode.requant_tails.ms", "ms"),
    ("nn.decode.pad_share", "share"),
    ("nn.decode.refeed_rows_per_token", "rows/tok"),
    ("serve.adapters.score.batches", "count"),
    ("serve.adapters.score.ms", "ms"),
    ("serve.adapters.score.pad_share", "share"),
    ("serve.adapters.score.dedup_share", "share"),
    ("serve.adapters.score.drift_share", "share"),
    ("serve.adapters.score.drift_max", "nats"),
    ("serve.session.queue_wait_p50_ms", "ms"),
    ("serve.session.queue_wait_p99_ms", "ms"),
    ("serve.session.batch_mean", "requests"),
    ("serve.session.errors", "count"),
    ("serve.sched.ttft_p50_ms", "ms"),
    ("serve.sched.ttft_p99_ms", "ms"),
    ("serve.sched.preempted", "count"),
    ("serve.sched.resumed", "count"),
    ("serve.sched.pool.high_water", "pages"),
    ("serve.sched.pool.checkout.ms", "ms"),
    ("serve.sched.pool.bytes_per_position", "B"),
    ("fidelity.measure_qsnr.ms", "ms"),
    ("fidelity.sample.ms", "ms"),
    ("hardware.cost.ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.coverage", "share"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, outcome, values: dict, model) -> dict:
    """Every ``PER_LAYER`` metric of one traced run.

    ``values`` holds the check's measured figures and ``model`` is the
    served model (``None`` for the sweep).
    """
    counters = tracer.counters
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span[1]].append(span)

    def ms(name):
        return sum(end - start for _, _, start, end, *_ in spans[name]) * 1e3

    def total(name, key):
        return sum(span[6][key] for span in spans[name])

    m = {
        "kernels.quantize.calls": len(spans["kernels.quantize"]),
        "kernels.quantize.ms": ms("kernels.quantize"),
        "kernels.quantize.melems": total("kernels.quantize", "elems") / 1e6,
        "kernels.quantize_partial.calls": len(spans["kernels.quantize_partial"]),
        "kernels.quantize_partial.ms": ms("kernels.quantize_partial"),
        "kernels.matmul_epilogue.calls": len(spans["kernels.matmul_epilogue"]),
        "kernels.matmul_epilogue.ms": ms("kernels.matmul_epilogue"),
        "kernels.matmul_epilogue.mbytes": total("kernels.matmul_epilogue", "bytes") / 1e6,
        "kernels.plan.hit_share": _ratio(
            counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"]
        ),
        "core.quantize_calls_per_op": _ratio(counters["quantize_calls"], outcome.ops),
        "nn.matmul.ms": ms("nn.matmul"),
        "nn.attention.ms": ms("nn.attention"),
        "nn.forward_rows.ms": ms("nn.forward_rows"),
    }

    steps = spans["nn.decode.step"]
    fed, slots, tokens = (total("nn.decode.step", k) for k in ("rows", "slots", "streams"))
    m.update({
        "nn.decode.step.calls": len(steps),
        "nn.decode.step.ms_p50": percentile([(s[3] - s[2]) * 1e3 for s in steps], 50),
        "nn.decode.step.streams_mean": _ratio(tokens, len(steps)),
        "nn.decode.kv_append.ms": ms("nn.decode.kv_append"),
        "nn.decode.kv_gather.ms": ms("nn.decode.kv_gather"),
        "nn.decode.kv_gather.mbytes": total("nn.decode.kv_gather", "bytes") / 1e6,
        "nn.decode.requant_tails.ms": ms("nn.decode.requant_tails"),
        "nn.decode.pad_share": _ratio(slots - fed, slots),
        # every stream in a step produces one token
        "nn.decode.refeed_rows_per_token": _ratio(fed, tokens),
    })

    score_slots = total("serve.adapters.score", "slots")
    m.update({
        "serve.adapters.score.batches": len(spans["serve.adapters.score"]),
        "serve.adapters.score.ms": ms("serve.adapters.score"),
        "serve.adapters.score.pad_share": _ratio(
            score_slots - total("serve.adapters.score", "tokens"), score_slots
        ),
        "serve.adapters.score.dedup_share": _ratio(
            total("serve.adapters.score", "rows"), total("serve.adapters.score", "pairs")
        ),
        "serve.adapters.score.drift_share": values.get("drift_share", 0.0),
        "serve.adapters.score.drift_max": values.get("drift_max", 0.0),
    })

    submitted = {span[6]["request"]: span[2] for span in spans["serve.session.submit"]}
    waits, sizes, started = [], [], set()
    for span in sorted(spans["serve.adapters.run_batch"], key=lambda s: s[2]):
        sizes.append(len(span[6]["requests"]))
        for request in span[6]["requests"]:
            if request in submitted and request not in started:
                started.add(request)
                waits.append((span[2] - submitted[request]) * 1e3)
    summary = outcome.session.summary() if outcome.session is not None else {}
    m.update({
        "serve.session.queue_wait_p50_ms": percentile(waits, 50),
        "serve.session.queue_wait_p99_ms": percentile(waits, 99),
        "serve.session.batch_mean": _ratio(sum(sizes), len(sizes)),
        "serve.session.errors": summary.get("errors", 0),
    })

    sched = summary.get("sched", {})
    ttft = sched.get("slo", {}).get("ttft_ms", {})
    checkouts = spans["serve.sched.pool.checkout"]
    layers = model.config.num_layers if model is not None else 0
    m.update({
        "serve.sched.ttft_p50_ms": ttft.get("p50", 0.0),
        "serve.sched.ttft_p99_ms": ttft.get("p99", 0.0),
        "serve.sched.preempted": sched.get("preempted", 0),
        "serve.sched.resumed": sched.get("resumed", 0),
        "serve.sched.pool.high_water": sched.get("pool", {}).get("high_water", 0),
        "serve.sched.pool.checkout.ms": ms("serve.sched.pool.checkout"),
        # a page holds page_size positions of one layer
        "serve.sched.pool.bytes_per_position": (
            checkouts[0][6]["bytes_per_page_position"] * layers if checkouts else 0.0
        ),
        "fidelity.measure_qsnr.ms": ms("fidelity.measure_qsnr"),
        "fidelity.sample.ms": ms("fidelity.sample"),
        "hardware.cost.ms": ms("hardware.cost"),
    })

    late = [ms for phase in outcome.phases for ms in phase.late_ms]
    tables = tracer.self_times()
    main = tables.get(execution_thread(tables), {})
    m.update({
        "loadgen.late_p99_ms": percentile(late, 99),
        "trace.coverage": _ratio(main.get("attributed_ms", 0.0), main.get("wall_ms", 0.0)),
        "trace.unattributed_ms": main.get("unattributed_ms", 0.0),
        "trace.overhead": _ratio(outcome.traced_wall_s or 0.0, outcome.baseline_wall_s or 0.0),
    })
    return m


# ----------------------------------------------------------------------
# Measured cost beside the paper's hardware model
# ----------------------------------------------------------------------
def sweep_cost_lines(tracer, outcome) -> list[str]:
    """Measured quantize ns/element per format beside area x memory.

    Each design point runs one ``measure_qsnr``; its quantize spans are that
    span's children.  Named formats get a row each, the BDR grid one row
    per family.
    """
    kernel = defaultdict(lambda: [0.0, 0])  # format -> [seconds, elements]
    qsnr = {span[0]: span[6]["format"] for span in tracer.named("fidelity.measure_qsnr")}
    for _, _, start, end, parent, _, extra in tracer.named("kernels.quantize"):
        if parent in qsnr:
            entry = kernel[qsnr[parent]]
            entry[0] += end - start
            entry[1] += extra["elems"]
    rows, families = [], defaultdict(lambda: [0.0, 0, 0.0, 0])
    seen = set()
    for (kind, _, label), point in zip((r[0] for r in outcome.requests), outcome.results):
        if point is None or point.label in seen or point.label not in kernel:
            continue
        seen.add(point.label)
        seconds, elems = kernel[point.label]
        if kind == "format":
            rows.append((label, point.bits_per_element, point.cost, seconds / elems * 1e9))
        else:
            family = families[point.family]
            family[0] += seconds
            family[1] += elems
            family[2] += point.cost
            family[3] += 1
    lines = [f"  {'format / grid family':<34} {'bits/elem':>9} {'area*memory':>12} {'quantize ns/elem':>17}"]
    for name, (seconds, elems, cost, n) in sorted(families.items()):
        label = f"grid {name} ({n} points)"
        lines.append(f"  {label:<34} {'':>9} {cost / n:>12.3f} {seconds / elems * 1e9:>17.2f}")
    for label, bits, cost, ns in sorted(rows, key=lambda r: r[2]):
        lines.append(f"  {label:<34} {bits:>9.2f} {cost:>12.3f} {ns:>17.2f}")
    lines.append("  (scalar-float formats quantize outside the BDR kernels; named MX/MSFP "
                 "points share their grid family's row)")
    return lines


def pool_cost_lines(bytes_per_position: float, model) -> list[str]:
    """Measured KV bytes per cached position beside the modeled mx6 bits."""
    spec = model.blocks[0].attn.quant.activation
    modeled_bits = repro.hardware.memory.tile_bits(
        repro.hardware.cost.storage_spec(spec)
    ) / repro.hardware.memory.TILE_ELEMENTS
    # K and V: 2 * dim elements per position per layer
    elements = 2 * model.config.dim * model.config.num_layers
    measured_bits = bytes_per_position * 8 / elements if elements else 0.0
    return [
        f"  KV pool, measured: {bytes_per_position:.0f} B/position = "
        f"{measured_bits:.1f} bits per K/V element (float64 K, V and raw-tail arenas)",
        f"  hardware.memory model for {spec.name}: {modeled_bits:.2f} bits per element = "
        f"{modeled_bits * elements / 8:.0f} B/position "
        f"(the simulation holds {measured_bits / modeled_bits:.0f}x the modeled bytes)",
    ]
