"""Command-line entry point: paper experiments plus the spec layer.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro figure7              # regenerate a table/figure
    python -m repro table3 --full --seed 1

    python -m repro list-formats         # every registered format name
    python -m repro describe "bdr(m=4,k1=16,d1=8,k2=2,d2=1,ss=pow2)"
    python -m repro qsnr mx6 --distribution normal --n-vectors 2000

    python -m repro serve --format mx6 --max-batch 16   # serving demo
    python -m repro bench-serve                         # naive vs batched
    python -m repro bench-decode                        # full recompute vs KV cache

Everything below ``list`` is driven entirely by the declarative spec
layer (:mod:`repro.spec`): any spelling accepted by ``repro.quantize``
works with ``describe`` and ``qsnr``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _cmd_list_formats(argv: list[str]) -> int:
    from .formats import get_format, list_formats

    parser = argparse.ArgumentParser(
        prog="repro list-formats", description="Enumerate registered formats."
    )
    parser.parse_args(argv)
    width = max(len(name) for name in list_formats())
    for name in list_formats():
        fmt = get_format(name)
        print(f"{name:<{width}}  {fmt.bits_per_element:6.3f} bits/elem  {fmt.name}")
    return 0


def _cmd_describe(argv: list[str]) -> int:
    from .hardware.cost import hardware_cost
    from .hardware.power import power_cost
    from .spec import as_format, parse_spec, render_spec

    parser = argparse.ArgumentParser(
        prog="repro describe", description="Describe one format spec."
    )
    parser.add_argument("spec", help="any spec spelling, e.g. mx6 or bdr(m=4,k1=16,d1=8)")
    args = parser.parse_args(argv)

    spec = parse_spec(args.spec)
    fmt = as_format(spec)
    print(f"spec:      {render_spec(spec)}")
    print(f"name:      {fmt.name}")
    print(f"bits/elem: {fmt.bits_per_element:.4f}")
    fmt = getattr(fmt, "inner", fmt)  # cost/config of the pinned format
    config = getattr(fmt, "config", None)
    if config is not None:
        print(
            f"bdr:       m={config.m} k1={config.k1} d1={config.d1} "
            f"s={config.s_type} k2={config.k2} d2={config.d2} ss={config.ss_type} "
            f"(family {config.family})"
        )
    try:
        cost = hardware_cost(fmt)
        print(
            f"hardware:  area={cost.normalized_area:.3f} memory={cost.memory:.3f} "
            f"cost={cost.area_memory_product:.3f} (normalized to FP8)"
        )
        print(
            f"           dot-product area={cost.area_ge:.1f} GE  "
            f"packing-efficiency={cost.packing_efficiency:.4f}  "
            f"power={power_cost(fmt):.3f}"
        )
    except TypeError:
        print("hardware:  (no cost model for this format)")
    print(f"json:      {json.dumps(spec.to_dict(), sort_keys=True)}")
    return 0


def _cmd_qsnr(argv: list[str]) -> int:
    from .fidelity.qsnr import measure_qsnr
    from .spec import parse_spec, render_spec

    parser = argparse.ArgumentParser(
        prog="repro qsnr", description="Measure a format's QSNR (Figure 7 y-axis)."
    )
    parser.add_argument("spec", help="any spec spelling")
    parser.add_argument("--distribution", default="variable_normal")
    parser.add_argument("--n-vectors", type=int, default=2000)
    parser.add_argument("--length", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = parse_spec(args.spec)
    q = measure_qsnr(
        spec.canonical(),
        distribution=args.distribution,
        n_vectors=args.n_vectors,
        length=args.length,
        seed=args.seed,
    )
    print(f"{render_spec(spec)}: {q:.2f} dB ({args.distribution}, n={args.n_vectors})")
    return 0


def _build_serving_demo(model_name: str, seed: int):
    """(model, examples factory) for the serving CLI: a GPT ladder member
    over the synthetic language with likelihood-ranked choice requests."""
    import numpy as np

    from .data.synthetic import SyntheticLanguage
    from .data.tasks import make_task
    from .models.gpt import GPT, GPT_SIZES

    key = model_name.upper().replace("GPT", "GPT-") if "-" not in model_name.upper() else model_name.upper()
    if key not in GPT_SIZES:
        raise ValueError(f"unknown GPT ladder member {model_name!r}; choose from {sorted(GPT_SIZES)}")
    lang = SyntheticLanguage(seed=seed)
    model = GPT(lang.vocab_size, GPT_SIZES[key], rng=np.random.default_rng(seed))

    def requests(n: int):
        examples = make_task("recall", lang, n_examples=n, seed=seed + 1)
        return [
            {"task": "score", "context": ex.context, "candidates": ex.candidates}
            for ex in examples
        ], [ex.answer for ex in examples]

    return model, requests


def _cmd_serve(argv: list[str]) -> int:
    """Demo server: compile a GPT ladder member, serve scored requests."""
    from .serve import SessionConfig, compile_model, configure_faults

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Compile a model and serve micro-batched requests "
        "(demonstration harness over the synthetic choice tasks).",
    )
    parser.add_argument("--model", default="GPT-S", help="GPT ladder member (default GPT-S)")
    parser.add_argument("--format", default="mx6", dest="fmt",
                        help="format spec, e.g. mx6 (default); 'fp32' serves unquantized")
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait", type=float, default=0.002)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--stream", action="store_true",
                        help="also demo token-by-token streaming generation")
    parser.add_argument("--seed", type=int, default=0)
    # reliability surface
    parser.add_argument("--max-queue", type=int, default=0,
                        help="bound on queued requests (0 = unbounded)")
    parser.add_argument("--shed-policy", default="reject", choices=("reject", "oldest"))
    parser.add_argument("--timeout", type=float, default=None,
                        help="default per-request deadline in seconds")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-executions of transiently-failing batches")
    parser.add_argument("--retry-backoff", type=float, default=0.05)
    parser.add_argument("--watchdog", type=float, default=0.0,
                        help="hung-worker watchdog interval in seconds (0 = off)")
    parser.add_argument("--hang-timeout", type=float, default=5.0)
    parser.add_argument("--degrade", default=None,
                        help="comma-separated degradation ladder, e.g. mx6,mx4")
    parser.add_argument("--degrade-queue-depth", type=int, default=0,
                        help="queue depth that triggers degraded serving")
    parser.add_argument("--breaker-threshold", type=int, default=0,
                        help="consecutive failures that trip the circuit breaker")
    parser.add_argument("--breaker-cooldown", type=float, default=1.0)
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection plan (REPRO_FAULTS grammar), "
                        'e.g. "seed=7 adapter.run_batch:kind=transient,rate=0.3"')
    args = parser.parse_args(argv)

    if args.faults:
        configure_faults(args.faults)
    model, make_requests = _build_serving_demo(args.model, args.seed)
    fmt = None if args.fmt.strip().lower() == "fp32" else args.fmt
    ladder = tuple(s for s in (args.degrade or "").split(",") if s.strip())
    config = SessionConfig(
        format=fmt, max_batch=args.max_batch, max_wait=args.max_wait,
        workers=args.workers, max_queue=args.max_queue,
        shed_policy=args.shed_policy, default_timeout=args.timeout,
        max_retries=args.retries, retry_backoff=args.retry_backoff,
        watchdog_interval=args.watchdog, hang_timeout=args.hang_timeout,
        degrade_ladder=ladder, degrade_queue_depth=args.degrade_queue_depth,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    compiled = compile_model(model, config=config)
    info = compiled.describe()
    print(f"compiled {info['family']} ({info['parameters']} params) "
          f"for {args.fmt}: tasks={','.join(info['tasks'])}")

    requests, answers = make_requests(args.requests)
    # fault-tolerant drain: submit everything, harvest each future
    # individually so one failed request never loses the rest
    served, failed, degraded = [], 0, 0
    with compiled.session(config) as session:
        futures = []
        for request in requests:
            try:
                futures.append(session.submit(request))
            except Exception as error:
                failed += 1
                print(f"  rejected at admission: {type(error).__name__}: {error}")
                futures.append(None)
        for future, answer in zip(futures, answers):
            if future is None:
                continue
            try:
                result = future.result()
            except Exception as error:
                failed += 1
                print(f"  request failed: {type(error).__name__}: {error}")
                continue
            if result.get("served_format"):
                degraded += 1
            served.append((result, answer))
        health = session.health()
        summary = session.summary()
    if not served:
        print("no requests served")
        return 1
    correct = sum(int(r["choice"] == a) for r, a in served)
    line = f"served {len(served)}/{len(requests)} requests  " \
           f"accuracy={100.0 * correct / len(served):.1f}%"
    if failed:
        line += f"  failed={failed}"
    if degraded:
        line += f"  degraded={degraded}"
    print(line)
    latency = summary.get("latency_ms", {})
    batch = summary.get("batch", {})
    print(
        f"throughput={summary['throughput_rps']:.1f} req/s  "
        f"p50={latency.get('p50', 0.0):.2f}ms p99={latency.get('p99', 0.0):.2f}ms  "
        f"mean-batch={batch.get('mean_size', 0.0):.2f} "
        f"occupancy={batch.get('occupancy', 0.0):.2f}"
    )
    taxonomy = summary.get("reliability", {})
    nonzero = {k: v for k, v in taxonomy.items() if v}
    if nonzero:
        print("reliability: " + "  ".join(f"{k}={v}" for k, v in sorted(nonzero.items())))
    workers = health.get("workers", {})
    print(
        f"health: state={health['state']}  fidelity={health['fidelity']}  "
        f"workers={workers.get('alive', '?')}/{workers.get('configured', '?')} "
        f"(replaced={workers.get('replaced', 0)})"
    )
    if args.stream:
        import numpy as np

        prompt = np.array([1, 2, 3])
        with compiled.session(config) as session:
            tokens = list(
                session.stream({"task": "generate", "prompt": prompt, "max_new_tokens": 8})
            )
            decode = session.summary().get("decode", {})
        latency = decode.get("token_latency_ms", {})
        print(f"stream demo: prompt={prompt.tolist()} -> {tokens}")
        print(
            f"decode: {decode.get('tokens_per_sec', 0.0):.1f} tok/s  "
            f"token-latency p50={latency.get('p50', 0.0):.2f}ms "
            f"p99={latency.get('p99', 0.0):.2f}ms"
        )
    return 0


def _cmd_bench_serve(argv: list[str]) -> int:
    """Throughput: naive per-request inference vs batched quantize-once."""
    from .serve.bench import measure_serving_speedup

    parser = argparse.ArgumentParser(
        prog="repro bench-serve",
        description="Benchmark the serving tier: naive per-request direct-cast "
        "inference vs the micro-batched quantize-once session.",
    )
    parser.add_argument("--model", default="GPT-S", help="GPT ladder member (default GPT-S)")
    parser.add_argument("--format", default="mx6", dest="fmt")
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; the best (max rps) is reported "
                        "(--continuous: median per-repeat speedup)")
    parser.add_argument("--continuous", action="store_true",
                        help="benchmark continuous batching instead: lockstep "
                        "generate vs the paged-KV scheduler on ragged prompts")
    parser.add_argument("--streams", type=int, default=64,
                        help="concurrent decode streams for --continuous")
    parser.add_argument("--max-new", type=int, default=8,
                        help="tokens generated per stream for --continuous")
    parser.add_argument("--quick", action="store_true",
                        help="tiny CI smoke: GPT-XS, few requests (~2s budget)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the result payload to this JSON file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.quick:
        args.model, args.requests, args.repeats = "GPT-XS", 16, 1
        args.streams = 16

    if args.continuous:
        return _bench_serve_continuous(args)

    model, make_requests = _build_serving_demo(args.model, args.seed)
    requests, _ = make_requests(args.requests)
    payload = measure_serving_speedup(
        model, requests,
        fmt=args.fmt, max_batch=args.max_batch, repeats=args.repeats,
    )
    payload["model"] = args.model
    print(f"naive per-request : {payload['naive_rps']:10.1f} req/s  "
          f"({payload['naive_quant_calls_per_request']:.1f} quantize calls/req)")
    print(f"batched session   : {payload['batched_rps']:10.1f} req/s  "
          f"({payload['batched_quant_calls_per_request']:.1f} quantize calls/req)")
    print(f"speedup           : {payload['speedup']:10.2f}x")
    decode = payload.get("decode", {})
    if decode:
        latency = decode.get("token_latency_ms", {})
        print(
            f"stream decode     : {decode.get('tokens_per_sec', 0.0):10.1f} tok/s  "
            f"(token p50={latency.get('p50', 0.0):.2f}ms "
            f"p99={latency.get('p99', 0.0):.2f}ms)"
        )
    taxonomy = {k: v for k, v in payload.get("reliability", {}).items() if v}
    if taxonomy:
        print("reliability       : "
              + "  ".join(f"{k}={v}" for k, v in sorted(taxonomy.items())))
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0


def _bench_serve_continuous(args) -> int:
    """The ``bench-serve --continuous`` headline: lockstep vs scheduler."""
    from .serve.bench import measure_continuous_speedup

    model, _ = _build_serving_demo(args.model, args.seed)
    payload = measure_continuous_speedup(
        model, fmt=args.fmt, streams=args.streams,
        max_new_tokens=args.max_new, repeats=args.repeats, seed=args.seed,
    )
    payload["model"] = args.model
    fallbacks = payload["lockstep_serial_fallbacks"]
    print(f"lockstep generate : {payload['lockstep_tokens_per_sec']:10.1f} tok/s  "
          f"({fallbacks} serial fallbacks)")
    print(f"continuous batch  : {payload['continuous_tokens_per_sec']:10.1f} tok/s  "
          f"({payload['streams']} streams, {payload['preempted']} preemptions)")
    print(f"speedup           : {payload['speedup']:10.2f}x")
    pool = payload["pool"]
    print(f"page pool         : {pool['pages_total']} pages x {pool['page_size']} "
          f"positions, high water {pool['high_water']}, "
          f"churn {pool['checkouts']} checkouts / {pool['releases']} releases")
    slo = payload["slo"]
    if slo.get("ttft_ms"):
        print(f"slo               : ttft p50={slo['ttft_ms']['p50']:.2f}ms "
              f"p99={slo['ttft_ms']['p99']:.2f}ms  "
              f"e2e p50={slo['e2e_ms']['p50']:.2f}ms "
              f"p99={slo['e2e_ms']['p99']:.2f}ms")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0


def _cmd_bench_decode(argv: list[str]) -> int:
    """Tokens/sec: full-prefix recompute vs KV-cached incremental decoding."""
    import numpy as np

    from .serve.bench import measure_decode_speedup

    parser = argparse.ArgumentParser(
        prog="repro bench-decode",
        description="Benchmark autoregressive decoding: the historical "
        "full-prefix recompute loop vs block-aligned quantized KV caches "
        "(GPT ladder greedy generation and seq2seq greedy decode).",
    )
    parser.add_argument("--model", default="GPT-S", help="GPT ladder member (default GPT-S)")
    parser.add_argument("--format", default="mx6", dest="fmt",
                        help="format spec (default mx6); 'fp32' decodes unquantized")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--prompt-len", type=int, default=64)
    parser.add_argument("--max-new", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; the best (max tok/s) is reported")
    parser.add_argument("--no-seq2seq", action="store_true",
                        help="skip the Seq2SeqTransformer measurement")
    parser.add_argument("--quick", action="store_true",
                        help="tiny CI smoke: GPT-XS, short prompts (~2s budget)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the result payloads to this JSON file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.quick:
        args.model, args.batch, args.prompt_len = "GPT-XS", 2, 16
        args.max_new, args.repeats = 8, 1

    fmt = None if args.fmt.strip().lower() == "fp32" else args.fmt
    model, _ = _build_serving_demo(args.model, args.seed)
    payloads = {}

    gpt = measure_decode_speedup(
        model, fmt=fmt, batch=args.batch, prompt_len=args.prompt_len,
        max_new_tokens=args.max_new, repeats=args.repeats, seed=args.seed,
    )
    payloads["gpt"] = gpt
    print(f"[{gpt['family']}] full recompute : {gpt['full_tokens_per_sec']:10.1f} tok/s  "
          f"({gpt['full_quant_calls_per_token']:.1f} quantize calls/tok)")
    print(f"[{gpt['family']}] KV-cached      : {gpt['cached_tokens_per_sec']:10.1f} tok/s  "
          f"({gpt['cached_quant_calls_per_token']:.1f} quantize calls/tok)")
    print(f"[{gpt['family']}] speedup        : {gpt['speedup']:10.2f}x")

    # the ragged-prompt observable: mixed-shape generate traffic degrades
    # the classic micro-batcher to serial singleton decodes; surface the
    # session counter that tracks it (decode.serial_fallbacks)
    from .serve import SessionConfig, compile_model

    rng = np.random.default_rng(args.seed)
    ragged = [
        {"task": "generate",
         "prompt": rng.integers(1, model.vocab_size, size=4 + 3 * i).tolist(),
         "max_new_tokens": 4}
        for i in range(4)
    ]
    cfg = SessionConfig(format=fmt, max_batch=len(ragged), max_wait=0.05)
    with compile_model(model, config=cfg).session(cfg) as session:
        session.map(ragged)
        fallbacks = session.summary().get("decode", {}).get("serial_fallbacks", 0)
    payloads["ragged"] = {"requests": len(ragged), "serial_fallbacks": fallbacks}
    print(f"[{gpt['family']}] ragged batch   : {fallbacks} serial fallbacks "
          f"over {len(ragged)} mixed-shape generate requests")

    if not args.no_seq2seq:
        from .models.translation import Seq2SeqTransformer

        seq2seq = Seq2SeqTransformer(vocab_size=24, rng=np.random.default_rng(args.seed))
        s2s = measure_decode_speedup(
            seq2seq, fmt=fmt, batch=args.batch,
            prompt_len=min(args.prompt_len, 16),
            max_new_tokens=min(args.max_new, 24),
            repeats=args.repeats, seed=args.seed,
        )
        payloads["seq2seq"] = s2s
        print(f"[{s2s['family']}] full recompute : {s2s['full_tokens_per_sec']:10.1f} tok/s")
        print(f"[{s2s['family']}] KV-cached      : {s2s['cached_tokens_per_sec']:10.1f} tok/s")
        print(f"[{s2s['family']}] speedup        : {s2s['speedup']:10.2f}x")

    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(payloads, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0


def _cmd_bench_forward(argv: list[str]) -> int:
    """Batched forward throughput: unfused vs fused schedule."""
    import numpy as np

    from .serve.bench import measure_forward_speedup

    parser = argparse.ArgumentParser(
        prog="repro bench-forward",
        description="Benchmark the batched scored-forward path: the "
        "unfused schedule (fusion_disabled(): per-consumer quantization, "
        "separate projections, Tensor-op attention) vs quantized "
        "activation residency + the fused projection/epilogue pipeline.",
    )
    parser.add_argument("--model", default="GPT-S", help="GPT ladder member (default GPT-S)")
    parser.add_argument("--format", default="mx6", dest="fmt")
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--repeats", type=int, default=8,
                        help="interleaved baseline/fused repeats; the "
                             "median per-repeat ratio is the speedup")
    parser.add_argument("--no-moe", action="store_true",
                        help="skip the MoE measurement")
    parser.add_argument("--quick", action="store_true",
                        help="tiny CI smoke: GPT-XS, few requests (~2s budget)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the result payloads to this JSON file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.quick:
        args.model, args.requests, args.repeats = "GPT-XS", 8, 2

    model, _ = _build_serving_demo(args.model, args.seed)
    payloads = {}

    def report(result):
        fam = result["family"]
        print(f"[{fam}] unfused        : {result['baseline_rps']:10.1f} req/s  "
              f"({result['baseline_quant_calls_per_request']:.1f} quantize calls/req)")
        print(f"[{fam}] fused/resident : {result['fused_rps']:10.1f} req/s  "
              f"({result['fused_quant_calls_per_request']:.1f} quantize calls/req)")
        print(f"[{fam}] speedup        : {result['speedup']:10.2f}x "
              f"(best-of {result['speedup_best']:.2f}x)")

    gpt = measure_forward_speedup(
        model, fmt=args.fmt, requests=args.requests,
        repeats=args.repeats, seed=args.seed,
    )
    payloads["gpt"] = gpt
    report(gpt)

    if not args.no_moe:
        from .data.synthetic import SyntheticLanguage
        from .models.gpt import GPT_SIZES
        from .models.moe import MoEGPT

        lang = SyntheticLanguage(seed=args.seed)
        key = args.model.upper() if "-" in args.model.upper() else args.model.upper().replace("GPT", "GPT-")
        moe = MoEGPT(lang.vocab_size, GPT_SIZES[key], rng=np.random.default_rng(args.seed))
        result = measure_forward_speedup(
            moe, fmt=args.fmt, requests=args.requests,
            repeats=args.repeats, seed=args.seed,
        )
        payloads["moe"] = result
        report(result)

    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(payloads, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0


def _cmd_experiment(argv: list[str]) -> int:
    from .experiments import list_experiments, run_experiment

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures from the MX shared-microexponents paper.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. figure7, table3) or 'list' to enumerate",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-scale run (default is the faster quick mode)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id in list_experiments():
            print(exp_id)
        return 0

    start = time.time()
    result = run_experiment(args.experiment, quick=not args.full, seed=args.seed)
    print(result)
    print(f"\n[{args.experiment} completed in {time.time() - start:.1f}s]")
    return 0


def _cmd_analyze(argv: list[str]) -> int:
    from pathlib import Path

    from .analysis import analyze_paths, create_rules, resolve_rules, rule_catalog
    from .analysis.baseline import load_baseline, write_baseline
    from .analysis.config import load_config
    from .analysis.reporting import render_json, render_text

    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Run the invariant static analyzer (see docs/ANALYSIS.md).",
    )
    parser.add_argument("paths", nargs="*", help="files/dirs to analyze "
                        "(default: the [tool.repro.analysis] paths)")
    parser.add_argument("--rule", action="append", default=None, metavar="ID",
                        help="run only this rule id or family (repeatable)")
    parser.add_argument("--baseline", action="store_true",
                        help="subtract the committed baseline before judging")
    parser.add_argument("--write-baseline", metavar="WHY", default=None,
                        help="accept all current findings into the baseline "
                        "file with WHY as the shared justification")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable report")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in rule_catalog().items():
            print(f"{rule_id:24s} [{cls.family}] {cls.description}")
        return 0

    config = load_config()
    rules = (
        resolve_rules(args.rule)
        if args.rule
        else create_rules(disable=config.disable)
    )
    paths = [Path(p) for p in args.paths] if args.paths else config.resolved_paths()
    result = analyze_paths(paths, rules=rules, root=config.root)

    baselined, stale = 0, []
    if args.baseline or args.write_baseline is not None:
        if args.write_baseline is not None:
            write_baseline(config.baseline_path, result.findings, args.write_baseline)
            print(f"wrote {len(result.findings)} entries to {config.baseline_path}")
            return 0
        if config.baseline_path.is_file():
            baseline = load_baseline(config.baseline_path)
            fresh, matched = baseline.apply(result.findings)
            baselined = len(result.findings) - len(fresh)
            stale = baseline.stale(matched)
            result.findings = fresh

    print(render_json(result, baselined, stale) if args.as_json
          else render_text(result, baselined, stale))
    return 0 if result.clean and not result.errors and not stale else 1


_COMMANDS = {
    "list-formats": _cmd_list_formats,
    "describe": _cmd_describe,
    "qsnr": _cmd_qsnr,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "bench-decode": _cmd_bench_decode,
    "bench-forward": _cmd_bench_forward,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        if command is not None:
            return command(argv[1:])
        return _cmd_experiment(argv)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
