"""The benchmark's workloads: seeded inputs, set-up, timed phases, checks.

Every workload drives the program through its public API only —
``compile_model``, ``InferenceSession.submit`` and ``run_sweep`` — and the
program sees only the generated inputs.  Rates, sizes and the page budget
are constants of the workload definition; ``--seconds`` scales how many
requests or passes a run measures.  The model weights are fixed
(``MODEL_SEED``); the workload seed varies only the traffic.

Each workload's ``check`` runs after the timed phases and outside
``setup_s``.  It returns ``(failures, values)``: ``failures`` lists every
broken correctness property, and ``values`` the measured agreement figures.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.fidelity
import repro.kernels
import repro.serve
from repro.fidelity.qsnr import clear_ensemble_cache
from repro.nn.residency import fusion_disabled
from repro.nn.tensor import no_grad

from . import loadgen

#: Weights are part of the system under test: fixed across seeds.
MODEL_SEED = 0
MODEL = "GPT-S"
FORMAT = "mx6"
#: A phase whose futures are not all done after this many seconds fails.
PHASE_TIMEOUT_S = 120.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1])


def streams(seed: int, workload: str):
    """Independent seeded generators, one per purpose, for one workload."""
    base = np.random.SeedSequence([seed, sum(map(ord, workload))])
    names = ("warmup", "burst", "paced", "schedule", "oracle")
    return dict(zip(names, (np.random.default_rng(s) for s in base.spawn(len(names)))))


def stratified(rng, n: int, dims: int) -> np.ndarray:
    """``n`` x ``dims`` quantiles in [0, 1), a Latin hypercube: each column
    holds one value in each of ``n`` equal strata, in a seeded order.
    Request lengths drawn from them have almost the same mix in every
    phase of every seed, so what a phase costs varies little with the
    seed while the tokens and the order still do."""
    order = np.argsort(rng.random((dims, n)), axis=1).T
    return (order + rng.random((n, dims))) / n


def pick(u: float, lo: int, hi: int) -> int:
    """The integer in ``[lo, hi]`` at quantile ``u`` of the uniform distribution."""
    return lo + int(u * (hi - lo + 1))


def build_model():
    """The served model: GPT-S over the synthetic language's vocabulary."""
    from repro.data.synthetic import SyntheticLanguage
    from repro.models.gpt import GPT, GPT_SIZES

    vocab = SyntheticLanguage(seed=MODEL_SEED).vocab_size
    return GPT(vocab, GPT_SIZES[MODEL], rng=np.random.default_rng(MODEL_SEED))


@dataclass
class Outcome:
    """What the timed phases produced (plus the traced-run extras)."""

    phases: list
    requests: list
    results: list
    latency_ms: list = field(default_factory=list)
    baseline_wall_s: float | None = None  # untraced twin of the traced work
    traced_wall_s: float | None = None
    session: object = None
    expected_completed: int = 0
    ops: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(result is None for result in self.results)


# ----------------------------------------------------------------------
# Shared serving phases (score and generate)
# ----------------------------------------------------------------------
class ServingWorkload:
    """Rounds of a burst then an open loop against a ``workers=1`` session."""

    name = ""
    RATE = 0.0  # paced phase, requests per second
    #: each round is a closed burst of BURST_REQUESTS, then one segment of
    #: the open loop; capacity is the median burst rate.  Interleaved, the
    #: bursts span the run, so a slow spell of the machine moves one of
    #: them rather than all.
    ROUNDS = 4
    BURST_REQUESTS = 128
    #: nearest-rank p99 of n samples leaves n - ceil(0.99 n) beyond it;
    #: 1000 samples leave ten
    MIN_PACED = 1000
    WARMUP = 16
    LENGTHS = 0  # quantiles make_request takes, one per drawn length

    def config(self):
        raise NotImplementedError

    def make_request(self, rng, vocab: int, u):
        """One request whose lengths sit at the quantiles ``u``."""
        raise NotImplementedError

    def make_requests(self, rng, vocab: int, n: int) -> list:
        """``n`` requests with stratified lengths (see ``stratified``)."""
        return [self.make_request(rng, vocab, u) for u in stratified(rng, n, self.LENGTHS)]

    def setup(self, seed: int) -> dict:
        config = self.config()
        compiled = repro.serve.compile_model(build_model(), FORMAT, config=config)
        session = compiled.session(config)
        rng = streams(seed, self.name)["warmup"]
        vocab = compiled.model.vocab_size
        session.map(self.make_requests(rng, vocab, self.WARMUP))
        return {"compiled": compiled, "session": session, "config": config,
                "warmed": self.WARMUP}

    def teardown(self, ctx: dict) -> None:
        ctx["session"].close()

    def inputs(self, ctx: dict, seed: int, seconds: float) -> dict:
        rngs = streams(seed, self.name)
        vocab = ctx["compiled"].model.vocab_size
        n_paced = max(self.MIN_PACED, round(self.RATE * seconds))
        rounds = []
        for k in range(self.ROUNDS):
            n = n_paced // self.ROUNDS + (k < n_paced % self.ROUNDS)
            rounds.append((
                self.make_requests(rngs["burst"], vocab, self.BURST_REQUESTS),
                self.make_requests(rngs["paced"], vocab, n),
                loadgen.poisson_offsets(rngs["schedule"], self.RATE, n),
            ))
        return {"rounds": rounds, "oracle_rng": rngs["oracle"]}

    def run(self, ctx: dict, inputs: dict, tracer=None) -> Outcome:
        session = ctx["session"]
        baseline = None
        if tracer is not None:
            # the traced phases run on a fresh session, so their summary
            # stands alone; trace.overhead compares the first traced burst
            # with the faster of two untraced twins, each on a fresh session
            session.close()
            baseline = min(self._twin_burst(ctx, inputs["rounds"][0][0]) for _ in range(2))
            session = ctx["session"] = ctx["compiled"].session(ctx["config"])
            ctx["warmed"] = 0
        phases = []
        with tracer or contextlib.nullcontext():
            for burst, paced, offsets in inputs["rounds"]:
                phases.append(loadgen.burst(session, burst, PHASE_TIMEOUT_S))
                phases.append(loadgen.open_loop(session, paced, offsets, PHASE_TIMEOUT_S))
        requests = [r for burst, paced, _ in inputs["rounds"] for r in burst + paced]
        return Outcome(
            phases=phases,
            requests=requests,
            results=[r for phase in phases for r in phase.results],
            latency_ms=[ms for phase in phases for ms in phase.latency_ms],
            baseline_wall_s=baseline,
            traced_wall_s=phases[0].wall_s if tracer is not None else None,
            session=session,
            expected_completed=ctx["warmed"] + len(requests),
            ops=sum(phase.succeeded for phase in phases),
        )

    @staticmethod
    def _twin_burst(ctx: dict, requests: list) -> float:
        with ctx["compiled"].session(ctx["config"]) as session:
            return loadgen.burst(session, requests, PHASE_TIMEOUT_S).wall_s

    def end_to_end(self, outcome: Outcome, values: dict) -> dict:
        bursts = [phase for phase in outcome.phases if phase.name == "burst"]
        return {
            "capacity_rps": statistics.median(b.succeeded / b.wall_s for b in bursts),
            "p50_ms": percentile(outcome.latency_ms, 50),
            "p99_ms": percentile(outcome.latency_ms, 99),
            "choice_agree": values["choice_agree"],
        }


def failed_requests(outcome: Outcome) -> list[str]:
    if not outcome.failed:
        return []
    errors = [e for phase in outcome.phases for e in phase.errors]
    return [f"{outcome.failed} of {outcome.attempted} requests failed: {errors[:3]}"]


# ----------------------------------------------------------------------
# score
# ----------------------------------------------------------------------
class Score(ServingWorkload):
    """Ragged likelihood scoring through the classic micro-batcher."""

    name = "score"
    why = ("ragged scoring through the micro-batcher: batching, adapter "
           "collation and the fused forward; KV caches and scheduler idle")
    MAX_BATCH = 16
    MAX_WAIT_S = 0.002
    CONTEXT_TOKENS = (4, 80)
    CANDIDATES = (2, 4)
    CANDIDATE_TOKENS = (1, 8)
    LENGTHS = 2 + CANDIDATES[1]  # context, candidate count, each candidate
    RATE = 40.0
    WARMUP = 32
    #: served choices must agree with solo scoring at least this often
    #: (padding flips 0 to 2 choices in a run of ~1,500 requests)
    MIN_CHOICE_AGREE = 0.995
    #: largest |batched - solo| score allowed, in nats.  Batched scoring
    #: drifts from solo by up to ~0.2 nats on mx6 (the padding defect in
    #: perfbench/README.md); a result routed to the wrong request differs
    #: by more.
    DRIFT_TOLERANCE = 0.5
    ORACLE_BATCHES = 3
    ORACLE_BATCH_SIZE = 8

    def config(self):
        return repro.serve.SessionConfig(
            format=FORMAT, max_batch=self.MAX_BATCH, max_wait=self.MAX_WAIT_S, workers=1
        )

    def make_request(self, rng, vocab: int, u):
        context = rng.integers(1, vocab, size=pick(u[0], *self.CONTEXT_TOKENS))
        n = pick(u[1], *self.CANDIDATES)
        candidates = [
            rng.integers(1, vocab, size=pick(q, *self.CANDIDATE_TOKENS)) for q in u[2 : 2 + n]
        ]
        return repro.serve.Request("score", {"context": context, "candidates": candidates})

    def check(self, ctx: dict, outcome: Outcome, oracle_rng) -> tuple[list, dict]:
        return check_score(ctx["compiled"], outcome.requests, outcome.results, oracle_rng)


def _well_formed_score(request, result) -> bool:
    if not isinstance(result, dict) or set(result) - {"choice", "scores", "served_format"}:
        return False
    scores = result.get("scores")
    n = len(request.payload["candidates"])
    if not isinstance(scores, list) or len(scores) != n:
        return False
    if not all(isinstance(s, float) and math.isfinite(s) for s in scores):
        return False
    return result.get("choice") == int(np.argmax(scores))


def check_score(compiled, requests, results, oracle_rng) -> tuple[list, dict]:
    """Score correctness: well formed, close to solo, oracle-exact batches.

    Batched scores are *not* gated on bitwise equality with solo scoring:
    right-padding perturbs them (perfbench/README.md).  They must stay
    within ``DRIFT_TOLERANCE`` of solo and agree on the choice at least
    ``MIN_CHOICE_AGREE`` of the time; seeded fixed batches must match the
    oracle stack (reference kernels, fusion off) bit for bit.
    """
    failures: list[str] = []
    served = [(q, r) for q, r in zip(requests, results) if r is not None]
    malformed = [i for i, (q, r) in enumerate(served) if not _well_formed_score(q, r)]
    if malformed:
        failures.append(f"{len(malformed)} malformed score results (first: {malformed[:5]})")
    drifts, agree = [], 0
    for i, (request, result) in enumerate(served):
        if i in malformed:
            drifts.append(math.inf)
            continue
        solo = compiled.run([request])[0]
        drifts.append(max(abs(a - b) for a, b in zip(result["scores"], solo["scores"])))
        agree += result["choice"] == solo["choice"]
    n = max(len(served), 1)
    values = {
        "choice_agree": agree / n,
        "drift_share": sum(d > 0 for d in drifts) / n,
        "drift_max": max(drifts, default=0.0),
    }
    if values["drift_max"] > Score.DRIFT_TOLERANCE:
        far = sum(d > Score.DRIFT_TOLERANCE for d in drifts)
        failures.append(
            f"{far} results differ from solo scoring by more than "
            f"{Score.DRIFT_TOLERANCE} nats (max {values['drift_max']:.4g})"
        )
    if values["choice_agree"] < Score.MIN_CHOICE_AGREE:
        failures.append(
            f"choice_agree {values['choice_agree']:.4f} < {Score.MIN_CHOICE_AGREE}"
        )
    size = Score.ORACLE_BATCHES * Score.ORACLE_BATCH_SIZE
    picks = oracle_rng.choice(len(requests), size=min(size, len(requests)), replace=False)
    batches = [
        [requests[i] for i in picks[k : k + Score.ORACLE_BATCH_SIZE]]
        for k in range(0, len(picks), Score.ORACLE_BATCH_SIZE)
    ]
    fast = [compiled.run(batch) for batch in batches]
    with repro.kernels.use_backend("reference"), fusion_disabled():
        oracle = [compiled.run(batch) for batch in batches]
    for k, (got, want) in enumerate(zip(fast, oracle)):
        if [r["scores"] for r in got] != [r["scores"] for r in want]:
            failures.append(f"oracle batch {k}: fast path differs from the oracle stack")
    return failures, values


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------
class Generate(ServingWorkload):
    """Ragged greedy generation through the continuous scheduler."""

    name = "generate"
    why = ("ragged greedy decode through the continuous scheduler: admission, "
           "fused ragged steps and the paged KV pool; scoring idle")
    MAX_STREAMS = 32
    #: below the burst's unconstrained demand (~240 pages), above the paced
    #: phase's: the bursts preempt and recompute, the paced phase grows
    PAGE_BUDGET = 208
    PROMPT_TOKENS = (4, 80)
    NEW_TOKENS = (4, 16)
    MAX_TOTAL = 96  # GPT-S window: every request is scheduler-eligible
    LENGTHS = 2  # prompt, new tokens
    #: the decode thread is ~60% busy at 30 req/s and ~80% at 40, where a
    #: few percent of machine speed moved p50 by a fifth
    RATE = 30.0
    #: one burst's rate differs from the next by ~11% (sd within a run),
    #: so the median is taken over more bursts than score's
    ROUNDS = 6
    BURST_REQUESTS = 96
    ORACLE_SEQUENCES = 3

    def config(self):
        return repro.serve.SessionConfig(
            format=FORMAT, workers=1,
            scheduler={"max_streams": self.MAX_STREAMS, "page_budget": self.PAGE_BUDGET},
        )

    def make_request(self, rng, vocab: int, u):
        prompt = rng.integers(1, vocab, size=pick(u[0], *self.PROMPT_TOKENS))
        new = min(pick(u[1], *self.NEW_TOKENS), self.MAX_TOTAL - len(prompt))
        return repro.serve.Request("generate", {"prompt": prompt, "max_new_tokens": new})

    def run(self, ctx: dict, inputs: dict, tracer=None) -> Outcome:
        outcome = super().run(ctx, inputs, tracer)
        outcome.ops = sum(len(r["tokens"]) for r in outcome.results if r is not None)
        outcome.extra["sched"] = outcome.session.summary()["sched"]
        outcome.extra["tokens_per_s"] = statistics.median(
            sum(len(r["tokens"]) for r in burst.results if r is not None) / burst.wall_s
            for burst in outcome.phases if burst.name == "burst"
        )
        return outcome

    def check(self, ctx: dict, outcome: Outcome, oracle_rng) -> tuple[list, dict]:
        return check_generate(
            ctx["compiled"], outcome.session, outcome.requests, outcome.results,
            outcome.expected_completed, oracle_rng,
        )


#: serial decodes are checked in this many fresh interpreters
TRUTH_WORKERS = 2
#: a truth worker still running after this many seconds is killed
TRUTH_TIMEOUT_S = 120.0
ROOT = Path(__file__).resolve().parent.parent


def truth_worker() -> None:
    """One fresh interpreter's share of ``serial_decodes``: reads
    ``[[prompt, max_new_tokens], ...]`` as JSON on stdin and writes each
    serial decode, a list of token ids, as JSON on stdout."""
    compiled = repro.serve.compile_model(build_model(), FORMAT)
    jobs = json.load(sys.stdin)
    decodes = [[int(t) for t in compiled.stream(np.asarray(prompt, dtype=np.int64), max_new)]
               for prompt, max_new in jobs]
    json.dump(decodes, sys.stdout)


def serial_decodes(payloads: list) -> list[list[int]]:
    """Each payload's serial ``generate_stream`` decode (the oracle of the
    scheduler), computed by fresh interpreters that rebuild the same
    compiled model.  Plain subprocesses, not ``multiprocessing``, whose
    helper process outlives the benchmark; every worker is killed if still
    running and waited for before this returns or raises."""
    jobs = [(np.asarray(p["prompt"]).tolist(), int(p["max_new_tokens"])) for p in payloads]
    shares = [jobs[k::TRUTH_WORKERS] for k in range(TRUTH_WORKERS)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    workers: list[subprocess.Popen] = []
    try:
        for _ in shares:
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "perfbench.workloads"], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            ))
        with ThreadPoolExecutor(len(workers)) as pool:
            outputs = list(pool.map(
                lambda worker, share: worker.communicate(json.dumps(share), TRUTH_TIMEOUT_S),
                workers, shares,
            ))
    finally:
        for worker in workers:
            worker.kill()  # no-op once it has exited and been reaped
            worker.wait()
    decodes: list = [None] * len(jobs)
    for k, (worker, (out, err)) in enumerate(zip(workers, outputs)):
        if worker.returncode != 0:
            raise RuntimeError(f"truth worker exited {worker.returncode}: {err.strip()[-500:]}")
        decodes[k::TRUTH_WORKERS] = json.loads(out)
    return decodes


def decode_logits(model, window: np.ndarray, start: int) -> list[np.ndarray]:
    """Next-token logits at each position from ``start`` on, cached decode."""
    state = model.init_decode_state(batch=1)
    with no_grad():
        return [
            model.forward_step(window[None, :n], state).data[0, -1].copy()
            for n in range(start, len(window))
        ]


def oracle_logits(model, window: np.ndarray, start: int) -> list[np.ndarray]:
    """The same logits from full recompute on the reference kernels, unfused."""
    with repro.kernels.use_backend("reference"), fusion_disabled(), no_grad():
        return [
            model.forward(window[None, :n]).data[0, -1].copy()
            for n in range(start, len(window))
        ]


def check_generate(compiled, session, requests, results, expected_completed,
                   oracle_rng) -> tuple[list, dict]:
    """Generate correctness: every sequence equals its serial decode.

    Also: the scheduler served every request, the pool drained, and a
    seeded sample's cached-decode logits equal full recompute on the
    oracle stack bit for bit (with the oracle's argmax equal to the served
    token).
    """
    failures: list[str] = []
    served = [(q, r) for q, r in zip(requests, results) if r is not None]
    truths = serial_decodes([q.payload for q, _ in served])
    agree = sum(
        isinstance(r, dict) and r.get("tokens") == truth for (_, r), truth in zip(served, truths)
    )
    if agree != len(served):
        failures.append(f"{len(served) - agree} of {len(served)} sequences differ from serial decode")
    summary = session.summary()
    completed = summary.get("sched", {}).get("completed")
    if completed != expected_completed:
        failures.append(f"scheduler completed {completed}, expected {expected_completed}")
    pages = session.health()["kv"].get("pages_used")
    if pages != 0:
        failures.append(f"{pages} KV pages still in use after the drain")
    model = compiled.model
    picks = oracle_rng.choice(len(requests), size=min(Generate.ORACLE_SEQUENCES, len(requests)),
                              replace=False)
    for i in picks:
        if results[i] is None:
            continue
        prompt = np.asarray(requests[i].payload["prompt"], dtype=np.int64)
        window = np.concatenate([prompt, np.asarray(results[i]["tokens"], dtype=np.int64)])
        fast = decode_logits(model, window, len(prompt))
        oracle = oracle_logits(model, window, len(prompt))
        if any(not np.array_equal(a, b) for a, b in zip(fast, oracle)):
            failures.append(f"request {i}: cached decode logits differ from the oracle stack")
        if [int(np.argmax(row)) for row in oracle] != window[len(prompt):].tolist():
            failures.append(f"request {i}: served tokens differ from the oracle stack")
    return failures, {"choice_agree": agree / max(len(served), 1)}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class Sweep:
    """The Figure-7 design-space sweep, point by point through run_sweep."""

    name = "sweep"
    why = ("the Figure-7 design-space sweep: large-shape quantize over every "
           "format family, sampling and the cost model; no serving code")
    #: seconds one pass over the 293 design points takes (sizes the run)
    PASS_SECONDS = 2.5
    WARMUP_POINTS = 4
    ORACLE_POINTS = 6
    #: run_sweep's ensemble geometry: vectors per quantize chunk, length
    CHUNK_ROWS = 256
    LENGTH = 256

    def setup(self, seed: int) -> dict:
        from repro.spec import parse_spec, render_spec

        # (kind, config or canonical spec string, display label)
        points = [("config", config, config.label)
                  for config in repro.fidelity.bdr_design_space()]
        points += [
            ("format", render_spec(parse_spec(fmt)), fmt.name)
            for fmt in repro.fidelity.named_design_points()
        ]
        rng = streams(seed, self.name)["warmup"]
        warm = rng.choice(len(points), size=self.WARMUP_POINTS, replace=False)
        distribution = repro.fidelity.list_distributions()[0]
        for i in warm:
            evaluate_point(points[i], distribution, int(rng.integers(2**31)))
        return {"points": points}

    def teardown(self, ctx: dict) -> None:
        pass

    def inputs(self, ctx: dict, seed: int, seconds: float) -> dict:
        rngs = streams(seed, self.name)
        distributions = repro.fidelity.list_distributions()
        cycles = max(1, round(seconds / (self.PASS_SECONDS * len(distributions))))
        # a fresh (distribution, seed) per pass: the ensemble memo samples
        # once per pass and never turns the sweep into a cache-hit loop.
        # Every distribution gets the same number of passes (their costs
        # differ), in an order rotated by the seed.
        passes = [
            (distributions[(seed + p) % len(distributions)], int(rngs["schedule"].integers(2**31)))
            for p in range(cycles * len(distributions))
        ]
        return {"passes": passes, "oracle_rng": rngs["oracle"]}

    def run(self, ctx: dict, inputs: dict, tracer=None) -> Outcome:
        points = ctx["points"]
        passes = inputs["passes"]
        baseline = None
        if tracer is not None:
            # untraced twin of the first traced pass (trace.overhead; the
            # faster of two, as the traced pass runs warm); the memo is
            # cleared each time so every pass samples its ensemble
            baseline = min(self._twin_pass(points, passes[0]) for _ in range(2))
            clear_ensemble_cache()
        with tracer or contextlib.nullcontext():
            requests, results, latency, errors, pass_walls = self._sweep(points, passes)
        phase = loadgen.Phase("sweep", results, sum(pass_walls), latency_ms=latency,
                              errors=errors)
        return Outcome(
            phases=[phase], requests=requests, results=results, latency_ms=latency,
            baseline_wall_s=baseline,
            traced_wall_s=pass_walls[0] if tracer is not None else None,
            ops=len(results), extra={"pass_walls": pass_walls},
        )

    def _twin_pass(self, points, first_pass) -> float:
        clear_ensemble_cache()
        return self._sweep(points, [first_pass])[4][0]

    @staticmethod
    def _sweep(points, passes):
        requests, results, latency, errors, pass_walls = [], [], [], [], []
        for distribution, seed in passes:
            start = time.perf_counter()
            for point in points:
                requests.append((point, distribution, seed))
                began = time.perf_counter()
                try:
                    result = evaluate_point(point, distribution, seed)
                # one failing design point must not end the sweep: it is
                # recorded as failed and the pass goes on
                except Exception as error:
                    errors.append(f"{point[2]}: {type(error).__name__}: {error}")
                    results.append(None)
                    continue
                latency.append((time.perf_counter() - began) * 1e3)
                results.append(result)
            pass_walls.append(time.perf_counter() - start)
        return requests, results, latency, errors, pass_walls

    def end_to_end(self, outcome: Outcome, values: dict) -> dict:
        sweep = outcome.phases[0]
        return {
            "capacity_rps": sweep.succeeded / sweep.wall_s,
            "p50_ms": percentile(outcome.latency_ms, 50),
            "p99_ms": percentile(outcome.latency_ms, 99),
            "choice_agree": values["choice_agree"],
        }

    def check(self, ctx: dict, outcome: Outcome, oracle_rng) -> tuple[list, dict]:
        return check_sweep(outcome.requests, outcome.results, oracle_rng)


def evaluate_point(point, distribution: str, seed: int):
    """One design point through the public sweep entry point."""
    kind, value, _ = point
    if kind == "config":
        return repro.fidelity.run_sweep(
            configs=[value], include_named=False, distribution=distribution, seed=seed
        )[0]
    return repro.fidelity.run_sweep(
        configs=[], include_named=False, formats=[value], distribution=distribution, seed=seed
    )[0]


def _finite_point(point) -> bool:
    numbers = (point.qsnr_db, point.normalized_area, point.memory, point.cost,
               point.bits_per_element)
    return all(math.isfinite(x) for x in numbers)


def point_format(point):
    """The format object a design point quantizes with (a fresh instance:
    delayed-scaling formats carry state)."""
    from repro.formats.bdr_format import BDRFormat
    from repro.spec import as_format

    kind, value, _ = point
    return BDRFormat(value) if kind == "config" else as_format(value)


def check_sweep(requests, results, oracle_rng) -> tuple[list, dict]:
    """Sweep correctness: finite points; a seeded sample re-evaluated on the
    fast path and on the reference kernels equals the served point.

    QSNR sums squared errors over half a million elements, which can absorb
    a one-ulp kernel error, so each sampled point's quantized ensemble
    chunk is also compared with the reference kernels bit for bit.
    """
    failures: list[str] = []
    bad = [i for i, r in enumerate(results) if r is not None and not _finite_point(r)]
    if bad:
        failures.append(f"{len(bad)} design points are not finite (first: {bad[:5]})")
    served = [i for i, r in enumerate(results) if r is not None]
    picks = oracle_rng.choice(served, size=min(Sweep.ORACLE_POINTS, len(served)), replace=False)
    agree = 0
    for i in picks:
        point, distribution, seed = requests[i]
        fast = evaluate_point(point, distribution, seed)
        with repro.kernels.use_backend("reference"):
            oracle = evaluate_point(point, distribution, seed)
        if fast != results[i]:
            failures.append(f"point {i} ({point[2]}): re-evaluation differs from the served point")
        if oracle != results[i]:
            failures.append(f"point {i} ({point[2]}): reference kernels differ from the served point")
        else:
            agree += 1
        chunk = repro.fidelity.sample(distribution, np.random.default_rng(seed),
                                      Sweep.CHUNK_ROWS, Sweep.LENGTH)
        fast = point_format(point).quantize(chunk, axis=-1)
        with repro.kernels.use_backend("reference"):
            oracle = point_format(point).quantize(chunk, axis=-1)
        if not np.array_equal(fast, oracle):
            failures.append(f"point {i} ({point[2]}): quantized ensemble differs from reference")
    return failures, {"choice_agree": agree / max(len(picks), 1)}


WORKLOADS = {w.name: w for w in (Score(), Generate(), Sweep())}


if __name__ == "__main__":
    truth_worker()
