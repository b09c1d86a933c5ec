"""Token-granularity continuous batching over a paged KV pool.

The classic micro-batcher (:class:`~repro.serve.session.InferenceSession`
workers) executes whole requests: a ``generate`` request occupies its
worker until the last token, equal-shape prompts ride in lockstep, and
ragged prompts silently degrade to serial decode.  The
:class:`ContinuousScheduler` replaces that for ``generate`` traffic:
requests join and leave one running decode batch *between steps*, so a
short completion never waits behind a long one and ragged prompts batch
from the first token.

Design (vLLM-style, adapted to BDR block structure):

* **Memory** comes from one :class:`~repro.serve.sched.pages.PagePool`
  whose page equals the format's level-1 block — each stream's
  :class:`~repro.nn.decode.PagedKVCache` maps sealed blocks to frozen
  pages and keeps one open tail page per layer.
* **Admission** is FCFS over arrival with starvation-proof aging: a
  younger request may jump a waiter blocked on pool headroom only while
  the waiter is younger than ``starvation_age_s``; past that, admission
  stalls behind it.  ``max_waiting`` bounds the queue with the session's
  shed policy.
* **Preemption** is recompute-based and copy-free: a victim (youngest
  admitted first) releases every page and keeps only its token window;
  on re-admission the window re-prefills through the same sealed-block
  quantization path, so greedy decode resumes bit-identically.
* **Stepping** uses the fused ragged batch step
  (:func:`~repro.nn.decode.batched_causal_decode_step`) when
  :func:`~repro.nn.decode.supports_batched_decode` certifies it
  bit-identical, and per-stream cached decode otherwise.  Either way,
  every stream's output is exactly its serial ``generate`` output.
* **Reliability** reuses the PR 6 vocabulary: per-request deadlines are
  enforced while waiting and between tokens; fault sites ``sched.admit``
  and ``sched.preempt`` inject errors/transients/latency (an injected
  admit error fails that request; a transient admit fault retries next
  tick, or fails the waiter with ``SessionClosed`` once the scheduler is
  closing; a preempt fault aborts the preemption attempt for the tick);
  all futures resolve through the session's exactly-once helpers.

One decode thread owns all scheduler state except the waiting queue
(guarded by the scheduler condition) and the page pool (its own lock), so
the session's lock is never held together with the scheduler's.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ...nn.decode import (
    batched_causal_decode_step,
    causal_decode_step,
    init_paged_decode_state,
    supports_batched_decode,
    supports_cached_decode,
)
from ...nn.tensor import no_grad
from ...spec.serving import SchedulerConfig
from ..faults import (
    DeadlineExceeded,
    InjectedFault,
    QueueFull,
    RequestShed,
    SessionClosed,
    TransientFault,
    fault_point,
)
from ..metrics import percentile
from .pages import PagePool, PoolExhausted

__all__ = ["ContinuousScheduler"]


class _Stream:
    """One request's decode stream: token window + paged cache state."""

    __slots__ = (
        "job", "window", "n", "n_prompt", "max_new", "eos", "owner",
        "arrival", "state", "started", "preemptions", "first_token_t",
        "last_token_t",
    )

    def __init__(self, job, prompt: np.ndarray, max_new: int, eos, owner: str):
        self.job = job
        self.window = np.empty(len(prompt) + max_new, dtype=np.int64)
        self.window[: len(prompt)] = prompt
        self.n = len(prompt)
        self.n_prompt = len(prompt)
        self.max_new = max_new
        self.eos = eos
        self.owner = owner
        self.arrival = job.enqueued
        self.state = None  # DecodeState while admitted; None when swapped out
        self.started = False
        self.preemptions = 0
        self.first_token_t = None
        self.last_token_t = 0.0

    def window_view(self) -> np.ndarray:
        return self.window[: self.n]

    def append(self, token: int) -> None:
        self.window[self.n] = token
        self.n += 1

    @property
    def produced(self) -> list[int]:
        return [int(t) for t in self.window[self.n_prompt : self.n]]


class ContinuousScheduler:
    """Continuous-batching decode loop attached to an InferenceSession.

    Constructed by the session when its config carries a ``scheduler``
    payload; ``generate`` requests the scheduler :meth:`accepts` route
    here instead of the worker queue.  Always serves full fidelity (the
    compiled model itself — degradation ladders stay on the batch path).
    """

    def __init__(self, session, config: SchedulerConfig):
        self.session = session
        self.scfg = config
        self.model = session.compiled.model
        self.metrics = session.metrics
        model = self.model
        blocks = getattr(model, "blocks", None)
        model_cfg = getattr(model, "config", None)
        if not blocks or model_cfg is None or not all(
            hasattr(block, "attn") for block in blocks
        ):
            raise ValueError(
                "continuous batching needs a causal LM exposing config and "
                "attention-bearing blocks"
            )
        if not supports_cached_decode(model):
            raise ValueError(
                "continuous batching requires bit-identical cached decode "
                "(stateless formats with deterministic rounding); this "
                "model/format combination cannot page its KV state"
            )
        k1s = set()
        for block in blocks:
            spec = block.attn.quant
            fmt = spec.activation if spec is not None else None
            k1 = fmt.block_size() if fmt is not None else 1
            if k1 > 1:  # supports_cached_decode refused unknown sizes
                k1s.add(k1)
        if len(k1s) > 1:
            raise ValueError(
                f"attention layers disagree on k1 block size {sorted(k1s)}; "
                "one page size cannot hold exactly one sealed block for all"
            )
        # a page holds exactly one sealed k1 block; 16 for unquantized attention
        page_size = k1s.pop() if k1s else 16
        head_dim = model_cfg.dim // model_cfg.num_heads
        self._pages_per_position_unit = len(blocks)  # pages grow per layer
        per_stream = len(blocks) * (-(-model_cfg.max_len // page_size))
        total_pages = config.page_budget or config.max_streams * per_stream
        self.pool = PagePool(model_cfg.num_heads, head_dim, page_size, total_pages)
        with no_grad():
            self._fused = supports_batched_decode(model)

        self._cv = threading.Condition()
        self._waiting: deque[_Stream] = deque()  # kept sorted by arrival
        self._active: list[_Stream] = []  # admission order; decode-thread-only
        self._closing = False
        self._closed = False
        self._seq = 0
        # decode-thread-only counters (reads from other threads are
        # snapshots, racy but internally consistent per key)
        self._counters = {
            "admitted": 0,
            "completed": 0,
            "preempted": 0,
            "resumed": 0,
            "serial_steps": 0,
            "admit_faults": 0,
            "preempt_faults": 0,
        }
        self._ttft: list[float] = []
        self._e2e: list[float] = []
        self.metrics.register_section("sched", self._section)
        self._thread = threading.Thread(
            target=self._loop, name="serve-sched", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Submission (caller threads)
    # ------------------------------------------------------------------
    def accepts(self, payload: dict) -> bool:
        """Whether this ``generate`` payload can run as a paged stream.

        Prompts needing the sliding-window fallback (prompt + budget
        beyond the model window) stay on the classic path: window shifts
        change absolute positions for every cached entry, which pages
        cannot express without a wholesale rebuild.  So do budgets below
        one token: a stream's window has room for its budget only, and the
        classic path already answers them with no tokens.
        """
        prompt = payload.get("prompt")
        if prompt is None:
            return False
        prompt = np.asarray(prompt)
        if prompt.ndim != 1 or prompt.shape[0] == 0:
            return False
        max_new = int(payload.get("max_new_tokens", 16))
        return max_new >= 1 and prompt.shape[0] + max_new <= self.model.config.max_len

    def submit(self, job) -> None:
        """Enqueue an admitted-by-the-session job as a decode stream."""
        payload = job.request.payload
        prompt = np.asarray(payload["prompt"], dtype=np.int64)
        max_new = int(payload.get("max_new_tokens", 16))
        eos = payload.get("eos")
        shed = None
        with self._cv:
            if self._closing:
                raise SessionClosed("session is closed")
            cap = self.scfg.max_waiting
            if cap and len(self._waiting) >= cap:
                if self.session.config.shed_policy == "reject":
                    self.metrics.record_event("sheds")
                    raise QueueFull(
                        f"scheduler queue full ({cap} waiting); request rejected"
                    )
                shed = self._waiting.popleft()
            entry = _Stream(job, prompt, max_new, eos, f"s{self._seq}")
            self._seq += 1
            self._insert_waiting_locked(entry)
            self._cv.notify_all()
        if shed is not None:
            self.session._fail_job(
                shed.job,
                RequestShed("shed by drop-oldest admission (scheduler queue full)"),
                event="sheds",
            )

    def _insert_waiting_locked(self, entry: _Stream) -> None:
        """Insert by arrival time (preempted streams re-enter in order).

        Caller holds ``self._cv``.
        """
        pos = len(self._waiting)
        for i, current in enumerate(self._waiting):
            if current.arrival > entry.arrival:
                pos = i
                break
        self._waiting.insert(pos, entry)

    def _remove_waiting(self, entry: _Stream) -> bool:
        with self._cv:
            try:
                self._waiting.remove(entry)
                return True
            except ValueError:
                return False

    # ------------------------------------------------------------------
    # Decode loop (single thread owns _active and all stream state)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cv:
                if self._closing and not self._waiting and not self._active:
                    break
                if not self._active and not self._waiting:
                    self._cv.wait(timeout=0.05)
                    continue
            try:
                self._admit_ready()
                if not self._active:
                    # every waiter is blocked (headroom or injected
                    # faults); tick briefly so aging/deadlines advance
                    with self._cv:
                        if not self._waiting and not self._closing:
                            continue
                        self._cv.wait(timeout=0.002)
                    continue
                self._step()
            # repro: allow(broad-except): a scheduler bug must fail requests, never strand them on futures no thread will ever resolve
            except Exception as error:
                for entry in list(self._active):
                    self._fail_entry(entry, error)

    def _pages_for_first_step(self, entry: _Stream) -> int:
        per_layer = -(-entry.n // self.pool.page_size)
        return self._pages_per_position_unit * per_layer

    def _admit_ready(self) -> None:
        """Admit waiters while concurrency and pool headroom allow.

        Scans in arrival order.  A waiter blocked on headroom may be
        jumped only while younger than the aging threshold — an aged
        blocked waiter halts the scan, so it can never starve behind a
        stream of younger, smaller requests.
        """
        while len(self._active) < self.scfg.max_streams:
            with self._cv:
                candidates = list(self._waiting)
            if not candidates:
                return
            now = time.perf_counter()
            free = self.pool.pages_free()
            pick = None
            for entry in candidates:
                job = entry.job
                if job.deadline is not None and now > job.deadline:
                    if self._remove_waiting(entry):
                        self.session._fail_job(
                            job,
                            DeadlineExceeded(
                                "deadline expired while waiting for admission"
                            ),
                            event="timeouts",
                        )
                    continue
                need = self._pages_for_first_step(entry)
                if not self._active and need > self.pool.total_pages:
                    # can never fit, even with the whole pool to itself
                    if self._remove_waiting(entry):
                        self._fail_entry(
                            entry,
                            PoolExhausted(
                                f"request needs {need} pages to start; the "
                                f"pool holds {self.pool.total_pages}"
                            ),
                        )
                    continue
                if need <= free:
                    pick = entry
                    break
                if now - entry.arrival >= self.scfg.starvation_age_s:
                    return  # aged head-of-line waiter: nobody may jump it
            if pick is None or not self._remove_waiting(pick):
                return
            try:
                fault_point("sched.admit")
            except TransientFault:
                with self._cv:
                    self._counters["admit_faults"] += 1
                    if not self._closing:
                        self._insert_waiting_locked(pick)  # retry next tick
                        return
                # no retries once closing: close() would otherwise wait out
                # its whole join timeout on this waiter
                self._fail_entry(
                    pick,
                    SessionClosed("session closed before the request was admitted"),
                    event="closed",
                )
                continue
            except InjectedFault as error:
                with self._cv:
                    self._counters["admit_faults"] += 1
                self._fail_entry(pick, error)
                continue
            if not pick.started:
                if not self.session._job_live(pick.job):
                    continue
                pick.started = True
            now = time.perf_counter()
            if pick.last_token_t == 0.0:
                pick.last_token_t = now
            with self._cv:
                self._active.append(pick)
                self._counters["admitted"] += 1
                if pick.preemptions:
                    self._counters["resumed"] += 1

    def _retire(self, entry: _Stream) -> None:
        """Drop from the running batch and return every page."""
        with self._cv:
            if entry in self._active:
                self._active.remove(entry)
        if entry.state is not None:
            for kv in entry.state.layers:
                kv.free()
            entry.state = None

    def _fail_entry(self, entry: _Stream, error: BaseException,
                    event: str = "errors") -> None:
        self._retire(entry)
        self.session._fail_job(entry.job, error, event=event)

    def _preempt(self, victim: _Stream) -> bool:
        """Swap a stream out: free its pages, requeue it for recompute.

        An injected fault at ``sched.preempt`` aborts this preemption
        attempt (the scheduler stays live and simply retries next tick).
        """
        try:
            fault_point("sched.preempt")
        except (TransientFault, InjectedFault):
            with self._cv:
                self._counters["preempt_faults"] += 1
            return False
        if victim.state is not None:
            for kv in victim.state.layers:
                kv.free()
            victim.state = None
        victim.preemptions += 1
        with self._cv:
            self._counters["preempted"] += 1
            self._active.remove(victim)
            self._insert_waiting_locked(victim)
        return True

    def _reserve(self, entry: _Stream, stepping: list) -> bool:
        """Pre-reserve every page this step needs, preempting on pressure.

        All growth happens before the model runs, so ``PoolExhausted``
        can never interrupt a half-appended cache.  Victims are the
        youngest admitted streams; a stream alone in the batch that still
        cannot fit fails terminally.
        """
        while True:
            try:
                if entry.state is None:
                    entry.state = init_paged_decode_state(
                        self.model, self.pool, entry.owner
                    )
                for kv in entry.state.layers:
                    kv.reserve(entry.n)
                return True
            except PoolExhausted as error:
                victim = None
                for candidate in reversed(self._active):
                    # only streams actually holding pages are worth
                    # evicting; a just-admitted stream frees nothing
                    if candidate is not entry and self.pool.pages_held(candidate.owner):
                        victim = candidate
                        break
                if victim is None:
                    self._fail_entry(entry, error)
                    return False
                if not self._preempt(victim):
                    return False
                if victim in stepping:
                    stepping.remove(victim)

    def _step(self) -> None:
        now = time.perf_counter()
        stepping: list[_Stream] = []
        for entry in list(self._active):
            job = entry.job
            if job.deadline is not None and now > job.deadline:
                self._fail_entry(
                    entry,
                    DeadlineExceeded("deadline expired mid-decode"),
                    event="timeouts",
                )
                continue
            if entry in self._active and self._reserve(entry, stepping):
                stepping.append(entry)
        if not stepping:
            return
        windows = [entry.window_view() for entry in stepping]
        states = [entry.state for entry in stepping]
        with no_grad():
            if self._fused:
                logits = batched_causal_decode_step(self.model, windows, states)
            else:
                rows = []
                for window, state in zip(windows, states):
                    out = causal_decode_step(self.model, window[None], state)
                    rows.append(out.data[0, -1])
                logits = np.stack(rows)
                with self._cv:
                    self._counters["serial_steps"] += len(stepping)
        finished = []
        for i, entry in enumerate(stepping):
            token = int(np.argmax(logits[i]))
            entry.append(token)
            t = time.perf_counter()
            self.metrics.record_tokens(1, latency=t - entry.last_token_t)
            entry.last_token_t = t
            if entry.first_token_t is None:
                entry.first_token_t = t
                with self._cv:
                    self._ttft.append(t - entry.job.enqueued)
            done_eos = entry.eos is not None and token == entry.eos
            if done_eos or entry.n - entry.n_prompt >= entry.max_new:
                finished.append(entry)
        for entry in finished:
            produced = entry.produced
            self._retire(entry)
            with self._cv:
                self._counters["completed"] += 1
                self._e2e.append(time.perf_counter() - entry.job.enqueued)
            self.session._resolve_job(entry.job, {"tokens": produced})

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 10.0) -> None:
        """Drain accepted streams, stop the loop, fail whatever remains."""
        with self._cv:
            if self._closed:
                return
            self._closing = True
            self._cv.notify_all()
        self._thread.join(timeout=timeout)
        leftovers: list[_Stream] = []
        with self._cv:
            leftovers.extend(self._waiting)
            self._waiting.clear()
        if not self._thread.is_alive():
            leftovers.extend(self._active)
            del self._active[:]
        error = SessionClosed("session closed with the request unresolved")
        for entry in leftovers:
            if entry.state is not None:
                for kv in entry.state.layers:
                    kv.free()
                entry.state = None
            self.session._fail_job(entry.job, error, event="closed")
        with self._cv:
            self._closed = True

    def kv_snapshot(self) -> dict:
        """Pool occupancy for :meth:`InferenceSession.health` — touches
        only the pool's own lock and the scheduler condition, so it stays
        available while the session watchdog is mid-replacement."""
        stats = self.pool.stats()
        return {
            "enabled": True,
            "page_size": stats["page_size"],
            "pages_total": stats["pages_total"],
            "pages_free": stats["pages_free"],
            "pages_used": stats["pages_used"],
            "high_water": stats["high_water"],
            "per_stream_high_water": stats["per_stream_high_water"],
            "streams_active": len(self._active),
            "streams_waiting": len(self._waiting),
            "preemptions": self._counters["preempted"],
        }

    def _section(self) -> dict:
        """The ``sched`` section of :meth:`SessionMetrics.summary`."""
        stats = self.pool.stats()
        counters = dict(self._counters)
        ttft = list(self._ttft)
        e2e = list(self._e2e)
        out = {
            "pool": stats,
            "streams": {
                "active": len(self._active),
                "waiting": len(self._waiting),
            },
            **counters,
        }
        slo = {}
        if ttft:
            ms = [t * 1e3 for t in ttft]
            slo["ttft_ms"] = {
                "p50": percentile(ms, 50),
                "p90": percentile(ms, 90),
                "p99": percentile(ms, 99),
            }
        if e2e:
            ms = [t * 1e3 for t in e2e]
            slo["e2e_ms"] = {
                "p50": percentile(ms, 50),
                "p90": percentile(ms, 90),
                "p99": percentile(ms, 99),
            }
        if slo:
            out["slo"] = slo
        return out
