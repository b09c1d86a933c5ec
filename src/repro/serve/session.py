"""The inference session: micro-batched, fault-tolerant request serving.

An :class:`InferenceSession` owns a compiled model, a request queue, and a
pool of worker threads.  Each worker pops a request, waits up to
``max_wait`` seconds for co-riders (up to ``max_batch`` per batch), runs
the coalesced batch through the model's task adapter under ``no_grad``,
and resolves each request's future.  Shared-scale formats make this cheap:
the quantized weights were frozen at compile time, so a batch pays one
activation quantization per tensor op regardless of how many requests ride
in it.

On top of the micro-batcher sits the reliability layer (all off by
default — the zero-config session behaves exactly like the plain
batcher):

* **admission control** — a bounded queue (``max_queue``) with shed
  policies (:data:`~repro.spec.serving.SHED_POLICIES`), plus per-request
  deadlines (``timeout`` at submit or in the request payload,
  ``default_timeout`` in the config) enforced at admission, at batch
  formation, and between stream decode steps;
* **fault isolation** — a failing batch is bisected to isolate the
  poison payload in O(log n) extra executions; failures classified
  transient (:func:`~repro.serve.faults.is_transient`) are retried with
  exponential backoff first; every job's terminal outcome is recorded in
  :class:`~repro.serve.metrics.SessionMetrics` exactly once;
* **hung-worker watchdog** — workers heartbeat; one stalled mid-batch
  past ``hang_timeout`` is declared hung, its in-flight futures fail
  with :class:`~repro.serve.faults.WorkerHung`, and a replacement thread
  takes its slot.  :meth:`health` reports the live picture;
* **graceful degradation** — under overload or a tripped circuit
  breaker, batches route to reduced-fidelity ladder replicas
  (:mod:`repro.serve.degrade`); responses carry the fidelity actually
  served in ``"served_format"``;
* **clean shutdown** — :meth:`close` drains the queue; if workers fail
  to join in time, every still-unresolved future is failed with
  :class:`~repro.serve.faults.SessionClosed` so no caller ever blocks on
  a future that cannot resolve.

Streaming generation (the GPT ladder) runs as singleton jobs whose tokens
are handed to the consumer through a queue as they are produced; closing
the consumer generator cancels the decode promptly and releases the
worker.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from ..nn.tensor import no_grad
from ..spec.serving import SessionConfig
from .adapters import Request
from .degrade import CircuitBreaker, DegradationPolicy
from .faults import (
    DeadlineExceeded,
    QueueFull,
    RequestShed,
    SessionClosed,
    WorkerHung,
    ensure_env_faults,
    fault_point,
    is_transient,
)
from .metrics import SessionMetrics

__all__ = ["InferenceSession"]

_STREAM_END = object()


@dataclass(eq=False)  # identity hash: jobs live in the _jobs registry set
class _Job:
    request: Request
    future: Future
    enqueued: float
    deadline: float | None = None  # absolute perf_counter time
    stream: "queue.Queue | None" = None
    cancel: threading.Event | None = None


class _WorkerState:
    """Per-worker bookkeeping read by the watchdog and :meth:`health`."""

    __slots__ = ("slot", "thread", "beat", "jobs", "abandoned")

    def __init__(self, slot: int):
        self.slot = slot
        self.thread: threading.Thread | None = None
        self.beat = time.monotonic()
        self.jobs: list[_Job] | None = None  # in-flight batch, if any
        self.abandoned = False


class InferenceSession:
    """Micro-batching front end over a :class:`~repro.serve.CompiledModel`.

    Use as a context manager, or call :meth:`close` when done::

        with compiled.session(max_batch=16) as session:
            futures = [session.submit(r) for r in requests]
            results = [f.result() for f in futures]
    """

    def __init__(self, compiled, config: SessionConfig | None = None):
        self.compiled = compiled
        self.config = config or SessionConfig()
        self.metrics = SessionMetrics()
        ensure_env_faults()
        # one condition guards the queue, the job registry, and lifecycle
        # flags; it is an RLock underneath, so helpers may re-enter
        self._cv = threading.Condition()
        self._pending: deque[_Job] = deque()
        self._jobs: set[_Job] = set()  # every unresolved job
        self._closing = False
        self._closed = False
        cfg = self.config
        breaker = (
            CircuitBreaker(cfg.breaker_threshold, cfg.breaker_cooldown)
            if cfg.breaker_threshold > 0
            else None
        )
        if cfg.degrade_ladder or breaker is not None:
            self._degrade = DegradationPolicy(
                compiled,
                cfg.degrade_ladder,
                breaker=breaker,
                queue_trigger=cfg.degrade_queue_depth,
            )
        else:
            self._degrade = None
        if cfg.scheduler is not None:
            from ..spec.serving import SchedulerConfig
            from .sched import ContinuousScheduler

            self._sched = ContinuousScheduler(
                self, SchedulerConfig.from_dict(cfg.scheduler)
            )
        else:
            self._sched = None
        self._worker_states: list[_WorkerState] = [
            _WorkerState(slot) for slot in range(cfg.workers)
        ]
        for state in self._worker_states:
            self._start_worker(state)
        self._watchdog: threading.Thread | None = None
        if cfg.watchdog_interval > 0:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="serve-watchdog", daemon=True
            )
            self._watchdog.start()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def _resolve_timeout(self, payload: dict, timeout: float | None) -> float | None:
        if timeout is None:
            timeout = payload.get("timeout")
        if timeout is None:
            timeout = self.config.default_timeout
        return None if timeout is None else float(timeout)

    def submit(self, request, *, timeout: float | None = None) -> Future:
        """Enqueue one request; the returned future resolves to its result.

        ``timeout`` (seconds from now; also accepted as a ``"timeout"``
        key in a request dict) sets the request's deadline — enforced at
        admission, batch formation, and between stream decode steps.
        Admission control may raise :class:`QueueFull` (bounded queue,
        ``shed_policy="reject"``) or :class:`DeadlineExceeded` (deadline
        already expired).  Unknown tasks are rejected here, before
        enqueueing — one bad request must never ride in (and poison) a
        batch of valid ones.
        """
        coerced = Request.coerce(request)
        if coerced.task not in self.compiled.tasks:
            raise ValueError(
                f"{type(self.compiled.adapter).__name__} serves tasks "
                f"{self.compiled.tasks}, got {coerced.task!r}"
            )
        timeout = self._resolve_timeout(coerced.payload, timeout)
        if timeout is not None and timeout <= 0:
            self.metrics.record_event("timeouts")
            raise DeadlineExceeded(
                f"request timeout {timeout}s expired before admission"
            )
        now = time.perf_counter()
        job = _Job(
            request=coerced,
            future=Future(),
            enqueued=now,
            deadline=None if timeout is None else now + timeout,
        )
        if (
            self._sched is not None
            and coerced.task == "generate"
            and self._sched.accepts(coerced.payload)
        ):
            # continuous-batching path: the scheduler owns execution, the
            # session keeps exactly-once accounting via the job registry
            with self._cv:
                if self._closing:
                    raise SessionClosed("session is closed")
                self._jobs.add(job)
            try:
                self._sched.submit(job)
            # repro: allow(broad-except): registry cleanup only — the error (typed or not) is re-raised to the submitter untouched
            except BaseException:
                self._forget(job)
                raise
            return job.future
        self._admit(job)
        return job.future

    def _admit(self, job: _Job) -> None:
        with self._cv:
            if self._closing:
                raise SessionClosed("session is closed")
            cap = self.config.max_queue
            if cap and len(self._pending) >= cap:
                if self.config.shed_policy == "reject":
                    self.metrics.record_event("sheds")
                    raise QueueFull(
                        f"queue full ({cap} requests pending); request rejected"
                    )
                victim = self._pending.popleft()
                self._fail_job(
                    victim,
                    RequestShed("shed by drop-oldest admission (queue full)"),
                    event="sheds",
                )
            self._pending.append(job)
            self._jobs.add(job)
            self._cv.notify_all()

    def map(self, requests, timeout: float | None = None) -> list:
        """Submit many requests and wait for all results, in order.

        On a result timeout, futures whose jobs have not started executing
        are cancelled before the :class:`TimeoutError` propagates, so
        abandoned work never keeps occupying workers.
        """
        futures = [self.submit(request) for request in requests]
        try:
            return [future.result(timeout=timeout) for future in futures]
        except FutureTimeoutError:
            for future in futures:
                future.cancel()  # only succeeds for not-yet-started jobs
            raise

    def stream(self, request, *, timeout: float | None = None):
        """Submit a streaming generation request; yields tokens as produced.

        Only meaningful for adapters exposing ``generate_stream`` (the
        causal LM families).  The request runs as a singleton job on a
        worker thread; this generator blocks on its token queue.  Closing
        the generator mid-iteration cancels the decode job promptly: the
        worker observes the cancellation at the next token boundary and
        moves on.
        """
        coerced = Request.coerce(request)
        if coerced.task != "generate":
            raise ValueError(f"streaming requires task 'generate', got {coerced.task!r}")
        if not hasattr(self.compiled.adapter, "generate_stream"):
            raise TypeError(
                f"{type(self.compiled.adapter).__name__} does not support streaming"
            )
        timeout = self._resolve_timeout(coerced.payload, timeout)
        now = time.perf_counter()
        job = _Job(
            request=coerced,
            future=Future(),
            enqueued=now,
            deadline=None if timeout is None else now + timeout,
            stream=queue.Queue(),
            cancel=threading.Event(),
        )
        self._admit(job)

        def consume():
            try:
                while True:
                    item = job.stream.get()
                    if item is _STREAM_END:
                        break
                    if isinstance(item, BaseException):
                        raise item
                    yield item
                # surface any terminal state (also marks the future consumed)
                job.future.result()
            finally:
                # reached on exhaustion AND on generator close/abandonment:
                # the flag tells the worker to stop decoding; cancel() only
                # succeeds when the job never started
                job.cancel.set()
                job.future.cancel()

        return consume()

    # ------------------------------------------------------------------
    # Job resolution (exactly-once accounting)
    # ------------------------------------------------------------------
    # Every terminal transition goes through one of these helpers; metrics
    # are recorded only when the future actually transitions here, so a
    # job can never be double-counted — not by bisection re-execution, not
    # by a hung worker completing after its watchdog replacement, not by a
    # forced close racing an in-flight batch.
    def _forget(self, job: _Job) -> None:
        with self._cv:
            self._jobs.discard(job)

    def _resolve_job(self, job: _Job, result, served: str | None = None) -> bool:
        if served is not None and isinstance(result, dict):
            result = {**result, "served_format": served}
        try:
            job.future.set_result(result)
        except InvalidStateError:
            self._forget(job)
            return False
        if served is not None:
            self.metrics.record_event("degraded")
        self.metrics.record_done(time.perf_counter() - job.enqueued)
        self._forget(job)
        return True

    def _fail_job(self, job: _Job, error: BaseException, event: str = "errors") -> bool:
        try:
            job.future.set_exception(error)
        except InvalidStateError:
            self._forget(job)
            return False
        if event == "errors":
            self.metrics.record_error(1)
        else:
            self.metrics.record_event(event)
        if job.stream is not None:
            job.stream.put(error)
            job.stream.put(_STREAM_END)
        self._forget(job)
        return True

    def _drop_cancelled(self, job: _Job) -> None:
        """A future cancelled before execution: account it and let go."""
        self.metrics.record_event("cancelled")
        if job.stream is not None:
            job.stream.put(_STREAM_END)
        self._forget(job)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _start_worker(self, state: _WorkerState) -> None:
        state.thread = threading.Thread(
            target=self._worker_loop,
            args=(state,),
            name=f"serve-worker-{state.slot}",
            daemon=True,
        )
        state.thread.start()

    def _job_live(self, job: _Job) -> bool:
        """Formation-time liveness: cancellation first, then the deadline.

        Marks the job RUNNING on success, so a later ``future.cancel()``
        (e.g. from :meth:`map`'s timeout path) can no longer steal it.
        """
        if not job.future.set_running_or_notify_cancel():
            self._drop_cancelled(job)
            return False
        if job.deadline is not None and time.perf_counter() > job.deadline:
            self._fail_job(
                job,
                DeadlineExceeded("deadline expired while queued"),
                event="timeouts",
            )
            return False
        return True

    def _take(self, state: _WorkerState):
        """Pop the next unit of work: ``(batch, stream_job, depth)``.

        Returns ``None`` when the session has closed and the queue is
        drained (or this worker was abandoned).  ``depth`` is the queue
        depth observed when the first job was popped — the overload signal
        for degradation routing.
        """
        idle_wait = (
            self.config.watchdog_interval / 2 if self.config.watchdog_interval else None
        )
        with self._cv:
            first = None
            while first is None:
                if state.abandoned:
                    return None
                state.beat = time.monotonic()
                depth = len(self._pending)
                while self._pending:
                    job = self._pending.popleft()
                    if self._job_live(job):
                        first = job
                        break
                if first is not None:
                    break
                if self._closing:
                    return None
                self._cv.wait(idle_wait)
            if first.stream is not None:
                state.jobs = [first]
                return [], first, depth
            batch = [first]
            deadline = time.perf_counter() + self.config.max_wait
            while len(batch) < self.config.max_batch:
                if self._pending:
                    head = self._pending[0]
                    if head.stream is not None:
                        break  # streams never mix into a batch
                    self._pending.popleft()
                    if self._job_live(head):
                        batch.append(head)
                    continue
                if self._closing:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
            state.jobs = list(batch)
            return batch, None, depth

    def _worker_loop(self, state: _WorkerState) -> None:
        while True:
            taken = self._take(state)
            if taken is None:
                return
            batch, stream_job, depth = taken
            try:
                if stream_job is not None:
                    self._execute_stream(stream_job, depth)
                elif batch:
                    self._execute_batch(batch, depth)
            # repro: allow(broad-except): last-resort worker survival — any escape must fail the batch's futures, not kill the thread
            except BaseException as error:
                for job in batch or [stream_job]:
                    self._fail_job(job, error)
            finally:
                state.jobs = None
                state.beat = time.monotonic()
            if state.abandoned:
                return

    # ------------------------------------------------------------------
    # Batch execution: route, retry, bisect
    # ------------------------------------------------------------------
    def _select_route(self, depth: int):
        """``(adapter, served_format | None)`` for the next execution."""
        if self._degrade is None:
            return self.compiled.adapter, None
        compiled, served = self._degrade.select(depth)
        return compiled.adapter, served

    def _record_outcome(self, success: bool) -> None:
        if self._degrade is not None:
            self._degrade.record_result(success)

    def _sweep_expired(self, batch: list[_Job]) -> list[_Job]:
        """Drop (and fail) jobs whose deadline passed; returns survivors."""
        now = time.perf_counter()
        live = []
        for job in batch:
            if job.deadline is not None and now > job.deadline:
                self._fail_job(
                    job,
                    DeadlineExceeded("deadline expired before execution"),
                    event="timeouts",
                )
            else:
                live.append(job)
        return live

    def _execute_batch(self, batch: list[_Job], depth: int) -> None:
        adapter, served = self._select_route(depth)
        self._run_isolating(batch, adapter, served)

    def _run_isolating(self, batch: list[_Job], adapter, served: str | None) -> None:
        """Execute ``batch``; isolate failures without poisoning co-riders.

        Transient failures retry the whole batch with exponential backoff
        (up to ``max_retries``).  A terminal failure of a multi-job batch
        bisects: each half re-executes independently, so one poison
        payload is isolated in O(log n) extra runs instead of the O(n)
        one-by-one sweep.  Results/errors resolve through the
        exactly-once helpers.
        """
        attempt = 0
        while True:
            batch = self._sweep_expired(batch)
            if not batch:
                return
            try:
                fault_point("worker.batch")
                with no_grad():
                    results = adapter.run_batch([job.request for job in batch])
            # repro: allow(broad-except): adapter code is arbitrary — escapes are classified by is_transient() then retried or routed into futures via bisection
            except BaseException as error:
                if is_transient(error) and attempt < self.config.max_retries:
                    attempt += 1
                    self.metrics.record_event("retries")
                    time.sleep(self.config.retry_backoff * (2 ** (attempt - 1)))
                    continue
                self._record_outcome(False)
                if len(batch) == 1:
                    event = (
                        "timeouts" if isinstance(error, DeadlineExceeded) else "errors"
                    )
                    self._fail_job(batch[0], error, event=event)
                else:
                    mid = len(batch) // 2
                    self._run_isolating(batch[:mid], adapter, served)
                    self._run_isolating(batch[mid:], adapter, served)
                return
            self._record_outcome(True)
            self.metrics.record_execution(len(batch))
            for job, result in zip(batch, results):
                self._resolve_job(job, result, served)
            return

    # ------------------------------------------------------------------
    # Stream execution
    # ------------------------------------------------------------------
    def _execute_stream(self, job: _Job, depth: int) -> None:
        adapter, served = self._select_route(depth)
        produced = []
        try:
            fault_point("worker.stream")
            # generate_stream scopes no_grad per step itself
            payload = dict(job.request.payload)
            iterator = adapter.generate_stream(
                payload.pop("prompt"),
                int(payload.pop("max_new_tokens", 16)),
                eos=payload.pop("eos", None),
            )
            last = time.perf_counter()
            for token in iterator:
                now = time.perf_counter()
                if job.cancel is not None and job.cancel.is_set():
                    # consumer abandoned the stream: stop decoding, release
                    # the worker, account the cancellation once
                    try:
                        job.future.set_result(
                            {"tokens": produced, "cancelled": True}
                        )
                    except InvalidStateError:
                        pass
                    self.metrics.record_event("cancelled")
                    self._forget(job)
                    return
                if job.deadline is not None and now > job.deadline:
                    self._record_outcome(True)
                    self._fail_job(
                        job,
                        DeadlineExceeded("deadline expired mid-stream"),
                        event="timeouts",
                    )
                    return
                produced.append(token)
                self.metrics.record_tokens(1, latency=now - last)
                last = now
                job.stream.put(token)
        # repro: allow(broad-except): streaming adapter code is arbitrary — the escape is forwarded into the stream job's future and queue
        except BaseException as error:
            self._record_outcome(False)
            self._fail_job(job, error)
            return
        self._record_outcome(True)
        self.metrics.record_execution(1)
        self._resolve_job(job, {"tokens": produced}, served)
        job.stream.put(_STREAM_END)

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        interval = self.config.watchdog_interval
        while True:
            time.sleep(interval)
            with self._cv:
                if self._closing:
                    return
                states = list(self._worker_states)
            now = time.monotonic()
            for state in states:
                jobs = state.jobs
                if state.abandoned or not jobs:
                    continue
                if now - state.beat <= self.config.hang_timeout:
                    continue
                # hung mid-execution: abandon the thread (it cannot be
                # killed; its late resolutions will no-op), fail its
                # in-flight futures, and take over the slot
                state.abandoned = True
                stall = now - state.beat
                for job in list(jobs):
                    self._fail_job(
                        job,
                        WorkerHung(
                            f"worker {state.slot} unresponsive for {stall:.2f}s "
                            f"(hang_timeout={self.config.hang_timeout}s); replaced"
                        ),
                        event="hung",
                    )
                self.metrics.record_event("workers_replaced")
                replacement = _WorkerState(state.slot)
                with self._cv:
                    if self._closing:
                        return
                    # started before it is published, so close() never
                    # joins a thread that has not started
                    self._start_worker(replacement)
                    self._worker_states[state.slot] = replacement

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting work, drain the queue, and join the workers.

        Workers finish everything already accepted.  If a worker fails to
        join within ``timeout`` (it is hung, or mid-way through a very
        long batch), the remaining queue is drained and **every**
        still-unresolved future — pending or in-flight — is failed with
        :class:`SessionClosed`, so no caller is ever left holding a
        future that cannot resolve.
        """
        with self._cv:
            if self._closed:
                return
            self._closing = True
            self._cv.notify_all()
        if self._sched is not None:
            self._sched.close(timeout=timeout)
        for state in list(self._worker_states):
            if state.thread is not None:
                state.thread.join(timeout=timeout)
        stalled = [
            s
            for s in self._worker_states
            if s.thread is not None and s.thread.is_alive()
        ]
        if stalled:
            for state in stalled:
                state.abandoned = True
            with self._cv:
                self._pending.clear()
                outstanding = list(self._jobs)
            error = SessionClosed("session closed with the request unresolved")
            for job in outstanding:
                if not self._fail_job(job, error, event="closed"):
                    # already cancelled/resolved concurrently; just ensure
                    # stream consumers unblock
                    if job.stream is not None:
                        job.stream.put(_STREAM_END)
        if self._watchdog is not None:
            self._watchdog.join(timeout=self.config.watchdog_interval * 2 + 0.2)
        # under the cv like every other _closed/_closing transition: a
        # concurrent close() must observe the flag (the early-return above
        # reads it under the cv) and submit()'s closed-check must never
        # race a half-finished shutdown
        with self._cv:
            self._closed = True

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Live reliability picture: queue, workers, breaker, fidelity.

        ``state`` is ``"ok"``, ``"overloaded"`` (bounded queue at
        capacity), ``"degraded"`` (currently routing down-ladder), or
        ``"closed"``.
        """
        with self._cv:
            depth = len(self._pending)
            outstanding = len(self._jobs)
            closing = self._closing
            states = list(self._worker_states)
        now = time.monotonic()
        alive = [
            s
            for s in states
            if s.thread is not None and s.thread.is_alive() and not s.abandoned
        ]
        served = None
        degrade = None
        if self._degrade is not None:
            _, served = self._degrade.select(depth)
            degrade = self._degrade.snapshot()
        if closing:
            state = "closed"
        elif served is not None:
            state = "degraded"
        elif self.config.max_queue and depth >= self.config.max_queue:
            state = "overloaded"
        else:
            state = "ok"
        replaced = self.metrics.events().get("workers_replaced", 0)
        # the kv section reads only the page pool's own lock (never the
        # session cv), so it stays truthful mid-watchdog-replacement
        kv = self._sched.kv_snapshot() if self._sched is not None else {"enabled": False}
        return {
            "state": state,
            "queue_depth": depth,
            "in_flight": outstanding - depth,
            "kv": kv,
            "workers": {
                "configured": self.config.workers,
                "alive": len(alive),
                "replaced": replaced,
                "busy": sum(1 for s in alive if s.jobs),
                "max_heartbeat_age_s": max(
                    (now - s.beat for s in alive), default=0.0
                ),
            },
            "fidelity": served or self.compiled.fidelity or "fp32",
            "degradation": degrade,
        }

    def summary(self) -> dict:
        """Metrics snapshot including the session configuration label."""
        out = self.metrics.summary(max_batch=self.config.max_batch)
        out["config"] = self.config.to_dict()
        return out
