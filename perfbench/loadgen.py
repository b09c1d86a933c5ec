"""Load generation: a closed burst and a seeded open-loop (Poisson) phase.

Load comes from the calling thread of one process.  A burst submits every
request at once and waits for all of them.  An open-loop phase submits each
request at its due time whatever the backlog and times it from that due
time, so a stall is also charged to the requests that fell due during it;
how late the generator itself ran is reported beside the latencies.  A
request that errors at submit or in execution, or is not done when the
phase times out, counts as failed.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

#: Gap between building the schedule and the first due time.
LEAD_S = 0.005


@dataclass
class Phase:
    """Outcome of one phase: per-request results (``None`` = failed)."""

    name: str
    results: list
    wall_s: float
    latency_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(result is None for result in self.results)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def poisson_offsets(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """Due times (seconds from the phase start) of a Poisson arrival stream."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _submit(session, request, index: int, done_at: list, futures: list, errors: list):
    def record(_future, index=index):
        done_at[index] = time.perf_counter()

    try:
        future = session.submit(request)
    # the generator must outlive any one request: a refused request is
    # recorded as failed and the phase goes on
    except Exception as error:
        errors.append(f"request {index}: {type(error).__name__}: {error}")
        futures.append(None)
        return
    future.add_done_callback(record)
    futures.append(future)


def _collect(futures: list, timeout: float, errors: list) -> list:
    live = [f for f in futures if f is not None]
    wait(live, timeout=timeout)
    results = []
    for index, future in enumerate(futures):
        if future is None:
            results.append(None)
        elif not future.done():
            future.cancel()
            errors.append(f"request {index}: not done after {timeout:.0f} s")
            results.append(None)
        elif future.cancelled() or future.exception() is not None:
            error = "cancelled" if future.cancelled() else repr(future.exception())
            errors.append(f"request {index}: {error}")
            results.append(None)
        else:
            results.append(future.result())
    return results


def burst(session, requests: list, timeout: float) -> Phase:
    """Submit everything at once; wall time runs to the last completion."""
    done_at = [None] * len(requests)
    futures: list = []
    errors: list[str] = []
    start = time.perf_counter()
    for index, request in enumerate(requests):
        _submit(session, request, index, done_at, futures, errors)
    results = _collect(futures, timeout, errors)
    finished = [t for t, r in zip(done_at, results) if r is not None]
    end = max(finished) if finished else time.perf_counter()
    return Phase("burst", results, end - start, errors=errors)


def open_loop(session, requests: list, offsets: np.ndarray, timeout: float) -> Phase:
    """Submit request ``i`` at ``offsets[i]`` seconds; latency from due time."""
    done_at = [None] * len(requests)
    futures: list = []
    errors: list[str] = []
    late = np.zeros(len(requests))
    origin = time.perf_counter() + LEAD_S
    for index, request in enumerate(requests):
        due = origin + offsets[index]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late[index] = time.perf_counter() - due
        _submit(session, request, index, done_at, futures, errors)
    results = _collect(futures, timeout, errors)
    latency = [
        (done_at[i] - (origin + offsets[i])) * 1e3
        for i, result in enumerate(results)
        if result is not None
    ]
    finished = [t for t, r in zip(done_at, results) if r is not None]
    end = max(finished) if finished else time.perf_counter()
    return Phase(
        "paced", results, end - origin, latency_ms=latency,
        late_ms=(late * 1e3).tolist(), errors=errors,
    )
