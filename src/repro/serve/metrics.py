"""Per-session serving metrics: latency percentiles, throughput, occupancy.

Counters are updated by the session workers under a lock and summarized on
demand; everything is plain floats/ints so a summary can be logged as JSON
by the CLI and the benches.  Summaries also snapshot the process-wide
cache layer — the bounded ``causal_mask`` / ``sinusoidal_positions`` LRUs,
the kernel plan cache, and the quantize-call counter — so residency
regressions show up in serving telemetry, not just wall-clock.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..core.quantize import quantize_call_count

__all__ = ["SessionMetrics", "RELIABILITY_EVENTS", "percentile", "cache_stats"]

#: The serving error/recovery taxonomy tracked per session (disjoint from
#: ``errors``, which counts terminal adapter/payload failures):
#: ``timeouts`` — requests failed with DeadlineExceeded;
#: ``sheds`` — requests rejected or dropped by admission control;
#: ``retries`` — transient-failure batch re-executions;
#: ``cancelled`` — requests cancelled before/while running (map timeout,
#: abandoned stream consumers);
#: ``degraded`` — responses served by a reduced-fidelity ladder replica;
#: ``hung`` — requests failed because their worker hung;
#: ``workers_replaced`` — workers the watchdog replaced;
#: ``closed`` — futures resolved with SessionClosed at forced shutdown.
RELIABILITY_EVENTS = (
    "timeouts",
    "sheds",
    "retries",
    "cancelled",
    "degraded",
    "hung",
    "workers_replaced",
    "closed",
)


def _lru_info(cached_fn) -> dict:
    info = cached_fn.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "max_size": info.maxsize,
    }


def cache_stats() -> dict:
    """Process-wide cache snapshot (the residency observables).

    Keys: ``causal_mask`` and ``sinusoidal_positions`` (bounded LRU
    stats), ``quant_plans`` (kernel plan cache + scratch accounting), and
    ``quantize_calls`` (total BDR engine invocations so far).
    """
    from ..kernels.plan import plan_cache_info
    from ..nn.attention import causal_mask
    from ..nn.transformer import sinusoidal_positions

    return {
        "causal_mask": _lru_info(causal_mask),
        "sinusoidal_positions": _lru_info(sinusoidal_positions),
        "quant_plans": plan_cache_info(),
        "quantize_calls": quantize_call_count(),
    }


def _decode_fallbacks() -> int:
    """Process-wide serial-fallback count (lazy import: adapters is heavy)."""
    from .adapters import decode_fallback_count

    return decode_fallback_count()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample list."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


class SessionMetrics:
    """Thread-safe accumulator for one :class:`InferenceSession`."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._start = clock()
        self._latencies: list[float] = []
        self._batch_sizes: list[int] = []
        self._token_latencies: list[float] = []
        self._requests = 0
        self._errors = 0
        self._tokens = 0
        self._events = dict.fromkeys(RELIABILITY_EVENTS, 0)
        # baseline for the per-session quantize-call delta; process-wide,
        # so concurrent sessions each see every session's calls — the
        # counter is a residency observable, not an accounting ledger
        self._quant_calls_start = quantize_call_count()
        # same caveat for the ragged-prompt serial-fallback counter
        self._fallbacks_start = _decode_fallbacks()
        self._sections: dict = {}

    def register_section(self, name: str, provider) -> None:
        """Attach a callable whose dict payload appears under ``name`` in
        :meth:`summary` (e.g. the continuous scheduler's pool/SLO stats)."""
        with self._lock:
            self._sections[name] = provider

    # ------------------------------------------------------------------
    def record_execution(self, batch_size: int) -> None:
        """One model execution of ``batch_size`` requests (occupancy stat).

        Split from :meth:`record_done` so the bisection path can account
        each job's terminal outcome exactly once while still counting
        every real model call toward batch-size/occupancy statistics.
        """
        with self._lock:
            self._batch_sizes.append(int(batch_size))

    def record_done(self, latency: float) -> None:
        """One request served successfully, ``latency`` seconds after
        submission.  Every job is recorded exactly once, at the moment its
        future resolves — never per retry level or re-execution."""
        with self._lock:
            self._latencies.append(float(latency))
            self._requests += 1

    def record_error(self, batch_size: int) -> None:
        with self._lock:
            self._errors += int(batch_size)

    def record_event(self, kind: str, n: int = 1) -> None:
        """Bump one reliability-taxonomy counter (see RELIABILITY_EVENTS)."""
        if kind not in self._events:
            raise ValueError(
                f"unknown reliability event {kind!r}; known: {RELIABILITY_EVENTS}"
            )
        with self._lock:
            self._events[kind] += int(n)

    def events(self) -> dict:
        """Snapshot of the reliability-event counters."""
        with self._lock:
            return dict(self._events)

    def record_tokens(self, n: int, latency: float | None = None) -> None:
        """Tokens produced by streaming generation.

        ``latency`` is the wall-clock gap since the previous token of the
        same stream (or since the stream started, for its first token) —
        the per-token decode latency surfaced in :meth:`summary`.
        """
        with self._lock:
            self._tokens += int(n)
            if latency is not None:
                self._token_latencies.append(float(latency))

    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        with self._lock:
            return self._requests

    def summary(self, max_batch: int | None = None) -> dict:
        """Snapshot of everything recorded so far.

        Keys: ``requests``, ``errors``, ``throughput_rps``, ``tokens``,
        ``latency_ms`` (mean/p50/p90/p99), ``batch`` (count, mean_size,
        max_size, occupancy when ``max_batch`` is given), ``quantize_calls``
        (BDR engine invocations since this accumulator was created, plus
        per-request mean), ``caches`` (see :func:`cache_stats`), and —
        once any stream produced tokens — ``decode`` (``tokens_per_sec``
        plus ``token_latency_ms`` percentiles of the inter-token gaps).
        """
        with self._lock:
            elapsed = max(self._clock() - self._start, 1e-12)
            latencies = list(self._latencies)
            batch_sizes = list(self._batch_sizes)
            token_latencies = list(self._token_latencies)
            requests, errors, tokens = self._requests, self._errors, self._tokens
            events = dict(self._events)
            sections = dict(self._sections)
            # clamped: a bench calling reset_quantize_calls() mid-session
            # would otherwise drive the delta negative
            quant_calls = max(0, quantize_call_count() - self._quant_calls_start)
            fallbacks = max(0, _decode_fallbacks() - self._fallbacks_start)
        out: dict = {
            "requests": requests,
            "errors": errors,
            "tokens": tokens,
            "elapsed_s": elapsed,
            "throughput_rps": requests / elapsed,
            "quantize_calls": {
                "total": quant_calls,
                "per_request": quant_calls / requests if requests else 0.0,
            },
            "caches": cache_stats(),
            # the full error/recovery taxonomy in one place ("errors"
            # repeated here so dashboards need a single key)
            "reliability": {"errors": errors, **events},
        }
        if latencies:
            ms = [l * 1e3 for l in latencies]
            out["latency_ms"] = {
                "mean": float(np.mean(ms)),
                "p50": percentile(ms, 50),
                "p90": percentile(ms, 90),
                "p99": percentile(ms, 99),
            }
        if batch_sizes:
            batch = {
                "count": len(batch_sizes),
                "mean_size": float(np.mean(batch_sizes)),
                "max_size": int(max(batch_sizes)),
            }
            if max_batch:
                batch["occupancy"] = float(np.mean(batch_sizes)) / max_batch
            out["batch"] = batch
        if tokens or fallbacks:
            decode = {"tokens": tokens, "serial_fallbacks": fallbacks}
            if token_latencies:
                # rate over time actually spent decoding (the sum of
                # inter-token gaps), not the whole session lifetime — a
                # long-lived mixed-traffic session would otherwise report
                # a near-zero tok/s for its occasional streams
                decode_time = max(sum(token_latencies), 1e-12)
                decode["tokens_per_sec"] = len(token_latencies) / decode_time
                ms = [l * 1e3 for l in token_latencies]
                decode["token_latency_ms"] = {
                    "mean": float(np.mean(ms)),
                    "p50": percentile(ms, 50),
                    "p90": percentile(ms, 90),
                    "p99": percentile(ms, 99),
                }
            else:
                decode["tokens_per_sec"] = tokens / elapsed
            out["decode"] = decode
        # registered sections last (called without the lock: providers may
        # take their own locks, e.g. the scheduler's page pool)
        for name, provider in sections.items():
            out[name] = provider()
        return out
