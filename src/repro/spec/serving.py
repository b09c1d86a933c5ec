"""Declarative serving configuration (the :mod:`repro.serve` input language).

A serving deployment is fully described by plain data: which format (or
per-layer policy) the model is compiled with, how weights are frozen, and
how the micro-batcher coalesces traffic.  :class:`SessionConfig` is that
description — spec strings from :mod:`repro.spec.grammar` for the formats,
a :class:`~repro.spec.policy.PolicySpec` payload dict for mixed-precision
deployments, and scalar batching knobs — so a config can live in a JSON
file, cross a service boundary, or be rebuilt from a CLI flag without ever
pickling live objects.

The runtime that consumes this lives in :mod:`repro.serve`
(:func:`repro.serve.compile_model` / :class:`repro.serve.InferenceSession`);
this module only defines and validates the data.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields

from .grammar import parse_spec, render_spec
from .policy import PolicySpec, policy_from_dict

__all__ = ["SessionConfig", "SchedulerConfig", "FREEZE_MODES", "SHED_POLICIES"]

#: How compile freezes quantized weights: ``memo`` keeps FP32 masters and
#: memoizes quantized payloads on the data-version counter; ``cast``
#: additionally bakes the quantization into the stored arrays.
FREEZE_MODES = ("memo", "cast")

#: What admission control does when the bounded queue is full: ``reject``
#: raises :class:`~repro.serve.faults.QueueFull` at submit; ``oldest``
#: sheds the oldest queued request (its future fails with
#: :class:`~repro.serve.faults.RequestShed`) to admit the new one.
SHED_POLICIES = ("reject", "oldest")


def _canonical_spec(value) -> str | None:
    """Canonicalize a format spelling to its spec string (None passes)."""
    if value is None:
        return None
    return render_spec(parse_spec(value))


def _canonical_policy(value) -> dict | None:
    """Canonicalize a policy spelling to its ``to_dict`` payload."""
    if value is None:
        return None
    if isinstance(value, PolicySpec):
        return value.to_dict()
    if isinstance(value, dict):
        # validate by round-tripping through the registry
        return policy_from_dict(value).to_dict()
    raise TypeError(
        f"policy must be a PolicySpec or its to_dict payload, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SchedulerConfig:
    """Continuous-batching scheduler knobs, as plain data.

    Attributes:
        max_streams: concurrent decode streams stepped together (the
            token-granularity batch cap).
        page_budget: total KV pages in the shared pool; 0 derives a
            budget that lets ``max_streams`` full-length streams coexist
            (so preemption only triggers when explicitly constrained).
        max_waiting: bound on the scheduler's waiting queue; 0 keeps it
            unbounded.  The session's ``shed_policy`` decides whether an
            overflow rejects the newcomer or sheds the oldest waiter.
        starvation_age_s: FCFS aging threshold — younger requests may
            jump a waiter blocked on pool headroom only while the waiter
            is younger than this; once it ages past, admission stalls
            behind it (starvation-proof head-of-line protection).
    """

    max_streams: int = 64
    page_budget: int = 0
    max_waiting: int = 0
    starvation_age_s: float = 0.5

    def __post_init__(self):
        if self.max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {self.max_streams}")
        if self.page_budget < 0:
            raise ValueError(f"page_budget must be >= 0, got {self.page_budget}")
        if self.max_waiting < 0:
            raise ValueError(f"max_waiting must be >= 0, got {self.max_waiting}")
        if self.starvation_age_s < 0:
            raise ValueError(
                f"starvation_age_s must be >= 0, got {self.starvation_age_s}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown SchedulerConfig keys {sorted(unknown)}")
        return cls(**d)


def _canonical_scheduler(value) -> dict | None:
    """Canonicalize a scheduler spelling to its ``to_dict`` payload."""
    if value is None:
        return None
    if isinstance(value, SchedulerConfig):
        return value.to_dict()
    if isinstance(value, dict):
        return SchedulerConfig.from_dict(value).to_dict()
    raise TypeError(
        "scheduler must be a SchedulerConfig or its to_dict payload, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SessionConfig:
    """Everything a serving session needs, as plain data.

    Attributes:
        format: weight/activation format spec string (``"mx6"``); ``None``
            serves full precision (or whatever the model already has
            installed when ``policy`` is also ``None``).
        activation: activation format override; defaults to ``format``.
        policy: a :class:`~repro.spec.policy.PolicySpec` payload dict for
            per-layer deployments (mutually exclusive with ``format``).
        freeze: one of :data:`FREEZE_MODES`.
        quantize_embeddings: also storage-quantize embedding tables.
        max_batch: micro-batcher coalescing limit (requests per batch).
        max_wait: seconds the batcher waits for co-riders after the first
            request of a batch arrives.
        workers: worker threads executing batches.
        max_queue: bound on *queued* (not yet executing) requests; 0 keeps
            the queue unbounded (no admission control).
        shed_policy: one of :data:`SHED_POLICIES`; what admission does when
            the bounded queue is full.
        default_timeout: per-request deadline (seconds from submission)
            applied to requests that carry no explicit ``timeout``; None
            disables deadlines by default.
        max_retries: how many times a batch whose failure is classified
            transient (:func:`~repro.serve.faults.is_transient`) is
            re-executed before the failure becomes terminal.
        retry_backoff: base of the exponential backoff between retries
            (sleep ``retry_backoff * 2**attempt`` seconds).
        watchdog_interval: heartbeat-check period of the hung-worker
            watchdog; 0 disables the watchdog thread.
        hang_timeout: a worker whose heartbeat is older than this while a
            batch is in flight is declared hung and replaced.
        degrade_ladder: ordered format spec strings (cheapest last) the
            session may degrade to under overload / a tripped breaker;
            None/empty disables graceful degradation.
        degrade_queue_depth: queue depth at which degraded serving starts
            (each further multiple steps one more ladder rung down); 0
            disables overload-triggered degradation.
        breaker_threshold: consecutive execution failures that trip the
            circuit breaker; 0 disables the breaker.
        breaker_cooldown: seconds the tripped breaker stays open before
            probing full fidelity again (half-open).
        scheduler: a :class:`SchedulerConfig` payload dict enabling the
            continuous-batching decode scheduler (paged KV pool +
            token-granularity admission); None keeps ``generate``
            requests on the classic micro-batcher.
    """

    format: str | None = None
    activation: str | None = None
    policy: object = None
    freeze: str = "memo"
    quantize_embeddings: bool = False
    max_batch: int = 8
    max_wait: float = 0.002
    workers: int = 1
    max_queue: int = 0
    shed_policy: str = "reject"
    default_timeout: float | None = None
    max_retries: int = 0
    retry_backoff: float = 0.05
    watchdog_interval: float = 0.0
    hang_timeout: float = 5.0
    degrade_ladder: tuple = ()
    degrade_queue_depth: int = 0
    breaker_threshold: int = 0
    breaker_cooldown: float = 1.0
    scheduler: object = None

    def __post_init__(self):
        object.__setattr__(self, "scheduler", _canonical_scheduler(self.scheduler))
        object.__setattr__(self, "format", _canonical_spec(self.format))
        object.__setattr__(self, "activation", _canonical_spec(self.activation))
        object.__setattr__(self, "policy", _canonical_policy(self.policy))
        if self.format is not None and self.policy is not None:
            raise ValueError("format and policy are mutually exclusive")
        if self.activation is not None and self.format is None:
            raise ValueError("activation override requires a format")
        if self.freeze not in FREEZE_MODES:
            raise ValueError(f"freeze must be one of {FREEZE_MODES}, got {self.freeze!r}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        ladder = self.degrade_ladder or ()
        if isinstance(ladder, str):
            raise TypeError("degrade_ladder must be a sequence of specs, not a string")
        object.__setattr__(
            self, "degrade_ladder", tuple(_canonical_spec(s) for s in ladder)
        )
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be positive or None, got {self.default_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
        if self.watchdog_interval < 0:
            raise ValueError(
                f"watchdog_interval must be >= 0, got {self.watchdog_interval}"
            )
        if self.hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be > 0, got {self.hang_timeout}")
        if self.degrade_queue_depth < 0:
            raise ValueError(
                f"degrade_queue_depth must be >= 0, got {self.degrade_queue_depth}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )
        if self.degrade_queue_depth > 0 and not self.degrade_ladder:
            raise ValueError("degrade_queue_depth requires a degrade_ladder")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (JSON/pickle safe); the (nested) policy payload
        is deep-copied so callers can never mutate the frozen config."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("policy", "scheduler") and value:
                value = copy.deepcopy(value)
            elif f.name == "degrade_ladder":
                value = list(value)  # JSON has no tuples
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SessionConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown SessionConfig keys {sorted(unknown)}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionConfig":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (re-validated)."""
        payload = self.to_dict()
        payload.update(changes)
        return SessionConfig.from_dict(payload)

    @property
    def label(self) -> str:
        """Short display name for benches and reports."""
        if self.policy is not None:
            quant = f"policy[{self.policy.get('kind', '?')}]"
        else:
            quant = self.format or "fp32"
        return f"{quant}@b{self.max_batch}x{self.workers}w"
