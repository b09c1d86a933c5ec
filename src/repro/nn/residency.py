"""Quantized activation residency: quantize once, consume everywhere.

The BDR compute flow makes dot products cheap because operands live in
shared-exponent payload form — yet the historical forward path re-derived
that payload from FP32 at every consumer: the Q/K/V projections each
quantized the same LayerNorm output, every MoE expert re-quantized the
router input, and each decode step quantized the step activations once per
op.  This module makes the quantized payload *resident*: it is produced at
most once per tensor per step and shared by every consumer that asks for
the same ``(format, axis, rounding)`` role.

Residency rides on the same data-version memoization as the frozen
weights (:func:`repro.nn.quantized.memo_quantize`): the payload is cached
on the activation tensor itself, keyed by its monotonic data version, so
it dies with the tensor and can never serve stale data.  Caching only
engages where it is provably bit-identical — leaf tensors (every
activation under ``no_grad``), stateless formats, deterministic rounding;
all other combinations quantize exactly as before.

The module also owns the **fusion switch**: one process-wide flag that
turns on, together, the schedule changes built on residency:

* sharing quantized activation payloads across consumers;
* running bias-add / GELU inside the kernel's output loop
  (:meth:`repro.kernels.base.KernelBackend.matmul_epilogue`) instead of
  as separate full-array passes, and the attention pipeline
  (scale → mask → softmax → context) on raw arrays under ``no_grad``;
* fusing sibling projections that consume the same activation
  (attention Q/K/V, MoE expert ``fc1``\\ s) into one
  concatenated-weight matmul.

``REPRO_FUSION=0`` (or ``off``/``false``/``no``) starts the process with
the flag off, on the unfused schedule: separate projections, Tensor-op
attention and the plain scorer, the paths the parity suites hold the
fused schedule to bit for bit.  Tests and benchmarks toggle it with
:func:`configure_fusion` / :func:`fusion_disabled`.  Every fused path is
bit-identical to its unfused counterpart for the formats it engages on,
so the flag changes *schedules*, never values.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from ..core.quantize import quantize_call_count, reset_quantize_calls
from .tensor import is_grad_enabled

# NOTE: :mod:`repro.nn.quantized` imports this module for the fusion
# switch, so ``FusedWeightCache.payload`` imports ``memo_quantize`` lazily
# (once per weight version, not a per-op hot path).

__all__ = [
    "FusedWeightCache",
    "fusion_enabled",
    "configure_fusion",
    "fusion_disabled",
    "supports_epilogue",
    "supports_fused_projection",
    "quantize_call_count",
    "reset_quantize_calls",
    "FUSION_ENV_VAR",
]

#: Environment variable that sets the process-start default of the fusion
#: switch: ``0`` / ``off`` / ``false`` / ``no`` start on the unfused
#: schedule; anything else (or unset) starts fused.
FUSION_ENV_VAR = "REPRO_FUSION"

# process-wide: serving worker threads share one schedule
_ENABLED = os.environ.get(FUSION_ENV_VAR, "1").strip().lower() not in (
    "0", "off", "false", "no"
)


def fusion_enabled() -> bool:
    """Whether the fused inference schedule is on."""
    return _ENABLED


def configure_fusion(enabled: bool) -> bool:
    """Turn the fused schedule on or off; returns the previous setting.

    Process-wide — a serving session's workers all observe the change.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def fusion_disabled():
    """Run on the unfused schedule, restoring the previous setting after."""
    previous = configure_fusion(False)
    try:
        yield
    finally:
        configure_fusion(previous)


# ----------------------------------------------------------------------
# Fusion eligibility
# ----------------------------------------------------------------------
def supports_epilogue(spec) -> bool:
    """True when a matmul on ``spec`` may run with a fused kernel epilogue.

    Inference-only (the fused kernel returns a raw array with no backward
    closure) and only for quantized specs: the epilogue replays the exact
    unfused elementwise sequence in place, so no format constraints apply
    beyond having a spec at all — full-FP32 layers keep the historical
    Tensor-op path untouched.
    """
    if spec is None or is_grad_enabled():
        return False
    return _ENABLED


def _pow2_scaled(fmt) -> bool:
    """Hardware power-of-two scaling: operand products are exactly
    representable in float64, which makes dot-product accumulation
    order-independent — the property concatenated matmuls rely on."""
    config = getattr(fmt, "config", None)
    return config is not None and getattr(config, "s_type", None) == "pow2"


def supports_fused_projection(spec) -> bool:
    """True when sibling projections of one activation may fuse into a
    single concatenated-weight matmul.

    Demands more than :func:`supports_epilogue`: splitting columns out of
    a wider product is bit-identical to separate products only when every
    dot product is exact (order-independent), which holds for pow2-scaled
    BDR operands (MX/BFP) with deterministic rounding on both roles.
    Software-scaled formats (INT/VSQ), stochastic rounding, stateful
    scaling, and FP32 layers all keep their per-projection matmuls.
    """
    if spec is None or is_grad_enabled() or not _ENABLED:
        return False
    act, weight = spec.activation, spec.weight
    if act is None or weight is None:
        return False
    if spec.rounding == "stochastic":
        return False
    if act.cache_key() is None or weight.cache_key() is None:
        return False
    return _pow2_scaled(act) and _pow2_scaled(weight)


class FusedWeightCache:
    """Concatenated quantized payload of sibling :class:`Linear` layers.

    Attention Q/K/V and MoE expert ``fc1`` weights all multiply the same
    resident activation; this cache concatenates their *individually
    memoized* quantized payloads (so the fused operand is trivially
    bit-identical to the unfused ones) along the output axis, plus the
    matching bias row.  Keyed on every member's weight/bias data version
    and the weight format identity — an optimizer step or re-cast builds
    a fresh payload on the next use.  Rebuilds are idempotent, so a data
    race between serving workers at worst duplicates work.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = None

    def invalidate(self) -> None:
        self._entry = None

    def payload(self, layers, spec) -> tuple[np.ndarray, np.ndarray | None]:
        """(concatenated quantized weight, concatenated bias or None)."""
        from .quantized import memo_quantize

        key = (
            tuple(layer.weight.version for layer in layers),
            tuple(-1 if layer.bias is None else layer.bias.version for layer in layers),
            spec.weight.cache_key(),
            spec.rounding,
        )
        entry = self._entry
        if entry is not None and entry[0] == key:
            return entry[1], entry[2]
        weight = np.concatenate(
            [
                memo_quantize(
                    layer.weight, spec.weight, axis=0,
                    rounding=spec.rounding, rng=spec.rng,
                )
                for layer in layers
            ],
            axis=1,
        )
        bias = None
        if all(layer.bias is not None for layer in layers):
            bias = np.concatenate([layer.bias.data for layer in layers])
        self._entry = (key, weight, bias)
        return weight, bias
