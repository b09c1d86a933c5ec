"""The reference quantization backend: the original straight-line NumPy path.

This is the correctness oracle for the subsystem.  It favours clarity over
speed — every intermediate (block maxima, grid steps, codes) is computed
with plain NumPy expressions in the order the paper presents them (Figure
5), so the implementation can be audited line-by-line against the text.
The ``"numpy"`` fast backend must reproduce its outputs bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..core.rounding import apply_rounding
from ..core.scaling import amax_scale, exponent_range, floor_log2
from .base import KernelBackend, QuantizeResult

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """Legacy unfused engine, kept as the bit-exactness oracle."""

    name = "reference"

    def quantize(self, x, config, axis, rounding, rng, scale_override, detailed):
        blocked, restore = _to_blocks(x, config.k1, axis)

        if config.s_type == "pow2":
            result = _quantize_pow2(blocked, config, rounding, rng)
        elif config.ss_type == "int":
            result = _quantize_vsq(blocked, config, rounding, rng, scale_override)
        else:
            result = _quantize_int(blocked, config, rounding, rng, scale_override)

        values = restore(result.values)
        if not detailed:
            return values
        result.values = values
        return result


def _to_blocks(x, k, axis):
    """Reshape so the chosen axis becomes trailing ``(blocks, k)`` pairs.

    Pads with zeros to a multiple of ``k``; zero padding never influences a
    block maximum, so it is numerically inert.  Returns the blocked view and
    a closure undoing the transformation.
    """
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    pad = (-n) % k
    if pad:
        width = [(0, 0)] * (moved.ndim - 1) + [(0, pad)]
        moved = np.pad(moved, width)
    blocked = moved.reshape(moved.shape[:-1] + ((n + pad) // k, k))

    def restore(values):
        flat = values.reshape(values.shape[:-2] + (n + pad,))
        if pad:
            flat = flat[..., :n]
        return np.moveaxis(flat, -1, axis)

    return blocked, restore


def _quantize_pow2(blocked, config, rounding, rng):
    """BFP (d2 = 0) and MX (pow2 sub-scales): hardware-managed scaling."""
    lo, hi = exponent_range(config.d1)
    amax = np.max(np.abs(blocked), axis=-1)
    exp = np.clip(floor_log2(amax), lo, hi)  # shared block exponent E

    if config.ss_type == "pow2":
        shape = blocked.shape[:-1] + (config.num_subblocks, config.k2)
        sub = blocked.reshape(shape)
        sub_amax = np.max(np.abs(sub), axis=-1)
        sub_exp = np.clip(floor_log2(sub_amax), lo, hi)
        tau = np.clip(exp[..., None] - sub_exp, 0, config.beta)
        # grid step per element: 2^(E - tau - (m - 1))
        step_sub = np.exp2((exp[..., None] - tau - (config.m - 1)).astype(np.float64))
        step = np.repeat(step_sub, config.k2, axis=-1).reshape(blocked.shape)
        sub_scale = np.exp2(-tau.astype(np.float64))
    else:
        step = np.exp2((exp - (config.m - 1)).astype(np.float64))[..., None]
        step = np.broadcast_to(step, blocked.shape)
        sub_scale = None

    codes = _round_codes(blocked / step, rounding, rng)
    codes = np.clip(codes, -config.qmax, config.qmax)
    values = codes * step
    scale = np.exp2(exp.astype(np.float64))
    return QuantizeResult(values, codes, scale, sub_scale, step)


def _quantize_int(blocked, config, rounding, rng, scale_override):
    """Software-scaled symmetric integer quantization (FP32 scale)."""
    if scale_override is None:
        amax = np.max(np.abs(blocked), axis=-1)
        scale = _as_fp32(amax_scale(amax, config.qmax))
    else:
        scale = _broadcast_override(scale_override, blocked.shape[:-1])

    step = scale[..., None]
    codes = _round_codes(blocked / step, rounding, rng)
    codes = np.clip(codes, -config.qmax, config.qmax)
    values = codes * step
    return QuantizeResult(values, codes, scale, None, np.broadcast_to(step, blocked.shape))


def _quantize_vsq(blocked, config, rounding, rng, scale_override):
    """VSQ: FP32 level-1 scale plus d2-bit unsigned integer sub-scales.

    Per-sub-block ideal scales are themselves quantized against the level-1
    scale; rounding the sub-scale *up* (ceil) guarantees elements never clip,
    the standard VS-Quant recipe.
    """
    ss_qmax = (1 << config.d2) - 1
    shape = blocked.shape[:-1] + (config.num_subblocks, config.k2)
    sub = blocked.reshape(shape)
    sigma = amax_scale(np.max(np.abs(sub), axis=-1), config.qmax)
    sigma = np.where(np.max(np.abs(sub), axis=-1) <= 0, 0.0, sigma)

    if scale_override is None:
        scale = np.max(sigma, axis=-1) / ss_qmax
        scale = np.where(scale <= 0, 1.0, scale)
        scale = _as_fp32(scale)
    else:
        scale = _broadcast_override(scale_override, blocked.shape[:-1])

    sub_codes = np.ceil(sigma / scale[..., None])
    sub_codes = np.clip(sub_codes, 0, ss_qmax)

    step_sub = scale[..., None] * sub_codes
    safe_step = np.where(step_sub <= 0, 1.0, step_sub)
    codes_sub = _round_codes(sub / safe_step[..., None], rounding, rng)
    codes_sub = np.clip(codes_sub, -config.qmax, config.qmax)
    codes_sub = np.where(step_sub[..., None] <= 0, 0.0, codes_sub)
    values = (codes_sub * step_sub[..., None]).reshape(blocked.shape)
    codes = codes_sub.reshape(blocked.shape)
    step = np.repeat(step_sub, config.k2, axis=-1).reshape(blocked.shape)
    return QuantizeResult(values, codes, scale, sub_codes, step)


def _round_codes(q, rounding, rng):
    """Round scaled values to integer codes; a nearest-rounded zero is +0.0.

    ``np.rint`` returns -0.0 for negative values that round to zero, where
    the fast bodies' magic-number shift returns +0.0.  Adding +0.0 turns
    -0.0 into +0.0 and leaves every other value alone, so the oracle's
    codes match the fast bodies' bit for bit.  Scalar float casts keep
    IEEE's signed zero: they round through
    :func:`~repro.core.rounding.apply_rounding` directly.
    """
    codes = apply_rounding(q, rounding, rng)
    if rounding == "nearest":
        codes += 0.0
    return codes


def _broadcast_override(scale_override, block_shape):
    """FP32-round a scale override, then broadcast it as a *view*.

    The fp32 round-trip happens on the (typically scalar) override before
    broadcasting, so a scalar override never materializes a full per-block
    array — it stays a zero-stride view through the whole kernel.  The
    round-trip is idempotent, so the values are identical to rounding after
    materialization.
    """
    override = _as_fp32(np.asarray(scale_override, dtype=np.float64))
    return np.broadcast_to(override, block_shape)


def _as_fp32(scale):
    """Scales are stored in FP32 by the software formats; round-trip them."""
    return scale.astype(np.float32).astype(np.float64)
