"""The fused fast-path backend: allocation-lean NumPy kernels.

Bit-exact with the reference backend (enforced by the equivalence suite
across the whole design space) while doing strictly less work per call:

* shared exponents come straight from the IEEE-754 bit pattern of the
  sub-block maxima (``bits >> 52``) instead of a ``log2 -> clip -> exp2``
  chain, and the block exponent is the max of the sub-block exponents, so
  the second full-size ``abs``/``max`` pass disappears;
* power-of-two grid steps (and their exact reciprocals) are assembled by
  packing the exponent field directly, so the per-element division becomes
  an exact multiply;
* steps broadcast as ``(..., blocks, subblocks, 1)`` views — never
  ``np.repeat``-materialized to element shape;
* round-to-nearest-even uses the in-place two-op magic-number shift
  (``+= 1.5 * 2**52; -= 1.5 * 2**52``) instead of ``np.rint``, with the
  code clamp folded into the shifted window as one ``np.clip``;
* pow2 kernels are single-buffer: the output array itself carries the
  absolute values, the rounding quotient, and the clipped codes through
  ``out=`` stages (software-scaled families keep a plan-cached scratch);
* blocking is a pure reshape view when the axis length divides ``k1``
  (every nn layer and the whole Figure 7 sweep), via the
  :class:`~repro.kernels.plan.QuantPlan` cache.

Exactness notes.  The bit tricks change *intermediate* encodings, never
post-clip results: (1) subnormal block maxima read as exponent ``-1023``
rather than the reference's zero sentinel, but both land on the clamp
bottom whenever the ``d1`` exponent range sits inside the normal float64
range; (2) the magic-number shift equals ``np.rint`` exactly for
``|q| <= 2**51`` and may differ by one ulp-of-one beyond that — where both
results saturate to ``qmax`` after clipping anyway.  Configs whose
exponent ranges violate these preconditions (``d1`` wider than ~11 bits on
a pow2 scale, ``m > 50``) delegate to the reference backend, as do
``detailed`` requests — inspection calls off the hot path, delegated so
the decomposition fields stay trivially identical — and pow2 inputs whose
blocks contain inf/NaN (their exponent field reads 0x7ff, where the bit
trick and the frexp path part ways; detected on the per-block maxima for
free and handed back to the reference engine).
"""

from __future__ import annotations

import numpy as np

from ..core.rounding import apply_rounding
from ..core.scaling import amax_scale, exponent_range
from .base import KernelBackend, _SQRT_2_OVER_PI, check_epilogue
from .plan import checkout_scratch, get_plan, release_scratch
from .reference import ReferenceBackend, _as_fp32, _broadcast_override

__all__ = ["NumpyBackend"]

_REFERENCE = ReferenceBackend()

#: Below this element count the plan/scratch machinery (LRU lock traffic,
#: checkout bookkeeping) costs more than it saves; such calls run through
#: the plan-free kernel instead.  Single-token decode steps live here.
_SMALL_SIZE = 8192

#: Target tile size (elements) for chunking large pow2 quantizations.
#: Quantization is fiber-local along the block axis, so slicing any other
#: axis cannot change a single output bit — but it keeps the kernel's
#: working set (input, scratch/output, padding) inside the L2 cache,
#: which measures 25-40% faster than one full-array pass once the
#: buffers spill.  Calls near the target run whole.
_TILE_ELEMS = 24576

#: Adding then subtracting 1.5 * 2^52 rounds float64 to the nearest integer
#: (ties to even) using two adds instead of a libm rint pass.
_MAGIC = 1.5 * 2.0**52
#: Exponent payloads this far inside the normal range keep every derived
#: step and reciprocal a normal float64 (no subnormal corner cases).
_EXP_LIMIT = 1021


class _NonFiniteInput(Exception):
    """Raised by the fused pow2 kernel when a block holds inf/NaN."""


class NumpyBackend(KernelBackend):
    """Fused, plan-cached engine; the default backend."""

    name = "numpy"

    def quantize(self, x, config, axis, rounding, rng, scale_override, detailed):
        if detailed or config.m > 50:
            return _REFERENCE.quantize(
                x, config, axis, rounding, rng, scale_override, detailed
            )
        if config.s_type == "pow2":
            if not _pow2_exponents_safe(config):
                return _REFERENCE.quantize(
                    x, config, axis, rounding, rng, scale_override, detailed
                )
            if x.size <= _SMALL_SIZE:
                try:
                    return _pow2_noplan(x, config, axis, rounding, rng)
                except _NonFiniteInput:
                    return _REFERENCE.quantize(
                        x, config, axis, rounding, rng, scale_override, detailed
                    )
            if scale_override is None and x.size > 2 * _TILE_ELEMS and x.ndim > 1:
                tiled = self._pow2_tiled(x, config, axis, rounding, rng)
                if tiled is not None:
                    return tiled

        plan = get_plan(x.shape, axis, config.k1, config.k2, x.dtype)
        blocked = plan.block(x)
        if config.s_type == "pow2":
            # single-buffer: the freshly allocated output array doubles as
            # the working scratch (|x|, quotients, codes, values in turn),
            # shrinking the kernel's cache footprint to input + output
            try:
                values = _pow2_fused(blocked, np.empty(plan.blocked_shape),
                                     plan.sub_shape, config, rounding, rng)
            except _NonFiniteInput:
                values = None
        else:
            work = plan.checkout()
            try:
                if config.ss_type == "int":
                    values = _vsq_fused(blocked, work, plan, config, rounding,
                                        rng, scale_override)
                else:
                    values = _int_fused(blocked, work, config, rounding, rng,
                                        scale_override)
            except _NonFiniteInput:
                values = None
            finally:
                plan.release(work)
        if values is None:
            return _REFERENCE.quantize(
                x, config, axis, rounding, rng, scale_override, detailed
            )
        return plan.restore(values)

    def _pow2_tiled(self, x, config, axis, rounding, rng):
        """Chunk a large pow2 quantization along a non-block axis.

        Returns ``None`` when no useful split exists (the block axis is
        the only non-trivial one, or one row already exceeds the tile
        target).  Each chunk re-enters :meth:`quantize` — so per-chunk
        non-finite fallbacks and rounding semantics are exactly those of
        the whole-array call — and lands in a preallocated output.
        """
        axis = axis % x.ndim
        split = 0 if axis != 0 else 1
        rows = x.shape[split]
        per_row = x.size // rows
        chunk = max(1, _TILE_ELEMS // per_row)
        if rows <= chunk or per_row > _TILE_ELEMS:
            return None
        out = np.empty(x.shape, dtype=np.float64)
        index = [slice(None)] * x.ndim
        for start in range(0, rows, chunk):
            index[split] = slice(start, start + chunk)
            sl = tuple(index)
            out[sl] = self.quantize(x[sl], config, axis, rounding, rng, None, False)
        return out

    def quantize_partial(self, x, config, axis, rounding, rng):
        """Partial-block entry point (see :meth:`KernelBackend.quantize_partial`).

        Routes pow2 configs through the plan-free fused kernel regardless of
        size: KV-cache tail shapes change every decode step, and feeding
        them to the plan LRU would evict the steady-state training/serving
        plans.  Software-scaled and wide-exponent configs fall back to the
        generic path (bit-identical by the backend contract).
        """
        if config.m > 50 or config.s_type != "pow2":
            return self.quantize(x, config, axis, rounding, rng, None, False)
        if not _pow2_exponents_safe(config):
            return _REFERENCE.quantize(x, config, axis, rounding, rng, None, False)
        try:
            return _pow2_noplan(x, config, axis, rounding, rng)
        except _NonFiniteInput:
            return _REFERENCE.quantize(x, config, axis, rounding, rng, None, False)

    def matmul_epilogue(self, a, w, epilogue=None, bias=None):
        """Fused ``a @ w`` + epilogue: one ``out=`` product, in-place tail.

        The product lands directly in the output buffer (no intermediate
        handoff), the bias add and GELU run as in-place ufuncs on it, and
        the single GELU temporary (the tanh argument) comes from the
        shared scratch pool.  Every elementwise op matches the unfused
        reference sequence in operation and association order, so results
        are bit-identical to :meth:`KernelBackend.matmul_epilogue` (the
        equivalence suite asserts this across formats and shapes).
        """
        check_epilogue(epilogue, bias)
        out = np.empty(a.shape[:-1] + (w.shape[-1],), dtype=np.float64)
        np.matmul(a, w, out=out)
        if epilogue in ("bias", "bias_gelu"):
            out += bias
        if epilogue in ("gelu", "bias_gelu"):
            _gelu_inplace(out)
        return out


def _gelu_inplace(out: np.ndarray) -> None:
    """Tanh-GELU on ``out`` in place, scratch-pooled single temporary.

    Mirrors ``x * (tanh((x + (x*x)*x * 0.044715) * sqrt(2/pi)) + 1) * 0.5``
    with the reference association order, so each element sees the exact
    same float64 operation sequence as the unfused path.
    """
    scratch = checkout_scratch(out.shape)
    try:
        np.multiply(out, out, out=scratch)      # x * x
        scratch *= out                          # (x * x) * x
        scratch *= 0.044715
        scratch += out                          # x + x^3 * 0.044715 (add commutes)
        scratch *= _SQRT_2_OVER_PI
        np.tanh(scratch, out=scratch)
        scratch += 1.0
        out *= scratch                          # x * (tanh(inner) + 1)
        out *= 0.5
    finally:
        release_scratch(scratch)


def _pow2_exponents_safe(config) -> bool:
    """True when every derived step/reciprocal stays a normal float64."""
    lo, hi = exponent_range(config.d1)
    return lo - (config.m - 1) >= -_EXP_LIMIT and hi - (config.m - 1) + 1 <= _EXP_LIMIT


def _pow2_noplan(x, config, axis, rounding, rng):
    """Plan-free pow2 kernel: same fused math, no LRU/scratch traffic.

    Used for small arrays and the partial-block entry point; blocking is a
    local moveaxis + zero-pad + reshape, so nothing is cached and nothing
    contends on the plan lock.  Bit-identical to the planful path (it runs
    the same :func:`_pow2_fused` body on identically padded blocks).
    """
    ndim = x.ndim
    needs_move = axis % ndim != ndim - 1
    moved = np.moveaxis(x, axis, -1) if needs_move else x
    n = moved.shape[-1]
    pad = (-n) % config.k1
    lead = moved.shape[:-1]
    blocks = (n + pad) // config.k1
    if pad:
        padded = np.zeros(lead + (n + pad,), dtype=np.float64)
        padded[..., :n] = moved
    else:
        padded = moved
    blocked = padded.reshape(lead + (blocks, config.k1))
    work = np.empty(blocked.shape, dtype=np.float64)
    sub_shape = lead + (blocks, config.k1 // config.k2, config.k2)
    values = _pow2_fused(blocked, work, sub_shape, config, rounding, rng)
    flat = values.reshape(lead + (n + pad,))
    if pad:
        flat = flat[..., :n]
    return np.moveaxis(flat, -1, axis) if needs_move else flat


def _last_axis_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` tuned for short trailing axes.

    NumPy's reduction machinery pays ~50ns per *output* element, which is
    ruinous when the reduced axis is tiny (k2 = 2 for every MX format: the
    reduction is 30x slower than the equivalent strided ``np.maximum``
    chain).  Longer axes amortize that overhead, so they keep the built-in
    reduction.  Identical results: ``np.max`` is ``maximum.reduce``.
    """
    k = a.shape[-1]
    if k > 64:
        return a.max(axis=-1)
    # pairwise folding: log2(k) wide stride-2 passes instead of a k-element
    # inner loop per output element (max is associative, so the fold order
    # cannot change the result)
    while k > 1 and k % 2 == 0:
        pairs = a.reshape(a.shape[:-1] + (k // 2, 2))
        a = np.maximum(pairs[..., 0], pairs[..., 1])
        k //= 2
    if k == 1:
        return a[..., 0]
    out = np.maximum(a[..., 0], a[..., 1])
    for i in range(2, k):
        np.maximum(out, a[..., i], out=out)
    return out


def _mul_subscale(a: np.ndarray, small: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a * small[..., None]`` tuned for short trailing axes.

    Broadcasting against a trailing length-1 axis makes the ufunc inner
    loop k2 elements long; for k2 <= 4 a handful of wide strided passes is
    substantially faster.  Elementwise products are identical either way.
    """
    k = a.shape[-1]
    if k <= 4:
        for i in range(k):
            np.multiply(a[..., i], small, out=out[..., i])
    else:
        np.multiply(a, small[..., None], out=out)
    return out


def _floor_exponents(amax: np.ndarray) -> np.ndarray:
    """``floor(log2(amax))`` for non-negative float64 via the exponent field.

    Subnormals and zeros read as ``-1023`` — below any representable ``d1``
    clamp handled by this backend, hence interchangeable with the reference
    path's zero sentinel after clipping.
    """
    return (amax.view(np.int64) >> 52) - 1023


def _pow2_and_reciprocal(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(2.0**e, 2.0**-e)`` for int64 ``e`` in the normal range.

    Both are assembled by packing the biased exponent field directly;
    ``(2046 << 52) - bits`` mirrors it, so the reciprocal costs one integer
    subtraction instead of a second pack.
    """
    bits = (e + 1023) << 52
    return bits.view(np.float64), ((2046 << 52) - bits).view(np.float64)


def _pow2_fused(blocked, work, sub_shape, config, rounding, rng):
    """BFP and MX: hardware power-of-two scaling, fused, single-buffer.

    ``blocked``/``work`` have the blocked shape ``(..., blocks, k1)``;
    ``sub_shape`` is the matching ``(..., blocks, k1/k2, k2)``.  Shared by
    the plan-cached path and the plan-free small/partial-block path.
    ``work`` is both scratch and result: it holds ``|x|`` for the maxima,
    then the scaled quotients, then the clipped codes, and finally the
    dequantized values, which are returned in it — one buffer of traffic
    instead of separate scratch and output arrays.

    Nearest rounding folds the clamp into the magic-number window: after
    ``+= 1.5 * 2**52`` every element is exactly ``MAGIC + rint(q)``, so a
    single ``np.clip`` against ``MAGIC ± qmax`` (both exactly
    representable — integer offsets at a scale whose ulp is 1) clamps the
    codes in one pass, bit-identical to rounding first and clamping after.
    Other modes round via :func:`~repro.core.rounding.apply_rounding` and
    clamp with one ``np.clip`` — identical to a ``maximum``/``minimum``
    pair for finite ordered bounds.
    """
    lo, hi = exponent_range(config.d1)
    np.abs(blocked, out=work)

    if config.ss_type == "pow2":
        sub_exp = _floor_exponents(_last_axis_max(work.reshape(sub_shape)))
        raw_block = _last_axis_max(sub_exp)
        # inf and NaN carry exponent field 0x7ff (raw 1024): the bit trick
        # would clamp their blocks to the top exponent where the reference
        # frexp path behaves differently, so hand those inputs back.  The
        # check rides on the already-reduced per-block maxima — no extra
        # full-size pass.
        if raw_block.size and int(raw_block.max()) >= 1024:
            raise _NonFiniteInput
        exp = np.minimum(np.maximum(raw_block, lo), hi)
        np.maximum(sub_exp, lo, out=sub_exp)
        np.minimum(sub_exp, hi, out=sub_exp)
        # step exponent: E - tau - (m-1) with tau = min(E - sub_exp, beta)
        e = np.maximum(sub_exp, exp[..., None] - config.beta)
        e -= config.m - 1
        step, inv_step = _pow2_and_reciprocal(e)
        work_sub = work.reshape(sub_shape)
        _mul_subscale(blocked.reshape(sub_shape), inv_step, work_sub)
        _round_clip_inplace(work, config.qmax, rounding, rng)
        _mul_subscale(work_sub, step, work_sub)
        return work

    raw = _floor_exponents(_last_axis_max(work))
    if raw.size and int(raw.max()) >= 1024:
        raise _NonFiniteInput
    exp = np.minimum(np.maximum(raw, lo), hi)
    step, inv_step = _pow2_and_reciprocal(exp - (config.m - 1))
    _mul_subscale(blocked, inv_step, work)
    _round_clip_inplace(work, config.qmax, rounding, rng)
    _mul_subscale(work, step, work)
    return work


def _round_clip_inplace(buf, qmax, rounding, rng):
    """Round to codes and clamp to ``[-qmax, qmax]``, in place."""
    if rounding == "nearest":
        buf += _MAGIC
        np.clip(buf, _MAGIC - qmax, _MAGIC + qmax, out=buf)
        buf -= _MAGIC
    else:
        _round_inplace(buf, rounding, rng)
        np.clip(buf, -qmax, qmax, out=buf)


def _int_fused(blocked, work, config, rounding, rng, scale_override):
    """Software-scaled symmetric integers, fused."""
    if scale_override is None:
        np.abs(blocked, out=work)
        amax = _last_axis_max(work)
        scale = _as_fp32(amax_scale(amax, config.qmax))
    else:
        scale = _broadcast_override(scale_override, blocked.shape[:-1])

    step = scale[..., None]
    np.divide(blocked, step, out=work)
    _round_inplace(work, rounding, rng)
    np.clip(work, -config.qmax, config.qmax, out=work)
    return work * step


def _vsq_fused(blocked, work, plan, config, rounding, rng, scale_override):
    """VSQ: FP32 scale + integer sub-scales, fused."""
    ss_qmax = (1 << config.d2) - 1
    sub = blocked.reshape(plan.sub_shape)
    work_sub = work.reshape(plan.sub_shape)

    np.abs(blocked, out=work)
    sub_amax = _last_axis_max(work_sub)
    sigma = amax_scale(sub_amax, config.qmax)
    sigma = np.where(sub_amax <= 0, 0.0, sigma)

    if scale_override is None:
        scale = _last_axis_max(sigma) / ss_qmax
        scale = np.where(scale <= 0, 1.0, scale)
        scale = _as_fp32(scale)
    else:
        scale = _broadcast_override(scale_override, blocked.shape[:-1])

    sub_codes = np.clip(np.ceil(sigma / scale[..., None]), 0, ss_qmax)

    step_sub = scale[..., None] * sub_codes
    safe_step = np.where(step_sub <= 0, 1.0, step_sub)
    np.divide(sub, safe_step[..., None], out=work_sub)
    _round_inplace(work_sub, rounding, rng)
    np.clip(work, -config.qmax, config.qmax, out=work)
    np.copyto(work_sub, 0.0, where=step_sub[..., None] <= 0)
    return np.multiply(work_sub, step_sub[..., None]).reshape(plan.blocked_shape)


def _round_inplace(buf, mode, rng):
    """Round ``buf`` to integer codes in place.

    ``nearest`` uses the magic-number shift (identical to ``np.rint`` up to
    clip saturation — see the module docstring); ``truncate`` is a single
    ``np.trunc`` pass; stochastic and unknown modes go through
    :func:`~repro.core.rounding.apply_rounding` for identical semantics.
    """
    if mode == "nearest":
        buf += _MAGIC
        buf -= _MAGIC
    elif mode == "truncate":
        np.trunc(buf, out=buf)
    else:
        buf[...] = apply_rounding(buf, mode, rng)
