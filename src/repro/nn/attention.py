"""Multi-head attention with the MX compute flow.

All four projections *and* the two attention products (scores, context) are
tensor reductions and run quantized; the softmax is an element-wise op and
runs in the scalar vector precision (BF16 by default in the paper).

Inference runs a fused schedule (see :mod:`repro.nn.residency`): the three
Q/K/V projections collapse into one concatenated-weight matmul over the
*resident* quantized input payload, and one attention body
(:meth:`MultiHeadAttention._attend`) runs the scores product, the
element-wise pipeline (scale → mask → softmax → vector precision) as
in-place ufuncs on the raw score array, and the context product — for the
uncached forward, the cached step and the packed decode step alike.  It
replays the exact unfused operation sequence, so outputs are
bit-identical; training always takes the unfused autograd path.
"""

from __future__ import annotations

import functools

import numpy as np

from ..kernels.registry import get_backend
from . import functional as F
from .layers import Linear, Module
from .precision import VectorPrecision, apply_vector_precision, round_bf16, round_fp16
from .quantized import (
    QuantSpec,
    memo_quantize,
    quantized_bmm,
    quantized_bmm_prequant,
)
from .residency import FusedWeightCache, supports_epilogue, supports_fused_projection
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "causal_mask"]


@functools.lru_cache(maxsize=128)
def causal_mask(t: int) -> np.ndarray:
    """Upper-triangular True mask blocking attention to future positions.

    Memoized with an explicit bound — every layer of every forward asks
    for the same mask, and :func:`causal_mask.cache_info` feeds the
    serving metrics — and returned read-only so the shared array cannot
    be mutated in place.
    """
    mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def _round_vector(data: np.ndarray, precision: str) -> np.ndarray:
    """Array form of :func:`~repro.nn.precision.apply_vector_precision`."""
    if precision == VectorPrecision.BF16:
        return round_bf16(data)
    if precision == VectorPrecision.FP16:
        return round_fp16(data)
    return data


class MultiHeadAttention(Module):
    """Self- or cross-attention over (B, T, D) inputs."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng, quant=quant)
        self.k_proj = Linear(dim, dim, rng=rng, quant=quant)
        self.v_proj = Linear(dim, dim, rng=rng, quant=quant)
        self.out_proj = Linear(dim, dim, rng=rng, quant=quant)
        self.quant = quant
        self.vector_precision = VectorPrecision.FP32
        self._fused_qkv = FusedWeightCache()

    def set_quant(self, quant: QuantSpec | None) -> None:
        self.quant = quant
        for proj in (self.q_proj, self.k_proj, self.v_proj, self.out_proj):
            proj.quant = quant
        self._fused_qkv.invalidate()

    def _split_heads(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    # ------------------------------------------------------------------
    # Inference: fused projections and the one attention body
    # ------------------------------------------------------------------
    def _can_fuse_projections(self) -> bool:
        """All three input projections may collapse into one matmul."""
        spec = self.q_proj.quant
        if not (self.k_proj.quant is spec and self.v_proj.quant is spec):
            return False  # a per-layer policy split the projections apart
        if not supports_fused_projection(spec):
            return False
        projections = (self.q_proj, self.k_proj, self.v_proj)
        with_bias = [proj.bias is not None for proj in projections]
        if any(with_bias) and not all(with_bias):
            return False
        return all(
            proj.vector_precision == VectorPrecision.FP32 for proj in projections
        )

    def _project_qkv(self, x: Tensor, context: Tensor) -> tuple[np.ndarray, ...]:
        """Raw head-split ``(q, k, v)`` arrays, each ``(B, H, T, head_dim)``.

        Self-attention on eligible formats runs one ``x_q @ [W_q | W_k |
        W_v]`` product over the resident quantized payload of ``x`` (plus a
        fused bias epilogue) and returns views of its output columns —
        bit-identical to three separate matmuls because the concatenated
        weight is the concatenation of the *same memoized* per-projection
        payloads and pow2-scaled BDR dot products are exact
        (order-independent) in float64.  Every other case — cross-attention,
        non-eligible formats — runs the three projections and returns their
        data.  Inference only: the arrays carry no autograd history.
        """
        if context is x and self._can_fuse_projections():
            spec = self.q_proj.quant
            weight, bias = self._fused_qkv.payload(
                (self.q_proj, self.k_proj, self.v_proj), spec
            )
            x_q = memo_quantize(x, spec.activation, -1, rounding=spec.rounding, rng=spec.rng)
            fused = get_backend().matmul_epilogue(
                x_q, weight, None if bias is None else "bias", bias
            )
            b, t, _ = fused.shape
            grid = fused.reshape(b, t, 3, self.num_heads, self.head_dim)
            q, k, v = grid.transpose(2, 0, 3, 1, 4)
            return q, k, v
        return tuple(
            self._split_heads(proj(source)).data
            for proj, source in (
                (self.q_proj, x), (self.k_proj, context), (self.v_proj, context)
            )
        )

    def _attend(self, q_q: np.ndarray, kT_q: np.ndarray, mask, v_payload) -> np.ndarray:
        """Scores product → scale → mask → softmax → vector precision → context.

        The inference attention body, shared by the uncached forward, the
        cached step and every stream of the packed decode step
        (:func:`~repro.nn.decode.batched_causal_decode_step`).  ``q_q``
        ``(B, H, T_q, head_dim)`` and ``kT_q`` ``(B, H, head_dim, T_k)``
        already hold the activation quantization; ``v_payload`` is a thunk
        producing the quantized V operand, called *after* the softmax
        weights are quantized so the engine-call order matches the unfused
        path exactly (stochastic rounding and delayed scaling observe
        tensors in the same sequence).  The element-wise steps run in place
        on the raw score array, each ufunc mirroring the Tensor-op chain of
        :meth:`forward` — identical operations and association order, hence
        identical bits.  Returns the head-merged ``(B, T_q, D)`` context,
        ready for ``out_proj``.
        """
        # repro: allow(direct-matmul): fused fast path on already-quantized payloads; proven bit-exact vs dispatch by the equivalence suite
        scores = np.matmul(q_q, kT_q)
        scores *= 1.0 / np.sqrt(self.head_dim)
        if mask is not None:
            np.copyto(scores, -1e9, where=mask)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        weights = self.quant.quantize(
            "activation", _round_vector(scores, self.vector_precision), -1
        )
        # repro: allow(direct-matmul): fused fast path on already-quantized payloads; proven bit-exact vs dispatch by the equivalence suite
        context = np.matmul(weights, v_payload())
        b, h, t, d = context.shape
        return context.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    # ------------------------------------------------------------------
    def forward(
        self,
        x: Tensor,
        context: Tensor | None = None,
        mask: np.ndarray | None = None,
        cache=None,
    ) -> Tensor:
        """Attend ``x`` to ``context`` (defaults to self-attention).

        ``mask`` is a boolean array broadcastable to (T_q, T_k); True
        positions are blocked.  With ``cache``, ``x`` holds only *new*
        positions: K/V come from the cache's frozen quantized payloads and
        only the single-operand side of each product is quantized here —
        the incremental-decoding fast path, bit-identical to the uncached
        computation over the full prefix.  A self-attention cache is a
        :class:`~repro.nn.decode.PagedKVCache` (a
        :class:`~repro.nn.decode.KVCache` is one over a private pool),
        which receives the new K/V through its ``append``; a
        cross-attention memory is a :class:`~repro.nn.decode.CrossKV`.
        """
        if cache is not None:
            return self._forward_cached(x, context, mask, cache)
        context = x if context is None else context
        if supports_epilogue(self.quant):
            # inference: q and k quantize along their trailing head_dim
            # axis and K's payload is view-transposed: blocks are head_dim
            # fibers either way, so this equals quantizing K^T along axis
            # -2 bit-for-bit while skipping the kernel's moveaxis copy
            q, k, v = self._project_qkv(x, context)
            quantize = self.quant.quantize
            q_q = quantize("activation", q, -1)
            kT_q = np.swapaxes(quantize("activation", k, -1), -1, -2)
            return self.out_proj(
                Tensor(self._attend(q_q, kT_q, mask, lambda: quantize("activation", v, -2)))
            )

        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(context))
        v = self._split_heads(self.v_proj(context))
        scores = quantized_bmm(q, k.transpose(0, 1, 3, 2), self.quant)
        scores = scores * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)
        weights = apply_vector_precision(F.softmax(scores, axis=-1), self.vector_precision)
        attended = quantized_bmm(weights, v, self.quant)
        return self.out_proj(self._merge_heads(attended))

    def _forward_cached(self, x, context, mask, cache) -> Tensor:
        """One incremental step against cached quantized K/V payloads.

        Inference-only (the prequant products refuse to run under grad).
        The op sequence mirrors :meth:`forward` exactly — scale, mask,
        softmax, vector precision — so a query row here is bit-identical
        to the same row of the full-prefix computation.  Self-attention
        caches (anything exposing ``append``) receive projections through
        :meth:`_project_qkv`, so the fused Q/K/V matmul also feeds the
        decode path; cross-attention memories keep their frozen-payload
        ``project`` protocol.
        """
        source = x if context is None else context
        if hasattr(cache, "append") and source is x:
            q, k, v = self._project_qkv(x, x)
            cache.append(k, v, spec=self.quant)
            kT_q, v_q = cache.keys_t, cache.values
        else:
            q = self._split_heads(self.q_proj(x)).data
            kT_q, v_q = cache.project(self, source)

        if supports_epilogue(self.quant):
            q_q = self.quant.quantize("activation", q, -1)
            return self.out_proj(Tensor(self._attend(q_q, kT_q, mask, lambda: v_q)))

        scores = quantized_bmm_prequant(Tensor(q), kT_q, self.quant)
        scores = scores * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)
        weights = apply_vector_precision(F.softmax(scores, axis=-1), self.vector_precision)
        attended = quantized_bmm_prequant(weights, v_q, self.quant)
        return self.out_proj(self._merge_heads(attended))
