"""Transformer building blocks shared by the GPT / BERT / NMT stand-ins."""

from __future__ import annotations

import functools

import numpy as np

from . import functional as F
from .attention import MultiHeadAttention
from .layers import Dropout, GELU, LayerNorm, Linear, Module
from .precision import VectorPrecision
from .quantized import QuantSpec, quantized_matmul
from .residency import supports_epilogue
from .tensor import Tensor

__all__ = ["FeedForward", "TransformerBlock", "DecoderBlock", "sinusoidal_positions"]


@functools.lru_cache(maxsize=64)
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Standard fixed sinusoidal positional encodings (length, dim).

    Memoized with an explicit bound — every model instance of a given
    geometry rebuilds the same table, and :func:`sinusoidal_positions
    .cache_info` feeds the serving metrics — and returned read-only so
    the shared array stays immutable.
    """
    position = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    out = np.zeros((length, dim))
    out[:, 0::2] = np.sin(position * div)
    out[:, 1::2] = np.cos(position * div[: (dim + 1) // 2])
    out.setflags(write=False)
    return out


class FeedForward(Module):
    """Two-layer GELU MLP."""

    def __init__(
        self,
        dim: int,
        hidden: int | None = None,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        super().__init__()
        hidden = hidden or 4 * dim
        self.fc1 = Linear(dim, hidden, rng=rng, quant=quant)
        self.fc2 = Linear(hidden, dim, rng=rng, quant=quant)
        self.act = GELU()

    def forward(self, x: Tensor) -> Tensor:
        fc1 = self.fc1
        if (
            type(self.act) is GELU
            and fc1.bias is not None
            and fc1.vector_precision == VectorPrecision.FP32
            and supports_epilogue(fc1.quant)
        ):
            # inference: bias add + tanh-GELU run inside the kernel's
            # output loop, bit-identical to the separate passes below
            hidden = quantized_matmul(
                x, fc1.weight, fc1.quant, epilogue=("bias_gelu", fc1.bias.data)
            )
            return self.fc2(hidden)
        return self.fc2(self.act(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm encoder block: LN -> attention -> LN -> MLP, residual.

    ``mlp`` builds the feed-forward, called as ``mlp(dim, hidden, rng=,
    quant=)`` after the attention has drawn its weights; a mixture of
    experts (:class:`~repro.models.moe.MoEFeedForward`) fits the slot.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        hidden: int | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
        mlp=FeedForward,
    ):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, rng=rng, quant=quant)
        self.ln2 = LayerNorm(dim)
        self.mlp = mlp(dim, hidden, rng=rng, quant=quant)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None, cache=None) -> Tensor:
        """``cache`` is a :class:`~repro.nn.decode.PagedKVCache` (or a
        :class:`~repro.nn.decode.KVCache`, one over a private pool) for
        incremental decoding: ``x`` then carries only the new positions."""
        x = x + self.drop(self.attn(self.ln1(x), mask=mask, cache=cache))
        return x + self.drop(self.mlp(self.ln2(x)))


class DecoderBlock(Module):
    """Pre-norm decoder block with cross-attention (for enc-dec models)."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        hidden: int | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.self_attn = MultiHeadAttention(dim, num_heads, rng=rng, quant=quant)
        self.ln2 = LayerNorm(dim)
        self.cross_attn = MultiHeadAttention(dim, num_heads, rng=rng, quant=quant)
        self.ln3 = LayerNorm(dim)
        self.mlp = FeedForward(dim, hidden, rng=rng, quant=quant)
        self.drop = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        self_mask: np.ndarray | None = None,
        cross_mask: np.ndarray | None = None,
        cache=None,
    ) -> Tensor:
        """``cache`` is a :class:`~repro.nn.decode.DecoderLayerKV` pairing a
        self-attention KV cache with the frozen cross-attention memory
        payloads; ``x`` then carries only the new target positions."""
        self_kv = cache.self_kv if cache is not None else None
        cross_kv = cache.cross_kv if cache is not None else None
        x = x + self.drop(self.self_attn(self.ln1(x), mask=self_mask, cache=self_kv))
        x = x + self.drop(
            self.cross_attn(self.ln2(x), context=memory, mask=cross_mask, cache=cross_kv)
        )
        return x + self.drop(self.mlp(self.ln3(x)))
