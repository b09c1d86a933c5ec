"""Decoder-only generative language models (the GPT family stand-in).

The paper trains dense GPTs from 6M to 175B parameters; this ladder keeps
the architecture (pre-norm causal transformer, learned token embeddings,
sinusoidal positions, weight-tied-free LM head) at laptop scale.  Names
follow Table VII; parameter counts are of course far smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.attention import causal_mask
from ..nn.layers import Embedding, LayerNorm, Linear, Module
from ..nn.quantized import QuantSpec
from ..nn.tensor import Tensor, no_grad
from ..nn.transformer import FeedForward, TransformerBlock, sinusoidal_positions

__all__ = ["GPTConfig", "GPT", "GPT_SIZES", "score_candidates"]


@dataclass(frozen=True)
class GPTConfig:
    """Architecture of one ladder member."""

    dim: int
    num_layers: int
    num_heads: int
    max_len: int = 96
    hidden_multiple: int = 4


#: The Table VII ladder, scaled to laptop size (names kept for row mapping).
GPT_SIZES: dict[str, GPTConfig] = {
    "GPT-XS": GPTConfig(dim=16, num_layers=1, num_heads=2),
    "GPT-S": GPTConfig(dim=24, num_layers=2, num_heads=2),
    "GPT-M": GPTConfig(dim=32, num_layers=2, num_heads=4),
    "GPT-L": GPTConfig(dim=48, num_layers=3, num_heads=4),
    "GPT-XL": GPTConfig(dim=64, num_layers=4, num_heads=4),
}


class GPT(Module):
    """Causal transformer language model over integer token sequences."""

    def __init__(
        self,
        vocab_size: int,
        config: GPTConfig,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.vocab_size = vocab_size
        self.config = config
        self.token_emb = Embedding(vocab_size, config.dim, rng=rng)
        self.positions = sinusoidal_positions(config.max_len, config.dim)
        self.blocks = [
            TransformerBlock(
                config.dim,
                config.num_heads,
                hidden=config.hidden_multiple * config.dim,
                rng=rng,
                quant=quant,
                mlp=self._feed_forward,
            )
            for _ in range(config.num_layers)
        ]
        self.ln_f = LayerNorm(config.dim)
        self.head = Linear(config.dim, vocab_size, rng=rng, quant=quant)

    def _feed_forward(self, dim, hidden, rng, quant) -> Module:
        """A block's ``mlp``, built after its attention (RNG draw order)."""
        return FeedForward(dim, hidden, rng=rng, quant=quant)

    def _trunk(self, tokens: np.ndarray) -> Tensor:
        """Final-block hidden states (B, T, D) for a token batch."""
        tokens = np.asarray(tokens)
        t = tokens.shape[-1]
        if t > self.config.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.config.max_len}")
        x = self.token_emb(tokens) + Tensor(self.positions[:t])
        mask = causal_mask(t)
        for block in self.blocks:
            x = block(x, mask=mask)
        return x

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits (B, T, V) for next-token prediction."""
        return self.head(self.ln_f(self._trunk(tokens)))

    def forward_rows(self, tokens: np.ndarray, batch_idx, row_idx) -> Tensor:
        """Logits only at the ``(batch_idx[j], row_idx[j])`` positions.

        The serving scorer reads a handful of continuation rows out of the
        full (B, T, V) logit block; this entry point runs the transformer
        trunk as usual, then gathers the requested rows *before* the final
        LayerNorm and LM head, skipping their cost for every unread
        position.  LayerNorm and the head product are row-local, so each
        returned row is bit-identical to the same row of
        ``forward(tokens)`` whenever the head's dot products are exact
        (the :func:`~repro.nn.residency.supports_fused_projection` gate
        callers apply).  Inference-only: the gather detaches the graph.
        """
        x = self._trunk(tokens)
        picked = Tensor(x.data[np.asarray(batch_idx), np.asarray(row_idx)])
        return self.head(self.ln_f(picked))

    # ------------------------------------------------------------------
    # Incremental decoding (the KV-cache serving path)
    # ------------------------------------------------------------------
    def init_decode_state(self, batch: int = 1):
        """Fresh per-layer KV caches for :meth:`forward_step`."""
        from ..nn.decode import init_causal_decode_state

        return init_causal_decode_state(self, batch)

    def forward_step(self, tokens: np.ndarray, state) -> Tensor:
        """Cached next-token logits over the current window ``tokens`` (B, T).

        Re-runs only the open-block suffix against the state's frozen
        quantized K/V payloads; ``logits[:, -1]`` is bit-identical to
        ``forward(tokens)[:, -1]`` for models passing
        :func:`~repro.nn.decode.supports_cached_decode` (inference only).
        """
        from ..nn.decode import causal_decode_step

        return causal_decode_step(self, tokens, state)

    def loss(self, batch: np.ndarray) -> Tensor:
        """Next-token cross entropy over a (B, T+1) token batch."""
        batch = np.asarray(batch)
        logits = self.forward(batch[:, :-1])
        return F.cross_entropy(logits, batch[:, 1:])

    def eval_loss(self, batches) -> float:
        """Mean LM loss over held-out batches (no gradients)."""
        losses = []
        with no_grad():
            for batch in batches:
                losses.append(float(self.loss(batch).data))
        return float(np.mean(losses))

    def sequence_logprob(self, context: np.ndarray, continuation: np.ndarray) -> float:
        """Total log-probability of ``continuation`` given ``context``.

        Delegates to the family's serving adapter
        (:class:`~repro.serve.adapters.CausalLMAdapter`), which owns the
        scoring computation for both this method and the batched
        :mod:`repro.serve` session path.
        """
        from ..serve.adapters import adapter_for

        return adapter_for(self).sequence_logprob(context, continuation)

    def generate(self, prompt: np.ndarray, max_new_tokens: int = 16, eos: int | None = None):
        """Greedy continuation of ``prompt`` (list of generated token ids)."""
        from ..serve.adapters import adapter_for

        return list(adapter_for(self).generate_stream(prompt, max_new_tokens, eos=eos))


def score_candidates(model: GPT, context: np.ndarray, candidates) -> int:
    """Likelihood-ranked choice: index of the highest-scoring candidate.

    Delegates to the serving adapter, which scores every candidate in one
    right-padded batch.  That is not bit-identical to the historical
    per-candidate loop: the causal mask keeps padded positions out of the
    attention scores, but a shorter candidate's padding rows join its last
    V block along the sequence axis and can move that block's shared
    exponent, so a score may differ from
    :meth:`GPT.sequence_logprob` on the same pair (docs/SERVING.md).
    """
    from ..serve.adapters import adapter_for

    with no_grad():
        result = adapter_for(model).score(
            [{"context": context, "candidates": list(candidates)}]
        )[0]
    return result["choice"]
