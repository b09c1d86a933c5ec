"""Mixture-of-Experts generative model (the DeepSpeed-MoE stand-in).

The paper trains a 1.9B MoE with MX9 (Table VII) and notes one precision
exception: "the Softmax in the mixture-of-experts gating function" runs in
FP32 rather than BF16 (Section V).  The gating softmax here is therefore
always kept in full vector precision.

Routing substitution: the reference model uses sparse top-1 routing; with
a handful of laptop-scale experts we use the dense softmax-weighted mixture
(every expert evaluated, gate-weighted sum), which preserves the numerical
role of the gate while staying differentiable end to end.
"""

from __future__ import annotations

import numpy as np

from ..kernels.registry import get_backend
from ..nn import functional as F
from ..nn.layers import Linear, Module
from ..nn.precision import VectorPrecision
from ..nn.quantized import QuantSpec, memo_quantize
from ..nn.residency import FusedWeightCache, supports_epilogue, supports_fused_projection
from ..nn.tensor import Tensor
from .gpt import GPT, GPTConfig

__all__ = ["MoEFeedForward", "MoEGPT"]


class MoEFeedForward(Module):
    """Dense softmax-gated mixture of GELU-MLP experts.

    At inference the expert ``fc1`` layers all consume the same block
    input: the router input is quantized **once** (the resident payload is
    shared by the gate and every expert), and when the installed formats
    make concatenated products exact (see
    :func:`~repro.nn.residency.supports_fused_projection`) the expert
    up-projections fuse into a single ``x_q @ [W_1 | ... | W_E]`` matmul
    with a ``bias_gelu`` kernel epilogue — bit-identical to the
    per-expert loop, which training always uses.
    """

    def __init__(
        self,
        dim: int,
        num_experts: int = 4,
        hidden: int | None = None,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        super().__init__()
        hidden = hidden or 4 * dim
        rng = rng or np.random.default_rng()
        self.gate = Linear(dim, num_experts, rng=rng, quant=quant)
        self.experts_fc1 = [Linear(dim, hidden, rng=rng, quant=quant) for _ in range(num_experts)]
        self.experts_fc2 = [Linear(hidden, dim, rng=rng, quant=quant) for _ in range(num_experts)]
        self._fused_fc1 = FusedWeightCache()

    def _can_fuse_experts(self) -> bool:
        spec = self.experts_fc1[0].quant
        if not all(
            fc1.quant is spec and fc2.quant is spec
            for fc1, fc2 in zip(self.experts_fc1, self.experts_fc2)
        ):
            return False  # a per-layer policy split the experts apart
        # the fused path concatenates projections AND runs kernel
        # epilogues (bias_gelu, the in-place mixture), so both stages
        # must be enabled for the toggles to isolate what they claim
        if not (supports_fused_projection(spec) and supports_epilogue(spec)):
            return False
        return all(
            layer.bias is not None and layer.vector_precision == VectorPrecision.FP32
            for layer in (*self.experts_fc1, *self.experts_fc2)
        )

    def forward(self, x: Tensor) -> Tensor:
        # gating softmax stays FP32 (the paper's explicit exception); the
        # gate's product also makes x's quantized payload resident, so the
        # experts below reuse it instead of requantizing
        weights = F.softmax(self.gate(x), axis=-1)
        if self._can_fuse_experts():
            return self._forward_fused(x, weights)
        out = None
        for i, (fc1, fc2) in enumerate(zip(self.experts_fc1, self.experts_fc2)):
            expert_out = fc2(F.gelu(fc1(x)))
            gated = expert_out * weights[:, :, i : i + 1]
            out = gated if out is None else out + gated
        return out

    def _forward_fused(self, x: Tensor, weights: Tensor) -> Tensor:
        """One concatenated up-projection for every expert (inference).

        The whole mixture runs on raw arrays: one ``bias_gelu`` epilogue
        produces every expert's hidden block, each down-projection
        consumes its slice through the fused-bias kernel (per-expert
        quantizes keep the kernel's working set cache-sized — faster than
        one ``(…, E*hidden)`` call despite the extra engine entries, and
        bit-identical either way), and the gate weighting/accumulation
        run as in-place ufuncs replaying the Tensor chain exactly.
        """
        spec = self.experts_fc1[0].quant
        backend = get_backend()
        w_cat, b_cat = self._fused_fc1.payload(self.experts_fc1, spec)
        x_q = memo_quantize(x, spec.activation, -1, rounding=spec.rounding, rng=spec.rng)
        hidden_all = backend.matmul_epilogue(x_q, w_cat, "bias_gelu", b_cat)
        hidden = self.experts_fc1[0].out_features
        gates = weights.data
        out = None
        for i, fc2 in enumerate(self.experts_fc2):
            h_i = hidden_all[..., i * hidden : (i + 1) * hidden]
            a_q = spec.activation.quantize(
                h_i, axis=-1, rounding=spec.rounding, rng=spec.rng
            )
            w_q = memo_quantize(
                fc2.weight, spec.weight, 0, rounding=spec.rounding, rng=spec.rng
            )
            expert_out = backend.matmul_epilogue(a_q, w_q, "bias", fc2.bias.data)
            expert_out *= gates[:, :, i : i + 1]
            if out is None:
                out = expert_out
            else:
                out += expert_out
        return Tensor(out)


class MoEGPT(GPT):
    """Causal LM whose blocks hold a :class:`MoEFeedForward` in the ``mlp`` slot.

    Everything else — trunk, scoring, generation, cached and packed decode —
    is :class:`~repro.models.gpt.GPT`'s.  The mixture is row-local (the
    gate softmax runs along the expert axis of each row), so
    :func:`~repro.nn.decode.supports_batched_decode` certifies the packed
    decode step for it exactly as for the dense MLP.
    """

    def __init__(
        self,
        vocab_size: int,
        config: GPTConfig,
        num_experts: int = 4,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        self.num_experts = num_experts
        super().__init__(vocab_size, config, rng=rng, quant=quant)

    def _feed_forward(self, dim, hidden, rng, quant) -> MoEFeedForward:
        # experts are 4 * dim wide whatever the config's hidden_multiple
        return MoEFeedForward(dim, self.num_experts, rng=rng, quant=quant)
