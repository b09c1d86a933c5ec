"""Deep-learning substrate: NumPy autograd, layers, optimizers, and the
quantized compute flow of Figure 8."""

from . import functional
from .attention import MultiHeadAttention, causal_mask
from .conv import Conv2d, avg_pool2d, conv2d, im2col, max_pool2d
from .decode import (
    CrossKV,
    DecodeState,
    DecoderLayerKV,
    KVCache,
    RecurrentDecodeState,
    supports_cached_decode,
)
from .layers import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from .losses import bce_with_logits, cross_entropy, mse_loss, nll_loss
from .optim import SGD, Adam, Optimizer
from .precision import VectorPrecision, apply_vector_precision, round_bf16, round_fp16
from .quantized import QuantSpec, quantized_bmm, quantized_matmul
from .recurrent import LSTM, LSTMCell
from .residency import (
    configure_fusion,
    fusion_disabled,
    fusion_enabled,
    quantize_call_count,
    reset_quantize_calls,
)
from .tensor import Tensor, concat, no_grad, stack
from .transformer import DecoderBlock, FeedForward, TransformerBlock, sinusoidal_positions

__all__ = [
    "functional",
    "MultiHeadAttention",
    "causal_mask",
    "Conv2d",
    "avg_pool2d",
    "conv2d",
    "im2col",
    "max_pool2d",
    "GELU",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "Tanh",
    "bce_with_logits",
    "cross_entropy",
    "mse_loss",
    "nll_loss",
    "SGD",
    "Adam",
    "Optimizer",
    "VectorPrecision",
    "apply_vector_precision",
    "round_bf16",
    "round_fp16",
    "QuantSpec",
    "quantized_bmm",
    "quantized_matmul",
    "configure_fusion",
    "fusion_disabled",
    "fusion_enabled",
    "quantize_call_count",
    "reset_quantize_calls",
    "KVCache",
    "CrossKV",
    "DecoderLayerKV",
    "DecodeState",
    "RecurrentDecodeState",
    "supports_cached_decode",
    "LSTM",
    "LSTMCell",
    "Tensor",
    "concat",
    "no_grad",
    "stack",
    "DecoderBlock",
    "FeedForward",
    "TransformerBlock",
    "sinusoidal_positions",
]
