"""Module system and the basic layers of the model zoo."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..kernels.plan import checkout_scratch, release_scratch
from . import functional as F
from .precision import VectorPrecision, apply_vector_precision
from .quantized import QuantSpec, memo_quantize, quantized_matmul
from .residency import fusion_enabled, supports_epilogue
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "GELU",
    "Tanh",
]


class Module:
    """Minimal module base: parameter discovery, mode flags, state dicts."""

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Module):
                yield from value.named_modules(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(f"{name}.{i}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    # Serialization (used by direct-cast / fine-tune flows)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].copy()

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``x @ W + b`` with optional BDR quantization.

    ``quant`` holds a :class:`~repro.nn.quantized.QuantSpec`; ``None`` means
    full precision.  The bias add runs in the layer's vector precision.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        quant: QuantSpec | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(
            rng.uniform(-scale, scale, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        self.quant = quant
        self.vector_precision = VectorPrecision.FP32

    def forward(self, x: Tensor) -> Tensor:
        if (
            self.bias is not None
            and self.vector_precision == VectorPrecision.FP32
            and supports_epilogue(self.quant)
        ):
            # inference fast path: the bias add runs inside the kernel's
            # output loop (bit-identical to the separate pass below)
            return quantized_matmul(
                x, self.weight, self.quant, epilogue=("bias", self.bias.data)
            )
        out = quantized_matmul(x, self.weight, self.quant)
        if self.bias is not None:
            out = out + self.bias
        return apply_vector_precision(out, self.vector_precision)


class Embedding(Module):
    """Token embedding table, optionally quantized for storage.

    ``storage_quant`` emulates keeping the table itself in a narrow format
    (the DLRM memory optimization of Section V): lookups read the quantized
    values while the master table stays FP32 for the optimizer.
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator | None = None,
        storage_quant=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weight = Tensor(
            rng.normal(scale=0.02, size=(num_embeddings, dim)), requires_grad=True
        )
        self.storage_quant = storage_quant

    def forward(self, indices: np.ndarray) -> Tensor:
        if self.storage_quant is None:
            return F.embedding(self.weight, indices)
        # Memoized on the table's data version: the quantized table is
        # computed once and reused until the master weights change.
        quantized = memo_quantize(
            self.weight, self.storage_quant, axis=-1, tag="storage"
        )
        gathered = quantized[np.asarray(indices)]

        def backward(grad):
            full = np.zeros_like(self.weight.data)
            np.add.at(
                full,
                np.asarray(indices).reshape(-1),
                grad.reshape(-1, self.weight.shape[-1]),
            )
            self.weight._accumulate(full)

        return Tensor._make(gathered, (self.weight,), backward)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.weight = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps
        self.vector_precision = VectorPrecision.FP32

    def forward(self, x: Tensor) -> Tensor:
        if (
            self.vector_precision == VectorPrecision.FP32
            and fusion_enabled()
            and not is_grad_enabled()
        ):
            # inference: replay F.layer_norm's exact ufunc sequence on the
            # raw array (same operations, same association order — mean as
            # sum times reciprocal, centering as adding the negation), so
            # the output is bit-identical without ~10 autograd Tensor ops;
            # one full-size allocation (the output) plus pooled scratch
            data = x.data
            inv_n = 1.0 / float(data.shape[-1])
            mu = data.sum(axis=-1, keepdims=True)
            mu *= inv_n
            out = np.add(data, -mu)
            scratch = checkout_scratch(out.shape)
            try:
                np.multiply(out, out, out=scratch)
                var = scratch.sum(axis=-1, keepdims=True)
            finally:
                release_scratch(scratch)
            var *= inv_n
            var += self.eps
            np.sqrt(var, out=var)
            out /= var
            out *= self.weight.data
            out += self.bias.data
            return Tensor(out)
        out = F.layer_norm(x, self.weight, self.bias, self.eps)
        return apply_vector_precision(out, self.vector_precision)


class Dropout(Module):
    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()
