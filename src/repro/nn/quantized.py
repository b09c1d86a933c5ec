"""Quantized tensor ops implementing the Figure 8 compute flow.

Rules of the flow (Section V):

* both operands of every tensor-reduction op are quantized *along the
  reduction dimension* (MX is directional);
* the backward pass quantizes the incoming error tensors and a *second*
  copy of the weights, quantized after transposition (quantization and
  transpose do not commute);
* gradients with respect to master weights are accumulated in full
  precision and consumed by an FP32 optimizer;
* element-wise ops run in a scalar format (see
  :mod:`repro.nn.precision`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..formats.base import Format
from .tensor import Tensor, is_grad_enabled

# late binding would cost a sys.modules lookup per matmul; residency has no
# module-level dependency back on this module, so the import is cycle-free
from .residency import fusion_enabled

__all__ = [
    "QuantSpec",
    "quantized_matmul",
    "quantized_matmul_prequant",
    "quantized_bmm",
    "quantized_bmm_prequant",
    "quantize_partial_block",
    "memo_quantize",
]


def _coerce(fmt) -> Format | None:
    """Accept ``Format | str | dict | FormatSpec | None`` for a role."""
    if fmt is None or isinstance(fmt, Format):
        return fmt
    from ..spec.grammar import as_format

    return as_format(fmt)


@dataclass
class QuantSpec:
    """Which format each tensor role is quantized with (None = keep FP32).

    Each role accepts a :class:`Format` instance or any spec spelling the
    :mod:`repro.spec` layer understands (``"mx6"``, ``"bdr(m=4,...)"``, a
    spec dict) — strings are coerced to fresh format instances on
    construction.

    Attributes:
        activation: forward activations (quantized along the reduction dim).
        weight: forward weights (quantized along the reduction dim).
        backward: backward-pass operands — the error tensors, the
            transposed-then-quantized weight copy, and the transposed
            activations entering the weight-gradient product.
        rounding: mantissa rounding mode for all roles.
    """

    activation: Format | str | dict | None = None
    weight: Format | str | dict | None = None
    backward: Format | str | dict | None = None
    rounding: str = "nearest"
    rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self):
        self.activation = _coerce(self.activation)
        self.weight = _coerce(self.weight)
        self.backward = _coerce(self.backward)

    # ------------------------------------------------------------------
    # Constructors for the paper's standard configurations
    # ------------------------------------------------------------------
    @classmethod
    def fp32(cls) -> "QuantSpec":
        """The full-precision baseline (no quantization anywhere)."""
        return cls()

    @classmethod
    def uniform(cls, spec) -> "QuantSpec":
        """Uniform training: the same format for every tensor role.

        This is the paper's MX9 training mode — forward and backward
        matmuls all in MX, no heuristics.  Separate format instances per
        role so stateful formats never share scaling history (a
        :class:`Format` instance is re-derived via its spec spelling to
        keep that guarantee).
        """
        if isinstance(spec, Format):
            from ..spec.grammar import format_to_spec

            spec = format_to_spec(spec)
        return cls(activation=_coerce(spec), weight=_coerce(spec), backward=_coerce(spec))

    @classmethod
    def inference(cls, weight, activation=None) -> "QuantSpec":
        """Direct-cast inference: quantize weights (and optionally
        activations); no backward pass formats."""
        return cls(activation=activation, weight=weight)

    @classmethod
    def finetune(cls, forward, backward=None) -> "QuantSpec":
        """Quantization-aware fine-tuning: narrow forward, wide backward.

        The paper's QAT recipe keeps the backward pass in FP32
        (``backward=None``) while the forward pass runs MX6/MX4.
        """
        if isinstance(forward, Format):
            from ..spec.grammar import format_to_spec

            forward = format_to_spec(forward)
        return cls(activation=_coerce(forward), weight=_coerce(forward), backward=backward)

    # ------------------------------------------------------------------
    # Serialization (the repro.spec declarative layer)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form: role spec strings + rounding (JSON/pickle safe).

        ``rng`` is runtime state and is not serialized.  Raises
        :class:`~repro.spec.grammar.SpecError` when a role holds a format
        with no spec spelling.
        """
        from ..spec.grammar import format_to_spec

        def role(fmt):
            return None if fmt is None else format_to_spec(fmt)

        return {
            "activation": role(self.activation),
            "weight": role(self.weight),
            "backward": role(self.backward),
            "rounding": self.rounding,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuantSpec":
        """Rebuild from :meth:`to_dict` output (fresh format instances)."""
        unknown = set(d) - {"activation", "weight", "backward", "rounding"}
        if unknown:
            raise ValueError(f"unknown QuantSpec keys {sorted(unknown)}")
        return cls(
            activation=d.get("activation"),
            weight=d.get("weight"),
            backward=d.get("backward"),
            rounding=d.get("rounding", "nearest"),
        )

    def quantize(self, role: str, data: np.ndarray, axis: int) -> np.ndarray:
        """Quantize one tensor role, or pass through when unconfigured."""
        fmt = getattr(self, role)
        if fmt is None:
            return data
        return fmt.quantize(data, axis=axis, rounding=self.rounding, rng=self.rng)


def memo_quantize(
    t: Tensor,
    fmt: Format | None,
    axis: int,
    rounding: str = "nearest",
    rng: np.random.Generator | None = None,
    prep=None,
    tag: str | None = None,
) -> np.ndarray:
    """Quantize (a derived view of) a tensor, memoized on its data version.

    Within one forward/backward a weight is quantized up to three times
    even though its data never changes (``Q(w)`` forward, ``Q(w^T)`` in the
    error backprop), and across inference steps or gradient-accumulation
    microbatches the same quantizations repeat verbatim.  Results are
    cached on the tensor itself, keyed by ``(data version, format identity,
    axis, tag, rounding)``; :class:`~repro.nn.tensor.Tensor`'s data version
    counter drops the cache whenever the data is rebound (e.g. an optimizer
    step), so stale reuse is impossible.

    ``prep`` derives the array actually quantized from ``t.data`` (a
    transpose, a conv im2col reshape, ...); callers supplying a ``prep``
    must pick a ``tag`` that uniquely names the derivation, since the
    cache key cannot see the callable itself.

    Only deterministic rounding with a memoizable format (stateless — see
    :meth:`~repro.formats.base.Format.cache_key`) on a *leaf* tensor is
    cached; every other combination quantizes directly, so results are
    always bit-identical to the uncached path.
    """
    data = t.data if prep is None else prep(t.data)
    if fmt is None:
        return data
    key_fmt = fmt.cache_key() if rounding != "stochastic" else None
    if key_fmt is None or t._parents:
        return fmt.quantize(data, axis=axis, rounding=rounding, rng=rng)
    state = t._qstate
    cache = state["cache"]
    if cache is None:
        cache = state["cache"] = {}
    # The version in the key is the correctness anchor; the setter clearing
    # the cache on rebinding merely keeps dead entries from accumulating.
    key = (state["version"], key_fmt, axis, tag, rounding)
    out = cache.get(key)
    if out is None:
        out = fmt.quantize(data, axis=axis, rounding=rounding, rng=rng)
        cache[key] = out
    return out


def _memo_quantize(
    spec: QuantSpec, role: str, t: Tensor, axis: int, transpose: bool = False
) -> np.ndarray:
    """Quantize one tensor role of ``spec`` through :func:`memo_quantize`."""
    return memo_quantize(
        t,
        getattr(spec, role),
        axis,
        rounding=spec.rounding,
        rng=spec.rng,
        prep=(lambda d: np.swapaxes(d, -1, -2)) if transpose else None,
        tag="T" if transpose else None,
    )


def quantized_matmul(
    a: Tensor,
    w: Tensor,
    spec: QuantSpec | None,
    epilogue: tuple[str, np.ndarray | None] | None = None,
) -> Tensor:
    """``a @ w`` with Figure 8 quantization; ``a: (..., K)``, ``w: (K, N)``.

    Forward: ``Q(a) @ Q(w)`` with both operands quantized along ``K``.
    ``Q(a)`` is *resident*: under the fused schedule the payload
    is memoized on ``a``'s data version (leaf tensors, stateless formats,
    deterministic rounding — every activation under ``no_grad``), so
    sibling consumers of the same activation share one quantization.
    Backward:

    * ``dA = Q(g) @ Q(w^T)`` — error quantized along ``N``; the weight is
      transposed *first*, then quantized along its new leading axis.
    * ``dW = Q(a^T) @ Q(g)`` — both quantized along the flattened
      batch-by-row dimension, the reduction dim of the weight gradient.

    Accumulation inside each product is full precision, matching the
    wide fixed-point accumulators of the Figure 6 pipeline.

    ``epilogue`` is an inference-only ``(name, operand)`` pair (e.g.
    ``("bias_gelu", b)``) executed inside the kernel's output loop via
    :meth:`~repro.kernels.base.KernelBackend.matmul_epilogue` —
    bit-identical to running the same ops as separate passes.
    """
    if spec is None:
        if epilogue is not None:
            raise ValueError("epilogue fusion requires a QuantSpec (quantized layers)")
        return a @ w
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D (K, N); got shape {w.shape}")
    if a.shape[-1] != w.shape[0]:
        raise ValueError(f"reduction mismatch: {a.shape} @ {w.shape}")
    if epilogue is not None and is_grad_enabled():
        raise RuntimeError(
            "epilogue fusion serves the inference path; run under no_grad()"
        )

    if fusion_enabled():
        a_q = _memo_quantize(spec, "activation", a, axis=-1)
    else:
        a_q = spec.quantize("activation", a.data, axis=-1)
    w_q = _memo_quantize(spec, "weight", w, axis=0)
    if not is_grad_enabled():
        # Inference fast path: no backward closure, and in particular no
        # allocation/quantization of the transposed backward weight copy.
        # The forward product is computed from the exact same quantized
        # operands, so outputs are bit-identical to the training path.
        if epilogue is not None:
            from ..kernels.registry import get_backend

            name, operand = epilogue
            return Tensor(get_backend().matmul_epilogue(a_q, w_q, name, operand))
        return Tensor(a_q @ w_q)
    out_data = a_q @ w_q

    def backward(grad):
        if a.requires_grad:
            g_q = spec.quantize("backward", grad, axis=-1)
            wt_q = _memo_quantize(spec, "backward", w, axis=0, transpose=True)
            a._accumulate(g_q @ wt_q)
        if w.requires_grad:
            g2 = grad.reshape(-1, w.shape[1])
            a2 = a.data.reshape(-1, w.shape[0])
            g2_q = spec.quantize("backward", g2, axis=0)
            at_q = spec.quantize("backward", a2.T, axis=-1)
            w._accumulate(at_q @ g2_q)

    return Tensor._make(out_data, (a, w), backward)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def quantized_bmm(a: Tensor, b: Tensor, spec: QuantSpec | None) -> Tensor:
    """Batched ``a @ b`` with both operands quantized along the reduction dim.

    Used for the attention score and context products, which are tensor
    reductions and therefore run in MX during training (Section V).
    ``a: (..., M, K)``, ``b: (..., K, N)``; batch dims broadcast.
    """
    if spec is None:
        return a @ b

    a_q = _memo_quantize(spec, "activation", a, axis=-1)
    b_q = _memo_quantize(spec, "activation", b, axis=-2)
    if not is_grad_enabled():
        # Inference fast path (see quantized_matmul): skip the backward
        # closure and its transposed-operand quantizations entirely.
        return Tensor(a_q @ b_q)
    out_data = a_q @ b_q

    def backward(grad):
        if a.requires_grad:
            g_q = spec.quantize("backward", grad, axis=-1)
            bt_q = _memo_quantize(spec, "backward", b, axis=-2, transpose=True)
            a._accumulate(_unbroadcast(g_q @ bt_q, a.shape))
        if b.requires_grad:
            at_q = _memo_quantize(spec, "backward", a, axis=-1, transpose=True)
            g_q = spec.quantize("backward", grad, axis=-2)
            b._accumulate(_unbroadcast(at_q @ g_q, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def quantized_matmul_prequant(
    a_q: np.ndarray,
    w: Tensor,
    spec: QuantSpec,
    epilogue: tuple[str, np.ndarray | None] | None = None,
) -> Tensor:
    """``a_q @ Q(w)`` against an already-quantized activation payload.

    The residency form of :func:`quantized_matmul`: ``a_q`` is a raw array
    that already holds the spec's activation quantization of the logical
    input (e.g. one slice of a fused sibling-projection output quantized
    in a single block-aligned call), so only the memoized weight payload
    is fetched here.  Bit-identical to ``quantized_matmul(Tensor(a_raw),
    w, spec)`` whenever ``a_q == spec.quantize("activation", a_raw)`` —
    the caller's invariant.  Inference only.
    """
    if is_grad_enabled():
        raise RuntimeError(
            "quantized_matmul_prequant serves the inference path; "
            "run it under no_grad()"
        )
    w_q = _memo_quantize(spec, "weight", w, axis=0)
    if epilogue is not None:
        from ..kernels.registry import get_backend

        name, operand = epilogue
        return Tensor(get_backend().matmul_epilogue(a_q, w_q, name, operand))
    return Tensor(a_q @ w_q)


# ----------------------------------------------------------------------
# Incremental-decoding entry points (the KV-cache fast paths)
# ----------------------------------------------------------------------
def quantized_bmm_prequant(a: Tensor, b_q: np.ndarray, spec: QuantSpec | None) -> Tensor:
    """Single-new-operand ``a @ b_q`` against a cached quantized payload.

    The decode-step form of :func:`quantized_bmm`: ``b_q`` is a raw array
    already holding quantized values (a KV-cache payload frozen at append
    time), so only ``a`` — the one new query row or softmax row — is
    quantized here, along its trailing reduction dim.  Bit-identical to
    ``quantized_bmm(a, Tensor(b_raw), spec)`` whenever ``b_q`` equals the
    spec's activation quantization of ``b_raw`` (the KV-cache invariant).

    Inference only: caches hold no autograd history, so this path refuses
    to run with gradients enabled rather than silently detach the graph.
    """
    if is_grad_enabled():
        raise RuntimeError(
            "quantized_bmm_prequant serves the inference decode path; "
            "run it under no_grad()"
        )
    if spec is None:
        return Tensor(a.data @ b_q)
    a_q = spec.quantize("activation", a.data, axis=-1)
    return Tensor(a_q @ b_q)


def quantize_partial_block(
    data: np.ndarray,
    fmt: Format | None,
    axis: int,
    rounding: str = "nearest",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Quantize a single (possibly partial) block of a growing tensor.

    The KV-cache tail path: when a decode step appends a token, only the
    unsealed tail block of the sequence-blocked V cache changes, and this
    entry requantizes exactly that slice (``data`` no longer than one
    block along ``axis``).  Dispatches to
    :meth:`~repro.formats.base.Format.quantize_partial`, which block
    formats route through the kernels' plan-free partial-block path; the
    result is bit-identical to a full-tensor quantize of the same rows.
    """
    if fmt is None:
        return data
    return fmt.quantize_partial(data, axis=axis, rounding=rounding, rng=rng)
