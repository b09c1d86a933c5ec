"""A reverse-mode autograd engine over NumPy arrays.

This is the substrate standing in for the paper's PyTorch + custom-CUDA
emulation stack: tensors record their producing operation, and
:meth:`Tensor.backward` walks the graph in reverse topological order.
Gradients accumulate in full precision; quantization of the compute flow is
layered on top in :mod:`repro.nn.quantized`.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread grad flag: serving worker threads run under ``no_grad``
    without affecting a training loop on another thread (and two threads'
    nested contexts can never corrupt each other's restore)."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the context (inference mode).

    The flag is thread-local; each new thread starts with grad enabled.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    # sum away leading broadcast dimensions
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were 1 in the original shape
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an optional gradient and a backward closure."""

    __slots__ = (
        "_data", "grad", "requires_grad", "_backward", "_parents", "name",
        "_qstate",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ):
        # Shared (not per-Tensor) so aliases created via detach() observe
        # mutations made through the original handle; see `version`.
        self._qstate = {"version": 0, "cache": None}
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Data versioning
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        # Every rebinding (including augmented in-place updates, which
        # re-assign the attribute) bumps the version and drops memoized
        # quantizations of the old contents.
        self._data = np.asarray(value, dtype=np.float64)
        self._qstate["version"] += 1
        self._qstate["cache"] = None

    @property
    def version(self) -> int:
        """Monotonic data version; consumers key caches on it.

        The version state is *shared* between a tensor and the aliases
        produced by :meth:`detach`, so an in-place update such as
        ``w.data -= g`` also invalidates caches held on ``w.detach()``
        handles of the same buffer.  Constructing a second Tensor directly
        from a live array (``Tensor(w.data)``) creates an independent
        version — mutate through one handle and call
        :meth:`bump_version` on the other, or prefer :meth:`detach`.
        """
        return self._qstate["version"]

    def bump_version(self) -> None:
        """Mark the data as mutated after direct in-place writes.

        ``t.data -= g`` and ``t.data = arr`` are tracked automatically via
        the attribute setter; only raw element writes such as
        ``t.data[i] = v`` bypass it and need an explicit bump.
        """
        self._qstate["version"] += 1
        self._qstate["cache"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the data cut off from the graph.

        Shares the version/quantization-cache state with this tensor, so
        in-place updates through either handle invalidate both.
        """
        detached = Tensor(self.data, requires_grad=False)
        detached._qstate = self._qstate
        return detached

    def __repr__(self) -> str:
        head = np.array2string(self.data, precision=4, threshold=8)
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({head}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # one fresh buffer: ``grad + 0.0`` equals ``zeros + grad`` bit
            # for bit (``-0.0`` still lands as ``+0.0``), broadcast to the
            # data's shape and never aliasing the caller's array
            self.grad = np.empty_like(self.data)
            np.add(grad, 0.0, out=self.grad)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(grad):
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self):
        mask = self.data > 0

        def backward(grad):
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad):
            self._accumulate(grad * mask)

        return Tensor._make(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: int, keepdims: bool = False):
        data = self.data
        out_data = data.max(axis=axis, keepdims=True)

        # the argmax mask and tie counts are derived in backward (from the
        # forward-time array reference), sparing every inference softmax
        # two full passes over its scores
        def backward(grad):
            mask = data == out_data
            counts = mask.sum(axis=axis, keepdims=True)
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g / counts)

        result = out_data if keepdims else out_data.squeeze(axis)
        return Tensor._make(result, (self,), backward)

    def var(self, axis=None, keepdims: bool = False):
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def pad(self, pad_width):
        """Zero padding; ``pad_width`` follows :func:`numpy.pad`."""
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + n) for (before, _), n in zip(pad_width, self.shape)
        )

        def backward(grad):
            self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(
        *shape,
        rng: np.random.Generator | None = None,
        scale: float = 1.0,
        requires_grad: bool = False,
    ) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis, with gradient routing."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, with gradient routing."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        moved = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, moved):
            t._accumulate(g)

    return Tensor._make(out_data, tuple(tensors), backward)
