"""The uniform interface every quantization format implements.

A :class:`Format` is a *fake quantizer*: it maps FP32 arrays to arrays whose
values are exactly representable in the target encoding, which is how the
paper's CUDA emulation library behaves ("reproduces numerical results
identical to what a native-MX silicon would produce", Section VI).
"""

from __future__ import annotations

import abc

import numpy as np


class Format(abc.ABC):
    """A named, stateless-or-stateful quantization format."""

    #: display name used in tables, figures and the registry
    name: str = "format"

    @abc.abstractmethod
    def quantize(
        self,
        x: np.ndarray,
        axis: int = -1,
        rounding: str = "nearest",
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return the dequantized (fake-quantized) version of ``x``.

        ``axis`` is the reduction dimension of the consuming dot product;
        block formats quantize along it.
        """

    @property
    @abc.abstractmethod
    def bits_per_element(self) -> float:
        """Average storage bits per element, including amortized scales."""

    def reset_state(self) -> None:
        """Clear any adaptive state (e.g. delayed-scaling history)."""

    @property
    def is_stateless(self) -> bool:
        """True when quantization is row-independent and history-free.

        A stateless format satisfies ``Q(concat(a, b)) == concat(Q(a),
        Q(b))`` along any non-block axis and gives identical results on
        repeated calls — which lets callers batch many vectors into one
        call (:func:`repro.fidelity.qsnr.measure_qsnr`) or memoize outputs
        (:mod:`repro.nn.quantized`).  Defaults to False; subclasses opt in.
        """
        return False

    def cache_key(self):
        """Hashable identity for memoizing quantized outputs.

        Two format instances with equal keys must produce bit-identical
        ``quantize`` results for the same input and arguments.  ``None``
        (the default) marks the format as non-memoizable (stateful, or not
        opted in).
        """
        return None

    def quantize_partial(
        self,
        x: np.ndarray,
        axis: int = -1,
        rounding: str = "nearest",
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Quantize a single (possibly partial) block along ``axis``.

        Callers guarantee the length along ``axis`` does not exceed one
        block of this format; the result must be bit-identical to
        :meth:`quantize` on the same input.  Block formats override this
        with a kernel path that skips full-tensor blocking machinery (the
        KV-cache tail requantization hot path); the default just delegates.
        """
        return self.quantize(x, axis=axis, rounding=rounding, rng=rng)

    def block_size(self) -> int | None:
        """Elements per level-1 block along the quantization axis.

        ``1`` means element-wise (scalar formats), ``None`` means unknown —
        consumers that need block alignment refuse the format (the
        quantized KV caches raise ``ValueError``: nothing would ever seal).
        """
        return None

    def __call__(self, x: np.ndarray, axis: int = -1, **kwargs) -> np.ndarray:
        return self.quantize(x, axis=axis, **kwargs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class IdentityFormat(Format):
    """FP32 pass-through; the baseline 'format' in every experiment."""

    def __init__(self, name: str = "FP32"):
        self.name = name

    def quantize(self, x, axis=-1, rounding="nearest", rng=None):
        return np.asarray(x, dtype=np.float64).copy()

    @property
    def is_stateless(self) -> bool:
        return True

    def cache_key(self):
        return ("identity",)

    def block_size(self) -> int | None:
        return 1

    @property
    def bits_per_element(self) -> float:
        return 32.0
