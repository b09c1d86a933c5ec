"""Quantization signal-to-noise ratio: the paper's fidelity metric (Eq. 3).

    QSNR := -10 log10( E[ ||Q(X) - X||^2 ] / E[ ||X||^2 ] )

measured over ensembles of independent vectors (the paper averages over
10K+ vectors).  A higher QSNR means the quantized vector better preserves
the direction and magnitude of the original.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..formats.base import Format
from .distributions import sample

__all__ = [
    "qsnr",
    "qsnr_per_vector",
    "measure_qsnr",
    "clear_ensemble_cache",
    "QSNR_FLOOR",
]

#: Returned when the quantization error is exactly zero (infinite fidelity).
QSNR_CEILING = 300.0
#: Returned when the signal power is zero.
QSNR_FLOOR = -300.0


def qsnr(original: np.ndarray, quantized: np.ndarray) -> float:
    """QSNR in decibels between an ensemble and its quantized version.

    Uses the ratio of total powers (the empirical counterpart of the ratio
    of expectations in Eq. 3).
    """
    original = np.asarray(original, dtype=np.float64)
    quantized = np.asarray(quantized, dtype=np.float64)
    if original.shape != quantized.shape:
        raise ValueError(
            f"shape mismatch: {original.shape} vs {quantized.shape}"
        )
    noise = float(np.sum((quantized - original) ** 2))
    signal = float(np.sum(original**2))
    if signal <= 0.0:
        return QSNR_FLOOR
    if noise <= 0.0:
        return QSNR_CEILING
    return -10.0 * np.log10(noise / signal)


def qsnr_per_vector(original: np.ndarray, quantized: np.ndarray) -> np.ndarray:
    """Per-row QSNR for (n_vectors, length) ensembles."""
    original = np.asarray(original, dtype=np.float64)
    quantized = np.asarray(quantized, dtype=np.float64)
    noise = np.sum((quantized - original) ** 2, axis=-1)
    signal = np.sum(original**2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -10.0 * np.log10(noise / signal)
    out = np.where(signal <= 0, QSNR_FLOOR, out)
    return np.where(noise <= 0, QSNR_CEILING, out)


def measure_qsnr(
    fmt: "Format | str | dict",
    distribution: str = "variable_normal",
    n_vectors: int = 10_000,
    length: int = 256,
    seed: int = 0,
    chunk: int = 256,
) -> float:
    """Measure a format's QSNR over a sampled ensemble (the Figure 7 y-axis).

    Vectors are processed in chunks fed sequentially, so stateful formats
    (delayed scaling) accumulate their amax history across chunks exactly as
    they would across successive kernel invocations during training.

    Stateless formats (block scaling derived purely from the current block
    contents — see :meth:`~repro.formats.base.Format.is_stateless`) are
    row-independent, so the chunks collapse into a *single* batched
    quantize call.  Sampling still happens chunk-by-chunk from the same
    RNG, and the error/signal powers accumulate over the same chunk
    boundaries, so the result is bit-identical to the sequential path —
    just an order of magnitude fewer kernel invocations.

    Ensembles up to :data:`MAX_CACHED_ENSEMBLE_BYTES` are memoized, and so
    is their signal power, which does not depend on the format: a sweep
    sums it once, not once per design point.  The noise of each chunk is
    summed in one reused chunk-sized buffer.  Larger requests stream chunk
    by chunk and memoize nothing.

    Args:
        fmt: any :class:`~repro.formats.base.Format`, or any spec spelling
            accepted by :func:`repro.spec.as_format` (``"mx6"``,
            ``"bdr(m=4,k1=16,d1=8)"``, a spec dict).
        distribution: a named source from
            :mod:`repro.fidelity.distributions`.
        n_vectors: ensemble size (the paper uses 10K+).
        length: vector length (the 256-element hardware tile by default).
        seed: RNG seed for reproducibility.
        chunk: vectors per quantization call (sampling granularity for the
            batched stateless path).
    """
    from ..spec.grammar import FormatSpec, as_format

    if isinstance(fmt, (str, dict, FormatSpec)):
        # duck-typed format objects (test doubles) pass through untouched
        fmt = as_format(fmt)
    fmt.reset_state()
    noise = 0.0
    signal = 0.0
    if n_vectors * length * 8 > MAX_CACHED_ENSEMBLE_BYTES:
        # oversized request: stream chunk-by-chunk (peak memory = one
        # chunk, as before this subsystem existed) instead of
        # materializing the whole ensemble
        rng = np.random.default_rng(seed)
        remaining = n_vectors
        while remaining > 0:
            n = min(chunk, remaining)
            x = sample(distribution, rng, n, length)
            q = fmt.quantize(x, axis=-1)
            noise += float(np.sum((q - x) ** 2))
            signal += float(np.sum(x**2))
            remaining -= n
    else:
        x, sizes, signal = _sample_ensemble(distribution, n_vectors, length, seed, chunk)
        batched = fmt.is_stateless and len(sizes) > 1
        if batched:
            q = fmt.quantize(x, axis=-1)
        # np.sum((qc - xc) ** 2) without its two temporaries: the same
        # values in the same C-contiguous layout, so the same pairwise sum
        buf = np.empty((max(sizes, default=0), length))
        offset = 0
        for n in sizes:
            xc = x[offset : offset + n]
            qc = q[offset : offset + n] if batched else fmt.quantize(xc, axis=-1)
            err = np.subtract(qc, xc, out=buf[:n])
            noise += float(np.square(err, out=err).sum())
            offset += n

    if signal <= 0.0:
        return QSNR_FLOOR
    if noise <= 0.0:
        return QSNR_CEILING
    return -10.0 * float(np.log10(noise / signal))


#: Ensembles larger than this are sampled fresh per call instead of being
#: pinned in the memo cache (4 entries x this bound caps cache memory).
MAX_CACHED_ENSEMBLE_BYTES = 64 * 1024 * 1024


def _sample_ensemble(
    distribution: str, n_vectors: int, length: int, seed: int, chunk: int
) -> tuple[np.ndarray, tuple[int, ...], float]:
    """Sample (and usually memoize) one measurement ensemble, with its chunk
    sizes and its signal power.

    Chunks are drawn sequentially from one seeded generator — exactly the
    stream the historical chunked loop consumed — then concatenated, so
    both the batched and the sequential paths read identical values.  The
    signal power is summed chunk by chunk, as the noise is; it does not
    depend on the format.  The cache amortizes sampling and the signal sum
    across the hundreds of design points of a sweep (and across formats in
    the table experiments), which all share one
    ``(distribution, n_vectors, length, seed, chunk)`` signature.
    Oversized requests (> :data:`MAX_CACHED_ENSEMBLE_BYTES`) bypass the
    cache so it never pins more than a few hundred MB; call
    :func:`clear_ensemble_cache` to release the rest eagerly.
    """
    if n_vectors * length * 8 > MAX_CACHED_ENSEMBLE_BYTES:
        return _build_ensemble(distribution, n_vectors, length, seed, chunk)
    return _cached_ensemble(distribution, n_vectors, length, seed, chunk)


@lru_cache(maxsize=4)
def _cached_ensemble(distribution, n_vectors, length, seed, chunk):
    return _build_ensemble(distribution, n_vectors, length, seed, chunk)


def _build_ensemble(
    distribution: str, n_vectors: int, length: int, seed: int, chunk: int
) -> tuple[np.ndarray, tuple[int, ...], float]:
    rng = np.random.default_rng(seed)
    sizes = []
    remaining = n_vectors
    while remaining > 0:
        sizes.append(min(chunk, remaining))
        remaining -= sizes[-1]
    if not sizes:
        return np.empty((0, length)), (), 0.0
    chunks = [sample(distribution, rng, n, length) for n in sizes]
    x = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    # shared between callers via the cache, so freeze it
    x.setflags(write=False)
    signal = 0.0
    offset = 0
    for n in sizes:
        signal += float(np.sum(x[offset : offset + n] ** 2))
        offset += n
    return x, tuple(sizes), signal


def clear_ensemble_cache() -> None:
    """Drop memoized measurement ensembles (frees their memory)."""
    _cached_ensemble.cache_clear()
