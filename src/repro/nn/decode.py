"""Incremental decoding state: block-aligned quantized KV caches.

Autoregressive generation re-run through ``model.forward`` is O(T²·L): every
emitted token pays a full-prefix forward, and every step requantizes the
entire K/V history.  The classes here let the attention stack re-run only a
``k1``-bounded suffix per step (O(T·k1·L) total work instead of O(T²·L))
while caching K/V **as quantized payloads**, bit-identical to full-prefix
recompute.  The argument has three parts:

* **K is position-local.**  The scores product quantizes ``K^T`` along
  ``head_dim`` (the reduction axis), so each position's column is blocked
  independently of its neighbours along the sequence.
* **V is block-local along the sequence.**  The context product quantizes
  ``V`` along the *growing* sequence axis in level-1 blocks of ``k1``
  positions.  BDR quantization is block-local (a block's shared scales and
  codes depend only on that block's contents; zero padding of a partial
  block is inert), so a **sealed** (complete) block's payload is frozen
  forever, and appending a token only dirties the unsealed tail block —
  requantized alone through the kernels' partial-block entry point.
* **Stability stops at the sealed boundary.**  Full recompute is *not*
  prefix-stable position by position: while a V block is open, each append
  shifts its shared exponents, which perturbs the attention context of the
  positions inside that block, which perturbs the *inputs* (and hence the
  cached K/V) of every later layer at those positions.  Positions in
  sealed blocks, however, are exactly stable — by induction over layers,
  a sealed row's score row, softmax weights (masked columns underflow to
  exact zeros), context product, and MLP depend only on sealed rows.  A
  decode step therefore rewinds every cache to the sealed boundary and
  re-feeds the open block's rows (at most ``k1`` of them) through the
  stack; everything older is served from frozen quantized payloads.

Bit-identity additionally requires every quantization to be idempotent
under recomputation — stateless formats (``cache_key() is not None``),
deterministic rounding — and a known level-1 block size for attention
activations, which :func:`supports_cached_decode` gates and the caches
enforce; the serving adapters fall back to full recompute otherwise.  For
BDR-quantized models the dot products themselves are exact in float64
(products of low-mantissa operands), making them accumulation-order
independent; purely FP32 models instead agree only to BLAS kernel-selection
noise (~1 ulp), since an (1, k) @ (k, n) product may accumulate in a
different order than one row of an (m, k) @ (k, n) product.
"""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadAttention, causal_mask
from .quantized import QuantSpec, quantize_partial_block
from .tensor import Tensor

__all__ = [
    "KVCache",
    "PagedKVCache",
    "CrossKV",
    "DecoderLayerKV",
    "DecodeState",
    "RecurrentDecodeState",
    "supports_cached_decode",
    "supports_batched_decode",
    "init_causal_decode_state",
    "init_paged_decode_state",
    "causal_forward_step",
    "causal_decode_step",
    "batched_causal_decode_step",
    "requantize_tails",
]


def _activation_format(spec: QuantSpec | None):
    """(format, rounding, rng) of the activation role, or passthrough."""
    if spec is None or spec.activation is None:
        return None, "nearest", None
    return spec.activation, spec.rounding, spec.rng


def _cache_format(spec: QuantSpec | None):
    """(format, rounding, rng, level-1 block) a KV cache quantizes with.

    Refuses what a cache cannot hold bit-identically: stochastic rounding
    or a stateful format would requantize differently on recompute, and a
    format without a level-1 block size never seals a block.
    """
    fmt, rounding, rng = _activation_format(spec)
    if fmt is None:
        return None, rounding, rng, 1
    if rounding == "stochastic" or fmt.cache_key() is None:
        raise ValueError(
            "KV caching requires a stateless activation format with "
            f"deterministic rounding; got {fmt!r} with rounding "
            f"{rounding!r} (fall back to full-prefix recompute)"
        )
    block = fmt.block_size()
    if block is None:
        raise ValueError(
            f"KV caching needs a known level-1 block size; {fmt!r} has none "
            "(nothing seals, so no payload could ever freeze)"
        )
    return fmt, rounding, rng, block


class PagedKVCache:
    """Quantized K/V history of one self-attention layer, held in pool pages.

    The memory belongs to a page pool (``repro.serve.sched.PagePool``
    shape) whose arenas run along the sequence axis: page ``p`` is arena
    columns ``[p * page_size, (p + 1) * page_size)`` of the pre-transposed
    K payload ``kT`` ``(H, head_dim, columns)``, of the V payload ``v`` and
    of the raw open-tail rows ``v_raw`` (both ``(H, columns, head_dim)``).
    A page holds exactly one level-1 V block, so the sealed/open-tail
    invariant maps onto pages: sealed blocks are frozen pages, and the
    single unsealed tail block lives in the last page, its raw rows staged
    in ``v_raw`` and requantized alone through the partial-block entry
    point.  ``batch`` sequences fold into the arena's head axis
    (``pool.num_heads == batch * num_heads``); no BDR block spans batch
    rows or heads, so the fold cannot move a bit.

    The page table maps positions to arena columns: a slice when the pages
    covering a range form one ascending run (a private pool's always do,
    so :class:`KVCache` payloads are views), otherwise an index array, so
    every read is one gather and every write one scatter.  Pages are
    checked out atomically before any write (growth either succeeds whole
    or raises ``PoolExhausted`` leaving the cache untouched) and returned
    only by :meth:`free`: rewind and reset keep the table, so a resumed
    stream reuses its pages.

    The cache is keyed to the owning attention module's
    :class:`~repro.nn.quantized.QuantSpec` *instance*: re-casting the
    model mid-decode would silently desynchronize payloads, so
    :meth:`append` rejects a changed spec.
    """

    def __init__(self, pool, owner: str, num_heads: int, head_dim: int,
                 capacity: int, spec: QuantSpec | None, *, batch: int = 1):
        self.spec = spec
        self.fmt, self.rounding, self.rng, self.block = _cache_format(spec)
        if self.block > 1 and pool.page_size != self.block:
            raise ValueError(
                f"pool page size {pool.page_size} != format k1 block {self.block}; "
                "a page must hold exactly one sealed block"
            )
        if (pool.num_heads, pool.head_dim) != (batch * num_heads, head_dim):
            raise ValueError(
                f"pool arena is ({pool.num_heads} heads, {pool.head_dim} dim); "
                f"cache wants ({batch} x {num_heads}, {head_dim})"
            )
        self.head_dim = head_dim
        self.capacity = capacity
        self.pool = pool
        self.owner = owner
        self.page_size = pool.page_size
        # the arenas with the batch unfolded from the head axis (views)
        self.kT = pool.kT.reshape(batch, num_heads, head_dim, -1)
        self.v = pool.v.reshape(batch, num_heads, -1, head_dim)
        self.v_raw = pool.v_raw.reshape(batch, num_heads, -1, head_dim)
        self._set_pages([])
        self.length = 0
        self.sealed = 0

    # ------------------------------------------------------------------
    @property
    def pages(self) -> int:
        """Pages currently held by this cache."""
        return len(self._pages)

    def pages_for(self, total: int) -> int:
        """Pages required to hold ``total`` positions."""
        return -(-total // self.page_size)

    def reserve(self, total: int) -> None:
        """Grow the page table to cover ``total`` positions, atomically.

        Either checks out every missing page or raises ``PoolExhausted``
        having taken none; no cache state changes on failure.
        """
        need = self.pages_for(total) - len(self._pages)
        if need > 0:
            self._set_pages(self._pages + self.pool.checkout_pages(self.owner, need))

    def _set_pages(self, pages: list[int]) -> None:
        """Adopt a page table and the position -> arena column map it implies."""
        self._pages = pages
        table = np.asarray(pages, dtype=np.intp)
        self._index = (table[:, None] * self.page_size + np.arange(self.page_size)).ravel()
        # one ascending run maps every position to its column by one shift
        self._shift = None
        if np.all(np.diff(table) == 1):
            self._shift = int(self._index[0]) if pages else 0

    def _cols(self, start: int, stop: int):
        """Arena columns of positions ``[start, stop)``: a slice when their
        pages form one ascending run, otherwise an index array."""
        if self._shift is not None:
            return slice(start + self._shift, stop + self._shift)
        page = start // self.page_size
        if stop <= (page + 1) * self.page_size:  # inside one page
            shift = (self._pages[page] - page) * self.page_size
            return slice(start + shift, stop + shift)
        return self._index[start:stop]

    # ------------------------------------------------------------------
    @property
    def keys_t(self) -> np.ndarray:
        """Quantized ``K^T`` payload, shape (B, H, head_dim, length)."""
        return self.kT[..., self._cols(0, self.length)]

    @property
    def values(self) -> np.ndarray:
        """Quantized ``V`` payload, shape (B, H, length, head_dim)."""
        return self.v[:, :, self._cols(0, self.length)]

    def reset(self) -> None:
        """Forget the history (pages are kept for the next prefill)."""
        self.length = 0
        self.sealed = 0

    def rewind(self) -> None:
        """Drop the unsealed suffix; the next append recomputes it."""
        self.length = self.sealed

    def free(self) -> int:
        """Release every page back to the pool (finish/evict); returns count."""
        released = len(self._pages)
        if released:
            self.pool.release_pages(self.owner, self._pages)
        self._set_pages([])
        self.length = 0
        self.sealed = 0
        return released

    # ------------------------------------------------------------------
    def _quantize_k(self, k_new: np.ndarray) -> np.ndarray:
        """Per-position quantization along ``head_dim``."""
        if self.fmt is None:
            return k_new
        if self.head_dim <= self.block:
            return quantize_partial_block(
                k_new, self.fmt, axis=-1, rounding=self.rounding, rng=self.rng
            )
        return self.fmt.quantize(k_new, axis=-1, rounding=self.rounding, rng=self.rng)

    def _requantize_tail(self) -> None:
        """Requantize the open tail block from its staged raw rows."""
        cols = self._cols(self.sealed, self.length)
        self.v[:, :, cols] = quantize_partial_block(
            self.v_raw[:, :, cols], self.fmt, axis=-2,
            rounding=self.rounding, rng=self.rng,
        )

    def append(
        self,
        k_new: np.ndarray,
        v_new: np.ndarray,
        spec=...,
        *,
        k_quantized: bool = False,
        defer_tail: bool = False,
    ) -> None:
        """Extend the cache with raw projections of new positions.

        ``k_new``/``v_new`` are (B, H, T_new, head_dim) arrays.  K columns
        quantize per position; V seals every completed ``block``-row span
        (frozen until :meth:`reset`) and requantizes only the partial tail.
        Page growth happens first and is all-or-nothing, so
        ``PoolExhausted`` never leaves a half-appended cache.

        ``k_quantized`` marks ``k_new`` as already carrying this cache's
        K payload quantization (the fused step quantizes every stream's
        columns in one call — bit-identical because K blocks are
        position-local).  ``defer_tail`` skips the final partial-tail
        requantization; the caller owns making :func:`requantize_tails`
        run before the V payload is next read.
        """
        if spec is not ... and spec is not self.spec:
            raise ValueError(
                "attention quant spec changed since this KV cache was built; "
                "create a fresh decode state after re-casting a model"
            )
        t_new = k_new.shape[2]
        t0 = self.length
        if t0 + t_new > self.capacity:
            raise ValueError(
                f"KV cache overflow: {t0} cached + {t_new} new > "
                f"capacity {self.capacity}"
            )
        self.reserve(t0 + t_new)
        cols = self._cols(t0, t0 + t_new)
        kq = k_new if k_quantized else self._quantize_k(k_new)
        self.kT[..., cols] = np.swapaxes(kq, -1, -2)

        if self.block == 1:
            # position-local V (or none): every row seals as it lands
            self.v[:, :, cols] = v_new if self.fmt is None else self.fmt.quantize(
                v_new, axis=-2, rounding=self.rounding, rng=self.rng
            )
            self.length = self.sealed = t0 + t_new
            return

        block = self.block
        consumed = 0
        while consumed < t_new:
            tail_len = self.length - self.sealed
            remaining = t_new - consumed
            if tail_len == 0 and remaining >= block:
                # whole blocks seal in one aligned quantization, each
                # landing as one frozen page
                whole = (remaining // block) * block
                chunk = v_new[:, :, consumed : consumed + whole]
                self.v[:, :, self._cols(self.sealed, self.sealed + whole)] = (
                    self.fmt.quantize(
                        chunk, axis=-2, rounding=self.rounding, rng=self.rng
                    )
                )
                self.sealed += whole
                self.length += whole
                consumed += whole
                continue
            take = min(block - tail_len, remaining)
            self.v_raw[:, :, self._cols(self.length, self.length + take)] = v_new[
                :, :, consumed : consumed + take
            ]
            self.length += take
            consumed += take
            if tail_len + take == block:
                self._requantize_tail()
                self.sealed += block
        if self.length > self.sealed and not defer_tail:
            self._requantize_tail()


class KVCache(PagedKVCache):
    """Quantized K/V history of ``batch`` sequences in one private arena.

    A :class:`PagedKVCache` over a page pool of its own, sized to
    ``capacity`` with the batch folded into the pool's head axis.  Its
    pages are reserved in order at construction, so they form one
    ascending run and :attr:`keys_t`/:attr:`values` are views of the
    arena; :meth:`rewind` simply drops positions and lets the next append
    overwrite them.
    """

    def __init__(self, batch: int, num_heads: int, head_dim: int,
                 capacity: int, spec: QuantSpec | None):
        from ..serve.sched.pages import PagePool  # repro.serve imports this module

        page = _cache_format(spec)[3]
        pool = PagePool(batch * num_heads, head_dim, page, -(-capacity // page))
        super().__init__(pool, "kv", num_heads, head_dim, capacity, spec, batch=batch)
        self.reserve(capacity)


class CrossKV:
    """Frozen quantized K/V of a static cross-attention memory.

    An encoder-decoder step recomputes (and requantizes) the memory's key
    and value projections for every emitted token; they only depend on the
    encoder output, so this cache builds them exactly once per decode.
    """

    def __init__(self):
        self.kT: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def reset(self) -> None:
        self.kT = None
        self.v = None

    def project(self, attn, memory) -> tuple[np.ndarray, np.ndarray]:
        if self.kT is None:
            k = attn._split_heads(attn.k_proj(memory)).data
            v = attn._split_heads(attn.v_proj(memory)).data
            fmt, rounding, rng = _activation_format(attn.quant)
            if fmt is None:
                self.kT, self.v = np.swapaxes(k, -1, -2), v
            else:
                # mirror the uncached operand quantizations exactly:
                # K^T along head_dim, V along the (static) sequence axis
                self.kT = fmt.quantize(
                    np.swapaxes(k, -1, -2), axis=-2, rounding=rounding, rng=rng
                )
                self.v = fmt.quantize(v, axis=-2, rounding=rounding, rng=rng)
        return self.kT, self.v


class DecoderLayerKV:
    """Per-decoder-block pair: self-attention cache + cross-attention cache."""

    def __init__(self, self_kv: KVCache, cross_kv: CrossKV):
        self.self_kv = self_kv
        self.cross_kv = cross_kv

    def reset(self) -> None:
        self.self_kv.reset()
        self.cross_kv.reset()

    def rewind(self) -> None:
        self.self_kv.rewind()  # the cross memory is static — never rewinds


class DecodeState:
    """Positional + per-layer KV state for one incremental decode.

    ``layers`` holds one cache object per attention-bearing block (a
    :class:`PagedKVCache` for causal LMs — a :class:`KVCache` is one over
    a private pool — or a :class:`DecoderLayerKV` for encoder-decoder
    stacks); ``position`` is the number of positions the caches currently
    cover.  Every cache knows its level-1 block size (caches refuse
    formats without one), which :meth:`rewind` aligns to.  :meth:`reset`
    implements sliding-window eviction: once a window must shift, absolute
    positional encodings change for every cached entry, so the only
    bit-identical option is to drop the history and prefill the shifted
    window (pages are kept).
    """

    def __init__(self, layers: list, capacity: int):
        self.layers = layers
        self.capacity = capacity
        self.position = 0

    def _kv(self, layer) -> PagedKVCache:
        return layer.self_kv if isinstance(layer, DecoderLayerKV) else layer

    def reset(self) -> None:
        self.position = 0
        for layer in self.layers:
            layer.reset()

    def rewind(self) -> int:
        """Drop every layer's unsealed suffix; returns the stable boundary.

        The boundary is the largest block-aligned prefix sealed in *every*
        layer — positions below it are exactly stable under full-prefix
        recompute (module docstring), so only ``position - boundary`` rows
        (at most one block) need re-feeding.  With layers whose formats
        disagree on block alignment, the boundary conservatively degrades
        toward zero (full recompute through the cache API stays correct).
        """
        boundary = min((self._kv(layer).sealed for layer in self.layers), default=0)
        if any(boundary % self._kv(layer).block for layer in self.layers):
            boundary = 0
        for layer in self.layers:
            kv = self._kv(layer)
            kv.length = min(kv.length, boundary)
            kv.sealed = min(kv.sealed, boundary)
        self.position = boundary
        return boundary


class RecurrentDecodeState:
    """Carried (h, c) decoder state for LSTM seq2seq incremental decoding."""

    def __init__(self, initial):
        self.initial = initial
        self.state = initial
        self.position = 0

    def reset(self) -> None:
        self.state = self.initial
        self.position = 0


# ----------------------------------------------------------------------
# Gating and generic causal stepping
# ----------------------------------------------------------------------
def supports_cached_decode(model) -> bool:
    """True when incremental decoding of ``model`` is bit-identical.

    Full-prefix recompute quantizes every past position again on each
    step; an incremental step quantizes each position once.  The two agree
    exactly iff every quantization in the model is idempotent under
    recomputation: stateless formats (``cache_key() is not None``) with
    deterministic rounding, for activations and weights alike (a delayed
    scaler's history would advance differently, and stochastic rounding
    would redraw).  Embedding storage tables are held to the same bar, and
    attention activations additionally need a known block size so the
    sealed-boundary bookkeeping has alignment to work with.
    """
    for _, module in model.named_modules():
        spec = getattr(module, "quant", None)
        if spec is not None:
            quantized_roles = [
                getattr(spec, role)
                for role in ("activation", "weight")
                if getattr(spec, role) is not None
            ]
            if quantized_roles and spec.rounding == "stochastic":
                return False
            if any(fmt.cache_key() is None for fmt in quantized_roles):
                return False
        if isinstance(module, MultiHeadAttention):
            fmt = module.quant.activation if module.quant is not None else None
            if fmt is not None and fmt.block_size() is None:
                return False
        storage = getattr(module, "storage_quant", None)
        if storage is not None and storage.cache_key() is None:
            return False
    return True


def init_causal_decode_state(model, batch: int = 1) -> DecodeState:
    """A fresh :class:`DecodeState` for a GPT-shaped causal LM.

    Works for any model exposing ``config`` (dim/num_heads/max_len) and
    ``blocks`` whose elements carry an ``attn`` attention module.
    """
    config = model.config
    head_dim = config.dim // config.num_heads
    layers = [
        KVCache(batch, config.num_heads, head_dim, config.max_len, block.attn.quant)
        for block in model.blocks
    ]
    return DecodeState(layers, capacity=config.max_len)


def causal_forward_step(model, tokens: np.ndarray, state: DecodeState) -> Tensor:
    """Logits for ``tokens`` appended at ``state.position``.

    ``tokens`` is (B, T_new): the rows beyond the caches' current
    coverage.  Callers normally go through :func:`causal_decode_step`,
    which handles the rewind bookkeeping.
    """
    tokens = np.asarray(tokens)
    t_new = tokens.shape[-1]
    position = state.position
    total = position + t_new
    if total > state.capacity:
        raise ValueError(
            f"decode position {total} exceeds cache capacity {state.capacity}"
        )
    x = model.token_emb(tokens) + Tensor(model.positions[position:total])
    mask = causal_mask(total)[position:] if t_new > 1 else None
    for block, layer in zip(model.blocks, state.layers):
        x = block(x, mask=mask, cache=layer)
    state.position = total
    return model.head(model.ln_f(x))


def causal_decode_step(model, tokens: np.ndarray, state: DecodeState) -> Tensor:
    """One cached decode step over the full current window ``tokens``.

    ``tokens`` is (B, T): the whole token window so far (identical across
    calls except for the appended columns).  The state rewinds to the
    sealed boundary and only the open-block suffix re-runs; the returned
    logits cover the re-fed rows, so the next-token distribution is
    ``logits[:, -1]`` — bit-identical to ``model.forward(tokens)[:, -1]``
    for models passing :func:`supports_cached_decode`.
    """
    tokens = np.asarray(tokens)
    boundary = state.rewind()
    return causal_forward_step(model, tokens[..., boundary:], state)


def init_paged_decode_state(model, pool, owner: str) -> DecodeState:
    """A :class:`DecodeState` whose layer caches live in a shared page pool.

    One ``owner`` key covers every layer's cache, so the pool can reclaim
    a whole stream with a single ``release_all``.
    """
    config = model.config
    head_dim = config.dim // config.num_heads
    layers = [
        PagedKVCache(
            pool, owner, config.num_heads, head_dim, config.max_len,
            block.attn.quant,
        )
        for block in model.blocks
    ]
    return DecodeState(layers, capacity=config.max_len)


# ----------------------------------------------------------------------
# Fused stepping of ragged concurrent streams
# ----------------------------------------------------------------------
def supports_batched_decode(model) -> bool:
    """True when one fused step over packed ragged streams is bit-identical.

    The fused step packs every stream's re-fed rows end to end into one
    ``(1, sum(len_i), D)`` row set, with no padding.  Packing preserves
    bits if no operation lets rows influence each other and no reduction
    regroups when the row count changes:

    * every shared exponent (one per ``k1`` block) and microexponent (one
      per ``k2`` sub-block) the trunk computes lies inside one row's
      reduction fiber, because trunk activations quantize along the
      feature axis, so which rows share the set cannot move a quantized
      bit;
    * every trunk reduction (LayerNorm statistics, matmul dot products)
      runs along the feature axis, whose length packing does not change;
      the matmul reductions additionally need every dot product to be
      exact in float64, the
      :func:`~repro.nn.residency.supports_fused_projection` condition
      (pow2-scaled low-mantissa operands), so the product's row count
      cannot change its accumulation order;
    * softmax sums run along the key axis, and V's ``k1`` blocks along the
      sequence axis, so neither is row-local: the fused step keeps the
      whole attention tail per stream at exactly serial shapes, and this
      gate only has to certify the packed trunk around it.
    """
    from .layers import Linear
    from .residency import supports_epilogue, supports_fused_projection
    from .transformer import TransformerBlock

    if not supports_cached_decode(model):
        return False
    blocks = getattr(model, "blocks", None)
    if not blocks or not all(isinstance(b, TransformerBlock) for b in blocks):
        return False
    if any(getattr(block.drop, "p", 0.0) for block in blocks):
        return False
    if not all(hasattr(model, name)
               for name in ("token_emb", "positions", "ln_f", "head", "config")):
        return False
    for _, module in model.named_modules():
        if isinstance(module, Linear):
            if module.quant is None or not supports_fused_projection(module.quant):
                return False
    return all(supports_epilogue(block.attn.quant) for block in blocks)


def requantize_tails(caches) -> None:
    """Requantize deferred open-tail V blocks, grouped across caches.

    The fused step appends to every stream's cache with ``defer_tail``,
    then requantizes all the open tails here: caches whose tails have the
    same length stack into one ``quantize_partial_block`` call instead of
    one call each.  BDR quantization is block-local and V blocks never
    span the stacked axis, so the grouped payload is bit-identical to the
    per-cache calls it replaces (asserted by the decode test suite).
    """
    groups: dict[tuple, list] = {}
    for cache in caches:
        if cache.length > cache.sealed and cache.block > 1:
            cols = cache._cols(cache.sealed, cache.length)
            raw = cache.v_raw[:, :, cols]
            groups.setdefault(raw.shape, []).append((cache, cols, raw))
    for members in groups.values():
        head = members[0][0]
        stacked = quantize_partial_block(
            np.stack([raw for _, _, raw in members]), head.fmt, axis=-2,
            rounding=head.rounding, rng=head.rng,
        )
        for (cache, cols, _), vq in zip(members, stacked):
            cache.v[:, :, cols] = vq


def _batched_block_step(block, x: Tensor, caches, bounds, totals, spans) -> Tensor:
    """One transformer block over a packed ragged row set, cached.

    ``x`` is ``(1, sum(len_i), D)``: stream *i*'s re-fed rows are
    ``x[0, spans[i]]``, packed end to end.  The trunk (LayerNorm, fused
    Q/K/V projection, out_proj, FFN, residuals) runs once over real rows
    only; the attention tail (scores product, scale, mask, softmax,
    weights quantization, context product) runs per stream on its slice,
    with exactly the serial shapes ``(1, H, L_i, T_i)``, through the same
    :meth:`MultiHeadAttention._attend` body as the cached step, so every
    reduction groups identically to that stream decoded alone.

    Cache quantization is cross-stream batched: K columns of every stream
    quantize in one call (position-local along ``head_dim``), each cache
    appends its own slice, and the open-tail V requantizations group by
    tail length through :func:`requantize_tails`.
    """
    attn = block.attn
    normed = block.ln1(x)
    q, k, v = attn._project_qkv(normed, normed)
    kq = caches[0]._quantize_k(k)
    for cache, rows in zip(caches, spans):
        cache.append(
            kq[:, :, rows],
            v[:, :, rows],
            spec=attn.quant,
            k_quantized=True,
            defer_tail=True,
        )
    requantize_tails(caches)
    q_q = attn.quant.quantize("activation", q, -1)

    ctx = np.empty(x.data.shape)
    for cache, rows, bound, total in zip(caches, spans, bounds, totals):
        mask = causal_mask(total)[bound:] if total - bound > 1 else None
        ctx[:, rows] = attn._attend(
            q_q[:, :, rows], cache.keys_t, mask, lambda c=cache: c.values
        )
    attended = attn.out_proj(Tensor(ctx))
    x = x + block.drop(attended)
    return x + block.drop(block.mlp(block.ln2(x)))


def batched_causal_decode_step(model, windows, states) -> np.ndarray:
    """One fused decode step over ragged concurrent streams.

    ``windows[i]`` is stream *i*'s whole 1-D token window so far and
    ``states[i]`` its :class:`DecodeState`; streams may sit at different
    positions.  Each state rewinds to its sealed boundary and the open
    suffixes are packed end to end into one ``(1, sum(len_i), D)`` row set
    (stream *i* at offset ``sum(len_j for j < i)``), so a single pass over
    the blocks advances every stream while the trunk runs real rows only.
    Returns the ``(n, vocab)`` next-token logits, row *i* read from
    stream *i*'s last packed row and bit-identical to what
    :func:`causal_decode_step` would produce for that stream alone —
    guaranteed only under :func:`supports_batched_decode`.
    """
    bounds, totals, suffixes = [], [], []
    for window, state in zip(windows, states):
        window = np.asarray(window)
        boundary = state.rewind()
        total = window.shape[-1]
        if total > state.capacity:
            raise ValueError(
                f"decode position {total} exceeds cache capacity {state.capacity}"
            )
        bounds.append(boundary)
        totals.append(total)
        suffixes.append(window[boundary:])
    ends = np.cumsum([suffix.shape[-1] for suffix in suffixes])
    spans = [slice(end - len(suffix), end) for end, suffix in zip(ends, suffixes)]
    tokens = np.concatenate(suffixes).astype(np.int64, copy=False)[None]
    positions = np.concatenate(
        [model.positions[b:t] for b, t in zip(bounds, totals)]
    )[None]

    x = model.token_emb(tokens) + Tensor(positions)
    for layer_idx, block in enumerate(model.blocks):
        caches = [state.layers[layer_idx] for state in states]
        x = _batched_block_step(block, x, caches, bounds, totals, spans)
    last = x.data[0, ends - 1]
    for state, total in zip(states, totals):
        state.position = total
    return model.head(model.ln_f(Tensor(last))).data
