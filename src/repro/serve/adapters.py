"""Task adapters: one serving protocol over every model family.

Each model family historically exposed a bespoke inference entry point
(``GPT.score_candidates``, ``DLRM.predict_proba``, ``BertQA.predict_spans``,
``TinyWav2Vec.transcribe``, ...).  Adapters collapse those onto a single
protocol of five task verbs —

* ``classify`` — discrete predictions (CTR probabilities, image labels,
  answer spans, phone transcriptions);
* ``score``    — likelihood-ranked multiple choice (the Table IV tasks);
* ``generate`` — autoregressive decoding (causal LM continuations,
  translation greedy decode);
* ``embed``    — pooled encoder representations;
* ``denoise``  — diffusion epsilon prediction.

An adapter receives a *batch* of requests and is responsible for collating
them so that batched execution is **bit-identical** to serial execution,
with one exception:

* bidirectional models (BERT, wav2vec) group requests by sequence length
  instead of padding;
* row-independent models (DLRM, vision, diffusion) concatenate rows;
* causal transformers ``generate`` equal-shape prompts in lockstep (the
  continuous scheduler packs ragged ones without padding, see
  :func:`~repro.nn.decode.batched_causal_decode_step`);
* causal transformers ``score`` right-padded to the longest sequence, and
  that is **not** bit-identical: the causal mask keeps padding out of the
  attention scores, but the context product quantizes V along the
  sequence axis in ``k1`` blocks, so a shorter input's padding rows join
  its last V block and can move that block's shared exponent.  A batched
  score may differ from the same request scored alone (docs/SERVING.md;
  reproducer in perfbench/README.md).

The legacy model methods now delegate here (see :func:`adapter_for`), so
one implementation serves both the old per-model API and the
:mod:`repro.serve` session layer.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..nn import functional as F
from ..nn.layers import Module
from ..nn.residency import fusion_enabled
from ..nn.tensor import is_grad_enabled, no_grad
from .faults import fault_point

__all__ = [
    "Request",
    "TaskAdapter",
    "TASKS",
    "register_adapter",
    "adapter_for",
    "CausalLMAdapter",
    "BertEmbedAdapter",
    "BertSpanAdapter",
    "CTRAdapter",
    "VisionAdapter",
    "SpeechAdapter",
    "TranslationAdapter",
    "DiffusionAdapter",
]

#: The task verbs of the serving protocol.
TASKS = ("classify", "score", "generate", "embed", "denoise")


@dataclass
class Request:
    """One unit of serving work: a task verb plus its payload."""

    task: str
    payload: dict = field(default_factory=dict)

    @staticmethod
    def coerce(obj) -> "Request":
        """Accept a :class:`Request` or a ``{"task": ..., **payload}`` dict."""
        if isinstance(obj, Request):
            return obj
        if isinstance(obj, dict):
            if "task" not in obj:
                raise ValueError("a request dict needs a 'task' key")
            payload = {k: v for k, v in obj.items() if k != "task"}
            return Request(task=obj["task"], payload=payload)
        raise TypeError(f"cannot coerce {type(obj).__name__} into a Request")


# Ragged generate batches degrade to serial decode (each odd-shaped prompt
# forms its own group of one); the process-wide counter makes that silent
# fallback observable — surfaced as ``decode.serial_fallbacks`` in
# SessionMetrics summaries and by ``bench-decode``.
_FALLBACK_LOCK = threading.Lock()
_SERIAL_FALLBACKS = 0


def _record_fallbacks(n: int) -> None:
    global _SERIAL_FALLBACKS
    if n:
        with _FALLBACK_LOCK:
            _SERIAL_FALLBACKS += n


def decode_fallback_count() -> int:
    """Total requests (process-wide) that decoded serially because their
    prompt shape matched nothing else in their ``generate`` batch."""
    with _FALLBACK_LOCK:
        return _SERIAL_FALLBACKS


def _run_grouped(items: Sequence, key_fn, run_group) -> list:
    """Run ``items`` in groups of equal ``key_fn``, preserving order.

    ``run_group(items_subset) -> list`` computes results for one group;
    results are scattered back to the original request order.
    """
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key_fn(item), []).append(i)
    out = [None] * len(items)
    for indices in groups.values():
        results = run_group([items[i] for i in indices])
        for i, result in zip(indices, results):
            out[i] = result
    return out


def _batch_rows(arrays: Sequence[np.ndarray], batched_ndim: int):
    """Collate per-request arrays into one batch along a leading row axis.

    An array with ``batched_ndim - 1`` dims is a single example (it gains a
    leading axis); one with ``batched_ndim`` dims is a micro-batch of rows.
    Returns ``(stacked, spans)`` with ``spans[i] = (single, start, stop)``
    locating request ``i``'s rows in the stack.
    """
    spans, rows, offset = [], [], 0
    for a in arrays:
        single = a.ndim == batched_ndim - 1
        n = 1 if single else a.shape[0]
        rows.append(a[None] if single else a)
        spans.append((single, offset, offset + n))
        offset += n
    return np.concatenate(rows), spans


def _scatter_rows(row_results, spans, wrap=None) -> list:
    """Slice row-aligned batch results back per request (inverse of
    :func:`_batch_rows`); ``row_results`` is sliceable by row range (array
    or list).  ``wrap(value, single)`` post-processes each result."""
    out = []
    for single, start, stop in spans:
        chunk = row_results[start:stop]
        value = chunk[0] if single else chunk
        out.append(wrap(value, single) if wrap else value)
    return out


class TaskAdapter:
    """Base adapter: task dispatch over a homogeneous model family.

    Subclasses implement the task verbs they support as methods taking a
    list of payload dicts and returning a list of results (same order).
    """

    #: task verbs this adapter serves
    tasks: tuple[str, ...] = ()

    def __init__(self, model: Module):
        self.model = model

    # ------------------------------------------------------------------
    def run_batch(self, requests: Sequence[Request]) -> list:
        """Execute a mixed batch, grouped by task, in request order."""
        fault_point("adapter.run_batch")
        requests = [Request.coerce(r) for r in requests]
        for request in requests:
            if request.task not in self.tasks:
                raise ValueError(
                    f"{type(self).__name__} serves tasks {self.tasks}, "
                    f"got {request.task!r}"
                )
        return _run_grouped(
            requests,
            key_fn=lambda r: r.task,
            run_group=lambda group: getattr(self, group[0].task)(
                [r.payload for r in group]
            ),
        )

    def run_one(self, request) -> object:
        return self.run_batch([Request.coerce(request)])[0]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: list[tuple[type, type]] = []


def register_adapter(model_cls: type, adapter_cls: type) -> None:
    """Register ``adapter_cls`` as the serving adapter for ``model_cls``.

    Later registrations win, so applications can override a family's
    adapter without touching the registry order below.
    """
    _REGISTRY.insert(0, (model_cls, adapter_cls))


def adapter_for(model: Module) -> TaskAdapter:
    """Resolve (and cache on the instance) the adapter serving ``model``."""
    cached = getattr(model, "_serve_adapter", None)
    if cached is not None and cached.model is model:
        return cached
    for model_cls, adapter_cls in _REGISTRY:
        if isinstance(model, model_cls):
            adapter = adapter_cls(model)
            model._serve_adapter = adapter
            return adapter
    raise TypeError(
        f"no serving adapter registered for {type(model).__name__}; "
        "use repro.serve.register_adapter"
    )


# ----------------------------------------------------------------------
# Causal language models (GPT ladder, MoE)
# ----------------------------------------------------------------------
class CausalLMAdapter(TaskAdapter):
    """Score and generate over decoder-only LMs (GPT, MoEGPT).

    ``score`` payloads: ``{"context": tokens, "candidates": [tokens, ...]}``
    -> ``{"choice": int, "scores": [float, ...]}``; a payload with a single
    ``continuation`` instead returns its total log-probability.

    ``generate`` payloads: ``{"prompt": tokens, "max_new_tokens": int}``
    -> ``{"tokens": [int, ...]}`` (greedy decoding, optional ``eos``).
    """

    tasks = ("score", "generate")

    # -- scoring -------------------------------------------------------
    def _pair_rows(self, pairs: Sequence[tuple[np.ndarray, np.ndarray]]):
        """Per (context, continuation) pair: the (input_row, rows, targets)
        triple replicating ``sequence_logprob``'s indexing exactly."""
        max_len = self.model.config.max_len
        prepared = []
        for context, continuation in pairs:
            context = np.asarray(context)
            continuation = np.asarray(continuation)
            tokens = np.concatenate([context, continuation])[-max_len:]
            n = min(len(continuation), len(tokens) - 1)
            rows = np.arange(len(tokens) - 1 - n, len(tokens) - 1)
            prepared.append((tokens[:-1], rows, tokens[-n:] if n else tokens[:0]))
        return prepared

    def _pair_logprobs(self, pairs) -> list[float]:
        """Batched ``sequence_logprob`` over (context, continuation) pairs.

        Rows are right-padded to the longest input.  The causal mask keeps
        padding out of the scores but not out of V's sequence-axis blocks,
        so a pair's result can differ from unpadded per-pair execution
        (see the module docstring).
        """
        prepared = self._pair_rows(pairs)
        if not prepared:
            return []
        if fusion_enabled() and not is_grad_enabled():
            return self._pair_logprobs_fused(prepared)
        width = max(len(inp) for inp, _, _ in prepared)
        batch = np.zeros((len(prepared), width), dtype=np.int64)
        for i, (inp, _, _) in enumerate(prepared):
            batch[i, : len(inp)] = inp
        logits = self.model.forward(batch)
        logp = F.log_softmax(logits, axis=-1).data
        return [
            float(logp[i, rows, targets].sum())
            for i, (_, rows, targets) in enumerate(prepared)
        ]

    def _pair_logprobs_fused(self, prepared) -> list[float]:
        """Residency-scheduled scoring over prepared (input, rows, targets).

        Three row-local savings, each bit-identical to the plain path:

        * **cross-pair row residency** — candidates of one request share
          their context verbatim, so their model *input rows* are often
          byte-identical; with exact dot products (the
          :meth:`_rows_forward_exact` gate) batch rows are fully
          independent bitwise, so each unique row runs the forward once
          and its activations are quantized once for every pair it serves;
        * **row-pruned head** — ``forward_rows`` gathers the continuation
          rows before the final LayerNorm/LM head, skipping both for
          every unread position;
        * **gather-first log-softmax** — normalization runs along the
          vocab axis only, so normalizing just the gathered rows replays
          the full-tensor result exactly (needs no format gate).
        """
        exact = self._rows_forward_exact()
        if exact:
            unique: dict[bytes, int] = {}
            inputs, pair_to_row = [], []
            for inp, _, _ in prepared:
                key = inp.tobytes()
                row = unique.get(key)
                if row is None:
                    row = unique[key] = len(inputs)
                    inputs.append(inp)
                pair_to_row.append(row)
        else:
            inputs = [inp for inp, _, _ in prepared]
            pair_to_row = list(range(len(prepared)))
        width = max(len(inp) for inp in inputs)
        batch = np.zeros((len(inputs), width), dtype=np.int64)
        for i, inp in enumerate(inputs):
            batch[i, : len(inp)] = inp

        pair_idx = np.concatenate(
            [
                np.full(len(rows), pair_to_row[i])
                for i, (_, rows, _) in enumerate(prepared)
            ]
        )
        row_idx = np.concatenate([rows for _, rows, _ in prepared])
        target_idx = np.concatenate([targets for _, _, targets in prepared])
        if len(row_idx) == 0:
            return [0.0 for _ in prepared]
        if exact:
            sel = self.model.forward_rows(batch, pair_idx, row_idx).data
        else:
            sel = self.model.forward(batch).data[pair_idx, row_idx]
        shifted = sel - sel.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        picked = logp[np.arange(len(row_idx)), target_idx]
        out, offset = [], 0
        for _, rows, _ in prepared:
            out.append(float(picked[offset : offset + len(rows)].sum()))
            offset += len(rows)
        return out

    def _rows_forward_exact(self) -> bool:
        """Whether row-subset evaluation is bit-identical for this model.

        Row dedup shrinks the batch fed through *every* layer and
        ``forward_rows`` prunes the head, so bit-identity needs exact
        (order-independent) dot products throughout: every quantized
        module in the model must pass
        :func:`~repro.nn.residency.supports_fused_projection` — a single
        FP32 or software-scaled layer (e.g. a first/last-layer-high
        policy) disables the row schedule, since its matmul bits may
        depend on the BLAS M-partition."""
        from ..nn.residency import supports_fused_projection

        if not hasattr(self.model, "forward_rows"):
            return False
        specs = [
            module.quant
            for module in self.model.modules()
            if hasattr(module, "quant")
        ]
        return bool(specs) and all(supports_fused_projection(spec) for spec in specs)

    def sequence_logprob(self, context, continuation) -> float:
        """Total log-probability of ``continuation`` given ``context``."""
        with no_grad():
            return self._pair_logprobs([(context, continuation)])[0]

    def score(self, items: Sequence[dict]) -> list:
        pairs, spans = [], []
        for item in items:
            context = item["context"]
            if "candidates" in item:
                candidates = item["candidates"]
            else:
                candidates = [item["continuation"]]
            spans.append((len(pairs), len(candidates), "candidates" in item))
            pairs.extend((context, candidate) for candidate in candidates)
        logprobs = self._pair_logprobs(pairs)
        results = []
        for start, count, multiple in spans:
            scores = logprobs[start : start + count]
            if multiple:
                results.append({"choice": int(np.argmax(scores)), "scores": scores})
            else:
                results.append({"logprob": scores[0]})
        return results

    # -- generation ----------------------------------------------------
    def _use_cache(self, use_cache: bool | None) -> bool:
        """Resolve the caching decision (None = auto via the decode gate)."""
        if use_cache is not None:
            return bool(use_cache)
        from ..nn.decode import supports_cached_decode

        return supports_cached_decode(self.model)

    def _decode_loop(self, batch: int, use_cache: bool):
        """The one stepping engine behind streamed and batched generation.

        Returns ``step(tokens_2d, n) -> (B, V) next-token logit rows`` over
        the buffer prefix ``tokens_2d[:, :n]``, owning the decode-state
        lifecycle: lazy init, and sliding-window eviction (a window shift
        moves every cached entry's absolute position, so the state resets
        and the shifted window prefills from scratch).  Keeping streamed
        and batched generation on this single closure means an eviction or
        caching fix can never desynchronize the two paths.
        """
        model = self.model
        max_len = model.config.max_len
        state, start = None, 0

        def step(tokens_2d: np.ndarray, n: int) -> np.ndarray:
            nonlocal state, start
            window_start = max(0, n - max_len)
            if not use_cache:
                return model.forward(tokens_2d[:, window_start:n]).data[:, -1]
            if state is None:
                state = model.init_decode_state(batch=batch)
                start = window_start
            elif window_start != start:
                state.reset()
                start = window_start
            return model.forward_step(tokens_2d[:, start:n], state).data[:, -1]

        return step

    def generate_stream(
        self,
        prompt,
        max_new_tokens: int,
        eos: int | None = None,
        use_cache: bool | None = None,
    ) -> Iterator[int]:
        """Greedy continuation, yielded token by token.

        ``use_cache=None`` auto-selects KV-cached incremental decoding when
        it is bit-identical to full recompute
        (:func:`~repro.nn.decode.supports_cached_decode`); ``False`` forces
        the historical full-prefix path.  Prompts longer than the model
        window decode over the trailing ``max_len`` tokens; once the window
        must slide, absolute positions shift for every cached entry, so the
        cache is evicted wholesale and rebuilt over the shifted window.

        ``no_grad`` is scoped per step, never held across a ``yield`` — a
        suspended generator must not leave the consumer's thread with
        autograd silently disabled.
        """
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.ndim != 1:
            raise ValueError(f"prompt must be 1-D, got shape {prompt.shape}")
        step = self._decode_loop(batch=1, use_cache=self._use_cache(use_cache))
        # preallocated token buffer: np.append per token is O(T^2) churn
        tokens = np.empty((1, len(prompt) + max_new_tokens), dtype=np.int64)
        tokens[0, : len(prompt)] = prompt
        n = len(prompt)
        for _ in range(max_new_tokens):
            fault_point("adapter.decode_step")
            with no_grad():
                nxt = int(np.argmax(step(tokens, n)[0]))
            tokens[0, n] = nxt
            n += 1
            yield nxt
            if eos is not None and nxt == eos:
                return

    def _greedy_batch(
        self,
        prompts: np.ndarray,
        max_new_tokens: int,
        eos: int | None,
        use_cache: bool | None = None,
    ) -> list[list[int]]:
        """Greedy-decode equal-length prompts together (B, P) -> token lists.

        Rows are batch-independent, so each row's output matches its
        serial :meth:`generate_stream` run; a finished row keeps riding in
        the batch (its continuation is discarded at truncation), exactly
        like the translation adapter's finished-row handling.
        """
        batch, n_prompt = prompts.shape
        step = self._decode_loop(batch=batch, use_cache=self._use_cache(use_cache))
        tokens = np.empty((batch, n_prompt + max_new_tokens), dtype=np.int64)
        tokens[:, :n_prompt] = prompts
        n = n_prompt
        finished = np.zeros(batch, dtype=bool)
        steps = 0
        for _ in range(max_new_tokens):
            with no_grad():
                nxt = np.argmax(step(tokens, n), axis=-1)
            tokens[:, n] = nxt
            n += 1
            steps += 1
            if eos is not None:
                finished |= nxt == eos
                if finished.all():
                    break
        outputs = []
        for row in tokens[:, n_prompt : n_prompt + steps]:
            out = []
            for token in row:
                out.append(int(token))
                if eos is not None and token == eos:
                    break
            outputs.append(out)
        return outputs

    def generate(self, items: Sequence[dict]) -> list:
        """Batched greedy decoding: equal-shape requests step together.

        Grouping by (prompt length, budget, eos) keeps collation trivial —
        rows decode in lockstep and stay bit-identical to serial streaming
        (batch independence of every op in the stack).
        """

        def run_group(group):
            prompts = []
            for item in group:
                prompt = np.asarray(item["prompt"], dtype=np.int64)
                if prompt.ndim != 1:
                    raise ValueError(f"prompt must be 1-D, got shape {prompt.shape}")
                prompts.append(prompt)
            first = group[0]
            produced = self._greedy_batch(
                np.stack(prompts),
                int(first.get("max_new_tokens", 16)),
                first.get("eos"),
            )
            return [{"tokens": row} for row in produced]

        def key_fn(item):
            return (
                np.asarray(item["prompt"]).shape,
                int(item.get("max_new_tokens", 16)),
                item.get("eos"),
            )

        if len(items) > 1:
            # every singleton group is a request that decodes serially
            # while co-riders existed — the ragged-prompt fallback
            sizes = Counter(key_fn(item) for item in items)
            _record_fallbacks(sum(1 for count in sizes.values() if count == 1))
        return _run_grouped(items, key_fn=key_fn, run_group=run_group)


# ----------------------------------------------------------------------
# Encoder models (BERT)
# ----------------------------------------------------------------------
class BertEmbedAdapter(TaskAdapter):
    """Mean-pooled encoder representations from :class:`BertEncoder`.

    ``embed`` payloads: ``{"tokens": (T,) or (B, T)}`` -> ``(D,)`` or
    ``(B, D)`` arrays.  The encoder is bidirectional, so requests batch by
    sequence length rather than padding.
    """

    tasks = ("embed",)

    def embed(self, items: Sequence[dict]) -> list:
        def run_group(group):
            stacked, spans = _batch_rows(
                [np.asarray(item["tokens"]) for item in group], batched_ndim=2
            )
            hidden = self.model.encode(stacked).data.mean(axis=1)
            return _scatter_rows(hidden, spans)

        return _run_grouped(
            items, key_fn=lambda item: np.asarray(item["tokens"]).shape[-1],
            run_group=run_group,
        )


class BertSpanAdapter(TaskAdapter):
    """Span extraction over :class:`BertQA` (the SQuAD-style head).

    ``classify`` payloads: ``{"tokens": (B, T)}`` -> ``(starts, ends)``
    integer arrays, exactly the legacy ``predict_spans`` contract.
    """

    tasks = ("classify",)

    def predict_spans(self, tokens: np.ndarray):
        start_logits, end_logits = self.model.forward(tokens)
        starts = np.argmax(start_logits.data, axis=-1)
        ends = np.maximum(np.argmax(end_logits.data, axis=-1), starts)
        return starts, ends

    def classify(self, items: Sequence[dict]) -> list:
        def run_group(group):
            stacked, spans = _batch_rows(
                [np.asarray(item["tokens"]) for item in group], batched_ndim=2
            )
            starts, ends = self.predict_spans(stacked)
            return list(zip(_scatter_rows(starts, spans), _scatter_rows(ends, spans)))

        return _run_grouped(
            items, key_fn=lambda item: np.asarray(item["tokens"]).shape[-1],
            run_group=run_group,
        )


# ----------------------------------------------------------------------
# Recommendation (DLRM)
# ----------------------------------------------------------------------
class CTRAdapter(TaskAdapter):
    """Click-probability prediction over :class:`DLRM`.

    ``classify`` payloads: ``{"dense": (D,) or (B, D), "cats": (F,) or
    (B, F)}`` -> probability scalar / ``(B,)`` array.  Rows are
    independent, so requests concatenate into one forward.
    """

    tasks = ("classify",)

    def predict_proba(self, dense, cats) -> np.ndarray:
        logits = self.model.forward(dense, cats)
        return 1.0 / (1.0 + np.exp(-logits.data))

    def classify(self, items: Sequence[dict]) -> list:
        dense, spans = _batch_rows(
            [np.asarray(item["dense"], dtype=np.float64) for item in items],
            batched_ndim=2,
        )
        cats, _ = _batch_rows([np.asarray(item["cats"]) for item in items], 2)
        probs = self.predict_proba(dense, cats)
        return _scatter_rows(
            probs, spans, wrap=lambda value, single: float(value) if single else value
        )


# ----------------------------------------------------------------------
# Vision (ResNet / MobileNet / ViT stand-ins)
# ----------------------------------------------------------------------
class VisionAdapter(TaskAdapter):
    """Image classification over the vision family.

    ``classify`` payloads: ``{"images": (C, H, W) or (B, C, H, W)}`` ->
    ``{"label": int, "logits": (K,)}`` or batched arrays.
    """

    tasks = ("classify",)

    def classify(self, items: Sequence[dict]) -> list:
        def run_group(group):
            stacked, spans = _batch_rows(
                [np.asarray(item["images"], dtype=np.float64) for item in group],
                batched_ndim=4,
            )
            logits = self.model.forward(stacked).data
            labels = np.argmax(logits, axis=-1)
            return [
                {"label": int(label) if single else label, "logits": chunk}
                for label, chunk, single in zip(
                    _scatter_rows(labels, spans),
                    _scatter_rows(logits, spans),
                    (single for single, _, _ in spans),
                )
            ]

        return _run_grouped(
            items,
            key_fn=lambda item: np.asarray(item["images"]).shape[-3:],
            run_group=run_group,
        )


# ----------------------------------------------------------------------
# Speech (wav2vec stand-in)
# ----------------------------------------------------------------------
class SpeechAdapter(TaskAdapter):
    """Frame classification + repeat collapse over :class:`TinyWav2Vec`.

    ``classify`` payloads: ``{"frames": (T, F) or (B, T, F)}`` -> a phone
    sequence (list of ints) or a list of sequences.  The context network
    is bidirectional, so requests group by frame count.
    """

    tasks = ("classify",)

    def transcribe(self, frames: np.ndarray) -> list[list[int]]:
        from ..metrics.wer import collapse_repeats

        logits = self.model.forward(frames)
        predictions = np.argmax(logits.data, axis=-1)
        return [collapse_repeats(row) for row in predictions]

    def classify(self, items: Sequence[dict]) -> list:
        def run_group(group):
            stacked, spans = _batch_rows(
                [np.asarray(item["frames"], dtype=np.float64) for item in group],
                batched_ndim=3,
            )
            return _scatter_rows(self.transcribe(stacked), spans)

        return _run_grouped(
            items,
            key_fn=lambda item: np.asarray(item["frames"]).shape[-2:],
            run_group=run_group,
        )


# ----------------------------------------------------------------------
# Translation (seq2seq transformer / LSTM)
# ----------------------------------------------------------------------
class TranslationAdapter(TaskAdapter):
    """Greedy autoregressive decoding over the seq2seq family.

    ``generate`` payloads: ``{"sources": (Ts,) or (B, Ts), "max_len": int,
    "bos": int, "eos": int}`` -> token list / list of token lists.  Rows
    decode independently, so same-length sources batch together.
    """

    tasks = ("generate",)

    def greedy_decode(
        self,
        sources: np.ndarray,
        max_len: int,
        bos: int,
        eos: int,
        use_cache: bool | None = None,
    ) -> list[list[int]]:
        """Greedy decode with incremental caching when bit-identical.

        ``use_cache=None`` auto-selects the cached path via
        :func:`~repro.nn.decode.supports_cached_decode`: the transformer
        decoder then re-runs only its open-block suffix against frozen
        quantized self-attention payloads (cross-attention K/V of the
        encoder memory quantize exactly once), and the LSTM carries its
        (h, c) instead of re-running the whole target prefix per step.
        ``False`` forces the historical full-recompute loop.
        """
        from ..models.translation import LSTMSeq2Seq
        from ..nn.decode import supports_cached_decode

        model = self.model
        sources = np.asarray(sources)
        batch = sources.shape[0]
        if use_cache is None:
            use_cache = supports_cached_decode(model)
        with no_grad():
            if isinstance(model, LSTMSeq2Seq):
                memory, enc_state = model.encode(sources)
                if use_cache:
                    state = model.init_decode_state(enc_state)
                    decode = lambda t_in: model.decode_step(t_in, memory, state)
                else:
                    decode = lambda t_in: model.decode(t_in, memory, enc_state)
            else:
                memory = model.encode(sources)
                if use_cache:
                    state = model.init_decode_state(batch, capacity=max_len)
                    decode = lambda t_in: model.decode_step(t_in, memory, state)
                else:
                    decode = lambda t_in: model.decode(t_in, memory)
            # preallocated token buffer (np.concatenate per step is O(T^2))
            tokens = np.empty((batch, max_len + 1), dtype=np.int64)
            tokens[:, 0] = bos
            n = 1
            finished = np.zeros(batch, dtype=bool)
            for _ in range(max_len):
                logits = decode(tokens[:, :n])
                nxt = np.argmax(logits.data[:, -1], axis=-1)
                nxt = np.where(finished, eos, nxt)
                tokens[:, n] = nxt
                n += 1
                finished |= nxt == eos
                if finished.all():
                    break
        outputs = []
        for row in tokens[:, 1:n]:
            out = []
            for token in row:
                if token == eos:
                    break
                out.append(int(token))
            outputs.append(out)
        return outputs

    def generate(self, items: Sequence[dict]) -> list:
        def run_group(group):
            stacked, spans = _batch_rows(
                [np.asarray(item["sources"]) for item in group], batched_ndim=2
            )
            first = group[0]
            decoded = self.greedy_decode(
                stacked, int(first["max_len"]), int(first["bos"]), int(first["eos"])
            )
            return _scatter_rows(decoded, spans)

        return _run_grouped(
            items,
            key_fn=lambda item: (
                np.asarray(item["sources"]).shape[-1],
                int(item["max_len"]),
                int(item["bos"]),
                int(item["eos"]),
            ),
            run_group=run_group,
        )


# ----------------------------------------------------------------------
# Diffusion (DDPM stand-in)
# ----------------------------------------------------------------------
class DiffusionAdapter(TaskAdapter):
    """Epsilon prediction over :class:`DDPM2D`.

    ``denoise`` payloads: ``{"x": (n, 2), "t": int array, "labels":
    optional}`` -> predicted-noise ``(n, 2)`` array.  Rows (and therefore
    whole requests) are independent and concatenate into one forward
    through the model's public ``predict_noise``.
    """

    tasks = ("denoise",)

    def denoise(self, items: Sequence[dict]) -> list:
        conditioned = bool(self.model.num_classes)
        x, spans = _batch_rows(
            [np.asarray(item["x"], dtype=np.float64) for item in items], batched_ndim=2
        )

        def per_row(key):
            return np.concatenate(
                [
                    np.broadcast_to(np.asarray(item[key]), (stop - start,))
                    for item, (_, start, stop) in zip(items, spans)
                ]
            )

        eps = self.model.predict_noise(
            x, per_row("t"), per_row("labels") if conditioned else None
        ).data
        return _scatter_rows(eps, spans)


# ----------------------------------------------------------------------
# Default registrations (order matters only for overlapping classes;
# register_adapter prepends, so later entries here take precedence).
# ----------------------------------------------------------------------
def _register_defaults() -> None:
    from ..models.bert import BertEncoder, BertQA
    from ..models.diffusion import DDPM2D
    from ..models.dlrm import DLRM
    from ..models.gpt import GPT
    from ..models.speech import TinyWav2Vec
    from ..models.translation import LSTMSeq2Seq, Seq2SeqTransformer
    from ..models.vision import TinyMobileNet, TinyResNet, TinyViT

    register_adapter(GPT, CausalLMAdapter)
    register_adapter(BertEncoder, BertEmbedAdapter)
    register_adapter(BertQA, BertSpanAdapter)
    register_adapter(DLRM, CTRAdapter)
    register_adapter(TinyResNet, VisionAdapter)
    register_adapter(TinyMobileNet, VisionAdapter)
    register_adapter(TinyViT, VisionAdapter)
    register_adapter(TinyWav2Vec, SpeechAdapter)
    register_adapter(Seq2SeqTransformer, TranslationAdapter)
    register_adapter(LSTMSeq2Seq, TranslationAdapter)
    register_adapter(DDPM2D, DiffusionAdapter)


_register_defaults()
