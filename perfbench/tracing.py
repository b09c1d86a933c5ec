"""Outside-in tracing: spans around each layer's public entry points.

The benchmark never edits the program.  :meth:`Tracer.install` replaces
every binding of each entry point in :data:`ENTRY_POINTS` with a wrapper
that records one span per call, and :meth:`Tracer.uninstall` puts the
originals back.  Methods and properties are patched on the class that
defines them; a module-level function is patched in *every* ``repro``
module that binds the same function object, because callers import them
by name (the scheduler imports ``batched_causal_decode_step`` directly, so
patching only ``repro.nn.decode`` would miss its calls).  The benchmark's
own calls go through module attributes for the same reason.

A span is ``(id, name, start, end, parent id, thread name, extra)``;
``extra`` holds what the wrapper read off the call's arguments before the
call (element and byte counts, stream counts, request ids).  Spans stay in
memory until the run ends.  A call that re-enters the entry point it is
already inside (the tiled quantize re-enters itself once per chunk) joins
the outer span, so counts are calls made from outside the kernel.

Self time is a span's duration minus the time its child spans cover.  Per
thread, the self times plus an explicit unattributed row (idle time and
code between traced calls) sum to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: The runtime layers, most specific first (a span name's layer is the
#: longest of these it starts with; the rest of the name is the op).
LAYERS = (
    "kernels",
    "core",
    "nn.decode",
    "nn",
    "serve.session",
    "serve.adapters",
    "serve.sched",
    "fidelity",
    "hardware",
)


def split_name(name: str) -> tuple[str, str]:
    """``"serve.sched.pool.checkout"`` -> ``("serve.sched", "pool.checkout")``."""
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer, name[len(layer) + 1 :]
    return name, ""


# ----------------------------------------------------------------------
# What each wrapper reads off its call's arguments (before the call)
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _quantize_info(args, kwargs) -> dict:
    """(backend, x, config, axis, ...): elements quantized."""
    return {"elems": int(args[1].size)}


def _epilogue_info(args, kwargs) -> dict:
    """(backend, a, w, epilogue, bias): bytes read and written, from sizes."""
    a, w = args[1], args[2]
    bias = _arg(args, kwargs, 4, "bias")
    out_elems = (a.size // max(a.shape[-1], 1)) * w.shape[-1]
    moved = a.nbytes + w.nbytes + out_elems * 8
    if bias is not None:
        moved += np.asarray(bias).nbytes
    return {"bytes": int(moved)}


def sealed_boundary(state) -> int:
    """The position a decode state rewinds to, read without rewinding it
    (the rule of :meth:`repro.nn.decode.DecodeState.rewind`)."""
    caches = state.layers
    boundary = min((cache.sealed for cache in caches), default=0)
    if any(cache.block is None or boundary % max(cache.block, 1) for cache in caches):
        return 0
    return boundary


def _step_info(args, kwargs) -> dict:
    """(model, windows, states): real rows fed per stream and the padding."""
    windows, states = args[1], args[2]
    lens = [len(w) - sealed_boundary(s) for w, s in zip(windows, states)]
    return {"streams": len(lens), "rows": sum(lens), "slots": max(lens) * len(lens)}


def _gather_info(args, kwargs) -> dict:
    """(paged cache,): bytes of the contiguous copy the property builds."""
    cache = args[0]
    return {"bytes": int(cache.pool.num_heads * cache.head_dim * cache.length * 8)}


def _score_info(args, kwargs) -> dict:
    """(adapter, payloads): the input rows the scorer feeds.

    Mirrors ``CausalLMAdapter._pair_rows`` and its row dedup: one input row
    per (context, candidate) pair, byte-identical rows run once, and the
    unique rows are right-padded to the longest.
    """
    adapter, items = args[0], args[1]
    max_len = adapter.model.config.max_len
    rows: dict[bytes, int] = {}
    pairs = 0
    for item in items:
        context = np.asarray(item["context"], dtype=np.int64)
        for candidate in item.get("candidates", [item.get("continuation")]):
            tokens = np.concatenate([context, np.asarray(candidate, dtype=np.int64)])
            tokens = tokens[-max_len:]
            rows.setdefault(tokens[:-1].tobytes(), len(tokens) - 1)
            pairs += 1
    width = max(rows.values(), default=0)
    return {
        "pairs": pairs,
        "rows": len(rows),
        "tokens": sum(rows.values()),
        "slots": width * len(rows),
    }


def _submit_info(args, kwargs) -> dict:
    return {"request": id(args[1])}


def _run_batch_info(args, kwargs) -> dict:
    return {"requests": [id(r) for r in args[1]]}


def _checkout_info(args, kwargs) -> dict:
    """(pool, owner, n): pages taken, plus the arena's size per position."""
    pool = args[0]
    arena = pool.kT.nbytes + pool.v.nbytes + pool.v_raw.nbytes
    return {
        "pages": int(args[2]),
        "bytes_per_page_position": arena / (pool.total_pages * pool.page_size),
    }


def _qsnr_info(args, kwargs) -> dict:
    fmt = _arg(args, kwargs, 0, "fmt")
    return {"format": getattr(fmt, "name", None) or str(fmt)}


def _program_counters() -> dict[str, int]:
    from repro.core.quantize import quantize_call_count
    from repro.kernels import plan_cache_info

    plans = plan_cache_info()
    return {
        "quantize_calls": quantize_call_count(),
        "plan_hits": plans["hits"],
        "plan_misses": plans["misses"],
    }


@dataclass(frozen=True)
class EntryPoint:
    """One traced entry point: ``attr`` is ``"func"`` or ``"Class.member"``."""

    name: str
    module: str
    attr: str
    describe: Callable | None = None


ENTRY_POINTS = (
    EntryPoint("kernels.quantize", "repro.kernels.numpy_backend", "NumpyBackend.quantize", _quantize_info),
    EntryPoint("kernels.quantize", "repro.kernels.reference", "ReferenceBackend.quantize", _quantize_info),
    EntryPoint("kernels.quantize_partial", "repro.kernels.numpy_backend", "NumpyBackend.quantize_partial", _quantize_info),
    EntryPoint("kernels.quantize_partial", "repro.kernels.base", "KernelBackend.quantize_partial", _quantize_info),
    EntryPoint("kernels.matmul_epilogue", "repro.kernels.numpy_backend", "NumpyBackend.matmul_epilogue", _epilogue_info),
    EntryPoint("kernels.matmul_epilogue", "repro.kernels.base", "KernelBackend.matmul_epilogue", _epilogue_info),
    EntryPoint("nn.matmul", "repro.nn.quantized", "quantized_matmul"),
    EntryPoint("nn.matmul", "repro.nn.quantized", "quantized_bmm"),
    EntryPoint("nn.matmul", "repro.nn.quantized", "quantized_matmul_prequant"),
    EntryPoint("nn.matmul", "repro.nn.quantized", "quantized_bmm_prequant"),
    EntryPoint("nn.attention", "repro.nn.attention", "MultiHeadAttention.forward"),
    EntryPoint("nn.forward_rows", "repro.models.gpt", "GPT.forward_rows"),
    EntryPoint("nn.decode.step", "repro.nn.decode", "batched_causal_decode_step", _step_info),
    EntryPoint("nn.decode.kv_append", "repro.nn.decode", "PagedKVCache.append"),
    EntryPoint("nn.decode.kv_gather", "repro.nn.decode", "PagedKVCache.keys_t", _gather_info),
    EntryPoint("nn.decode.kv_gather", "repro.nn.decode", "PagedKVCache.values", _gather_info),
    EntryPoint("nn.decode.requant_tails", "repro.nn.decode", "requantize_tails"),
    EntryPoint("serve.session.submit", "repro.serve.session", "InferenceSession.submit", _submit_info),
    EntryPoint("serve.adapters.run_batch", "repro.serve.adapters", "TaskAdapter.run_batch", _run_batch_info),
    EntryPoint("serve.adapters.score", "repro.serve.adapters", "CausalLMAdapter.score", _score_info),
    EntryPoint("serve.sched.pool.checkout", "repro.serve.sched.pages", "PagePool.checkout_pages", _checkout_info),
    EntryPoint("serve.sched.pool.release", "repro.serve.sched.pages", "PagePool.release_pages"),
    EntryPoint("fidelity.run_sweep", "repro.fidelity.sweep", "run_sweep"),
    EntryPoint("fidelity.measure_qsnr", "repro.fidelity.qsnr", "measure_qsnr", _qsnr_info),
    EntryPoint("fidelity.sample", "repro.fidelity.distributions", "sample"),
    EntryPoint("hardware.cost", "repro.hardware.cost", "hardware_cost"),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.window: tuple[float, float] | None = None
        #: program counters (engine calls, plan-cache hits/misses) over the
        #: traced window, counted at the same boundaries as the spans
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, entry: EntryPoint, fn):
        name, describe = entry.name, entry.describe
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            extra = describe(args, kwargs) if describe is not None else None
            sid = next(ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else 0
                spans.append(
                    (sid, name, start, end, parent, threading.current_thread().name, extra)
                )

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every entry point; starts the traced window."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            if "." in entry.attr:
                cls_name, member = entry.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, property):
                    self._replace(cls, member, property(self._wrap(entry, original.fget)))
                else:
                    self._replace(cls, member, self._wrap(entry, original))
                continue
            original = getattr(module, entry.attr)
            wrapped = self._wrap(entry, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        self.counters = _program_counters()
        self.window = (time.perf_counter(), None)

    def uninstall(self) -> None:
        """Restore every original binding; ends the traced window."""
        self.window = (self.window[0], time.perf_counter())
        after = _program_counters()
        self.counters = {k: after[k] - self.counters.get(k, 0) for k in after}
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[1] == name]

    def self_times(self) -> dict:
        """Per thread: wall, per-name ``[calls, self_ms, total_ms]`` rows,
        attributed and unattributed milliseconds (rows + unattributed =
        wall)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        wall_ms = (self.window[1] - self.window[0]) * 1e3
        threads: dict[str, dict] = {}
        for sid, name, start, end, _, thread, _ in self.spans:
            table = threads.setdefault(thread, {"rows": {}, "attributed_ms": 0.0})
            row = table["rows"].setdefault(name, [0, 0.0, 0.0])
            own = (end - start - child_time.get(sid, 0.0)) * 1e3
            row[0] += 1
            row[1] += own
            row[2] += (end - start) * 1e3
            table["attributed_ms"] += own
        for table in threads.values():
            table["wall_ms"] = wall_ms
            table["unattributed_ms"] = wall_ms - table["attributed_ms"]
        return threads

    def write(self, path, meta: dict, request_index: dict[int, int]) -> None:
        """Write the spans and self-time tables as gzipped JSON."""
        origin = self.window[0]

        def portable(extra):
            if not extra:
                return extra
            out = dict(extra)
            if "request" in out:
                out["request"] = request_index.get(out["request"])
            if "requests" in out:
                out["requests"] = [request_index.get(r) for r in out["requests"]]
            return out

        payload = {
            "meta": meta,
            "threads": self.self_times(),
            "spans": [
                [sid, name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                 parent, thread, portable(extra)]
                for sid, name, start, end, parent, thread, extra in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def execution_thread(tables: dict) -> str | None:
    """The thread the model ran on: the one with the most traced time."""
    if not tables:
        return None
    return max(tables, key=lambda thread: tables[thread]["attributed_ms"])


def read_trace(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def format_self_times(tables: dict) -> list[str]:
    """The self-time table, one block per thread, each summing to wall."""
    lines = []
    for thread in sorted(tables, key=lambda t: -tables[t]["attributed_ms"]):
        table = tables[thread]
        wall = table["wall_ms"]
        lines.append(f"thread {thread}: traced wall {wall:.1f} ms")
        lines.append(f"  {'layer':<15} {'op':<18} {'calls':>8} {'self_ms':>11} {'share':>7} {'total_ms':>11}")
        rows = sorted(table["rows"].items(), key=lambda item: -item[1][1])
        for name, (calls, own, total) in rows:
            layer, op = split_name(name)
            lines.append(
                f"  {layer:<15} {op:<18} {calls:>8} {own:>11.1f} {own / wall:>7.1%} {total:>11.1f}"
            )
        un = table["unattributed_ms"]
        lines.append(f"  {'(unattributed)':<34} {'':>8} {un:>11.1f} {un / wall:>7.1%}")
        total = table["attributed_ms"] + un
        lines.append(f"  {'(sum)':<34} {'':>8} {total:>11.1f} {total / wall:>7.1%}")
    return lines
