"""The benchmark tracer's hooks still fit the serving code they patch.

``perfbench/tracing.py`` wraps decode and page-pool entry points through
their classes' ``__dict__`` and reads cache and pool attributes off each
call's arguments (the cache's ``pool.num_heads``, ``head_dim``,
``length``, ``sealed`` and ``block``; the pool's arenas, ``total_pages``
and ``page_size``).  A renamed attribute would otherwise surface only in a
full traced serving run; this drives a tiny traced scheduler session.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from repro.data.synthetic import SyntheticLanguage
from repro.models.gpt import GPT, GPTConfig
from repro.serve import SessionConfig, compile_model

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import ENTRY_POINTS, Tracer  # noqa: E402

HOOKED = (
    "nn.decode.step",
    "nn.decode.kv_append",
    "nn.decode.kv_gather",
    "serve.sched.pool.checkout",
)


def bindings() -> dict:
    """Every entry point's current binding, keyed by (module, attr)."""
    out = {}
    for entry in ENTRY_POINTS:
        module = importlib.import_module(entry.module)
        if "." in entry.attr:
            cls_name, member = entry.attr.split(".")
            out[entry.module, entry.attr] = vars(getattr(module, cls_name))[member]
        else:
            out[entry.module, entry.attr] = getattr(module, entry.attr)
    return out


def test_traced_scheduler_session_fills_every_hook():
    lang = SyntheticLanguage(seed=0)
    config = GPTConfig(dim=16, num_layers=2, num_heads=2, max_len=64)
    model = GPT(lang.vocab_size, config, rng=np.random.default_rng(0))
    compiled = compile_model(model, "mx6")
    rng = np.random.default_rng(5)
    requests = [
        {
            "task": "generate",
            "prompt": rng.integers(1, lang.vocab_size, size=n).tolist(),
            "max_new_tokens": 5,
        }
        for n in (3, 9, 18, 30)  # ragged, some past a sealed page
    ]
    truth = [
        list(compiled.adapter.generate_stream(np.asarray(r["prompt"]), 5))
        for r in requests
    ]
    before = bindings()
    tracer = Tracer()
    cfg = SessionConfig(format="mx6", scheduler={"max_streams": 4})
    with compiled.session(cfg) as session:
        with tracer:
            futures = [session.submit(r) for r in requests]
            tokens = [f.result(timeout=60)["tokens"] for f in futures]
        summary = session.summary()
    assert tokens == truth
    assert summary["reliability"]["errors"] == 0

    described = {entry.name for entry in ENTRY_POINTS if entry.describe is not None}
    for name in HOOKED:
        spans = tracer.named(name)
        assert spans, f"no {name} spans"
        if name in described:
            assert all(span[6] for span in spans), f"{name} span without extra"
    step = tracer.named("nn.decode.step")[0][6]
    assert step["streams"] >= 1 and step["rows"] >= step["streams"]
    assert all(span[6]["bytes"] >= 0 for span in tracer.named("nn.decode.kv_gather"))
    checkout = tracer.named("serve.sched.pool.checkout")[0][6]
    assert checkout["pages"] >= 1 and checkout["bytes_per_page_position"] > 0

    after = bindings()
    assert all(after[key] is before[key] for key in before), "uninstall left a patch"
