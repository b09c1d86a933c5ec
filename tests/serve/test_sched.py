"""Continuous batching: page pool accounting, paged caches, the scheduler.

The correctness bar for the whole subsystem is *bit-identity*: a stream
decoded through the paged pool — batched with strangers, preempted,
resumed — must emit exactly the tokens the serial ``generate`` path
emits.  Every test here ultimately reduces to that assertion plus page
accounting (checkouts == releases, zero leaks at close).
"""

import threading
import time

import numpy as np
import pytest

from repro.data.synthetic import SyntheticLanguage
from repro.kernels import get_backend
from repro.models.gpt import GPT, GPTConfig
from repro.models.moe import MoEGPT
from repro.nn.attention import MultiHeadAttention
from repro.nn.decode import (
    KVCache,
    PagedKVCache,
    batched_causal_decode_step,
    causal_decode_step,
    init_causal_decode_state,
    init_paged_decode_state,
    requantize_tails,
    supports_batched_decode,
)
from repro.nn.tensor import no_grad
from repro.serve import (
    DeadlineExceeded,
    InjectedFault,
    PagePool,
    PoolExhausted,
    QueueFull,
    SessionConfig,
    compile_model,
    configure_faults,
    inject_faults,
)
from repro.spec.serving import SchedulerConfig

SMALL = GPTConfig(dim=16, num_layers=2, num_heads=2, max_len=64)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    previous = configure_faults(None)
    yield
    configure_faults(previous)


@pytest.fixture(scope="module")
def lang():
    return SyntheticLanguage(seed=0)


@pytest.fixture(scope="module")
def compiled(lang):
    model = GPT(lang.vocab_size, SMALL, rng=np.random.default_rng(0))
    return compile_model(model, "mx6")


@pytest.fixture(scope="module")
def moe(lang):
    model = MoEGPT(lang.vocab_size, SMALL, num_experts=3, rng=np.random.default_rng(6))
    return compile_model(model, "mx6")


#: room for an 80+-token prefill beside streams sealed at 16, 32 and 64
WIDE = GPTConfig(dim=16, num_layers=2, num_heads=2, max_len=128)


@pytest.fixture(scope="module")
def wide(lang):
    model = GPT(lang.vocab_size, WIDE, rng=np.random.default_rng(1))
    return compile_model(model, "mx6")


def extreme_ragged_mix(model, pool, owner, lang):
    """Windows and prepared states: one 85-row prefill among 1-row decodes.

    Four decode streams hold a k1-aligned history (or none), so each
    re-feeds exactly one row from a different sealed boundary (16, 32, 0,
    64); one more re-feeds an open block of 4 rows.  The prefill sits
    second, so the packed offsets (0, 1, 86, 87, 88, 89) are not
    multiples of k1.
    """
    rng = np.random.default_rng(21)
    # (window length, positions already cached before the step)
    plan = [(17, 16), (85, 0), (33, 32), (1, 0), (65, 64), (20, 19)]
    windows, states = [], []
    for i, (length, warm) in enumerate(plan):
        window = rng.integers(1, lang.vocab_size, size=length)
        state = init_paged_decode_state(model, pool, f"{owner}{i}")
        if warm:
            causal_decode_step(model, window[None, :warm], state)
        windows.append(window)
        states.append(state)
    return windows, states


def free_states(states):
    for state in states:
        for kv in state.layers:
            kv.free()


def ragged_requests(lang, n, seed=3, max_new=8):
    rng = np.random.default_rng(seed)
    return [
        {
            "task": "generate",
            "prompt": rng.integers(1, lang.vocab_size, size=int(rng.integers(3, 20))).tolist(),
            "max_new_tokens": max_new,
        }
        for _ in range(n)
    ]


def serial_truth(compiled, requests):
    return [
        list(
            compiled.adapter.generate_stream(
                np.asarray(r["prompt"]), r["max_new_tokens"]
            )
        )
        for r in requests
    ]


# ----------------------------------------------------------------------
# PagePool accounting
# ----------------------------------------------------------------------
class TestPagePool:
    def test_checkout_release_roundtrip(self):
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=8)
        pages = pool.checkout_pages("a", 3)
        assert len(pages) == 3 and len(set(pages)) == 3
        assert pool.pages_free() == 5
        assert pool.pages_held("a") == 3
        pool.release_pages("a", pages[:2])
        assert pool.pages_free() == 7
        assert pool.release_all("a") == 1
        assert pool.pages_free() == 8
        assert pool.leaked() == {}
        stats = pool.stats()
        assert stats["checkouts"] == 3 and stats["releases"] == 3
        assert stats["high_water"] == 3
        assert stats["per_stream_high_water"] == 3

    def test_exhaustion_is_atomic(self):
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=4)
        pool.checkout_pages("a", 3)
        with pytest.raises(PoolExhausted):
            pool.checkout_pages("b", 2)  # only 1 free: must take none
        assert pool.pages_free() == 1
        assert pool.pages_held("b") == 0

    def test_released_pages_come_back_ascending(self):
        """Both release paths hand a run back as the same ascending run."""
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=8)
        for release in (pool.release_pages, lambda owner, _: pool.release_all(owner)):
            pages = pool.checkout_pages("a", 3)
            assert pages == sorted(pages)
            release("a", pages)
            assert pool.checkout_pages("b", 3) == pages
            pool.release_all("b")
        assert pool.leaked() == {}

    def test_foreign_release_rejected(self):
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=4)
        page = pool.checkout_page("a")
        with pytest.raises(ValueError):
            pool.release_page("b", page)
        with pytest.raises(ValueError):
            pool.release_page("a", page + 1)
        pool.release_page("a", page)
        assert pool.leaked() == {}

    def test_repeated_page_release_rejected(self):
        """A page named twice in one release changes nothing: pushed twice,
        it would later be checked out to two slots at once."""
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=4)
        page, other = pool.checkout_pages("a", 2)
        with pytest.raises(ValueError, match="twice"):
            pool.release_pages("a", [page, page])
        assert pool.pages_free() == 2
        assert pool.pages_held("a") == 2
        pool.release_pages("a", [page, other])
        everything = pool.checkout_pages("b", pool.pages_free())
        assert sorted(everything) == [0, 1, 2, 3]

    def test_leak_detection(self):
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=4)
        pool.checkout_pages("s0", 2)
        assert pool.leaked() == {"s0": 2}

    def test_many_owners_leave_no_per_owner_state(self):
        """Serving thousands of distinct streams keeps the pool's memory flat.

        Owners are unique per stream, so anything the pool keys by owner
        must go when the owner's last page does; the per-stream high-water
        mark must still be the largest page count any one owner held.
        """
        pool = PagePool(num_heads=2, head_dim=4, page_size=16, total_pages=16)
        expected = 0
        for i in range(1200):
            owner = f"s{i}"
            held = pool.checkout_pages(owner, 1 + i % 3)
            if i % 97 == 0:  # grow in a second checkout, as decode does
                held += pool.checkout_pages(owner, 2 + i % 5)
            expected = max(expected, len(held))
            if i % 2:
                pool.release_pages(owner, held)
            else:
                assert pool.release_all(owner) == len(held)
        stats = pool.stats()
        assert expected == 9  # owner s194 grew 3 -> 9 pages
        assert stats["per_stream_high_water"] == expected
        assert stats["checkouts"] == stats["releases"]
        assert stats["owners"] == 0 and pool.leaked() == {}
        assert pool.pages_free() == pool.total_pages
        # no dict or set on the pool still remembers a released owner
        leftovers = {
            name: value for name, value in vars(pool).items()
            if isinstance(value, (dict, set)) and value
        }
        assert leftovers == {}


# ----------------------------------------------------------------------
# PagedKVCache in a shared pool: bit-identity with serial decode and KVCache
# ----------------------------------------------------------------------
class TestPagedDecode:
    def test_serial_paged_decode_bit_identical(self, compiled, lang):
        model = compiled.model
        pool = PagePool(
            SMALL.num_heads, SMALL.dim // SMALL.num_heads, 16, total_pages=32
        )
        rng = np.random.default_rng(7)
        prompt = rng.integers(1, lang.vocab_size, size=11)
        with no_grad():
            stock = init_causal_decode_state(model)
            paged = init_paged_decode_state(model, pool, "s0")
            window = list(prompt)
            for _ in range(6):
                tokens = np.asarray(window, dtype=np.int64)[None]
                a = causal_decode_step(model, tokens, stock).data
                b = causal_decode_step(model, tokens, paged).data
                np.testing.assert_array_equal(a, b)
                window.append(int(np.argmax(a[0, -1])))
        for kv in paged.layers:
            kv.free()
        assert pool.leaked() == {}
        stats = pool.stats()
        assert stats["checkouts"] == stats["releases"] > 0

    def test_rewind_then_reappend_bit_identical(self, compiled, lang):
        """Preemption's rewind/recompute path reproduces the sealed state."""
        model = compiled.model
        pool = PagePool(
            SMALL.num_heads, SMALL.dim // SMALL.num_heads, 16, total_pages=32
        )
        rng = np.random.default_rng(11)
        window = rng.integers(1, lang.vocab_size, size=21)
        with no_grad():
            once = init_paged_decode_state(model, pool, "a")
            a = causal_decode_step(model, window[None], once).data
            # decode partway, throw the pages away, re-prefill from scratch
            twice = init_paged_decode_state(model, pool, "b")
            causal_decode_step(model, window[None, :9], twice).data
            for kv in twice.layers:
                kv.free()
            twice = init_paged_decode_state(model, pool, "b")
            twice.position = 0
            b = causal_decode_step(model, window[None], twice).data
        np.testing.assert_array_equal(a, b)
        for state in (once, twice):
            for kv in state.layers:
                kv.free()
        assert pool.leaked() == {}

    def test_page_size_must_match_block(self, compiled):
        pool = PagePool(SMALL.num_heads, SMALL.dim // SMALL.num_heads, 8, 8)
        block = compiled.model.blocks[0].attn
        with pytest.raises(ValueError):
            PagedKVCache(
                pool, "s0", SMALL.num_heads, SMALL.dim // SMALL.num_heads,
                capacity=64, spec=block.quant,
            )

    def test_freed_pages_reread_as_views(self, compiled):
        """A stream checked out into freed pages reads its history as views."""
        head_dim = SMALL.dim // SMALL.num_heads
        pool = PagePool(SMALL.num_heads, head_dim, 16, total_pages=8)
        spec = compiled.model.blocks[0].attn.quant
        rng = np.random.default_rng(2)
        with no_grad():
            for owner in ("a", "b"):
                cache = PagedKVCache(
                    pool, owner, SMALL.num_heads, head_dim, capacity=64, spec=spec
                )
                kv = rng.normal(size=(1, SMALL.num_heads, 40, head_dim))
                cache.append(kv, kv, spec=spec)
                assert np.shares_memory(cache.keys_t, pool.kT)
                assert np.shares_memory(cache.values, pool.v)
                cache.free()
        assert pool.leaked() == {}

    def test_supports_batched_decode(self, compiled, moe, lang):
        with no_grad():
            assert supports_batched_decode(compiled.model)
            assert supports_batched_decode(moe.model)  # the mixture is row-local
        fp32 = GPT(lang.vocab_size, SMALL, rng=np.random.default_rng(0))
        with no_grad():
            assert not supports_batched_decode(fp32)

    def test_batched_ragged_step_bit_identical(self, compiled, lang):
        model = compiled.model
        pool = PagePool(
            SMALL.num_heads, SMALL.dim // SMALL.num_heads, 16, total_pages=64
        )
        rng = np.random.default_rng(5)
        windows = [
            rng.integers(1, lang.vocab_size, size=int(n))
            for n in rng.integers(3, 30, size=5)
        ]
        with no_grad():
            serial = []
            for i, window in enumerate(windows):
                state = init_paged_decode_state(model, pool, f"serial{i}")
                serial.append(
                    causal_decode_step(model, window[None], state).data[0, -1]
                )
                for kv in state.layers:
                    kv.free()
            states = [
                init_paged_decode_state(model, pool, f"batched{i}")
                for i in range(len(windows))
            ]
            logits = batched_causal_decode_step(model, windows, states)
        np.testing.assert_array_equal(logits, np.stack(serial))
        for state in states:
            for kv in state.layers:
                kv.free()
        assert pool.leaked() == {}

    def test_packed_step_trunk_sees_only_real_rows(self, wide, lang, monkeypatch):
        """The fused step feeds the trunk sum(len_i) rows, no padding.

        Every trunk matmul (fused Q/K/V, out_proj, both FFN layers) sees
        exactly the re-fed rows; only the LM head, on the gathered last
        rows, sees one row per stream.
        """
        model = wide.model
        pool = PagePool(WIDE.num_heads, WIDE.dim // WIDE.num_heads, 16, 64)
        with no_grad():
            windows, states = extreme_ragged_mix(model, pool, "s", lang)
            lens = [len(w) - s.layers[0].sealed for w, s in zip(windows, states)]
            backend = get_backend()
            project_qkv = MultiHeadAttention._project_qkv
            epilogue = backend.matmul_epilogue
            qkv_inputs, matmul_rows = [], []

            def spy_qkv(attn, x, context):
                qkv_inputs.append(x.shape)
                return project_qkv(attn, x, context)

            def spy_epilogue(a, *args, **kwargs):
                matmul_rows.append(a.size // a.shape[-1])
                return epilogue(a, *args, **kwargs)

            monkeypatch.setattr(MultiHeadAttention, "_project_qkv", spy_qkv)
            monkeypatch.setattr(backend, "matmul_epilogue", spy_epilogue)
            batched_causal_decode_step(model, windows, states)
            monkeypatch.undo()
            free_states(states)
        assert lens == [1, 85, 1, 1, 1, 4]
        rows = sum(lens)
        assert rows < len(lens) * max(lens)  # a padded batch would differ
        assert qkv_inputs == [(1, rows, WIDE.dim)] * WIDE.num_layers
        assert matmul_rows == [rows] * (4 * WIDE.num_layers) + [len(lens)]
        assert pool.leaked() == {}

    def test_packed_step_extreme_ragged_mix_bit_identical(self, wide, lang):
        """An 85-row prefill packed among 1-row decodes equals serial decode.

        Two consecutive fused steps, so the second also reads the caches
        the first one wrote through its packed slices.
        """
        model = wide.model
        pool = PagePool(WIDE.num_heads, WIDE.dim // WIDE.num_heads, 16, 128)
        with no_grad():
            windows, serial_states = extreme_ragged_mix(model, pool, "serial", lang)
            _, packed_states = extreme_ragged_mix(model, pool, "packed", lang)
            for _ in range(2):
                serial = np.stack([
                    causal_decode_step(model, window[None], state).data[0, -1]
                    for window, state in zip(windows, serial_states)
                ])
                packed = batched_causal_decode_step(model, windows, packed_states)
                np.testing.assert_array_equal(packed, serial)
                windows = [
                    np.append(window, np.argmax(row))
                    for window, row in zip(windows, serial)
                ]
            free_states(serial_states)
            free_states(packed_states)
        assert pool.leaked() == {}

    def test_scattered_page_table_matches_private_cache(self, compiled):
        """A page table that is not one ascending run reads and writes
        through index arrays; the payloads still equal a private-pool
        ``KVCache`` fed the same appends, across rewind and grouped tail
        requantization."""
        spec = compiled.model.blocks[0].attn.quant
        heads, head_dim = SMALL.num_heads, SMALL.dim // SMALL.num_heads
        pool = PagePool(heads, head_dim, 16, total_pages=8)
        paged = PagedKVCache(pool, "a", heads, head_dim, 64, spec)
        other = PagedKVCache(pool, "b", heads, head_dim, 64, spec)
        for total in (16, 32, 48, 64):  # two owners' checkouts interleave
            paged.reserve(total)
            other.reserve(total)
        assert np.any(np.diff(paged._pages) != 1)
        private = KVCache(1, heads, head_dim, 64, spec)
        rng = np.random.default_rng(19)
        k = rng.normal(size=(1, heads, 64, head_dim))
        v = rng.normal(size=(1, heads, 64, head_dim))

        def feed(start, sizes, defer):
            for size in sizes:
                for cache in (paged, private):
                    cache.append(
                        k[:, :, start : start + size],
                        v[:, :, start : start + size],
                        spec=spec,
                        defer_tail=defer,
                    )
                if defer:
                    requantize_tails([paged, private])
                start += size

        def assert_same():
            assert (paged.length, paged.sealed) == (private.length, private.sealed)
            np.testing.assert_array_equal(paged.keys_t, private.keys_t)
            np.testing.assert_array_equal(paged.values, private.values)

        with no_grad():
            feed(0, [5, 20, 1], defer=False)  # 26 rows: one sealed page + tail
            assert_same()
            feed(26, [33, 2], defer=True)  # whole blocks span scattered pages
            assert_same()
            for cache in (paged, private):
                cache.rewind()
            assert_same()
            feed(paged.length, [3, 1], defer=True)
            assert_same()
        assert not np.shares_memory(paged.keys_t, pool.kT)  # a gather
        paged.free()
        other.free()
        assert pool.leaked() == {}

    def test_grouped_tail_requantize_bit_identical(self, compiled, lang):
        """``requantize_tails`` grouping == one deferred-append + requant each.

        The fused step batches open-tail V requantization across streams;
        this pins the claim that grouping is invisible in the payload bits.
        """
        model = compiled.model
        head_dim = SMALL.dim // SMALL.num_heads
        rng = np.random.default_rng(13)
        lens = [1, 3, 3, 7, 1, 12, 7]
        with no_grad():
            solo_pool = PagePool(SMALL.num_heads, head_dim, 16, total_pages=32)
            grouped_pool = PagePool(SMALL.num_heads, head_dim, 16, total_pages=32)
            spec = model.blocks[0].attn.quant
            solo, grouped = [], []
            for i, n in enumerate(lens):
                k = rng.normal(size=(1, SMALL.num_heads, n, head_dim))
                v = rng.normal(size=(1, SMALL.num_heads, n, head_dim))
                a = PagedKVCache(
                    solo_pool, f"s{i}", SMALL.num_heads, head_dim, 64, spec
                )
                a.append(k, v, spec=spec)
                solo.append(a)
                b = PagedKVCache(
                    grouped_pool, f"s{i}", SMALL.num_heads, head_dim, 64, spec
                )
                b.append(k, v, spec=spec, defer_tail=True)
                grouped.append(b)
            requantize_tails(grouped)
            for a, b in zip(solo, grouped):
                np.testing.assert_array_equal(a.values, b.values)
                np.testing.assert_array_equal(a.keys_t, b.keys_t)
                a.free()
                b.free()
        assert solo_pool.leaked() == grouped_pool.leaked() == {}


# ----------------------------------------------------------------------
# SchedulerConfig
# ----------------------------------------------------------------------
class TestSchedulerConfig:
    def test_roundtrip(self):
        cfg = SchedulerConfig(max_streams=8, page_budget=40, max_waiting=4)
        assert SchedulerConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SchedulerConfig.from_dict({"max_streams": 8, "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_streams=0)
        with pytest.raises(ValueError):
            SchedulerConfig(starvation_age_s=-1.0)

    def test_session_config_canonicalizes(self):
        # stored as the canonical to_dict payload (JSON-friendly, like policy)
        cfg = SessionConfig(scheduler=SchedulerConfig(max_streams=4))
        assert cfg.scheduler == SchedulerConfig(max_streams=4).to_dict()
        assert SessionConfig.from_dict(cfg.to_dict()).scheduler == cfg.scheduler
        assert SessionConfig().scheduler is None
        with pytest.raises(ValueError):
            SessionConfig(scheduler={"max_streams": 0})

    def test_page_size_is_not_a_knob(self):
        # pages always hold one k1 block of the compiled format
        with pytest.raises(ValueError, match="unknown SchedulerConfig keys"):
            SessionConfig(format="mx6", scheduler={"page_size": 16})


# ----------------------------------------------------------------------
# The scheduler end to end
# ----------------------------------------------------------------------
class TestContinuousScheduler:
    def test_concurrent_streams_bit_identical(self, compiled, lang):
        requests = ragged_requests(lang, 24)
        truth = serial_truth(compiled, requests)
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 24})
        with compiled.session(cfg) as session:
            results = session.map(requests)
            summary = session.summary()
            pool = session._sched.pool
        assert [r["tokens"] for r in results] == truth
        sched = summary["sched"]
        assert sched["completed"] == len(requests)
        assert sched["serial_steps"] == 0  # mx6 certifies the fused step
        assert sched["slo"]["ttft_ms"]["p50"] >= 0.0
        assert summary["decode"]["tokens"] == sum(len(t) for t in truth)
        assert pool.leaked() == {}

    def test_moe_streams_step_packed_bit_identical(self, moe, lang):
        requests = ragged_requests(lang, 6, seed=4)
        truth = serial_truth(moe, requests)
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 8})
        with moe.session(cfg) as session:
            results = session.map(requests)
            sched = session.summary()["sched"]
            pool = session._sched.pool
        assert [r["tokens"] for r in results] == truth
        assert sched["serial_steps"] == 0  # MoE rides the packed step too
        assert pool.leaked() == {}
        assert pool.stats()["pages_used"] == 0

    def test_preemption_under_page_pressure_bit_identical(self, compiled, lang):
        requests = ragged_requests(lang, 16, seed=9)
        truth = serial_truth(compiled, requests)
        # 2 layers x up to 4 pages/stream: 12 pages sustain ~2 streams, so
        # admission + growth must preempt constantly
        cfg = SessionConfig(
            format="mx6", scheduler={"max_streams": 8, "page_budget": 12}
        )
        with compiled.session(cfg) as session:
            results = session.map(requests)
            sched = session.summary()["sched"]
            pool = session._sched.pool
        assert [r["tokens"] for r in results] == truth
        assert sched["preempted"] > 0
        assert sched["resumed"] > 0
        assert pool.leaked() == {}
        assert pool.stats()["pages_used"] == 0

    def test_request_larger_than_pool_fails_terminally(self, compiled, lang):
        cfg = SessionConfig(
            format="mx6", scheduler={"max_streams": 4, "page_budget": 2}
        )
        request = {
            "task": "generate",
            "prompt": list(range(1, 40)),  # needs 3 pages/layer from step 1
            "max_new_tokens": 4,
        }
        with compiled.session(cfg) as session:
            with pytest.raises(PoolExhausted):
                session.submit(request).result(timeout=30)

    def test_deadline_enforced_while_waiting(self, compiled, lang):
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 4})
        with inject_faults("sched.admit:kind=transient,rate=1.0"):
            with compiled.session(cfg) as session:
                future = session.submit(
                    {"task": "generate", "prompt": [1, 2, 3], "max_new_tokens": 4},
                    timeout=0.05,
                )
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=30)
                assert session.metrics.events()["timeouts"] >= 1

    def test_queue_cap_rejects(self, compiled, lang):
        cfg = SessionConfig(
            format="mx6",
            shed_policy="reject",
            scheduler={"max_streams": 4, "max_waiting": 1},
        )
        # a permanent transient admit fault pins everything in the queue
        with inject_faults("sched.admit:kind=transient,rate=1.0"):
            with compiled.session(cfg) as session:
                first = session.submit(
                    {"task": "generate", "prompt": [1, 2], "max_new_tokens": 2}
                )
                with pytest.raises(QueueFull):
                    session.submit(
                        {"task": "generate", "prompt": [3, 4], "max_new_tokens": 2}
                    )
                assert session.metrics.events()["sheds"] >= 1
                first.cancel()

    def test_admit_fault_fails_only_that_request(self, compiled, lang):
        requests = ragged_requests(lang, 6, seed=13)
        truth = serial_truth(compiled, requests)
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 2})
        with inject_faults("sched.admit:kind=error,rate=1.0,limit=1"):
            with compiled.session(cfg) as session:
                futures = [session.submit(r) for r in requests]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append(future.result(timeout=60))
                    except InjectedFault as error:
                        outcomes.append(error)
                sched = session.summary()["sched"]
        failed = [o for o in outcomes if isinstance(o, InjectedFault)]
        assert len(failed) == 1
        assert sched["admit_faults"] == 1
        for outcome, tokens in zip(outcomes, truth):
            if not isinstance(outcome, InjectedFault):
                assert outcome["tokens"] == tokens

    def test_health_kv_during_decode(self, compiled, lang):
        """health()['kv'] reads only the pool's own lock, so it answers
        while the decode loop is mid-storm."""
        requests = ragged_requests(lang, 12, seed=17, max_new=12)
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 12})
        snapshots = []
        with compiled.session(cfg) as session:
            futures = [session.submit(r) for r in requests]
            for _ in range(50):
                snapshots.append(session.health()["kv"])
                if all(f.done() for f in futures):
                    break
                time.sleep(0.002)
            for future in futures:
                future.result(timeout=60)
            final = session.health()["kv"]
        assert all(s["enabled"] for s in snapshots)
        assert any(s["pages_used"] > 0 for s in snapshots)
        assert final["pages_used"] == 0
        assert final["high_water"] > 0
        assert final["per_stream_high_water"] >= 1

    def test_health_kv_disabled_without_scheduler(self, compiled):
        with compiled.session(SessionConfig(format="mx6")) as session:
            assert session.health()["kv"] == {"enabled": False}

    def test_non_generate_and_oversized_stay_on_classic_path(self, compiled, lang):
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 4})
        rng = np.random.default_rng(0)
        with compiled.session(cfg) as session:
            score = session.submit(
                {
                    "task": "score",
                    "context": lang.sample_sequence(6, rng),
                    "candidates": [lang.sample_sequence(3, rng)],
                }
            ).result(timeout=60)
            assert "scores" in score
            # prompt + budget beyond the window: sliding-window fallback
            long = session.submit(
                {
                    "task": "generate",
                    "prompt": rng.integers(1, lang.vocab_size, size=59).tolist(),
                    "max_new_tokens": 30,
                }
            ).result(timeout=60)
            sched = session.summary()["sched"]
        assert len(long["tokens"]) == 30
        assert sched["completed"] == 0  # neither request rode the scheduler

    def test_zero_budget_request_does_not_fail_its_step_mates(self, compiled, lang):
        """A ``max_new_tokens=0`` request rides the classic path and returns
        no tokens; the streams it would have shared a step with decode
        exactly as serial ``generate`` does."""
        requests = ragged_requests(lang, 4, seed=23)
        requests.insert(2, {"task": "generate", "prompt": [5, 6, 7], "max_new_tokens": 0})
        truth = serial_truth(compiled, requests)
        assert truth[2] == []
        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 8})
        with compiled.session(cfg) as session:
            futures = [session.submit(r) for r in requests]
            tokens = [f.result(timeout=60)["tokens"] for f in futures]
            summary = session.summary()
        assert tokens == truth
        assert summary["reliability"]["errors"] == 0
        assert summary["sched"]["completed"] == 4

    def test_close_fails_waiting_streams(self, compiled, lang):
        from repro.serve import SessionClosed

        cfg = SessionConfig(format="mx6", scheduler={"max_streams": 2})
        with inject_faults("sched.admit:kind=transient,rate=1.0"):
            session = compiled.session(cfg)
            future = session.submit(
                {"task": "generate", "prompt": [1, 2, 3], "max_new_tokens": 4}
            )
            session.close()
            with pytest.raises(SessionClosed):
                future.result(timeout=10)
        assert session._sched.pool.leaked() == {}


# ----------------------------------------------------------------------
# Satellite: ragged-prompt serial fallbacks are counted on the classic path
# ----------------------------------------------------------------------
class TestSerialFallbackCounter:
    def test_ragged_generate_batch_counts_fallbacks(self, compiled, lang):
        # classic micro-batched path (no scheduler): ragged prompts group
        # into singletons, each one a serial fallback
        requests = [
            {"task": "generate", "prompt": list(range(1, 4 + i)), "max_new_tokens": 2}
            for i in range(4)
        ]
        cfg = SessionConfig(format="mx6", max_batch=4, max_wait=0.05)
        with compiled.session(cfg) as session:
            session.map(requests)
            summary = session.summary()
        assert summary["decode"]["serial_fallbacks"] >= 4

    def test_equal_shapes_count_no_fallbacks(self, compiled, lang):
        requests = [
            {"task": "generate", "prompt": [1, 2, 3, 4], "max_new_tokens": 2}
            for _ in range(4)
        ]
        cfg = SessionConfig(format="mx6", max_batch=4, max_wait=0.05)
        with compiled.session(cfg) as session:
            session.map(requests)
            summary = session.summary()
        # no fallbacks (and no streamed tokens) => no decode section at all
        assert summary.get("decode", {}).get("serial_fallbacks", 0) == 0
