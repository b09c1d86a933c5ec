"""Unit tests for the GPT family."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticLanguage
from repro.flow.compute_flow import TrainConfig, fit
from repro.models.gpt import GPT, GPT_SIZES, GPTConfig, score_candidates
from repro.models.moe import MoEGPT


@pytest.fixture(scope="module")
def lang():
    return SyntheticLanguage(seed=0)


def tiny_gpt(lang, seed=0):
    return GPT(
        lang.vocab_size,
        GPTConfig(dim=16, num_layers=1, num_heads=2, max_len=64),
        rng=np.random.default_rng(seed),
    )


class TestForward:
    def test_logit_shape(self, lang):
        model = tiny_gpt(lang)
        logits = model.forward(np.zeros((2, 10), dtype=np.int64))
        assert logits.shape == (2, 10, lang.vocab_size)

    def test_max_len_enforced(self, lang):
        model = tiny_gpt(lang)
        with pytest.raises(ValueError, match="max_len"):
            model.forward(np.zeros((1, 100), dtype=np.int64))

    def test_causality(self, lang):
        """Changing a later token must not change earlier logits."""
        model = tiny_gpt(lang)
        tokens = np.arange(8)[None, :] % lang.vocab_size
        base = model.forward(tokens).data
        perturbed = tokens.copy()
        perturbed[0, -1] = (perturbed[0, -1] + 5) % lang.vocab_size
        out = model.forward(perturbed).data
        np.testing.assert_allclose(out[0, :-1], base[0, :-1], atol=1e-10)


class TestTraining:
    def test_loss_decreases(self, lang):
        model = tiny_gpt(lang, seed=1)
        result = fit(model, lang.batches(8, 16, 40, seed=2), TrainConfig(steps=40, lr=3e-3))
        assert result.losses[-1] < result.losses[0]

    def test_eval_loss_no_grad(self, lang):
        model = tiny_gpt(lang)
        loss = model.eval_loss(lang.batches(4, 16, 2, seed=3))
        assert np.isfinite(loss)
        assert all(p.grad is None for p in model.parameters())


class TestScoring:
    def test_sequence_logprob_negative(self, lang):
        model = tiny_gpt(lang)
        lp = model.sequence_logprob(np.array([1, 2, 3]), np.array([4, 5]))
        assert lp < 0

    def test_logprob_sums_over_continuation(self, lang):
        model = tiny_gpt(lang)
        ctx = np.array([1, 2, 3])
        one = model.sequence_logprob(ctx, np.array([4]))
        two = model.sequence_logprob(ctx, np.array([4, 5]))
        assert two < one  # adding tokens only decreases total logprob

    def test_score_candidates_returns_argmax(self, lang):
        model = tiny_gpt(lang)
        ctx = np.array([1, 2, 3])
        cands = [np.array([4]), np.array([5]), np.array([6])]
        idx = score_candidates(model, ctx, cands)
        scores = [model.sequence_logprob(ctx, c) for c in cands]
        assert idx == int(np.argmax(scores))


class TestSizes:
    def test_ladder_is_increasing(self, lang):
        counts = [
            GPT(lang.vocab_size, cfg, rng=np.random.default_rng(0)).num_parameters()
            for cfg in GPT_SIZES.values()
        ]
        assert counts == sorted(counts)


class TestMoE:
    def test_forward_and_loss(self, lang):
        model = MoEGPT(
            lang.vocab_size,
            GPTConfig(dim=16, num_layers=1, num_heads=2),
            num_experts=3,
            rng=np.random.default_rng(4),
        )
        batch = next(iter(lang.batches(4, 12, 1, seed=5)))
        loss = model.loss(batch)
        loss.backward()
        assert np.isfinite(float(loss.data))
        # every expert receives gradient through the soft gating
        for fc1 in model.blocks[0].mlp.experts_fc1:
            assert fc1.weight.grad is not None

    def test_more_experts_more_params(self, lang):
        cfg = GPTConfig(dim=16, num_layers=1, num_heads=2)
        small = MoEGPT(lang.vocab_size, cfg, num_experts=2, rng=np.random.default_rng(0))
        big = MoEGPT(lang.vocab_size, cfg, num_experts=4, rng=np.random.default_rng(0))
        assert big.num_parameters() > small.num_parameters()
