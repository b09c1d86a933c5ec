"""Gradient-correctness tests for the autograd engine."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concat, no_grad, stack


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + eps
        plus = fn(x)
        xf[i] = orig - eps
        minus = fn(x)
        xf[i] = orig
        flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_grad(build, shape, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)

    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()

    def scalar_fn(arr):
        return float(build(Tensor(arr.copy())).data)

    expected = numerical_grad(scalar_fn, x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwiseGrads:
    def test_add_mul(self):
        check_grad(lambda t: ((t + 2.0) * t * 3.0).sum(), (3, 4))

    def test_sub_div(self):
        check_grad(lambda t: ((t - 0.5) / (t * t + 2.0)).sum(), (5,))

    def test_pow(self):
        check_grad(lambda t: (t**3).sum(), (4,))

    def test_exp_log(self):
        check_grad(lambda t: ((t * t + 1.0).log() + t.exp()).sum(), (6,))

    def test_tanh_sigmoid_relu(self):
        check_grad(lambda t: (t.tanh() + t.sigmoid()).sum(), (8,))
        check_grad(lambda t: (t.relu() * t).sum(), (8,), seed=3)

    def test_sqrt_abs_clip(self):
        check_grad(lambda t: ((t * t + 1.0).sqrt()).sum(), (5,))
        check_grad(lambda t: t.clip(-0.5, 0.5).sum(), (9,), seed=2)

    def test_neg(self):
        check_grad(lambda t: (-t * t).sum(), (4,))


class TestMatmulGrads:
    def test_2d(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 3))
        check_grad(lambda t: (t @ Tensor(w)).sum(), (2, 4))

    def test_batched(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 4, 3))
        check_grad(lambda t: (t @ Tensor(w)).sum(), (2, 5, 4))

    def test_weight_grad(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        check_grad(lambda t: (Tensor(a) @ t).sum(), (4, 2))


class TestShapeGrads:
    def test_reshape_transpose(self):
        check_grad(lambda t: (t.reshape(6, 2).T * 2).sum(), (3, 4))

    def test_getitem(self):
        check_grad(lambda t: (t[1:, ::2] * 3).sum(), (4, 6))

    def test_pad(self):
        check_grad(lambda t: (t.pad(((1, 1), (0, 2))) ** 2).sum(), (2, 3))

    def test_concat(self):
        rng = np.random.default_rng(4)
        other = rng.normal(size=(2, 3))
        check_grad(lambda t: (concat([t, Tensor(other)], axis=0) ** 2).sum(), (2, 3))

    def test_stack(self):
        rng = np.random.default_rng(5)
        other = rng.normal(size=(3,))
        check_grad(lambda t: (stack([t, Tensor(other)], axis=1) ** 2).sum(), (3,))

    def test_swapaxes(self):
        check_grad(lambda t: (t.swapaxes(0, 1) * t.T).sum(), (3, 4))


class TestReductionGrads:
    def test_sum_axis(self):
        check_grad(lambda t: (t.sum(axis=1) ** 2).sum(), (3, 4))

    def test_mean(self):
        check_grad(lambda t: (t.mean(axis=0) ** 2).sum(), (3, 4))

    def test_max(self):
        check_grad(lambda t: t.max(axis=1).sum(), (3, 5), seed=7)

    def test_var(self):
        check_grad(lambda t: t.var(axis=1).sum(), (3, 5))


class TestBroadcasting:
    def test_broadcast_add(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(4,))
        check_grad(lambda t: ((t + Tensor(b)) ** 2).sum(), (3, 4))

    def test_broadcast_grad_shape(self):
        bias = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(np.ones((3, 4)))
        out = (x + bias).sum()
        out.backward()
        assert bias.grad.shape == (4,)
        np.testing.assert_array_equal(bias.grad, np.full(4, 3.0))


class TestMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (t * 2).backward()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError, match="does not require grad"):
            Tensor(np.ones(1)).backward()

    def test_grad_accumulates(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_array_equal(t.grad, [5.0, 5.0])

    def test_first_grad_write_is_a_fresh_exact_copy(self):
        """The first write equals ``zeros + grad`` bit for bit: ``-0.0``
        lands as ``+0.0``, a broadcast grad fills the data's shape and
        dtype, and ``.grad`` never aliases the caller's array."""
        row = np.array([[-0.0, 1.5, -2.0, np.inf]], dtype=np.float32)
        t = Tensor(np.ones((3, 4)), requires_grad=True)
        t._accumulate(row)
        expected = np.zeros((3, 4)) + row
        assert t.grad.shape == (3, 4) and t.grad.dtype == np.float64
        np.testing.assert_array_equal(t.grad.view(np.int64), expected.view(np.int64))
        assert not np.signbit(t.grad[:, 0]).any()

        full = np.full((3, 4), -0.0)
        u = Tensor(np.ones((3, 4)), requires_grad=True)
        u._accumulate(full)
        assert not np.shares_memory(u.grad, full)
        assert not np.signbit(u.grad).any()
        full[0, 0] = 7.0
        assert u.grad[0, 0] == 0.0

    def test_no_grad_context(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_diamond_graph(self):
        """Shared subexpressions must backprop once through each path."""
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3
        out = (a * a).sum()
        out.backward()
        assert t.grad[0] == pytest.approx(2 * 3 * 6.0)  # d/dt (3t)^2 = 18t

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0
        r = Tensor.randn(5, rng=np.random.default_rng(0))
        assert r.shape == (5,)
