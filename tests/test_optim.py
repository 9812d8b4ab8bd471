import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest

from privsplit.autodiff import Tensor, backward, dense, tsum
from privsplit.models import Layer, frozen
from privsplit.optim import Adam


@dataclass
class AdamState:
    """Moment estimates for one flat parameter vector."""

    step: int
    m: np.ndarray
    v: np.ndarray
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init(cls, size: int, alpha: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, epsilon: float = 1e-8, dtype=np.float64) -> "AdamState":
        return cls(step=0, m=np.zeros(size, dtype), v=np.zeros(size, dtype),
                   alpha=alpha, beta1=beta1, beta2=beta2, epsilon=epsilon)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update: the reference `Adam` is checked against.

    It computes in the dtype of `params`, `grads` and the state's moments.
    """
    params = np.asarray(params)
    grads = np.asarray(grads)
    if params.shape != grads.shape or params.size != state.m.size:
        raise ValueError(
            f"adam_step length mismatch: params {params.size}, grads {grads.size}, state {state.m.size}")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return new_params, replace(state, step=t, m=m, v=v)


class TestAdamStep:
    def test_zero_grad_is_fixed_point(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.init(3)
        new, state2 = adam_step(params, np.zeros(3), state)
        assert np.array_equal(new, params)
        assert np.array_equal(state2.m, np.zeros(3))
        assert np.array_equal(state2.v, np.zeros(3))
        assert state2.step == 1

    def test_first_step_with_unit_gradient(self):
        # bias correction makes m_hat = v_hat = 1, so the step is alpha/(1+eps)
        alpha, eps = 1e-3, 1e-8
        state = AdamState.init(1, alpha=alpha, epsilon=eps)
        new, _ = adam_step(np.array([0.0]), np.array([1.0]), state)
        assert new[0] == pytest.approx(-alpha / (1.0 + eps), rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        params = rng.standard_normal(5)
        grads = rng.standard_normal(5)
        state = AdamState(step=3, m=rng.standard_normal(5), v=np.abs(rng.standard_normal(5)))
        a1, s1 = adam_step(params.copy(), grads.copy(), state)
        a2, s2 = adam_step(params.copy(), grads.copy(), state)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1.m, s2.m)
        assert np.array_equal(s1.v, s2.v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            adam_step(np.zeros(3), np.zeros(2), AdamState.init(3))

    def test_step_counter_and_nonnegative_v(self):
        state = AdamState.init(2)
        params = np.zeros(2)
        for expected in (1, 2, 3):
            params, state = adam_step(params, np.array([1.0, -1.0]), state)
            assert state.step == expected
            assert np.all(state.v >= 0.0)


class TestAdamWrapper:
    def test_descends_a_quadratic(self):
        w = Tensor(np.array([5.0, -4.0]), requires_grad=True)
        opt = Adam([w], alpha=0.05)
        for _ in range(400):
            w.grad = None
            backward(tsum(w * w))
            opt.step()
        assert np.all(np.abs(w.data) < 1e-2)

    def test_zero_gradients_never_move_parameters(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([w])
        before = w.data.copy()
        for _ in range(5):
            w.grad_buffer[...] = 0.0
            opt.step()
        assert np.array_equal(w.data, before)

    def test_none_grad_treated_as_zero(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([w])
        opt.step()
        assert np.array_equal(w.data, [1.0])

    def test_flat_buffer_matches_per_tensor_adam_step_bitwise(self):
        assert_flat_adam_matches_adam_step([(3, 4), (4,), (2, 2), (5,)])

    def test_blocked_update_matches_per_tensor_adam_step_bitwise(self):
        # 3 full blocks of 2**15 elements and a partial one of 17; every tensor
        # straddles a block boundary, and the gradient-less third one ends the buffer
        assert_flat_adam_matches_adam_step([(300, 200), (10000,), (28321,)])

    @pytest.mark.parametrize("shapes", [[(3, 4), (4,), (2, 2), (5,)],
                                        [(300, 200), (10000,), (28321,)]])
    def test_float32_matches_per_tensor_adam_step_at_float32_bitwise(self, shapes):
        opt = assert_flat_adam_matches_adam_step(shapes, np.float32)
        buffers = (opt._flat, opt.m, opt.v, opt._grad, opt._tmp, *(p.data for p in opt.params))
        assert all(b.dtype == np.float32 for b in buffers)

    def test_mixed_dtypes_raise(self):
        params = [Tensor(np.ones(3, np.float32), requires_grad=True),
                  Tensor(np.ones(2), requires_grad=True)]
        with pytest.raises(ValueError, match="one dtype"):
            Adam(params)


def dense_layer(seed=5):
    """A weight, a bias, and a loss closure over one dense layer of them."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    x = Tensor(rng.standard_normal((6, 4)))

    def loss():
        h = dense(x, w, b, "tanh")
        return tsum(h * h)

    return w, b, loss


class TestGradientOwnership:
    def test_backward_writes_into_the_optimizer_buffer(self):
        w, b, loss = dense_layer()
        opt = Adam([w, b])
        backward(loss())
        for p in (w, b):
            assert p.grad is p.grad_buffer
            assert np.shares_memory(p.grad, opt._grad)

    def test_step_keeps_the_gradient_it_used(self):
        w, b, loss = dense_layer()
        ref_params = np.concatenate([w.data.reshape(-1), b.data])
        opt = Adam([w, b], alpha=0.01)
        backward(loss())
        used = [w.grad.copy(), b.grad.copy()]
        flat_grad = np.concatenate([g.reshape(-1) for g in used])
        ref_params, _ = adam_step(ref_params, flat_grad, AdamState.init(flat_grad.size, alpha=0.01))
        opt.step()
        assert np.array_equal(w.grad, used[0]) and np.array_equal(b.grad, used[1])
        assert np.array_equal(opt._flat, ref_params)

    def test_frozen_copies_keep_the_trained_weights_and_the_buffer_dies_with_the_optimizer(self):
        w, b, loss = dense_layer()
        opt = Adam([w, b])
        backward(loss())
        opt.step()
        trained = w.data.copy()
        (layer,) = frozen([Layer(w, b)])
        buffer = weakref.ref(opt._grad)
        del opt, w, b, loss
        assert buffer() is None
        assert layer.w.grad_buffer is None and not layer.w.requires_grad
        assert np.array_equal(layer.w.data, trained)


def assert_flat_adam_matches_adam_step(shapes, dtype=np.float64):
    """Flat `Adam` over `shapes` equals a per-tensor `adam_step` over 20 steps, in `dtype`."""
    rng = np.random.default_rng(4)
    tensors = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
    ref_params = [t.data.reshape(-1).copy() for t in tensors]
    ref_states = [AdamState.init(t.data.size, alpha=0.01, dtype=dtype) for t in tensors]
    opt = Adam(tensors, alpha=0.01)
    for step in range(20):
        for i, t in enumerate(tensors):
            # the third tensor never gets a gradient, like a parameter no backward pass reaches
            if i != 2:
                t.grad_buffer[...] = rng.standard_normal(t.data.shape).astype(dtype)
            grad = t.grad_buffer.reshape(-1)
            ref_params[i], ref_states[i] = adam_step(ref_params[i], grad, ref_states[i])
        opt.step()
        for t, ref in zip(tensors, ref_params):
            assert np.array_equal(t.data.reshape(-1), ref)
    assert all(s.step == 20 for s in ref_states)
    assert opt.step_count == 20
    assert np.array_equal(opt.m, np.concatenate([s.m for s in ref_states]))
    assert np.array_equal(opt.v, np.concatenate([s.v for s in ref_states]))
    assert all(r.dtype == dtype for r in ref_params)
    return opt
