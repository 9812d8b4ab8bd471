"""Adam optimizer over a flat parameter buffer, updated in place."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


# Elements per block of the in-place update: 256 KB per float64 vector, so the
# block's slices of the parameters, the gradient buffer (the parameters' .grad
# itself), m, v and the two scratch blocks (m-hat and v-hat) stay in cache
# across the update's passes.
_BLOCK = 1 << 15

# the decay rates of the moment estimates and the denominator's stabilizer
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a list of parameter tensors, updated in place.

    At construction each tensor's ``data`` becomes a view into one flat
    buffer, and the moments are one flat ``m`` and ``v``. The optimizer owns
    the gradients too: each tensor's ``grad_buffer`` becomes a view into one
    flat gradient buffer, which :func:`~privsplit.autodiff.backward` fills in
    place, so after a backward pass each ``grad`` *is* a view of that buffer.
    A step reads that buffer and nothing else, so a ``grad`` set by hand is
    not seen. A tensor that no backward pass has reached reads zeros there,
    and one that a pass reached keeps that gradient until a later pass
    reaches it again, so each pass must reach every trained tensor (every
    training loop's loss does). The trained tensors hold views of that
    buffer, so it lives as long as they do; hand trained weights on in fresh
    tensors (``models.frozen``) and the buffer dies with the optimizer and
    the tensors it trained.

    A step then walks the buffer in blocks of ``_BLOCK`` elements. On each
    block it runs the bias-corrected Adam update (Kingma & Ba, arXiv
    1412.6980, Algorithm 1) in the textbook order of its operations, every
    pass in place or into one of two block-sized scratch buffers (m-hat and
    v-hat), so a block is read from memory once rather than once per pass
    and the gradients are left as they were. Every operation is
    elementwise, so the parameters equal a per-tensor update bitwise
    (``tests/test_optim.py`` keeps that reference).

    The buffers, the moments and the scratch blocks take the parameters'
    dtype (float64 or float32), so a float32 model is updated in float32
    arithmetic; parameters of mixed dtypes raise ValueError.
    """

    def __init__(self, params: list[Tensor], alpha: float = 1e-3):
        self.params = list(params)
        self.alpha = alpha
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        bounds = np.cumsum([0] + [p.data.size for p in self.params])
        slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._flat = np.empty(bounds[-1], dtype=dtype)
        for p, part in zip(self.params, slices):
            self._flat[part] = p.data.reshape(-1)
            p.data = self._flat[part].reshape(p.data.shape)
        self.m = np.zeros_like(self._flat)
        self.v = np.zeros_like(self._flat)
        self._grad = np.zeros_like(self._flat)
        for p, part in zip(self.params, slices):
            p.grad_buffer = self._grad[part].reshape(p.data.shape)
        self._tmp = np.empty(min(_BLOCK, self._flat.size), dtype=dtype)
        self._vhat = np.empty_like(self._tmp)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for start in range(0, self._flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._update_block(self._flat[block], self._grad[block], self.m[block],
                               self.v[block], t)

    def _update_block(self, params: np.ndarray, g: np.ndarray, m: np.ndarray,
                      v: np.ndarray, t: int) -> None:
        tmp = self._tmp[:params.size]
        v_hat = self._vhat[:params.size]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m += tmp
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, 1.0 - BETA1 ** t, out=tmp)  # m_hat
        np.divide(v, 1.0 - BETA2 ** t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPSILON
        tmp *= self.alpha
        tmp /= v_hat
        params -= tmp
