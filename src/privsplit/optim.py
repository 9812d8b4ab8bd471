"""Adam optimizer over a flat parameter buffer, updated in place."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


# Elements per block of the in-place update: 256 KB per float64 vector, so the
# block's slices of the parameters, gradients, m, v and the scratch buffer stay
# in cache across the update's passes.
_BLOCK = 1 << 15


class Adam:
    """Adam over a list of parameter tensors, updated in place.

    At construction each tensor's ``data`` becomes a view into one flat
    buffer, and the moments are one flat ``m`` and ``v``. A step gathers the
    gradients (None counts as zero) into one flat vector, then walks the
    buffer in blocks of ``_BLOCK`` elements. On each block it runs the
    bias-corrected Adam update (Kingma & Ba, arXiv 1412.6980, Algorithm 1) in
    the textbook order of its operations, every pass in place or into one
    block-sized scratch buffer, so a block is read from memory once rather
    than once per pass. Every operation is elementwise, so the parameters
    equal a per-tensor update bitwise (``tests/test_optim.py`` keeps that
    reference).
    """

    def __init__(self, params: list[Tensor], alpha: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = list(params)
        self.alpha, self.beta1, self.beta2, self.epsilon = alpha, beta1, beta2, epsilon
        self.step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._flat = np.empty(bounds[-1])
        for p, part in zip(self.params, self._slices):
            self._flat[part] = p.data.reshape(-1)
            p.data = self._flat[part].reshape(p.data.shape)
        self.m = np.zeros_like(self._flat)
        self.v = np.zeros_like(self._flat)
        self._grad = np.empty_like(self._flat)
        self._tmp = np.empty(min(_BLOCK, self._flat.size))

    def step(self) -> None:
        g = self._grad
        for p, part in zip(self.params, self._slices):
            g[part] = 0.0 if p.grad is None else p.grad.reshape(-1)
        self.step_count += 1
        t = self.step_count
        for start in range(0, self._flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._update_block(self._flat[block], g[block], self.m[block], self.v[block], t)

    def _update_block(self, params: np.ndarray, g: np.ndarray, m: np.ndarray,
                      v: np.ndarray, t: int) -> None:
        tmp = self._tmp[:params.size]
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, 1.0 - self.beta1 ** t, out=tmp)  # m_hat
        np.divide(v, 1.0 - self.beta2 ** t, out=g)  # v_hat; the gradients are spent
        np.sqrt(g, out=g)
        g += self.epsilon
        tmp *= self.alpha
        tmp /= g
        params -= tmp
