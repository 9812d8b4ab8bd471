"""Training objectives and the analytic divergence identities behind them.

The discriminator and the encryption model share one adversarial objective:
a binary cross entropy that rewards telling reconstructed samples (target 1)
from encrypted samples (target 0). Driving that shared loss down pushes the
two sample distributions apart; at the per-bin optimal discriminator the
loss equals ln 4 - 2 * JSD(reconstructed, encrypted), which the discrete
oracles here make checkable exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import PROB_EPS, Tensor, as_tensor, clamp, log, square, tmean

LOG4 = math.log(4.0)


def _clamped(p: Tensor) -> Tensor:
    return clamp(p, PROB_EPS, 1.0 - PROB_EPS)


def bce(p, target: int):
    """Binary cross entropy -[t*ln(p) + (1-t)*ln(1-p)] with p clamped.

    Returns a float for a float probability and a Tensor (elementwise, in
    the probability's dtype) for a Tensor, so it serves both as a hand oracle
    and inside the graph.
    """
    if target not in (0, 1):
        raise ValueError(f"bce target must be 0 or 1, got {target!r}")
    if isinstance(p, Tensor):
        q = _clamped(p)
        return -log(q) if target == 1 else -log(Tensor(np.ones((), q.data.dtype)) - q)
    q = min(max(float(p), PROB_EPS), 1.0 - PROB_EPS)
    return -math.log(q) if target == 1 else -math.log(1.0 - q)


def _batch(p, name: str) -> Tensor:
    t = as_tensor(p)
    if t.data.size == 0:
        raise ValueError(f"{name}: empty batch")
    return t


def generator_adversarial_loss(d_on_recon, d_on_encrypted) -> Tensor:
    """Mean BCE of D's outputs against (reconstructed=1, encrypted=0).

    The one adversarial objective of both the discriminator and the
    encryption model (the two networks collaborate on it); which parameters
    it trains is decided by the caller applying updates.
    """
    d_r = _batch(d_on_recon, "generator_adversarial_loss")
    d_e = _batch(d_on_encrypted, "generator_adversarial_loss")
    return tmean(bce(d_r, 1)) + tmean(bce(d_e, 0))


def reconstruction_loss(x_r, x, phi: Callable[[Tensor], Tensor] | None = None,
                        lam: float = 0.01) -> tuple[Tensor, Tensor, Tensor]:
    """(pixel MSE, feature-space MSE, MSE + lam * feature MSE).

    `phi` is a frozen feature network; pass None to drop the feature term.
    """
    x_r = as_tensor(x_r)
    x = as_tensor(x)
    if x_r.data.shape != x.data.shape:
        raise ValueError(f"reconstruction_loss shape mismatch: {x_r.data.shape} vs {x.data.shape}")
    recon_mse = tmean(square(x_r - x))
    if phi is None:
        perceptual = Tensor(0.0)
    else:
        perceptual = tmean(square(phi(x_r) - phi(x)))
    combined = recon_mse + (perceptual * Tensor(lam))
    return recon_mse, perceptual, combined


def msednet_loss(recon_combined: Tensor, x, x_e, phi: Callable[[Tensor], Tensor]) -> Tensor:
    """The reconstruction loss minus the feature-space distance of the encrypted output.

    `recon_combined` is :func:`reconstruction_loss`'s third value. Minimizing
    this keeps x_r close to x while pushing phi(x_e) away from phi(x) -- the
    decomposition-only baseline with no discriminator.
    """
    x_e = as_tensor(x_e)
    x = as_tensor(x)
    if x_e.data.shape != x.data.shape:
        raise ValueError(f"msednet_loss shape mismatch: {x_e.data.shape} vs {x.data.shape}")
    return recon_combined - tmean(square(phi(x_e) - phi(x)))


# ---------------------------------------------------------------------------
# discrete-distribution oracles


@dataclass
class DiscreteDistributionPair:
    """Two probability vectors over one finite support."""

    support: Sequence
    p_r: np.ndarray
    p_e: np.ndarray

    def __post_init__(self):
        self.p_r = np.asarray(self.p_r, dtype=np.float64)
        self.p_e = np.asarray(self.p_e, dtype=np.float64)
        if len(self.support) != self.p_r.size or self.p_r.size != self.p_e.size:
            raise ValueError("support and probability vectors must have equal lengths")
        for name, p in (("p_r", self.p_r), ("p_e", self.p_e)):
            if np.any(p < 0.0):
                raise ValueError(f"{name} has negative entries")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} sums to {p.sum()!r}, not 1")


def optimal_discriminator(pair: DiscreteDistributionPair, bin_index: int) -> float:
    """p_r / (p_r + p_e) at one bin: the loss-minimizing discriminator value."""
    pr = pair.p_r[bin_index]
    pe = pair.p_e[bin_index]
    if pr + pe == 0.0:
        raise ValueError(f"both densities are zero at bin {bin_index}")
    return float(pr / (pr + pe))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jsd(pair: DiscreteDistributionPair) -> float:
    """Jensen-Shannon divergence (natural log), in [0, ln 2]."""
    m = 0.5 * (pair.p_r + pair.p_e)
    return 0.5 * _kl(pair.p_r, m) + 0.5 * _kl(pair.p_e, m)


def collaborative_loss_at_optimum(pair: DiscreteDistributionPair) -> float:
    """The shared adversarial loss evaluated at the optimal discriminator.

    Expectation of -ln D* under p_r plus -ln(1 - D*) under p_e; equals
    ln 4 - 2 * JSD(p_r, p_e) identically.
    """
    total = 0.0
    denom = pair.p_r + pair.p_e
    for pr, pe, d in zip(pair.p_r, pair.p_e, denom):
        if pr > 0.0:
            total += pr * -math.log(pr / d)
        if pe > 0.0:
            total += pe * -math.log(pe / d)
    return total
