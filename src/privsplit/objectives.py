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
from typing import Callable

import numpy as np

from .autodiff import Tensor, bce, mse, tmean

LOG4 = math.log(4.0)


def generator_adversarial_loss(d_on_recon: Tensor, d_on_encrypted: Tensor) -> Tensor:
    """Mean BCE of D's outputs against (reconstructed=1, encrypted=0).

    The one adversarial objective of both the discriminator and the
    encryption model (the two networks collaborate on it); which parameters
    it trains is decided by the caller applying updates.
    """
    if d_on_recon.data.size == 0 or d_on_encrypted.data.size == 0:  # tmean would give NaN
        raise ValueError("generator_adversarial_loss: empty batch")
    return tmean(bce(d_on_recon, 1)) + tmean(bce(d_on_encrypted, 0))


def reconstruction_loss(x_r: Tensor, x: Tensor, phi: Callable[[Tensor], Tensor] | None,
                        lam: float) -> tuple[Tensor, Tensor, Tensor]:
    """(pixel MSE, feature-space MSE, MSE + lam * feature MSE).

    `phi` is a frozen feature network; pass None to drop the feature term,
    which then reads 0 and the combined loss is the pixel MSE itself.
    `lam` is ``TrainConfig.lam``.
    """
    recon_mse = mse(x_r, x)
    if phi is None:
        return recon_mse, Tensor(0.0), recon_mse
    perceptual = mse(phi(x_r), phi(x))
    return recon_mse, perceptual, recon_mse + (perceptual * Tensor(lam))


def msednet_loss(recon_combined: Tensor, x: Tensor, x_e: Tensor,
                 phi: Callable[[Tensor], Tensor]) -> Tensor:
    """The reconstruction loss minus the feature-space distance of the encrypted output.

    `recon_combined` is :func:`reconstruction_loss`'s third value. Minimizing
    this keeps x_r close to x while pushing phi(x_e) away from phi(x) -- the
    decomposition-only baseline with no discriminator.
    """
    return recon_combined - mse(phi(x_e), phi(x))


# ---------------------------------------------------------------------------
# discrete-distribution oracles


@dataclass
class DiscreteDistributionPair:
    """Two probability vectors over one finite support."""

    p_r: np.ndarray
    p_e: np.ndarray

    def __post_init__(self):
        self.p_r = np.asarray(self.p_r, dtype=np.float64)
        self.p_e = np.asarray(self.p_e, dtype=np.float64)
        if self.p_r.size != self.p_e.size:
            raise ValueError("the probability vectors must have equal lengths")
        for name, p in (("p_r", self.p_r), ("p_e", self.p_e)):
            if np.any(p < 0.0):
                raise ValueError(f"{name} has negative entries")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} sums to {p.sum()!r}, not 1")


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
