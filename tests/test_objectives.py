import math

import numpy as np
import pytest

from privsplit.autodiff import Tensor, backward, sigmoid
from privsplit.objectives import (
    LOG4,
    DiscreteDistributionPair,
    bce,
    collaborative_loss_at_optimum,
    generator_adversarial_loss,
    jsd,
    msednet_loss,
    optimal_discriminator,
    reconstruction_loss,
)
from privsplit.optim import Adam

LN2 = math.log(2.0)


def random_pair(rng, size):
    p_r = rng.random(size) + 1e-3
    p_e = rng.random(size) + 1e-3
    return DiscreteDistributionPair(list(range(size)), p_r / p_r.sum(), p_e / p_e.sum())


class TestBce:
    def test_half_is_ln2(self):
        assert bce(0.5, 1) == pytest.approx(LN2, abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert bce(1.0 - 1e-7, 1) == pytest.approx(1e-7, rel=1e-3)

    def test_quarter_against_zero(self):
        assert bce(0.25, 0) == pytest.approx(0.2876820724517809, abs=1e-12)

    def test_target_domain(self):
        with pytest.raises(ValueError, match="target"):
            bce(0.5, 2)

    def test_tensor_path_matches_float_path(self):
        probs = [0.1, 0.5, 0.93]
        out = bce(Tensor(probs), 0)
        assert np.allclose(out.data, [bce(p, 0) for p in probs], atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("target", [0, 1])
    def test_tensor_path_keeps_the_probability_dtype(self, dtype, target):
        logits = Tensor(np.array([[-2.0], [0.5], [3.0]], dtype=dtype), requires_grad=True)
        loss = generator_adversarial_loss(sigmoid(logits), sigmoid(logits))
        out = bce(sigmoid(logits), target)
        backward(loss)
        assert out.data.dtype == loss.data.dtype == logits.grad.dtype == dtype

    def test_clamps_before_log(self):
        # exactly 0 or 1 must not produce infinities
        assert math.isfinite(bce(0.0, 1))
        assert math.isfinite(bce(1.0, 0))


class TestAdversarialLosses:
    def test_perfect_discriminator_near_zero(self):
        eps = 1e-6
        val = generator_adversarial_loss([1 - eps] * 4, [eps] * 4).item()
        assert val == pytest.approx(0.0, abs=1e-5)

    def test_uninformative_is_log4(self):
        val = generator_adversarial_loss([0.5, 0.5], [0.5, 0.5]).item()
        assert val == pytest.approx(LOG4, abs=1e-12)

    def test_hand_batch(self):
        val = generator_adversarial_loss([0.9, 0.8], [0.1, 0.3]).item()
        assert val == pytest.approx(0.39526976328429736, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty batch"):
            generator_adversarial_loss([], [0.5])

    def test_collapsed_discriminator_is_log4(self):
        val = generator_adversarial_loss([0.5] * 3, [0.5] * 3).item()
        assert val == pytest.approx(LOG4, abs=1e-12)

    def test_gradient_reaches_the_probability_source(self):
        logits = Tensor(np.array([[0.3], [-0.2]]), requires_grad=True)
        probs = sigmoid(logits)
        backward(generator_adversarial_loss(probs, Tensor(probs.data.copy())))
        assert logits.grad is not None and np.any(logits.grad != 0.0)


class TestReconstructionLoss:
    def test_identity_is_zero(self):
        x = Tensor(np.ones((3, 2)))
        mse, perc, combined = reconstruction_loss(x, x, phi=lambda t: t, lam=0.01)
        assert mse.item() == 0.0 and perc.item() == 0.0 and combined.item() == 0.0

    def test_zero_lambda_drops_feature_term(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 2)))
        y = Tensor(rng.standard_normal((4, 2)))
        mse, _, combined = reconstruction_loss(y, x, phi=lambda t: t, lam=0.0)
        assert combined.item() == mse.item()

    def test_constant_offset_mse_is_one(self):
        x = Tensor(np.zeros((5, 2)))
        y = Tensor(np.ones((5, 2)))
        mse, _, _ = reconstruction_loss(y, x, phi=None)
        assert mse.item() == pytest.approx(1.0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            reconstruction_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_none_phi_gives_zero_feature_term(self):
        x = Tensor(np.zeros((2, 2)))
        y = Tensor(np.ones((2, 2)))
        _, perc, _ = reconstruction_loss(y, x, phi=None, lam=0.5)
        assert perc.item() == 0.0


def msednet(x, x_r, x_e, phi, lam=0.01):
    _, _, combined = reconstruction_loss(x_r, x, phi, lam)
    return msednet_loss(combined, x, x_e, phi)


class TestMsednetLoss:
    def test_all_equal_is_zero(self):
        x = Tensor(np.ones((3, 2)))
        assert msednet(x, x, x, phi=lambda t: t).item() == 0.0

    def test_monotone_in_encrypted_feature_distance(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 2)))
        x_r = Tensor(x.data + 0.1)
        prev = None
        for push in (0.5, 1.0, 2.0, 4.0):
            val = msednet(x, x_r, Tensor(x.data + push), phi=lambda t: t).item()
            if prev is not None:
                assert val < prev
            prev = val

    def test_two_sample_hand_case(self):
        # phi identity, lam 0: loss = mse(x_r,x) - mse(x_e,x) = 0.25 - 4.0
        x = Tensor(np.zeros((1, 2)))
        x_r = Tensor(np.full((1, 2), 0.5))
        x_e = Tensor(np.full((1, 2), 2.0))
        val = msednet(x, x_r, x_e, phi=lambda t: t, lam=0.0).item()
        assert val == pytest.approx(0.25 - 4.0, abs=1e-12)


class TestDistributionPair:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            DiscreteDistributionPair([0, 1], [0.5, 0.4], [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistributionPair([0, 1], [1.1, -0.1], [0.5, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            DiscreteDistributionPair([0, 1, 2], [0.5, 0.5], [0.5, 0.5])


class TestOptimalDiscriminator:
    def test_equal_densities_give_half(self):
        pair = DiscreteDistributionPair([0, 1], [0.3, 0.7], [0.3, 0.7])
        assert optimal_discriminator(pair, 0) == 0.5

    def test_hand_value(self):
        pair = DiscreteDistributionPair([0, 1], [0.2, 0.8], [0.6, 0.4])
        assert optimal_discriminator(pair, 0) == pytest.approx(0.25, abs=1e-15)

    def test_boundary_when_one_side_is_empty(self):
        pair = DiscreteDistributionPair([0, 1], [1.0, 0.0], [0.0, 1.0])
        assert optimal_discriminator(pair, 0) == 1.0

    def test_both_zero_rejected(self):
        pair = DiscreteDistributionPair([0, 1, 2], [0.5, 0.5, 0.0], [0.6, 0.4, 0.0])
        with pytest.raises(ValueError, match="zero"):
            optimal_discriminator(pair, 2)


class TestJsd:
    def test_identical_distributions(self):
        pair = DiscreteDistributionPair([0, 1], [0.4, 0.6], [0.4, 0.6])
        assert jsd(pair) == 0.0

    def test_disjoint_point_masses(self):
        pair = DiscreteDistributionPair([0, 1], [1.0, 0.0], [0.0, 1.0])
        assert jsd(pair) == pytest.approx(LN2, abs=1e-15)

    def test_hand_value(self):
        pair = DiscreteDistributionPair([0, 1], [0.5, 0.5], [1.0, 0.0])
        assert jsd(pair) == pytest.approx(0.21576155433883565, abs=1e-14)

    def test_bounds_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pair = random_pair(rng, int(rng.integers(2, 33)))
            val = jsd(pair)
            assert 0.0 <= val <= LN2 + 1e-15
            if np.allclose(pair.p_r, pair.p_e, atol=1e-12):
                assert val < 1e-12
            else:
                assert val > 0.0


class TestCollaborativeLossAtOptimum:
    def test_equal_distributions_give_log4(self):
        pair = DiscreteDistributionPair([0, 1], [0.25, 0.75], [0.25, 0.75])
        assert collaborative_loss_at_optimum(pair) == pytest.approx(LOG4, abs=1e-14)

    def test_disjoint_supports_give_zero(self):
        pair = DiscreteDistributionPair([0, 1], [1.0, 0.0], [0.0, 1.0])
        assert collaborative_loss_at_optimum(pair) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        pair = DiscreteDistributionPair([0, 1], [0.5, 0.5], [1.0, 0.0])
        assert collaborative_loss_at_optimum(pair) == pytest.approx(0.9547712524422193, abs=1e-13)

    def test_identity_with_jsd_over_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pair = random_pair(rng, int(rng.integers(2, 33)))
            lhs = collaborative_loss_at_optimum(pair)
            rhs = LOG4 - 2.0 * jsd(pair)
            assert abs(lhs - rhs) < 1e-9


class TestPerBinRecovery:
    def test_numeric_optimization_recovers_density_ratio(self):
        # optimize one logit per bin against the exact bin-weighted loss
        rng = np.random.default_rng(7)
        pair = random_pair(rng, 8)
        logits = Tensor(np.zeros((1, 8)), requires_grad=True)
        weights_r = Tensor(pair.p_r.reshape(1, 8))
        weights_e = Tensor(pair.p_e.reshape(1, 8))
        opt = Adam([logits], alpha=0.05)
        from privsplit.autodiff import tsum

        for _ in range(3000):
            logits.grad = None
            d = sigmoid(logits)
            loss = tsum(bce(d, 1) * weights_r) + tsum(bce(d, 0) * weights_e)
            backward(loss)
            opt.step()
        recovered = sigmoid(logits).data[0]
        expected = pair.p_r / (pair.p_r + pair.p_e)
        assert np.max(np.abs(recovered - expected)) < 1e-3
