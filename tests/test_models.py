import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from privsplit.autodiff import Tensor, backward, sigmoid, tsum
from privsplit.models import (
    ModelBundle,
    NoiseSpec,
    build_models,
    decode,
    discriminate,
    encode,
    encrypt,
    fake_privacy,
    frozen,
    merge,
    perceptual_features,
    reconstruct,
)
from privsplit.objectives import generator_adversarial_loss, reconstruction_loss
from privsplit.training import TrainConfig


def toy_bundle(seed=0, **overrides):
    """The models `TrainConfig`'s defaults shape, changed by `overrides`."""
    return build_models(replace(TrainConfig().model_config(seed), **overrides))


def perceptual_tensors(bundle):
    return [t for layer in bundle.perceptual for t in (layer.w, layer.b)]


class TestBuildModels:
    def test_default_toy_split(self):
        bundle = toy_bundle()
        assert bundle.config.feature_width == 128
        assert bundle.config.privacy_width == 2

    def test_proportion_half(self):
        cfg = TrainConfig(privacy_proportion=Fraction(1, 2)).model_config(0)
        assert cfg.privacy_width == 64

    def test_all_table_proportions_are_exact(self):
        for denom in (2, 4, 8, 16, 32, 64):
            cfg = TrainConfig(privacy_proportion=Fraction(1, denom)).model_config(0)
            assert Fraction(cfg.privacy_width, cfg.feature_width) == Fraction(1, denom)

    def test_non_integer_proportion_rejected(self):
        with pytest.raises(ValueError, match="is not a positive integer"):
            TrainConfig(privacy_proportion=Fraction(1, 3)).model_config(0)

    def test_invalid_privacy_width_rejected(self):
        for bad in (0, 128, 200, -1):
            with pytest.raises(ValueError, match="privacy width"):
                toy_bundle(privacy_width=bad)

    def test_seed_reproducibility(self):
        a = toy_bundle(seed=5)
        b = toy_bundle(seed=5)
        for la, lb in zip(a.all_parameters(), b.all_parameters()):
            assert np.array_equal(la.data, lb.data)

    def test_discriminator_has_five_layers(self):
        assert len(toy_bundle().discriminator) == 5

    def test_encoder_decoder_widths(self):
        bundle = toy_bundle()
        assert [l.w.shape for l in bundle.encoder] == [(2, 128), (128, 128)]
        assert [l.w.shape for l in bundle.decoder] == [(128, 128), (128, 2)]

    def test_perceptual_params_frozen(self):
        for p in perceptual_tensors(toy_bundle()):
            assert not p.requires_grad


class TestEncodeMerge:
    def test_default_part_lengths(self):
        public, privacy = encode(Tensor([[0.3, -0.8]]), toy_bundle())
        assert public.shape == (1, 126)
        assert privacy.shape == (1, 2)

    def test_equal_split_config(self):
        public, privacy = encode(Tensor([[0.3, -0.8]]), toy_bundle(privacy_width=64))
        assert public.shape == (1, 64)
        assert privacy.shape == (1, 64)

    def test_encode_deterministic(self):
        bundle = toy_bundle()
        x = Tensor([[1.0, 2.0]])
        (a_public, a_privacy), (b_public, b_privacy) = encode(x, bundle), encode(x, bundle)
        assert np.array_equal(a_public.data, b_public.data)
        assert np.array_equal(a_privacy.data, b_privacy.data)

    def test_merge_restores_encoder_output_bitwise(self):
        rng = np.random.default_rng(1)
        for seed in range(3):
            bundle = toy_bundle(seed=seed)
            x = Tensor(rng.standard_normal((4, 2)))
            public, privacy = encode(x, bundle)
            merged = merge(public, privacy, bundle)
            raw = np.concatenate([public.data, privacy.data], axis=1)
            assert np.array_equal(merged.data, raw)

    def test_merge_of_zeros(self):
        out = merge(Tensor(np.zeros((2, 126))), Tensor(np.zeros((2, 2))), toy_bundle())
        assert np.array_equal(out.data, np.zeros((2, 128)))

    def test_merge_swapped_order_rejected(self):
        bundle = toy_bundle()
        with pytest.raises(ValueError, match="argument order"):
            merge(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 126))), bundle)

    def test_merge_width_mismatch(self):
        bundle = toy_bundle()
        with pytest.raises(ValueError, match="dense shape mismatch"):
            decode(merge(Tensor(np.zeros((1, 100))), Tensor(np.zeros((1, 2))), bundle), bundle)


@pytest.mark.parametrize("view", [False, True], ids=["trainable", "detached"])
@pytest.mark.parametrize("forward, width", [
    (encode, "input_width"),
    (decode, "feature_width"),
    (discriminate, "input_width"),
    (perceptual_features, "input_width"),
    (reconstruct, "input_width"),
    (lambda x, b: encrypt(x, b, NoiseSpec(std=1.0, seed=1)), "input_width"),
], ids=["encode", "decode", "discriminate", "perceptual_features", "reconstruct", "encrypt"])
def test_a_batch_one_column_too_wide_is_rejected(view, forward, width):
    bundle = toy_bundle()
    if view:
        bundle = bundle.detached()
    with pytest.raises(ValueError, match="dense shape mismatch"):
        forward(Tensor(np.zeros((3, getattr(bundle.config, width) + 1))), bundle)


class TestFakePrivacy:
    def test_zero_std_is_identity(self):
        x = Tensor(np.array([[0.1, -0.2]]))
        out = fake_privacy(x, NoiseSpec(std=0.0, seed=3))
        assert np.array_equal(out.data, x.data)

    def test_noise_statistics(self):
        x = Tensor(np.zeros((100_000, 2)))
        out = fake_privacy(x, NoiseSpec(std=1.0, seed=7))
        delta = out.data - x.data
        assert np.all(np.abs(delta.mean(axis=0)) < 0.02)
        assert np.all((delta.std(axis=0) > 0.98) & (delta.std(axis=0) < 1.02))

    def test_seed_determinism(self):
        x = Tensor(np.ones((3, 2)))
        a = fake_privacy(x, NoiseSpec(std=1.0, seed=11))
        b = fake_privacy(x, NoiseSpec(std=1.0, seed=11))
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("std", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_std_rejected(self, std):
        with pytest.raises(ValueError, match="noise std must be finite and non-negative"):
            NoiseSpec(std=std, seed=0)


class TestReconstructEncrypt:
    def test_reconstruct_preserves_shape(self):
        out = reconstruct(Tensor(np.zeros((5, 2))), toy_bundle())
        assert out.shape == (5, 2)

    def test_untrained_output_finite(self):
        rng = np.random.default_rng(2)
        out = reconstruct(Tensor(rng.standard_normal((8, 2))), toy_bundle(seed=9))
        assert np.isfinite(out.data).all()

    def test_encrypt_with_zero_std_equals_reconstruct(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            bundle = toy_bundle(seed=seed)
            x = Tensor(rng.standard_normal((6, 2)))
            r = reconstruct(x, bundle)
            e = encrypt(x, bundle, NoiseSpec(std=0.0, seed=seed))
            assert np.array_equal(r.data, e.data)

    def test_different_seeds_differ(self):
        bundle = toy_bundle()
        x = Tensor(np.ones((2, 2)))
        a = encrypt(x, bundle, NoiseSpec(std=1.0, seed=1))
        b = encrypt(x, bundle, NoiseSpec(std=1.0, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_shape_preserved_across_widths(self):
        for input_width in (2, 7, 16):
            bundle = toy_bundle(input_width=input_width)
            x = Tensor(np.zeros((3, input_width)))
            assert reconstruct(x, bundle).shape == (3, input_width)
            assert encrypt(x, bundle, NoiseSpec(std=1.0, seed=0)).shape == (3, input_width)


def split_merge_reference(x, bundle, noise=None):
    """x_r, or x_e with `noise`, through the encode/fake_privacy/merge/decode chain."""
    public, privacy = encode(x, bundle)
    if noise is not None:
        privacy = fake_privacy(privacy, noise)
    return decode(merge(public, privacy, bundle), bundle)


class TestDirectDecode:
    """`reconstruct` and `encrypt` skip the split at inference; the chain is the reference."""

    @pytest.mark.parametrize("view", [False, True], ids=["trainable", "detached"])
    @pytest.mark.parametrize("privacy_width", [2, 64])
    @pytest.mark.parametrize("std", [0.0, 1.0, 10.0])
    def test_equal_the_split_merge_chain_bitwise(self, view, privacy_width, std):
        bundle = toy_bundle(seed=3, privacy_width=privacy_width)
        if view:
            bundle = bundle.detached()
        x = Tensor(np.random.default_rng(8).standard_normal((7, 2)))
        noise = NoiseSpec(std=std, seed=21)
        assert np.array_equal(encrypt(x, bundle, noise).data,
                              split_merge_reference(x, bundle, noise).data)
        assert np.array_equal(reconstruct(x, bundle).data, split_merge_reference(x, bundle).data)

    def test_encrypt_leaves_its_input_unchanged(self):
        data = np.random.default_rng(9).standard_normal((5, 2))
        x = Tensor(data.copy())
        for bundle in (toy_bundle(), toy_bundle().detached()):
            encrypt(x, bundle, NoiseSpec(std=10.0, seed=4))
            assert np.array_equal(x.data, data)

    def test_gradients_equal_the_split_merge_chain(self):
        x = Tensor(np.random.default_rng(10).standard_normal((6, 2)))
        noise = NoiseSpec(std=1.0, seed=5)

        def generator_grads(forward):
            bundle = toy_bundle(seed=4, privacy_width=32)
            out = forward(x, bundle)
            backward(tsum(out * out))
            return [p.grad for p in bundle.generator_parameters()]

        direct = generator_grads(lambda x, b: encrypt(x, b, noise) + reconstruct(x, b))
        chain = generator_grads(lambda x, b: split_merge_reference(x, b, noise)
                                + split_merge_reference(x, b))
        assert all(np.array_equal(a, b) for a, b in zip(direct, chain, strict=True))
        assert all(g is not None and np.any(g != 0.0) for g in direct)


class TestInferenceMemory:
    """A 2000-row toy panel, as `train-toy` snapshots, through a detached bundle."""

    LIMIT = 5 * 2**20  # the split-and-merge chain peaks above 6 MiB

    @pytest.mark.parametrize("run", [
        lambda x, b: reconstruct(x, b),
        lambda x, b: encrypt(x, b, NoiseSpec(std=1.0, seed=3)),
    ], ids=["reconstruct", "encrypt"])
    def test_peak_stays_under_5_mib(self, run):
        bundle = toy_bundle().detached()
        x = Tensor(np.random.default_rng(11).standard_normal((2000, 2)))
        run(x, bundle)  # warm up numpy's caches outside the trace
        tracemalloc.start()
        try:
            run(x, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT, f"peak {peak / 2**20:.2f} MiB"


class TestFrozen:
    def test_same_arrays_in_tensors_that_need_no_gradient(self):
        layers = toy_bundle().encoder
        for old, new in zip(layers, frozen(layers), strict=True):
            for a, b in ((old.w, new.w), (old.b, new.b)):
                assert b is not a and b.data is a.data and not b.requires_grad
        assert all(t.requires_grad for layer in layers for t in (layer.w, layer.b))

    def test_detached_view_sees_in_place_updates_and_records_no_graph(self):
        bundle = toy_bundle()
        view = bundle.detached()
        x = Tensor(np.random.default_rng(4).standard_normal((6, 2)))
        before = reconstruct(x, view).data.copy()
        bundle.decoder[-1].b.data += 1.0  # in place, as an optimizer step writes
        after = reconstruct(x, view)
        assert not np.array_equal(after.data, before)
        assert np.array_equal(after.data, reconstruct(x, bundle).data)
        assert after._parents == () and not after.requires_grad


class TestDiscriminate:
    def test_zeroed_final_layer_outputs_half(self):
        bundle = toy_bundle()
        final = bundle.discriminator[-1]
        final.w.data[:] = 0.0
        final.b.data[:] = 0.0
        out = discriminate(Tensor([[0.5, -0.5]]), bundle)
        assert out.item() == 0.5

    def test_bounds_for_extreme_inputs(self):
        out = discriminate(Tensor([[1e6, -1e6]]), toy_bundle())
        assert 0.0 < out.item() < 1.0

    def test_deterministic(self):
        bundle = toy_bundle()
        x = Tensor([[0.2, 0.4]])
        assert discriminate(x, bundle).item() == discriminate(x, bundle).item()


def encoder_output(x, bundle):
    return merge(*encode(x, bundle), bundle)


class TestNetworkShape:
    @pytest.mark.parametrize("network, forward, final", [
        ("encoder", encoder_output, None),
        ("decoder", decode, None),
        ("discriminator", discriminate, "sigmoid"),
        ("perceptual", perceptual_features, "tanh"),
    ])
    def test_tanh_between_layers_and_final_after_the_last(self, network, forward, final):
        bundle = toy_bundle()
        layers = getattr(bundle, network)
        x = np.random.default_rng(6).standard_normal((5, layers[0].w.data.shape[0]))
        h = x
        for layer in layers[:-1]:
            h = np.tanh(h @ layer.w.data + layer.b.data)
        h = h @ layers[-1].w.data + layers[-1].b.data
        want = {None: h, "tanh": np.tanh(h), "sigmoid": sigmoid(Tensor(h)).data}[final]
        assert np.array_equal(forward(Tensor(x), bundle).data, want)


class TestPerceptualFreeze:
    def test_no_gradient_reaches_perceptual_params(self):
        bundle = toy_bundle()
        x = Tensor(np.random.default_rng(4).standard_normal((4, 2)))
        x_r = reconstruct(x, bundle)
        _, _, combined = reconstruction_loss(
            x_r, x, phi=lambda t: perceptual_features(t, bundle), lam=0.01)
        d = discriminate(x_r, bundle)
        backward(combined + generator_adversarial_loss(d, Tensor(d.data.copy())))
        for p in perceptual_tensors(bundle):
            assert p.grad is None
        assert any(p.grad is not None and np.any(p.grad != 0.0)
                   for p in bundle.generator_parameters())
