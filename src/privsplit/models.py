"""The encryption model (encoder, feature split, decoder) and discriminator.

The encoder maps a sample to a feature vector that is cut at a fixed index
into a public part and a small privacy part. Decoding the true pair gives
the reconstruction; decoding the public part with a noise-corrupted privacy
part gives the encrypted output. A five-layer MLP discriminator scores how
reconstructed-looking a sample is, and a frozen random feature network
provides the feature-space reconstruction term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, concat, dense, slice_cols


@dataclass
class SplitFeature:
    """Encoder output cut into the public and privacy parts (public first)."""

    public_part: Tensor
    privacy_part: Tensor


@dataclass
class NoiseSpec:
    """Seeded additive white Gaussian noise (default std 1)."""

    std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.std < 0:
            raise ValueError(f"noise std must be non-negative, got {self.std}")


@dataclass
class ModelConfig:
    input_width: int = 2
    feature_width: int = 128
    privacy_width: int = 2
    disc_hidden: int = 128
    disc_layers: int = 5
    hidden_activation: str = "tanh"
    perceptual_width: int = 64
    use_perceptual: bool = False
    seed: int = 0


@dataclass
class Layer:
    w: Tensor
    b: Tensor


@dataclass
class ModelBundle:
    """All parameter sets plus the split geometry."""

    encoder: list[Layer]
    decoder: list[Layer]
    discriminator: list[Layer]
    perceptual: list[Layer]  # frozen: requires_grad stays False
    config: ModelConfig

    @property
    def feature_width(self) -> int:
        return self.config.feature_width

    @property
    def privacy_width(self) -> int:
        return self.config.privacy_width

    @property
    def input_width(self) -> int:
        return self.config.input_width

    def generator_parameters(self) -> list[Tensor]:
        return [t for layer in self.encoder + self.decoder for t in (layer.w, layer.b)]

    def discriminator_parameters(self) -> list[Tensor]:
        return [t for layer in self.discriminator for t in (layer.w, layer.b)]

    def all_parameters(self) -> list[Tensor]:
        return self.generator_parameters() + self.discriminator_parameters()


def _init_layer(rng: np.random.Generator, fan_in: int, fan_out: int, trainable: bool = True,
                dtype=np.float64) -> Layer:
    """Glorot-uniform weights and zero biases; the float64 draw is rounded to `dtype`."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype, copy=False)
    w = Tensor(w, requires_grad=trainable)
    b = Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=trainable)
    return Layer(w, b)


def _init_mlp(rng, widths: list[int], trainable: bool = True, dtype=np.float64) -> list[Layer]:
    return [_init_layer(rng, a, b, trainable, dtype) for a, b in zip(widths[:-1], widths[1:])]


def network_widths(config: ModelConfig) -> dict[str, list[int]]:
    """Layer widths of each network, input first.

    Encoder in-fw-fw, decoder fw-fw-in, `disc_layers` fully-connected
    discriminator layers ending in one unit, and a two-layer feature network.
    """
    if not (0 < config.privacy_width < config.feature_width):
        raise ValueError(
            f"privacy width must be strictly between 0 and the feature width "
            f"{config.feature_width}, got {config.privacy_width}")
    fw = config.feature_width
    return {
        "encoder": [config.input_width, fw, fw],
        "decoder": [fw, fw, config.input_width],
        "discriminator": ([config.input_width]
                          + [config.disc_hidden] * (config.disc_layers - 1)
                          + [1]),
        "perceptual": [config.input_width, config.perceptual_width, config.perceptual_width],
    }


def build_models(config: ModelConfig) -> ModelBundle:
    """Initialize all networks, shaped by :func:`network_widths`, from the config's seed.

    The perceptual network is frozen.
    """
    widths = network_widths(config)
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rngs = [np.random.default_rng(s) for s in streams]
    return ModelBundle(
        encoder=_init_mlp(rngs[0], widths["encoder"]),
        decoder=_init_mlp(rngs[1], widths["decoder"]),
        discriminator=_init_mlp(rngs[2], widths["discriminator"]),
        perceptual=_init_mlp(rngs[3], widths["perceptual"], trainable=False),
        config=config,
    )


def _mlp_forward(layers: list[Layer], x: Tensor, hidden: str = "tanh",
                 final: str | None = None) -> Tensor:
    """Dense layers with `hidden` between them and `final` (or none) after the last."""
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        h = dense(h, layer.w, layer.b, hidden if i < last else final)
    return h


def _check_width(x: Tensor, width: int, what: str) -> None:
    if x.data.ndim != 2 or x.data.shape[1] != width:
        raise ValueError(f"{what} expects batch shape (n, {width}), got {x.data.shape}")


def encode(x: Tensor, bundle: ModelBundle) -> SplitFeature:
    """Run the encoder and cut the features at the fixed split index.

    The last `privacy_width` features form the privacy part; concatenating
    the two parts back reproduces the raw encoder output exactly.
    """
    _check_width(x, bundle.input_width, "encode")
    y = _mlp_forward(bundle.encoder, x, hidden=bundle.config.hidden_activation)
    cut = bundle.feature_width - bundle.privacy_width
    return SplitFeature(public_part=slice_cols(y, 0, cut),
                        privacy_part=slice_cols(y, cut, bundle.feature_width))


def merge(public_part: Tensor, privacy_part: Tensor, bundle: ModelBundle | None = None) -> Tensor:
    """Concatenate public-then-privacy back into a full feature vector."""
    if public_part.data.ndim != 2 or privacy_part.data.ndim != 2:
        raise ValueError("merge expects 2-D (batch, width) tensors")
    if bundle is not None:
        total = public_part.data.shape[1] + privacy_part.data.shape[1]
        if total != bundle.feature_width:
            raise ValueError(
                f"merge widths {public_part.data.shape[1]}+{privacy_part.data.shape[1]} "
                f"!= feature width {bundle.feature_width}")
        if privacy_part.data.shape[1] != bundle.privacy_width:
            raise ValueError(
                f"privacy part has width {privacy_part.data.shape[1]}, "
                f"expected {bundle.privacy_width} (argument order is public, privacy)")
    return concat([public_part, privacy_part], axis=1)


def fake_privacy(privacy_part: Tensor, noise: NoiseSpec) -> Tensor:
    """Privacy features plus seeded Gaussian noise (std 0 returns the input)."""
    if noise.std == 0.0:
        return privacy_part
    rng = np.random.default_rng(noise.seed)
    n = rng.normal(0.0, noise.std, size=privacy_part.data.shape)
    return add(privacy_part, Tensor(n))


def decode(features: Tensor, bundle: ModelBundle) -> Tensor:
    _check_width(features, bundle.feature_width, "decode")
    return _mlp_forward(bundle.decoder, features, hidden=bundle.config.hidden_activation)


def reconstruct(x: Tensor, bundle: ModelBundle) -> Tensor:
    """Decode the true (public, privacy) pair; same shape as the input."""
    split = encode(x, bundle)
    return decode(merge(split.public_part, split.privacy_part, bundle), bundle)


def encrypt(x: Tensor, bundle: ModelBundle, noise: NoiseSpec) -> Tensor:
    """Decode the public part with a noise-corrupted privacy part."""
    split = encode(x, bundle)
    fake = fake_privacy(split.privacy_part, noise)
    return decode(merge(split.public_part, fake, bundle), bundle)


def discriminate(x: Tensor, bundle: ModelBundle) -> Tensor:
    """Probability (strictly inside (0,1)) that each sample is a reconstruction."""
    _check_width(x, bundle.input_width, "discriminate")
    return _mlp_forward(bundle.discriminator, x,
                        hidden=bundle.config.hidden_activation, final="sigmoid")


def perceptual_features(x: Tensor, bundle: ModelBundle) -> Tensor:
    """Frozen random feature map; tanh keeps the features bounded."""
    _check_width(x, bundle.input_width, "perceptual_features")
    return _mlp_forward(bundle.perceptual, x, final="tanh")
