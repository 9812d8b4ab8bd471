"""The encryption model (encoder, feature split, decoder) and discriminator.

The encoder maps a sample to a feature vector that is cut at a fixed index
into a public part and a small privacy part; :func:`encode` returns the pair
(public, privacy). Decoding the true pair gives the reconstruction; decoding
the public part with a noise-corrupted privacy part gives the encrypted
output. A five-layer MLP discriminator scores how reconstructed-looking a
sample is, and a frozen random feature network provides the feature-space
reconstruction term. That shape is the paper's and is fixed here: tanh
between the layers of every network, and the discriminator's one output
unit squashed by sigmoid.

At inference :func:`reconstruct` decodes the encoder output as it is, and
:func:`encrypt` adds the noise in place to its privacy columns: bitwise the
split-and-merge chain that training runs, without copying the two parts.
That holds with a recorded graph too, because the encoder's last layer is
linear, and a linear :func:`dense` node's backward never reads its output.
Both are bitwise reproducible only at a fixed row count, because the BLAS
kernel a matrix product takes can vary with the number of rows n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, concat, dense, slice_cols


@dataclass
class NoiseSpec:
    """Seeded additive white Gaussian noise."""

    std: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.std) and self.std >= 0):
            raise ValueError(f"noise std must be finite and non-negative, got {self.std}")


@dataclass
class ModelConfig:
    """Network widths and the initialization seed; ``TrainConfig`` holds the training defaults."""

    input_width: int
    feature_width: int
    privacy_width: int
    seed: int
    disc_hidden: int = 128
    perceptual_width: int = 64


@dataclass
class Layer:
    w: Tensor
    b: Tensor


def frozen(layers: list[Layer]) -> list[Layer]:
    """The same weight arrays in fresh tensors that need no gradient."""
    return [Layer(Tensor(layer.w.data), Tensor(layer.b.data)) for layer in layers]


@dataclass
class ModelBundle:
    """All parameter sets plus the split geometry."""

    encoder: list[Layer]
    decoder: list[Layer]
    discriminator: list[Layer]
    perceptual: list[Layer]  # frozen: requires_grad stays False
    config: ModelConfig

    def generator_parameters(self) -> list[Tensor]:
        return [t for layer in self.encoder + self.decoder for t in (layer.w, layer.b)]

    def discriminator_parameters(self) -> list[Tensor]:
        return [t for layer in self.discriminator for t in (layer.w, layer.b)]

    def all_parameters(self) -> list[Tensor]:
        return self.generator_parameters() + self.discriminator_parameters()

    def detached(self) -> ModelBundle:
        """A view for inference: the same weight arrays in tensors that need no gradient.

        A forward pass through it records no graph, so each activation is
        freed once the next layer has read it. It sees the bundle's in-place
        weight updates, but not an array the bundle's tensors are rebound
        to later (``Adam`` rebinds them into its flat buffer when it is
        built), so build it after the optimizer. It holds no gradient, so it
        keeps no optimizer buffer alive: ``train`` returns it. Never train it.
        """
        return ModelBundle(frozen(self.encoder), frozen(self.decoder),
                           frozen(self.discriminator), frozen(self.perceptual), self.config)


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

    Encoder in-fw-fw, decoder fw-fw-in, the paper's five-layer
    discriminator (four hidden layers of `disc_hidden` units, then one
    unit), and a two-layer feature network.
    """
    if not (0 < config.privacy_width < config.feature_width):
        raise ValueError(
            f"privacy width must be strictly between 0 and the feature width "
            f"{config.feature_width}, got {config.privacy_width}")
    fw = config.feature_width
    return {
        "encoder": [config.input_width, fw, fw],
        "decoder": [fw, fw, config.input_width],
        "discriminator": [config.input_width] + [config.disc_hidden] * 4 + [1],
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


def _mlp_forward(layers: list[Layer], x: Tensor, final: str | None = None) -> Tensor:
    """Dense layers with tanh between them and `final` (or none) after the last."""
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        h = dense(h, layer.w, layer.b, "tanh" if i < last else final)
    return h


def encode(x: Tensor, bundle: ModelBundle) -> tuple[Tensor, Tensor]:
    """Run the encoder and cut the features at the fixed split index: (public, privacy).

    The last `privacy_width` features form the privacy part; concatenating
    the two parts back reproduces the raw encoder output exactly.
    """
    y = _mlp_forward(bundle.encoder, x)
    width = bundle.config.feature_width
    cut = width - bundle.config.privacy_width
    return slice_cols(y, 0, cut), slice_cols(y, cut, width)


def merge(public_part: Tensor, privacy_part: Tensor, bundle: ModelBundle) -> Tensor:
    """Concatenate public-then-privacy back into a full feature vector of `bundle`.

    Only the privacy width is checked here, which catches swapped arguments;
    the concatenation and the next :func:`decode` reject any other shape.
    """
    if privacy_part.data.shape[-1] != bundle.config.privacy_width:
        raise ValueError(
            f"privacy part has width {privacy_part.data.shape[-1]}, "
            f"expected {bundle.config.privacy_width} (argument order is public, privacy)")
    return concat([public_part, privacy_part])


def _noise(shape: tuple[int, int], noise: NoiseSpec) -> np.ndarray | None:
    """The seeded noise for a privacy part of `shape`; None when std is 0."""
    if noise.std == 0.0:
        return None
    return np.random.default_rng(noise.seed).normal(0.0, noise.std, size=shape)


def fake_privacy(privacy_part: Tensor, noise: NoiseSpec) -> Tensor:
    """Privacy features plus seeded Gaussian noise (std 0 returns the input)."""
    n = _noise(privacy_part.data.shape, noise)
    return privacy_part if n is None else add(privacy_part, Tensor(n))


def decode(features: Tensor, bundle: ModelBundle) -> Tensor:
    return _mlp_forward(bundle.decoder, features)


def reconstruct(x: Tensor, bundle: ModelBundle) -> Tensor:
    """Decode the true (public, privacy) pair, which is the encoder output as it is."""
    return decode(_mlp_forward(bundle.encoder, x), bundle)


def encrypt(x: Tensor, bundle: ModelBundle, noise: NoiseSpec) -> Tensor:
    """Decode the public part with a noise-corrupted privacy part.

    :func:`fake_privacy`'s noise is added in place to the privacy columns of
    the fresh encoder output (safe: see the module docstring).
    """
    y = _mlp_forward(bundle.encoder, x)
    privacy_width = bundle.config.privacy_width
    n = _noise((len(y.data), privacy_width), noise)
    if n is not None:
        y.data[:, -privacy_width:] += n
    return decode(y, bundle)


def discriminate(x: Tensor, bundle: ModelBundle) -> Tensor:
    """Probability (strictly inside (0,1)) that each sample is a reconstruction."""
    return _mlp_forward(bundle.discriminator, x, final="sigmoid")


def perceptual_features(x: Tensor, bundle: ModelBundle) -> Tensor:
    """Frozen random feature map; tanh keeps the features bounded."""
    return _mlp_forward(bundle.perceptual, x, final="tanh")
