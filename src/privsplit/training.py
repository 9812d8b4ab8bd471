"""Collaborative training loop, its ablations, and checkpoints.

Each iteration samples one minibatch, generates the reconstructed and
encrypted outputs once, and backpropagates the shared objective once: the
adversarial term is literally the same formula for the discriminator and
the encryption model, and the reconstruction terms have no discriminator
path, so a single backward pass at the iteration-start parameters yields
both networks' exact gradients, and ``privsplit check`` verifies them
(:func:`objective`). One Adam step then updates every trained network: Adam is
elementwise, so one optimizer over the union equals one per network bitwise.

Checkpoint format, version 3: an uncompressed numpy ``.npz`` archive, read
with ``allow_pickle=False``, written to exactly the path it is given.

- ``header``: a uint8 array holding UTF-8 JSON with ``magic``
  (``"privsplit-checkpoint"``), ``version`` (3), ``model_config`` (the
  :class:`~privsplit.models.ModelConfig` fields: ``input_width``,
  ``feature_width``, ``privacy_width``, ``seed``, ``disc_hidden`` and
  ``perceptual_width``), ``layers`` (the layer count of each network) and
  ``history`` (the :class:`TrainHistory` lists; ``null`` where an ablation
  has no adversarial term).
- ``<network>.<i>.w`` and ``<network>.<i>.b`` for ``network`` in encoder,
  decoder, discriminator and perceptual and layer ``i`` from 0: raw
  float64 weights of shape (fan_in, fan_out) and biases of shape
  (fan_out,), so values round-trip exactly.

Loading checks that ``model_config`` holds exactly the fields, each of
exactly its annotated type, that the layer counts agree with it, and that
every array is present, float64, finite and shaped as ``model_config``
implies (:func:`~privsplit.models.network_widths`), and that every history
column is a list of equal length holding ints (``iterations``) or floats
and ints (the losses; ``null`` only in ``l_d`` and ``l_g_ad``), no bools
among them. A bad file raises
:class:`MalformedCheckpointError`; a version-1 JSON checkpoint or any other
version raises :class:`CheckpointVersionError`.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import tokenize
import zipfile
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .autodiff import NonFiniteError, Tensor, backward
from .models import (
    Layer,
    ModelBundle,
    ModelConfig,
    NoiseSpec,
    build_models,
    decode,
    discriminate,
    encode,
    fake_privacy,
    merge,
    network_widths,
    perceptual_features,
)
from .objectives import generator_adversarial_loss, msednet_loss, reconstruction_loss
from .optim import Adam

CHECKPOINT_MAGIC = "privsplit-checkpoint"
CHECKPOINT_VERSION = 3
_NETWORKS = ("encoder", "decoder", "discriminator", "perceptual")
_ZIP_MAGIC = b"PK\x03\x04"

ABLATIONS = ("full", "no_collaborative", "msednet")


class TrainingDivergedError(RuntimeError):
    """A loss term went non-finite; carries the term name and iteration."""


class MalformedCheckpointError(ValueError):
    pass


class CheckpointVersionError(ValueError):
    pass


@dataclass
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 64
    lam: float = 0.01
    alpha: float = 1e-3
    noise_std: float = 1.0
    seed: int = 0
    ablation: str = "full"
    input_width: int = 2
    feature_width: int = 128
    privacy_proportion: Fraction = Fraction(1, 64)
    use_perceptual: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        self.privacy_proportion = Fraction(self.privacy_proportion)
        if not (0 < self.privacy_proportion < 1):
            raise ValueError(f"privacy proportion must be in (0,1), got {self.privacy_proportion}")
        width = self.privacy_proportion * self.feature_width
        if width.denominator != 1 or width == 0:
            raise ValueError(
                f"proportion {self.privacy_proportion} of feature width "
                f"{self.feature_width} is not a positive integer")

    def model_config(self, model_seed: int) -> ModelConfig:
        return ModelConfig(
            input_width=self.input_width,
            feature_width=self.feature_width,
            privacy_width=int(self.privacy_proportion * self.feature_width),
            seed=model_seed,
        )


@dataclass
class TrainHistory:
    """Per-iteration loss records; adversarial entries are None when the
    ablation drops that term."""

    iterations: list[int] = field(default_factory=list)
    l_d: list[float | None] = field(default_factory=list)
    l_g_ad: list[float | None] = field(default_factory=list)
    l_recon_mse: list[float] = field(default_factory=list)
    l_perceptual: list[float] = field(default_factory=list)
    l_g_total: list[float] = field(default_factory=list)

    def append(self, iteration, l_d, l_g_ad, l_recon_mse, l_perceptual, l_g_total):
        self.iterations.append(iteration)
        self.l_d.append(l_d)
        self.l_g_ad.append(l_g_ad)
        self.l_recon_mse.append(l_recon_mse)
        self.l_perceptual.append(l_perceptual)
        self.l_g_total.append(l_g_total)


def _check_finite(iteration: int, **terms: float) -> None:
    for name, value in terms.items():
        if value is not None and not np.isfinite(value):
            raise TrainingDivergedError(
                f"loss term {name} is non-finite at iteration {iteration}")


def objective(x: Tensor, bundle: ModelBundle, config: TrainConfig,
              noise: NoiseSpec | None) -> tuple[Tensor, Tensor, Tensor, Tensor | None]:
    """(total, recon MSE, perceptual term, L_ad or None) of `config.ablation` on batch `x`.

    Reads only `ablation`, `lam` and `use_perceptual` of `config`. `noise` makes
    x_e, which ``no_collaborative`` never reads or decodes; it takes None.
    """
    phi = lambda t: perceptual_features(t, bundle)
    public, privacy = encode(x, bundle)
    x_r = decode(merge(public, privacy, bundle), bundle)
    if config.ablation != "no_collaborative":
        x_e = decode(merge(public, fake_privacy(privacy, noise), bundle), bundle)
    recon_mse, perceptual, recon_combined = reconstruction_loss(
        x_r, x, phi if config.use_perceptual else None, config.lam)
    if config.ablation == "full":
        l_ad = generator_adversarial_loss(discriminate(x_r, bundle), discriminate(x_e, bundle))
        return l_ad + recon_combined, recon_mse, perceptual, l_ad
    if config.ablation == "no_collaborative":
        return recon_combined, recon_mse, perceptual, None
    return msednet_loss(recon_combined, x, x_e, phi), recon_mse, perceptual, None


def trained_parameters(bundle: ModelBundle, ablation: str) -> list[Tensor]:
    """The parameters `train` updates under `ablation`: only ``full`` trains the discriminator."""
    return bundle.all_parameters() if ablation == "full" else bundle.generator_parameters()


def train(features, config: TrainConfig,
          snapshot_iters: Iterable[int] = (),
          snapshot_fn: Callable[[int, ModelBundle], None] | None = None,
          ) -> tuple[ModelBundle, TrainHistory]:
    """Run `config.iterations` training iterations and return the trained models.

    The models come back as a :meth:`~privsplit.models.ModelBundle.detached`
    view: the trained weights in tensors that need no gradient, so their
    forward passes record no graph, and the optimizer, its gradient buffer
    and the trained tensors all die when this returns. They are for
    inference and checkpoints; they must not be trained further.
    `snapshot_fn(iteration, view)` fires with that same view whenever the
    number of completed iterations hits one of `snapshot_iters` (0 means the
    initial state), and sees the weights as they stand then.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError(
            f"training data must be a non-empty (n, d) array, got shape {features.shape}")
    if features.shape[1] != config.input_width:
        raise ValueError(
            f"dataset width {features.shape[1]} != configured input width {config.input_width}")

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    model_seed = int(seeds[0].generate_state(1, np.uint64)[0])
    batch_rng = np.random.default_rng(seeds[1])
    noise_rng = np.random.default_rng(seeds[2])

    bundle = build_models(config.model_config(model_seed))
    history = TrainHistory()
    snapshot_iters = set(snapshot_iters)

    opt = Adam(trained_parameters(bundle, config.ablation), alpha=config.alpha)
    view = bundle.detached()  # after Adam has moved the weights into its buffer

    def snapshot(done: int) -> None:
        if snapshot_fn is not None and done in snapshot_iters:
            snapshot_fn(done, view)

    snapshot(0)

    def step(i: int, x: Tensor) -> tuple[float | None, float | None, float, float, float]:
        """One iteration's forward, backward and update; returns the loss values.

        The step's graph lives only in this call, so it is freed before the
        next iteration's forward pass allocates its own.
        """
        noise = None
        if config.ablation != "no_collaborative":  # its loss never reads x_e
            noise = NoiseSpec(std=config.noise_std,
                              seed=int(noise_rng.integers(np.iinfo(np.int64).max)))
        try:
            total, recon_mse, perceptual, l_ad = objective(x, bundle, config, noise)
        except NonFiniteError as exc:
            raise TrainingDivergedError(
                f"non-finite values in forward pass at iteration {i}: {exc}") from exc

        l_ad_val = None if l_ad is None else l_ad.item()  # also L_D: one shared objective
        total_val = total.item()
        mse_val = recon_mse.item()
        perc_val = perceptual.item()
        _check_finite(i, l_d=l_ad_val, l_recon_mse=mse_val,  # l_d is also l_g_ad
                      l_perceptual=perc_val, l_g_total=total_val)

        backward(total)
        opt.step()
        return l_ad_val, l_ad_val, mse_val, perc_val, total_val

    n = features.shape[0]
    for i in range(config.iterations):
        idx = batch_rng.integers(0, n, size=config.batch_size)
        history.append(i, *step(i, Tensor(features[idx])))
        snapshot(i + 1)

    return view, history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(bundle: ModelBundle, history: TrainHistory, path) -> None:
    """Write a version-3 checkpoint (layout in the module docstring) to `path`."""
    arrays = {}
    for net in _NETWORKS:
        for i, layer in enumerate(getattr(bundle, net)):
            arrays[f"{net}.{i}.w"] = layer.w.data
            arrays[f"{net}.{i}.b"] = layer.b.data
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(bundle.config),
        "layers": {net: len(getattr(bundle, net)) for net in _NETWORKS},
        "history": {f.name: getattr(history, f.name) for f in fields(history)},
    }
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:  # a file handle keeps numpy from adding ".npz"
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[ModelBundle, TrainHistory]:
    """Read and validate a version-3 checkpoint written by :func:`save_checkpoint`.

    No tensor of the bundle requires grad, so its forward passes record no graph.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            fh.seek(0)
            raise _non_archive_error(fh.read())
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                header = _read_header(archive)
                config, widths = _checked_config(header)
                layers = {net: _read_layers(archive, net, widths[net]) for net in _NETWORKS}
        # what zipfile raises on a damaged archive: short reads, bad CRCs, and
        # header bytes that claim encryption, a newer zip version or compression
        except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError) as exc:
            raise MalformedCheckpointError(f"checkpoint archive is unreadable: {exc}") from exc
    return ModelBundle(config=config, **layers), _read_history(header)


def _non_archive_error(blob: bytes) -> ValueError:
    """Name the version of an old JSON checkpoint; anything else is malformed."""
    try:
        doc = json.loads(blob)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and doc.get("magic") == CHECKPOINT_MAGIC:
        return CheckpointVersionError(
            f"checkpoint version {doc.get('version')!r} is a JSON file and is no longer read; "
            f"expected version {CHECKPOINT_VERSION} (.npz)")
    return MalformedCheckpointError("not a checkpoint file: missing checkpoint magic")


def _member(archive, name: str) -> np.ndarray:
    try:
        return archive[name]
    except KeyError:
        raise MalformedCheckpointError(f"checkpoint has no array {name!r}") from None
    # a damaged .npy member or one that needs pickle: a garbled .npy header
    # or dtype string raises TokenError or SyntaxError, and a damaged central
    # directory makes zipfile seek before the file start (EINVAL; any other
    # OSError is a real read error)
    except (ValueError, SyntaxError, tokenize.TokenError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.EINVAL:
            raise
        raise MalformedCheckpointError(f"checkpoint array {name!r} is unreadable: {exc}") from exc


def _read_header(archive) -> dict:
    raw = _member(archive, "header")
    try:
        if raw.dtype != np.uint8 or raw.ndim != 1:
            raise ValueError(f"header array is {raw.dtype} of shape {raw.shape}")
        header = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise MalformedCheckpointError(f"checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise MalformedCheckpointError("missing checkpoint magic")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {header.get('version')!r}, expected {CHECKPOINT_VERSION}")
    return header


def _checked_config(header: dict) -> tuple[ModelConfig, dict[str, list[int]]]:
    """The model config and its network widths; layer counts must agree."""
    try:
        config = ModelConfig(**header["model_config"])
        _check_field_types(config)
        widths = network_widths(config)
        counts = {net: header["layers"][net] for net in _NETWORKS}
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCheckpointError(f"checkpoint header is invalid: {exc!r}") from exc
    for net in _NETWORKS:
        if type(counts[net]) is not int or counts[net] != len(widths[net]) - 1:
            raise MalformedCheckpointError(
                f"{net} has {counts[net]!r} layers, model_config implies {len(widths[net]) - 1}")
    return config, widths


def _check_field_types(config: ModelConfig) -> None:
    """Every field must hold exactly its annotated type: a bool is no int, 2.0 no width."""
    for f in fields(config):
        value = getattr(config, f.name)
        if type(value).__name__ != f.type:
            raise TypeError(f"model_config {f.name} is {value!r}, expected {f.type}")


def _read_layers(archive, net: str, widths: list[int]) -> list[Layer]:
    """A network's layers in tensors that need no gradient: loaded models only run forward."""
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        arrays = []
        for part, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,))):
            name = f"{net}.{i}.{part}"
            a = _member(archive, name)
            if a.dtype != np.float64 or a.shape != shape:
                raise MalformedCheckpointError(
                    f"{name} is {a.dtype} of shape {a.shape}; model_config implies "
                    f"float64 of shape {shape}")
            if not np.isfinite(a).all():
                raise MalformedCheckpointError(f"{name} has non-finite values")
            arrays.append(Tensor(a))
        layers.append(Layer(*arrays))
    return layers


# the adversarial terms, which the no_collaborative and msednet ablations drop
_OPTIONAL_HISTORY = ("l_d", "l_g_ad")


def _read_history(header: dict) -> TrainHistory:
    names = [f.name for f in fields(TrainHistory)]
    try:
        columns = {name: header["history"][name] for name in names}
    except (KeyError, TypeError) as exc:
        raise MalformedCheckpointError(f"checkpoint history is invalid: {exc!r}") from exc
    for name, column in columns.items():
        if type(column) is not list:
            raise MalformedCheckpointError(f"checkpoint history {name} is not a list")
        for value in column:
            if not _history_value_ok(name, value):
                raise MalformedCheckpointError(f"checkpoint history {name} holds {value!r}")
    if len({len(column) for column in columns.values()}) != 1:
        raise MalformedCheckpointError("checkpoint history columns differ in length")
    return TrainHistory(**columns)


def _history_value_ok(column: str, value) -> bool:
    """An iteration is an int; a loss is a float or an int, or None where an ablation drops it.

    A bool is neither an int nor a float here.
    """
    if column == "iterations":
        return type(value) is int
    if value is None:
        return column in _OPTIONAL_HISTORY
    return type(value) in (float, int)


HISTORY_COLUMNS = ("iteration", "l_D", "l_G_ad", "l_recon_mse", "l_perceptual", "l_G_total")


def write_history_csv(history: TrainHistory, path) -> None:
    def cell(v):
        return "" if v is None else repr(float(v))

    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in zip(history.iterations, history.l_d, history.l_g_ad,
                       history.l_recon_mse, history.l_perceptual, history.l_g_total):
            writer.writerow([row[0]] + [cell(v) for v in row[1:]])
