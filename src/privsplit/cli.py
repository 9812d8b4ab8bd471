"""Command-line entry point wiring the library into reproducible runs.

Subcommands: check, train-toy, train-image, obfuscate, attack,
sweep-proportion, report. Runs are driven by an INI config (sections of
key=value pairs, read literally: no ``%`` interpolation and no
``[DEFAULT]`` section); command-line flags override file values, and every
run writes the resolved config plus a metadata sidecar (the only place a
timestamp appears) next to its outputs.

The keys of ``[data]``, ``[train]`` and ``[attack]`` are the field names of
:class:`~privsplit.datasets.ClusterSpec`, :class:`~privsplit.training.TrainConfig`
and :class:`~privsplit.evaluation.AttackConfig`, whose defaults are the only
ones but two: ``TrainConfig.input_width`` comes from the data, and
``use_perceptual`` defaults on for ``tiny`` data and off for ``toy`` data;
``lam`` is spelled ``lambda``. The seeds default to the run seed (the
attack's to run seed + 1). The run seed is ``--seed``, else ``[train]
seed``, else ``[data] seed``, else 0, so the train seed is the run seed;
no environment variable sets it. ``--seed`` replaces both file seeds,
while an explicit ``[attack] seed`` still sets the attack's. The keys that
are not fields are ``[data]`` ``kind``, ``source_dir``, ``size``,
``class_count`` and ``per_class``; ``[attack]`` ``methods``,
``model_checkpoint``, ``msednet_checkpoint`` and the image baselines' keys,
which :data:`BASELINES` holds with their defaults; ``[sweep]``
``proportions``; and ``[plot]`` ``points_per_cluster``. ``[data] kind`` is
``toy`` (the default, and ``train-toy``'s) or ``tiny`` (``train-image``'s).
Only ``toy`` reads ``cluster_count``, ``points_per_cluster``,
``center_box`` and ``cluster_std``; only ``tiny`` reads ``source_dir``,
``size``, ``class_count`` and ``per_class``; a key or ``kind`` a run would
ignore exits 2. A sweep trains each proportion for ``[train] iterations`` and
attacks it as ``attack`` does, so ``sweep.csv`` has ``report.csv``'s
columns and one ``Ours(<proportion>)`` row per proportion.

Exit codes: 0 success, 1 check/assertion failure, 2 usage error, 3 I/O error,
141 (128 + SIGPIPE) when the reader of stdout closed it early, as in
``privsplit check | head -1``; that exit prints nothing.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, bce, grad_check, sigmoid, softmax_cross_entropy, tsum
from .datasets import (
    ClusterSpec,
    LabeledDataset,
    features_to_pixels,
    gen_toy_clusters,
    make_tiny_image_dataset,
    pixels_to_features,
)
from .evaluation import (
    AttackConfig,
    ObfuscationMethod,
    attack_method,
    compare_methods,
    psnr,
    scatter_report,
    separability,
    write_report_csv,
)
from .image import Image, load_pixmap, save_pixmap
from .models import (
    ModelBundle,
    ModelConfig,
    NoiseSpec,
    _init_mlp,
    _mlp_forward,
    build_models,
    encrypt,
    reconstruct,
)
from .obfuscation import gaussian_blur, gaussian_blur_stack, pixelate, pixelate_stack
from .objectives import (
    LOG4,
    DiscreteDistributionPair,
    collaborative_loss_at_optimum,
    jsd,
)
from .optim import Adam
from .p3 import p3_encode, p3_public_stack, secret_proportion, serialize_secret
from .training import (
    ABLATIONS,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    objective,
    save_checkpoint,
    train,
    trained_parameters,
    write_history_csv,
)

# The image baselines, for `attack` and `obfuscate` alike: method name ->
# (report label, [attack] key, its default, transform of an (n, size, size,
# channels) uint8 stack and the key's value). `obfuscate`'s flag for each is
# the key without the method name: --factor, --radius, --threshold.
BASELINES = {
    "pixelate": ("Pixelation", "pixelate_factor", 20, pixelate_stack),
    "blur": ("Blurring", "blur_radius", 16, gaussian_blur_stack),
    "p3": ("P3", "p3_threshold", 1, p3_public_stack),
}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def usage_error(message: str) -> CliError:
    return CliError(message, 2)


# ---------------------------------------------------------------------------
# config handling

# INI keys that are not config fields (see the module docstring)
_EXTRA_KEYS = {
    "data": {"kind", "source_dir", "size", "class_count", "per_class"},
    "train": set(),
    "attack": {"methods", "model_checkpoint", "msednet_checkpoint",
               *(key for _, key, _, _ in BASELINES.values())},
    "sweep": {"proportions"},
    "plot": {"points_per_cluster"},
}
_SECTION_CONFIGS = {"data": ClusterSpec, "train": TrainConfig, "attack": AttackConfig}
_INI_NAMES = {"lam": "lambda"}
_TINY_KEYS = {"source_dir": str, "size": int, "class_count": int, "per_class": int, "seed": int}
# the [data] keys that only the other kind of set reads, so a run of this kind rejects them
_FOREIGN_KEYS = {"toy": set(_TINY_KEYS) - {"seed"},
                 "tiny": {f.name for f in fields(ClusterSpec)} - {"seed"}}


def _ini_fields(cls) -> list:
    """(INI key, field) of each field of the dataclass `cls` that an INI may set.

    `TrainConfig.input_width` is always the dataset's width, so it is no key.
    """
    return [(_INI_NAMES.get(f.name, f.name), f) for f in fields(cls) if f.name != "input_width"]


KNOWN_KEYS = {section: set(keys) for section, keys in _EXTRA_KEYS.items()}
for _section, _cls in _SECTION_CONFIGS.items():
    KNOWN_KEYS[_section] |= {key for key, _ in _ini_fields(_cls)}


def load_config(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise usage_error(f"cannot parse config {path}: {exc}") from exc
    if parser.defaults():
        raise usage_error("config keys must sit in a named section, not [DEFAULT]")
    config: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise usage_error(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in KNOWN_KEYS[section]:
                raise usage_error(f"unknown key {key!r} in section [{section}]")
        config[section] = dict(parser[section])
    return config


def _get(config, section, key, default, convert):
    raw = config.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return convert(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise usage_error(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _seed(raw) -> int:
    seed = int(raw)
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {seed}")
    return seed


# the sections whose seed is the run seed, in the order a file's seed is picked
_RUN_SEED_SECTIONS = ("train", "data")


def resolve_seed(flag_seed, config: dict) -> int:
    """The run seed: --seed, else the file's ([train] before [data]), else 0.

    Every seed key of the file is checked first, whichever source wins.
    """
    file_seeds = [_get(config, section, "seed", None, _seed) for section in _RUN_SEED_SECTIONS]
    if flag_seed is not None:
        if flag_seed < 0:
            raise usage_error(f"--seed must be non-negative, got {flag_seed}")
        return flag_seed
    return next((value for value in file_seeds if value is not None), 0)


_CONVERTERS = {"int": int, "float": float, "bool": _bool, "str": str, "Fraction": Fraction}


def _with_run_seed(config: dict, seed: int) -> dict:
    """`config` with `seed` in place of every run-seed key it has, so --seed wins over the file."""
    return {section: {**values, "seed": str(seed)}
            if section in _RUN_SEED_SECTIONS and "seed" in values else values
            for section, values in config.items()}


def _from_section(cls, config: dict, section: str, **defaults):
    """`cls` from the INI values of `section`; `defaults`, then the field defaults, fill the rest."""
    for key, f in _ini_fields(cls):
        if key in config.get(section, {}):
            defaults[f.name] = _get(config, section, key, None, _CONVERTERS[f.type])
    return cls(**defaults)


def train_config_from(config: dict, seed: int, dataset: LabeledDataset) -> TrainConfig:
    """`[train]` for `dataset`: its width, and the perceptual term on by default for images."""
    return _from_section(TrainConfig, config, "train", seed=seed, input_width=dataset.width,
                         use_perceptual=dataset.meta.get("kind") == "tiny-images")


def attack_config_from(config: dict, seed: int) -> AttackConfig:
    return _from_section(AttackConfig, config, "attack", seed=seed + 1)


def dataset_from(config: dict, seed: int, kind: str | None = None) -> LabeledDataset:
    """The `[data]` set of `data.kind`, which a command may fix as `kind`."""
    data = config.get("data", {})
    file_kind = _get(config, "data", "kind", kind or "toy", str)
    if kind is not None and file_kind != kind:
        raise usage_error(f"this command needs data.kind = {kind}, got {file_kind!r}")
    kind = file_kind
    if kind not in _FOREIGN_KEYS:
        raise usage_error(f"data.kind must be toy or tiny, got {kind!r}")
    foreign = sorted(_FOREIGN_KEYS[kind] & data.keys())
    if foreign:
        raise usage_error(f"data.kind = {kind} does not read [data] {', '.join(foreign)}")
    if kind == "toy":
        return gen_toy_clusters(_from_section(ClusterSpec, config, "data", seed=seed))
    tiny = {key: _get(config, "data", key, None, convert)
            for key, convert in _TINY_KEYS.items() if key in data}
    return make_tiny_image_dataset(**{"seed": seed, **tiny})


def write_run_files(outdir: Path, command: str, config: dict, seed: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    parser = configparser.ConfigParser(interpolation=None)
    for section, values in config.items():
        parser[section] = {k: str(v) for k, v in values.items()}
    if "train" not in parser:
        parser["train"] = {}
    parser["train"]["seed"] = str(seed)
    with open(outdir / "resolved.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)
    meta = {"command": command,
            "timestamp": datetime.now(timezone.utc).isoformat()}
    with open(outdir / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# check


def cmd_check(args, config: dict, seed: int) -> int:
    """Numeric self-checks; prints one PASS/FAIL line per check."""
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        print(line)
        if not ok:
            failures += 1

    # 1. each ablation's training-objective gradients vs central differences on small networks
    worst = 0.0
    rng = np.random.default_rng(seed)
    for trial in range(5):
        cfg = ModelConfig(input_width=2, feature_width=8, privacy_width=2,
                          disc_hidden=6, perceptual_width=6,
                          seed=int(rng.integers(2**31)))
        bundle = build_models(cfg)
        x = Tensor(rng.standard_normal((3, 2)))
        noise = NoiseSpec(std=1.0, seed=int(rng.integers(2**31)))
        for ablation in ABLATIONS:
            loss_cfg = TrainConfig(use_perceptual=True, ablation=ablation)
            worst = max(worst, grad_check(lambda: objective(x, bundle, loss_cfg, noise)[0],
                                          trained_parameters(bundle, ablation), eps=1e-5))
    report("gradient-check", worst < 1e-4, f"max relative error {worst:.3e}")

    # 2. shared objective at the optimal discriminator == ln4 - 2*JSD
    rng = np.random.default_rng(seed + 1)
    worst_gap = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 33))
        p_r = rng.random(size) + 1e-3
        p_e = rng.random(size) + 1e-3
        pair = DiscreteDistributionPair(p_r / p_r.sum(), p_e / p_e.sum())
        gap = abs(collaborative_loss_at_optimum(pair) - (LOG4 - 2.0 * jsd(pair)))
        worst_gap = max(worst_gap, gap)
    report("divergence-identity", worst_gap < 1e-9, f"max gap {worst_gap:.3e}")

    # 3. a discriminator trained on samples recovers the density ratio
    gap = _optimal_discriminator_recovery_gap(seed + 2)
    report("optimal-discriminator-recovery", gap < 0.05, f"max deviation {gap:.4f}")

    # 4. the attack probe's loss gradients, on a small float64 MLP built as the probe's is
    rng = np.random.default_rng(seed + 3)
    layers = _init_mlp(rng, [2, 6, 6, 3])
    x = Tensor(rng.standard_normal((5, 2)))
    labels = rng.integers(0, 3, size=5)
    err = grad_check(lambda: softmax_cross_entropy(_mlp_forward(layers, x), labels),
                     [t for layer in layers for t in (layer.w, layer.b)], eps=1e-5)
    report("probe-gradient-check", err < 1e-4, f"max relative error {err:.3e}")

    return 1 if failures else 0


def _optimal_discriminator_recovery_gap(seed: int, support: int = 8,
                                        samples: int = 100_000) -> float:
    rng = np.random.default_rng(seed)
    p_r = rng.random(support) + 0.05
    p_r /= p_r.sum()
    p_e = rng.random(support) + 0.05
    p_e /= p_e.sum()
    counts_r = np.bincount(rng.choice(support, size=samples, p=p_r), minlength=support)
    counts_e = np.bincount(rng.choice(support, size=samples, p=p_e), minlength=support)
    # per-bin logits trained on the sampled batches (full-batch via counts)
    logits = Tensor(np.zeros((1, support)), requires_grad=True)
    w_r = Tensor((counts_r / samples).reshape(1, -1))
    w_e = Tensor((counts_e / samples).reshape(1, -1))
    opt = Adam([logits], alpha=0.05)
    for _ in range(4000):
        d = sigmoid(logits)
        backward(tsum(bce(d, 1) * w_r) + tsum(bce(d, 0) * w_e))
        opt.step()
    recovered = 1.0 / (1.0 + np.exp(-logits.data[0]))
    expected = p_r / (p_r + p_e)
    mass = 0.5 * (p_r + p_e)
    keep = mass > 0.01
    return float(np.max(np.abs(recovered[keep] - expected[keep])))


# ---------------------------------------------------------------------------
# training commands


def _toy_snapshot_indices(dataset: LabeledDataset, per_cluster: int,
                          seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        take = min(per_cluster, members.size)
        picks.append(rng.choice(members, size=take, replace=False))
    return np.sort(np.concatenate(picks))


def _train_and_hold_out(dataset: LabeledDataset, tcfg: TrainConfig, seed: int, outdir: Path,
                        **snapshots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train on the train split and save ``checkpoint.npz`` and ``history.csv``.

    Returns the held-out rows, their reconstruction and their encryption,
    whose noise seed is the run seed + 7919. `snapshots` go to ``train``.
    """
    bundle, history = train(dataset.features[dataset.train_idx], tcfg, **snapshots)
    save_checkpoint(bundle, history, outdir / "checkpoint.npz")
    write_history_csv(history, outdir / "history.csv")
    held = Tensor(dataset.features[dataset.heldout_idx])
    noise = NoiseSpec(std=tcfg.noise_std, seed=seed + 7919)
    return held.data, reconstruct(held, bundle).data, encrypt(held, bundle, noise).data


def cmd_train_toy(args, config: dict, seed: int) -> int:
    dataset = dataset_from(config, seed, "toy")
    held_rows = dataset.heldout_idx.size
    if held_rows < 2:
        raise ValueError(f"the held-out split has {held_rows} row and separability needs 2: "
                         f"raise [data] cluster_count or points_per_cluster")
    tcfg = train_config_from(config, seed, dataset)
    acfg = attack_config_from(config, seed)
    plot_n = _get(config, "plot", "points_per_cluster", 200, int)
    if plot_n < 0:
        raise ValueError(f"plot.points_per_cluster must be non-negative, got {plot_n}")
    write_run_files(args.out, args.command, config, seed)

    idx = _toy_snapshot_indices(dataset, plot_n, seed)
    plot_x = Tensor(dataset.features[idx])
    plot_labels = dataset.labels[idx]
    panel_noise = NoiseSpec(std=tcfg.noise_std, seed=seed + 104729)

    snapshots_enc: dict[int, np.ndarray] = {}
    snapshots_rec: dict[int, np.ndarray] = {}

    def snap(iteration: int, bundle: ModelBundle) -> None:
        snapshots_rec[iteration] = reconstruct(plot_x, bundle).data
        snapshots_enc[iteration] = encrypt(plot_x, bundle, panel_noise).data

    marks = {0, 100, 500, tcfg.iterations}
    held, recon, encrypted = _train_and_hold_out(dataset, tcfg, seed, args.out,
                                                 snapshot_iters=marks, snapshot_fn=snap)
    scatter_report(plot_x.data, plot_labels, snapshots_enc, snapshots_rec,
                   csv_path=args.out / "scatter.csv", svg_path=args.out / "scatter.svg")
    sep = separability(recon, encrypted, acfg)
    mse = float(np.mean((recon - held) ** 2))
    print(f"reconstruction mse {mse:.6f}")
    print(f"separability {sep:.4f}")
    print(f"artifacts in {args.out}")
    return 0


def cmd_train_image(args, config: dict, seed: int) -> int:
    dataset = dataset_from(config, seed, "tiny")
    tcfg = train_config_from(config, seed, dataset)
    write_run_files(args.out, args.command, config, seed)
    held, recon, encrypted = _train_and_hold_out(dataset, tcfg, seed, args.out)
    peak = float(dataset.features.max() - dataset.features.min())
    recon_db = psnr(recon, held, peak)
    enc_db = psnr(encrypted, held, peak)
    print(f"psnr reconstructed {recon_db:.2f} dB")
    print(f"psnr encrypted {enc_db:.2f} dB")
    print(f"artifacts in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# obfuscate


def _load_model(checkpoint, width: int) -> ModelBundle:
    """The checkpoint's models; a usage error unless they take `width` input values."""
    bundle, _ = load_checkpoint(checkpoint)
    if bundle.config.input_width != width:
        raise usage_error(f"checkpoint {checkpoint} expects input width "
                          f"{bundle.config.input_width}, the data has width {width}")
    return bundle


def _image_like(img: Image, features: np.ndarray) -> Image:
    """The one-row `features` as an image of `img`'s shape."""
    return Image(img.width, img.height, img.channels,
                 features_to_pixels(features).reshape(img.pixels.shape))


def cmd_obfuscate(args, config: dict, seed: int) -> int:
    if args.method == "model" and not args.checkpoint:
        raise usage_error("--checkpoint is required for method=model")
    img = load_pixmap(args.input)
    if args.method == "pixelate":
        out = pixelate(img, args.factor)
    elif args.method == "blur":
        out = gaussian_blur(img, args.radius)
    elif args.method == "p3":
        pkg = p3_encode(img, args.threshold)
        out = pkg.public_image
        secret_path = args.secret_out or (str(args.output) + ".secret")
        blob = serialize_secret(pkg)
        with open(secret_path, "wb") as fh:
            fh.write(blob)
        print(f"secret part -> {secret_path}")
    else:  # model, the last of the choices argparse allows
        bundle = _load_model(args.checkpoint, img.pixels.size)
        features = Tensor(pixels_to_features(img.pixels).reshape(1, -1))
        noise = NoiseSpec(std=args.noise_std, seed=seed)
        out = _image_like(img, encrypt(features, bundle, noise).data)
        if args.recon_out:
            save_pixmap(_image_like(img, reconstruct(features, bundle).data), args.recon_out)
            print(f"reconstruction -> {args.recon_out}")
    save_pixmap(out, args.output)
    print(f"encrypted image -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# attack / sweep


# Rows per image-space transform call. A whole 800-image blur would need
# ~40 MB of float64 temporaries; 32 rows of 32x32 images keep them near
# 2 MB, and chunks of 16 to 64 rows run equally fast.
_IMAGE_CHUNK_ROWS = 32


def _image_space_method(name, key, dataset, transform) -> ObfuscationMethod:
    """`transform` maps an (n, size, size, channels) uint8 stack to another.

    It is tried on one blank image first, so a bad `[attack] key` value
    fails the command before anything is written, not as a NaN row.
    """
    meta = dataset.meta
    if meta.get("kind") != "tiny-images":
        raise usage_error(f"method {name} needs image data (data.kind = tiny)")
    shape = (-1, meta["size"], meta["size"], meta["channels"])
    try:
        transform(np.zeros((1, *shape[1:]), dtype=np.uint8))
    except ValueError as exc:
        raise ValueError(f"attack.{key}: {exc}") from exc

    def encrypt_fn(features: np.ndarray, rng) -> np.ndarray:
        out = np.empty_like(features)
        for start in range(0, len(features), _IMAGE_CHUNK_ROWS):
            rows = slice(start, start + _IMAGE_CHUNK_ROWS)
            pixels = transform(features_to_pixels(features[rows]).reshape(shape))
            out[rows] = pixels_to_features(pixels).reshape(len(pixels), -1)
        return out

    return ObfuscationMethod(name, encrypt_fn)


def _model_method(name: str, bundle: ModelBundle, noise_std: float) -> ObfuscationMethod:
    def encrypt_fn(features: np.ndarray, rng) -> np.ndarray:
        noise = NoiseSpec(std=noise_std, seed=int(rng.integers(2**62)))
        return encrypt(Tensor(features), bundle, noise).data

    def reconstruct_fn(features: np.ndarray) -> np.ndarray:
        return reconstruct(Tensor(features), bundle).data

    proportion = bundle.config.privacy_width / bundle.config.feature_width
    return ObfuscationMethod(name, encrypt_fn, reconstruct_fn, proportion)


def build_methods(config: dict, dataset: LabeledDataset, noise_std: float) -> list[ObfuscationMethod]:
    raw = config.get("attack", {}).get("methods", "pixelate,blur,p3")
    methods = []
    for name in (m.strip() for m in raw.split(",") if m.strip()):
        if name in BASELINES:
            label, key, default, stack = BASELINES[name]
            value = _get(config, "attack", key, default, int)
            method = _image_space_method(f"{label}({value})", key, dataset,
                                         lambda px, f=stack, v=value: f(px, v))
            if name == "p3":  # P3's secret proportion, averaged over the first 10 images
                method.proportion = float(np.mean([secret_proportion(p3_encode(img, value))
                                                   for img in dataset.images[:10]]))
            methods.append(method)
        elif name in ("model", "msednet"):
            ckpt = config.get("attack", {}).get(f"{name}_checkpoint")
            if not ckpt:
                raise usage_error(f"attack.{name}_checkpoint is required for method {name}")
            label = "Ours" if name == "model" else "MSEDNet"
            methods.append(_model_method(label, _load_model(ckpt, dataset.width), noise_std))
        else:
            raise usage_error(f"unknown attack method {name!r}")
    return methods


def cmd_attack(args, config: dict, seed: int) -> int:
    dataset = dataset_from(config, seed)
    tcfg = train_config_from(config, seed, dataset)
    methods = build_methods(config, dataset, tcfg.noise_std)
    acfg = attack_config_from(config, seed)
    write_run_files(args.out, args.command, config, seed)
    reports = compare_methods(dataset, methods, acfg, csv_path=args.out / "report.csv")
    for r in reports:
        note = f"  [{r.note}]" if r.note else ""
        print(f"{r.method:>16}: accuracy {r.accuracy:.4f} (chance {r.chance:.4f}){note}")
    print(f"report -> {args.out / 'report.csv'}")
    return 0


def _fractions(raw: str) -> list[Fraction]:
    return [Fraction(p.strip()) for p in raw.split(",") if p.strip()]


def cmd_sweep_proportion(args, config: dict, seed: int) -> int:
    dataset = dataset_from(config, seed)
    proportions = _get(config, "sweep", "proportions",
                       _fractions("1/64,1/32,1/16,1/8,1/4,1/2"), _fractions)
    if not proportions:
        raise ValueError("sweep.proportions names no proportion")
    base = train_config_from(config, seed, dataset)
    # every proportion is checked before the first run trains or writes a file
    sweep = [replace(base, privacy_proportion=p) for p in proportions]
    acfg = attack_config_from(config, seed)
    write_run_files(args.out, args.command, config, seed)
    reports = []
    for tcfg in sweep:
        proportion = tcfg.privacy_proportion
        bundle, _ = train(dataset.features[dataset.train_idx], tcfg)
        method = _model_method(f"Ours({proportion})", bundle, tcfg.noise_std)
        r = attack_method(dataset, method, acfg, np.random.default_rng(seed + 31337))
        reports.append(r)
        print(f"proportion {proportion}: recon {r.psnr_recon_db:.2f} dB, "
              f"encrypted {r.psnr_encrypted_db:.2f} dB, attack {r.accuracy:.4f}")
    write_report_csv(reports, args.out / "sweep.csv")
    print(f"sweep -> {args.out / 'sweep.csv'}")
    return 0


def cmd_report(args, config: dict, seed: int) -> int:
    paths = [p for p in (args.run / n for n in ("history.csv", "report.csv", "sweep.csv"))
             if p.exists()]
    if not paths:
        raise CliError(f"no run artifacts found in {args.run}", 3)
    for path in paths:
        try:
            with open(path, newline="", encoding="ascii") as fh:
                rows = [row for row in csv.reader(fh) if row]  # a blank line is no row
        except UnicodeDecodeError as exc:
            raise CliError(f"{path} is not an ASCII run file", 1) from exc
        print(f"== {path.name} ({len(rows[1:])} rows)")
        if path.name == "history.csv" and len(rows) > 1:
            header, first, last = rows[0], rows[1], rows[-1]
            for col, a, b in zip(header[1:], first[1:], last[1:]):
                print(f"  {col}: first {a or '-'} last {b or '-'}")
        else:
            for row in rows[1:]:
                print("  " + ", ".join(row))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsplit",
        description="Learned public/privacy feature splitting, baselines, and attacks")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (fallback: [train] seed, then [data] seed, then 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand carries its handler, which `main` calls as handler(args, config, seed)
    sub.add_parser("check", help="run the numeric self-checks").set_defaults(handler=cmd_check)

    for name, handler, help_text in (
            ("train-toy", cmd_train_toy, "train on 2-D synthetic clusters"),
            ("train-image", cmd_train_image, "train on the tiny-image dataset"),
            ("attack", cmd_attack, "train attack classifiers against methods"),
            ("sweep-proportion", cmd_sweep_proportion, "train across privacy proportions")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("obfuscate", help="obfuscate one pixmap image")
    p.set_defaults(handler=cmd_obfuscate)
    p.add_argument("--method", choices=(*BASELINES, "model"), required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    for name, (_, key, default, _) in BASELINES.items():
        p.add_argument(f"--{key.removeprefix(name + '_')}", type=int, default=default,
                       help=f"as [attack] {key}")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--secret-out", type=Path, default=None)
    p.add_argument("--recon-out", type=Path, default=None)
    p.add_argument("--noise-std", type=float, default=TrainConfig.noise_std)

    p = sub.add_parser("report", help="summarize a run directory")
    p.set_defaults(handler=cmd_report)
    p.add_argument("--run", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        seed = resolve_seed(args.seed, config)
        if args.seed is not None:
            config = _with_run_seed(config, seed)
        return args.handler(args, config, seed)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Python's "Note on SIGPIPE": point stdout at devnull, so that the
        # flush at interpreter exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
