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
ones; ``lam`` is spelled ``lambda``, and ``TrainConfig.input_width`` comes
from the data. The seeds default to the run seed (the attack's to run seed
+ 1). The keys that are not fields are ``[data]`` ``kind``, ``source_dir``,
``size``, ``class_count`` and ``per_class`` (the tiny-image set);
``[attack]`` ``methods``, ``model_checkpoint``, ``msednet_checkpoint``,
``pixelate_factor``, ``blur_radius`` and ``p3_threshold``; ``[sweep]``
``proportions``; and ``[plot]`` ``points_per_cluster``. A sweep trains each
proportion for ``[train] iterations``.

Exit codes: 0 success, 1 check/assertion failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from .autodiff import Tensor, grad_check
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
    attack_train_eval,
    compare_methods,
    psnr,
    scatter_report,
    separability,
)
from .image import Image, load_pixmap, save_pixmap
from .models import (
    ModelBundle,
    ModelConfig,
    NoiseSpec,
    build_models,
    discriminate,
    encrypt,
    perceptual_features,
    reconstruct,
)
from .obfuscation import gaussian_blur, gaussian_blur_stack, pixelate, pixelate_stack
from .objectives import (
    LOG4,
    DiscreteDistributionPair,
    collaborative_loss_at_optimum,
    generator_adversarial_loss,
    jsd,
    reconstruction_loss,
)
from .p3 import p3_encode, p3_public_stack, serialize_secret
from .training import (
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)

SEED_ENV = "PRIVSPLIT_SEED"
# the image baselines' defaults, for `attack` and `obfuscate` alike
PIXELATE_FACTOR, BLUR_RADIUS, P3_THRESHOLD = 20, 16, 1


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
               "pixelate_factor", "blur_radius", "p3_threshold"},
    "sweep": {"proportions"},
    "plot": {"points_per_cluster"},
}
_SECTION_CONFIGS = {"data": ClusterSpec, "train": TrainConfig, "attack": AttackConfig}
_INI_NAMES = {"lam": "lambda"}
_TINY_KEYS = {"source_dir": str, "size": int, "class_count": int, "per_class": int, "seed": int}


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


def resolve_seed(flag_seed, config: dict) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    for section in ("train", "data"):
        value = _get(config, section, "seed", None, int)
        if value is not None:
            return value
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise usage_error(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return 0


_CONVERTERS = {"int": int, "float": float, "bool": _bool, "str": str, "Fraction": Fraction}


def _from_section(cls, config: dict, section: str, **defaults):
    """`cls` from the INI values of `section`; `defaults`, then the field defaults, fill the rest."""
    for key, f in _ini_fields(cls):
        if key in config.get(section, {}):
            defaults[f.name] = _get(config, section, key, None, _CONVERTERS[f.type])
    return cls(**defaults)


def attack_config_from(config: dict, seed: int) -> AttackConfig:
    return _from_section(AttackConfig, config, "attack", seed=seed + 1)


def dataset_from(config: dict, seed: int) -> LabeledDataset:
    kind = _get(config, "data", "kind", "toy", str)
    if kind == "toy":
        return gen_toy_clusters(_from_section(ClusterSpec, config, "data", seed=seed))
    if kind == "tiny":
        tiny = {key: _get(config, "data", key, None, convert)
                for key, convert in _TINY_KEYS.items() if key in config.get("data", {})}
        return make_tiny_image_dataset(**{"seed": seed, **tiny})
    raise usage_error(f"data.kind must be toy or tiny, got {kind!r}")


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


def cmd_check(seed: int = 0, fault_hook=None, out=None) -> int:
    """Numeric self-checks; prints one PASS/FAIL line per check to `out` (stdout)."""
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        print(line, file=out)
        if not ok:
            failures += 1

    # 1. full-loss gradients vs central differences on small random networks
    worst = 0.0
    rng = np.random.default_rng(seed)
    for trial in range(5):
        cfg = ModelConfig(input_width=2, feature_width=8, privacy_width=2,
                          disc_hidden=6, perceptual_width=6,
                          seed=int(rng.integers(2**31)))
        bundle = build_models(cfg)
        x = Tensor(rng.standard_normal((3, 2)))
        noise = NoiseSpec(std=1.0, seed=int(rng.integers(2**31)))

        def full_loss():
            x_r = reconstruct(x, bundle)
            x_e = encrypt(x, bundle, noise)
            l_ad = generator_adversarial_loss(
                discriminate(x_r, bundle), discriminate(x_e, bundle))
            _, _, recon = reconstruction_loss(
                x_r, x, phi=lambda t: perceptual_features(t, bundle), lam=0.01)
            return l_ad + recon

        err = grad_check(full_loss, bundle.all_parameters(), eps=1e-5,
                         ) if fault_hook is None else fault_hook(full_loss, bundle)
        worst = max(worst, err)
    report("gradient-check", worst < 1e-4, f"max relative error {worst:.3e}")

    # 2. shared objective at the optimal discriminator == ln4 - 2*JSD
    rng = np.random.default_rng(seed + 1)
    worst_gap = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 33))
        p_r = rng.random(size) + 1e-3
        p_e = rng.random(size) + 1e-3
        pair = DiscreteDistributionPair(list(range(size)), p_r / p_r.sum(), p_e / p_e.sum())
        gap = abs(collaborative_loss_at_optimum(pair) - (LOG4 - 2.0 * jsd(pair)))
        worst_gap = max(worst_gap, gap)
    report("divergence-identity", worst_gap < 1e-9, f"max gap {worst_gap:.3e}")

    # 3. a discriminator trained on samples recovers the density ratio
    gap = _optimal_discriminator_recovery_gap(seed + 2)
    report("optimal-discriminator-recovery", gap < 0.05, f"max deviation {gap:.4f}")

    return 1 if failures else 0


def _optimal_discriminator_recovery_gap(seed: int, support: int = 8,
                                        samples: int = 100_000) -> float:
    from .autodiff import backward, sigmoid, tsum
    from .objectives import bce
    from .optim import Adam

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


def cmd_train_toy(config: dict, outdir: Path, seed: int) -> int:
    dataset = dataset_from(config, seed)
    if dataset.width != 2:
        raise usage_error("train-toy needs 2-D data (data.kind = toy)")
    tcfg = _from_section(TrainConfig, config, "train", seed=seed, input_width=2)
    acfg = attack_config_from(config, tcfg.seed)
    write_run_files(outdir, "train-toy", config, tcfg.seed)

    plot_n = _get(config, "plot", "points_per_cluster", 200, int)
    idx = _toy_snapshot_indices(dataset, plot_n, tcfg.seed)
    plot_x = Tensor(dataset.features[idx])
    plot_labels = dataset.labels[idx]
    panel_noise = NoiseSpec(std=tcfg.noise_std, seed=tcfg.seed + 104729)

    snapshots_enc: dict[int, np.ndarray] = {}
    snapshots_rec: dict[int, np.ndarray] = {}

    def snap(iteration: int, bundle: ModelBundle) -> None:
        snapshots_rec[iteration] = reconstruct(plot_x, bundle).data
        snapshots_enc[iteration] = encrypt(plot_x, bundle, panel_noise).data

    marks = {0, 100, 500, tcfg.iterations}
    bundle, history = train(dataset.features[dataset.train_idx], tcfg,
                            snapshot_iters=marks, snapshot_fn=snap)
    save_checkpoint(bundle, history, outdir / "checkpoint.npz")
    write_history_csv(history, outdir / "history.csv")
    scatter_report(plot_x.data, plot_labels, snapshots_enc, snapshots_rec,
                   csv_path=outdir / "scatter.csv", svg_path=outdir / "scatter.svg")
    held = Tensor(dataset.features[dataset.heldout_idx])
    recon = reconstruct(held, bundle).data
    encrypted = encrypt(held, bundle, NoiseSpec(std=tcfg.noise_std,
                                                seed=tcfg.seed + 7919)).data
    sep = separability(recon, encrypted, acfg)
    mse = float(np.mean((recon - held.data) ** 2))
    print(f"reconstruction mse {mse:.6f}")
    print(f"separability {sep:.4f}")
    print(f"artifacts in {outdir}")
    return 0


def cmd_train_image(config: dict, outdir: Path, seed: int) -> int:
    dataset = dataset_from({**config, "data": {**config.get("data", {}), "kind": "tiny"}}, seed)
    tcfg = _from_section(TrainConfig, config, "train", seed=seed, input_width=dataset.width,
                         use_perceptual=True)
    write_run_files(outdir, "train-image", config, tcfg.seed)
    bundle, history = train(dataset.features[dataset.train_idx], tcfg)
    save_checkpoint(bundle, history, outdir / "checkpoint.npz")
    write_history_csv(history, outdir / "history.csv")
    held = Tensor(dataset.features[dataset.heldout_idx])
    peak = float(dataset.features.max() - dataset.features.min())
    recon_db = psnr(reconstruct(held, bundle).data, held.data, peak)
    enc = encrypt(held, bundle, NoiseSpec(std=tcfg.noise_std, seed=tcfg.seed + 7919))
    enc_db = psnr(enc.data, held.data, peak)
    print(f"psnr reconstructed {recon_db:.2f} dB")
    print(f"psnr encrypted {enc_db:.2f} dB")
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# obfuscate


def _bundle_for_image(checkpoint: str, img: Image) -> ModelBundle:
    bundle, _ = load_checkpoint(checkpoint)
    if bundle.input_width != img.width * img.height * img.channels:
        raise usage_error(
            f"checkpoint expects input width {bundle.input_width}, image has "
            f"{img.width * img.height * img.channels} values")
    return bundle


def cmd_obfuscate(args) -> int:
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
    elif args.method == "model":
        if not args.checkpoint:
            raise usage_error("--checkpoint is required for method=model")
        bundle = _bundle_for_image(args.checkpoint, img)
        features = pixels_to_features(img.pixels).reshape(1, -1)
        noise = NoiseSpec(std=args.noise_std, seed=args.seed or 0)
        encrypted = encrypt(Tensor(features), bundle, noise).data
        out = Image(img.width, img.height, img.channels,
                    features_to_pixels(encrypted).reshape(img.pixels.shape))
        if args.recon_out:
            recon = reconstruct(Tensor(features), bundle).data
            recon_img = Image(img.width, img.height, img.channels,
                              features_to_pixels(recon).reshape(img.pixels.shape))
            save_pixmap(recon_img, args.recon_out)
            print(f"reconstruction -> {args.recon_out}")
    else:  # pragma: no cover - argparse restricts choices
        raise usage_error(f"unknown method {args.method}")
    save_pixmap(out, args.output)
    print(f"encrypted image -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# attack / sweep


# Rows per image-space transform call. A whole 800-image blur would need
# ~40 MB of float64 temporaries; 32 rows of 32x32 images keep them near
# 2 MB, and chunks of 16 to 64 rows run equally fast.
_IMAGE_CHUNK_ROWS = 32


def _image_space_method(name, dataset, transform) -> ObfuscationMethod:
    """`transform` maps an (n, size, size, channels) uint8 stack to another."""
    meta = dataset.meta
    if meta.get("kind") != "tiny-images":
        raise usage_error(f"method {name} needs image data (data.kind = tiny)")
    shape = (-1, meta["size"], meta["size"], meta["channels"])

    def encrypt_fn(features: np.ndarray, rng) -> np.ndarray:
        out = np.empty_like(features)
        for start in range(0, len(features), _IMAGE_CHUNK_ROWS):
            rows = slice(start, start + _IMAGE_CHUNK_ROWS)
            pixels = transform(features_to_pixels(features[rows]).reshape(shape))
            out[rows] = pixels_to_features(pixels).reshape(len(pixels), -1)
        return out

    return ObfuscationMethod(name, encrypt_fn)


def _model_method(name: str, checkpoint: str, noise_std: float,
                  expected_width: int) -> ObfuscationMethod:
    bundle, _ = load_checkpoint(checkpoint)
    if bundle.input_width != expected_width:
        raise usage_error(
            f"checkpoint {checkpoint} expects width {bundle.input_width}, "
            f"dataset has {expected_width}")

    def encrypt_fn(features: np.ndarray, rng) -> np.ndarray:
        noise = NoiseSpec(std=noise_std, seed=int(rng.integers(2**62)))
        return encrypt(Tensor(features), bundle, noise).data

    def reconstruct_fn(features: np.ndarray) -> np.ndarray:
        return reconstruct(Tensor(features), bundle).data

    proportion = bundle.privacy_width / bundle.feature_width
    return ObfuscationMethod(name, encrypt_fn, reconstruct_fn, proportion)


def build_methods(config: dict, dataset: LabeledDataset, noise_std: float) -> list[ObfuscationMethod]:
    raw = config.get("attack", {}).get("methods", "pixelate,blur,p3")
    methods = []
    for name in (m.strip() for m in raw.split(",") if m.strip()):
        if name == "pixelate":
            factor = _get(config, "attack", "pixelate_factor", PIXELATE_FACTOR, int)
            methods.append(_image_space_method(
                f"Pixelation({factor})", dataset,
                lambda px, f=factor: pixelate_stack(px, f)))
        elif name == "blur":
            radius = _get(config, "attack", "blur_radius", BLUR_RADIUS, int)
            methods.append(_image_space_method(
                f"Blurring({radius})", dataset,
                lambda px, r=radius: gaussian_blur_stack(px, r)))
        elif name == "p3":
            threshold = _get(config, "attack", "p3_threshold", P3_THRESHOLD, int)
            method = _image_space_method(
                f"P3({threshold})", dataset, lambda px, t=threshold: p3_public_stack(px, t))
            method.proportion = _mean_secret_proportion(dataset, threshold)
            methods.append(method)
        elif name == "model":
            ckpt = config.get("attack", {}).get("model_checkpoint")
            if not ckpt:
                raise usage_error("attack.model_checkpoint is required for method model")
            methods.append(_model_method("Ours", ckpt, noise_std, dataset.width))
        elif name == "msednet":
            ckpt = config.get("attack", {}).get("msednet_checkpoint")
            if not ckpt:
                raise usage_error("attack.msednet_checkpoint is required for method msednet")
            methods.append(_model_method("MSEDNet", ckpt, noise_std, dataset.width))
        else:
            raise usage_error(f"unknown attack method {name!r}")
    return methods


def _mean_secret_proportion(dataset: LabeledDataset, threshold: int,
                            sample_count: int = 10) -> float:
    from .p3 import secret_proportion

    images = dataset.images[:sample_count] if dataset.images else []
    if not images:
        return math.nan
    return float(np.mean([secret_proportion(p3_encode(img, threshold)) for img in images]))


def cmd_attack(config: dict, outdir: Path, seed: int) -> int:
    dataset = dataset_from(config, seed)
    noise_std = _get(config, "train", "noise_std", TrainConfig.noise_std, float)
    methods = build_methods(config, dataset, noise_std)
    acfg = attack_config_from(config, seed)
    write_run_files(outdir, "attack", config, seed)
    reports = compare_methods(dataset, methods, acfg, csv_path=outdir / "report.csv")
    for r in reports:
        note = f"  [{r.note}]" if r.note else ""
        print(f"{r.method:>16}: accuracy {r.accuracy:.4f} (chance {r.chance:.4f}){note}")
    print(f"report -> {outdir / 'report.csv'}")
    return 0


def cmd_sweep_proportion(config: dict, outdir: Path, seed: int) -> int:
    dataset = dataset_from(config, seed)
    raw = config.get("sweep", {}).get("proportions", "1/64,1/32,1/16,1/8,1/4,1/2")
    base = _from_section(TrainConfig, config, "train", seed=seed, input_width=dataset.width,
                         use_perceptual=dataset.meta.get("kind") == "tiny-images")
    # every proportion is checked before the first run trains or writes a file
    sweep = [replace(base, privacy_proportion=Fraction(p.strip()))
             for p in raw.split(",") if p.strip()]
    acfg = attack_config_from(config, seed)
    write_run_files(outdir, "sweep-proportion", config, seed)
    peak = float(dataset.features.max() - dataset.features.min())
    held = dataset.heldout_idx
    rows = []
    for tcfg in sweep:
        proportion = tcfg.privacy_proportion
        bundle, _ = train(dataset.features[dataset.train_idx], tcfg)
        recon = reconstruct(Tensor(dataset.features), bundle).data
        rng = np.random.default_rng(tcfg.seed + 31337)
        noise = NoiseSpec(std=tcfg.noise_std, seed=int(rng.integers(2**62)))
        encrypted = encrypt(Tensor(dataset.features), bundle, noise).data
        accuracy = attack_train_eval(dataset.with_features(encrypted), acfg)
        rows.append((str(proportion),
                     psnr(recon[held], dataset.features[held], peak),
                     psnr(encrypted[held], dataset.features[held], peak),
                     accuracy))
        print(f"proportion {proportion}: recon {rows[-1][1]:.2f} dB, "
              f"encrypted {rows[-1][2]:.2f} dB, attack {accuracy:.4f}")
    with open(outdir / "sweep.csv", "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(("proportion", "psnr_recon_db", "psnr_encrypted_db", "accuracy"))
        for row in rows:
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
    print(f"sweep -> {outdir / 'sweep.csv'}")
    return 0


def cmd_report(run_dir: Path, out=None) -> int:
    found = False
    for name in ("history.csv", "report.csv", "sweep.csv"):
        path = run_dir / name
        if not path.exists():
            continue
        found = True
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        print(f"== {name} ({len(rows) - 1} rows)", file=out)
        if name == "history.csv" and len(rows) > 1:
            header, first, last = rows[0], rows[1], rows[-1]
            for col, a, b in zip(header[1:], first[1:], last[1:]):
                a_txt = a if a else "-"
                b_txt = b if b else "-"
                print(f"  {col}: first {a_txt} last {b_txt}", file=out)
        else:
            for row in rows[1:]:
                print("  " + ", ".join(row), file=out)
    if not found:
        raise CliError(f"no run artifacts found in {run_dir}", 3)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsplit",
        description="Learned public/privacy feature splitting, baselines, and attacks")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"global seed (fallback: ${SEED_ENV}, then 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="run the numeric self-checks")

    for name, help_text in (("train-toy", "train on 2-D synthetic clusters"),
                            ("train-image", "train on the tiny-image dataset"),
                            ("attack", "train attack classifiers against methods"),
                            ("sweep-proportion", "train across privacy proportions")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("obfuscate", help="obfuscate one pixmap image")
    p.add_argument("--method", choices=("pixelate", "blur", "p3", "model"), required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--factor", type=int, default=PIXELATE_FACTOR, help="pixelation grid size")
    p.add_argument("--radius", type=int, default=BLUR_RADIUS, help="blur radius")
    p.add_argument("--threshold", type=int, default=P3_THRESHOLD, help="coefficient threshold")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--secret-out", type=Path, default=None)
    p.add_argument("--recon-out", type=Path, default=None)
    p.add_argument("--noise-std", type=float, default=TrainConfig.noise_std)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        seed = resolve_seed(args.seed, config)
        if args.command == "check":
            return cmd_check(seed)
        if args.command == "train-toy":
            return cmd_train_toy(config, args.out, seed)
        if args.command == "train-image":
            return cmd_train_image(config, args.out, seed)
        if args.command == "obfuscate":
            args.seed = seed
            return cmd_obfuscate(args)
        if args.command == "attack":
            return cmd_attack(config, args.out, seed)
        if args.command == "sweep-proportion":
            return cmd_sweep_proportion(config, args.out, seed)
        if args.command == "report":
            return cmd_report(args.run)
        raise usage_error(f"unknown command {args.command}")  # pragma: no cover
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
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
