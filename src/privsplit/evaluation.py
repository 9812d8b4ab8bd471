"""Attack protocol, PSNR, distribution separability, and comparison tables.

The attack is the supervised protocol (McPherson et al., arXiv 1609.00408):
a fresh MLP classifier is trained on the encrypted samples with their true
labels, and its held-out accuracy measures how much recognizable signal the
obfuscation leaks. The classifier never shares parameters with the trained
encryption model or its discriminator. :func:`attack_method` reports each
accuracy with a Wilson 95 % interval over the held-out count. There is one
probe: :func:`separability` runs the same classifier on reconstructed
against encrypted samples, split by source (a classifier two-sample test,
Lopez-Paz & Oquab, arXiv 1610.06545).

The probe trains and predicts in float32 (``CLASSIFIER_DTYPE``). It is an
instrument: it reads one accuracy off a held-out split (80 images on the
tiny-image set), whose 95 % interval spans many samples, and float32
rounding is far below that (every float32 accuracy measured against float64
was equal; CHANGES.md keeps the table). Float32 halves the memory traffic of
its Adam updates and matmuls, which are most of an attack run. The
encryption model, its discriminator and the perceptual net train in
float64, as do ``privsplit check`` and every bitwise test of training.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .autodiff import Tensor, backward, softmax_cross_entropy
from .datasets import LabeledDataset, _split_indices
from .models import _init_mlp, _mlp_forward, frozen
from .optim import Adam
from .svgplot import Panel, cluster_color, scatter_grid


def psnr(a, b, peak: float) -> float:
    """10*log10(peak^2 / MSE) in dB; +inf for identical inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


# The dtype the probe trains and predicts in (see the module docstring).
CLASSIFIER_DTYPE = np.float32


@dataclass
class AttackConfig:
    hidden_width: int = 128
    iterations: int = 800
    batch_size: int = 64
    alpha: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_width", "iterations", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"attack {name} must be at least 1, got {value}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"attack alpha must be finite and positive, got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"attack seed must be non-negative, got {self.seed}")


def _train_classifier(features, labels, out_width, config: AttackConfig):
    """A fresh softmax MLP trained on (`features`, `labels`) in the dtype of `features`.

    Its layers come back in tensors that need no gradient, so the optimizer's
    gradient buffer dies here and a forward pass through them records no graph.
    """
    rng = np.random.default_rng(config.seed)
    widths = [features.shape[1], config.hidden_width, config.hidden_width, out_width]
    layers = _init_mlp(rng, widths, dtype=features.dtype)
    opt = Adam([t for layer in layers for t in (layer.w, layer.b)], alpha=config.alpha)
    n = features.shape[0]
    for _ in range(config.iterations):
        idx = rng.integers(0, n, size=config.batch_size)
        x = Tensor(features[idx])
        backward(softmax_cross_entropy(_mlp_forward(layers, x), labels[idx]))
        opt.step()
    return frozen(layers)


def attack_train_eval(encrypted: LabeledDataset, config: AttackConfig) -> float:
    """Train a fresh classifier on the encrypted train split; held-out accuracy."""
    if encrypted.class_count < 2:
        raise ValueError("attack needs at least 2 classes")
    # cast straight from the row gather, so no float64 copy of the rows stays alive
    train_x = encrypted.features[encrypted.train_idx].astype(CLASSIFIER_DTYPE, copy=False)
    train_y = encrypted.labels[encrypted.train_idx]
    layers = _train_classifier(train_x, train_y, encrypted.class_count, config)
    held = encrypted.features[encrypted.heldout_idx].astype(CLASSIFIER_DTYPE, copy=False)
    logits = _mlp_forward(layers, Tensor(held))
    predicted = logits.data.argmax(axis=1)
    return float((predicted == encrypted.labels[encrypted.heldout_idx]).mean())


def separability(recon_samples, encrypted_samples, config: AttackConfig) -> float:
    """Held-out accuracy of the attack classifier told recon (1) from encrypted (0).

    Row i of both sets comes from source i, and the split is drawn over
    sources, so a probe cannot score by memorizing the other row of a pair.
    0.5 means the sets are indistinguishable, 1.0 maximal discrepancy.
    """
    recon, encrypted = np.asarray(recon_samples), np.asarray(encrypted_samples)
    if min(len(recon), len(encrypted)) < 2:  # a source to train on and one to hold out
        raise ValueError("separability needs two non-empty sample sets of at least 2 rows")
    if recon.shape != encrypted.shape:
        raise ValueError(f"separability needs paired sets of equal shape, "
                         f"got {recon.shape} and {encrypted.shape}")
    n = recon.shape[0]
    train, held = _split_indices(n, np.random.default_rng(config.seed))
    pairs = LabeledDataset(features=np.concatenate([recon, encrypted]),
                           labels=np.repeat([1, 0], n), class_count=2,
                           train_idx=np.concatenate([train, train + n]),
                           heldout_idx=np.concatenate([held, held + n]))
    return attack_train_eval(pairs, config)


# ---------------------------------------------------------------------------
# method comparison tables


@dataclass
class ObfuscationMethod:
    """An encryption transform in feature space, plus optionals for reporting."""

    name: str
    encrypt: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    reconstruct: Callable[[np.ndarray], np.ndarray] | None = None
    proportion: float | None = None


@dataclass
class AttackReport:
    method: str
    accuracy: float
    chance: float
    psnr_recon_db: float | None
    psnr_encrypted_db: float | None
    proportion: float | None
    note: str = ""
    ci_low: float | None = None  # Wilson 95 % interval of `accuracy`; None when
    ci_high: float | None = None  # no classifier was trained (Random, a failed method)


# the two-sided 95 % quantile of the standard normal distribution
WILSON_Z = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % interval of a binomial proportion, `successes` of `n`."""
    if n < 1 or not 0 <= successes <= n:
        raise ValueError(f"wilson interval needs 0 <= successes <= n and n >= 1, "
                         f"got {successes} of {n}")
    p = successes / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    # at 0 or n successes the end is exactly 0 or 1, where rounding could miss it
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def _interval(accuracy: float, n: int) -> dict[str, float]:
    """The ``ci_low``/``ci_high`` fields of an accuracy read from `n` held-out samples."""
    low, high = wilson_interval(round(accuracy * n), n)
    return {"ci_low": low, "ci_high": high}


def attack_method(dataset: LabeledDataset, method: ObfuscationMethod,
                  config: AttackConfig, rng: np.random.Generator) -> AttackReport:
    """The report row of `method`, whose encryption of the whole set is attacked.

    `method.encrypt(dataset.features, rng)` must keep the feature shape. The
    accuracy, with its Wilson interval, is :func:`attack_train_eval`'s under
    `config`. The PSNRs compare the held-out encrypted (and reconstructed)
    rows with the original ones, the peak being the set's value range;
    `method.reconstruct` is given only the held-out rows.
    """
    held = dataset.heldout_idx
    original_held = dataset.features[held]
    peak = float(dataset.features.max() - dataset.features.min())
    encrypted = method.encrypt(dataset.features, rng)
    if encrypted.shape != dataset.features.shape:
        raise ValueError(f"method {method.name} changed the feature shape")
    accuracy = attack_train_eval(dataset.with_features(encrypted), config)
    psnr_enc = psnr(encrypted[held], original_held, peak)
    psnr_rec = None
    if method.reconstruct is not None:
        psnr_rec = psnr(method.reconstruct(original_held), original_held, peak)
    return AttackReport(method.name, accuracy, 1.0 / dataset.class_count, psnr_rec, psnr_enc,
                        method.proportion, **_interval(accuracy, held.size))


def compare_methods(dataset: LabeledDataset, methods: list[ObfuscationMethod],
                    config: AttackConfig, csv_path=None) -> list[AttackReport]:
    """One :func:`attack_method` row per method plus Original and Random reference rows.

    Original attacks the untouched features; it must not fail. A failing
    method is reported with NaN accuracy and the error in its note; the
    remaining rows are still produced.
    """
    chance = 1.0 / dataset.class_count
    streams = np.random.SeedSequence(config.seed).spawn(len(methods) + 1)
    original = ObfuscationMethod("Original", lambda features, rng: features)
    reports = [
        attack_method(dataset, original, _reseed(config, streams[0]),
                      np.random.default_rng(streams[0])),
        AttackReport("Random", chance, chance, None, None, None),
    ]
    for method, stream in zip(methods, streams[1:]):
        try:
            reports.append(attack_method(dataset, method, _reseed(config, stream),
                                         np.random.default_rng(stream)))
        except (ValueError, RuntimeError) as exc:
            reports.append(AttackReport(method.name, math.nan, chance,
                                        None, None, method.proportion, note=str(exc)))
    if csv_path is not None:
        write_report_csv(reports, csv_path)
    return reports


def _reseed(config: AttackConfig, stream: np.random.SeedSequence) -> AttackConfig:
    seed = int(stream.generate_state(1, np.uint64)[0] % np.iinfo(np.int64).max)
    return replace(config, seed=seed)


REPORT_COLUMNS = ("method", "accuracy", "chance", "psnr_recon_db",
                  "psnr_encrypted_db", "proportion", "ci_low", "ci_high")


def write_report_csv(reports: list[AttackReport], path) -> None:
    def cell(v):
        if v is None:
            return ""
        return repr(float(v)) if isinstance(v, float) else str(v)

    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([r.method, cell(r.accuracy), cell(r.chance),
                             cell(r.psnr_recon_db), cell(r.psnr_encrypted_db),
                             cell(r.proportion), cell(r.ci_low), cell(r.ci_high)])


# ---------------------------------------------------------------------------
# scatter reporting


def scatter_report(original: np.ndarray, labels: np.ndarray,
                   encrypted: dict[int, np.ndarray], reconstructed: dict[int, np.ndarray],
                   csv_path=None, svg_path=None) -> None:
    """Write rows (x, y, cluster, set, iteration) and an optional 3-row panel grid.

    CSV rows: the original samples (iteration empty), then the encrypted
    and then the reconstructed outputs, each by recorded iteration. Grid:
    the original samples on top, encrypted outputs per recorded iteration
    in the middle, reconstructed ones at the bottom. Both files are written
    straight from the arrays, row by row, so no copy of the report is built.
    """
    labels = np.asarray(labels)
    sets = {"original": {0: original}, "encrypted": encrypted, "reconstructed": reconstructed}
    points = {}  # (set, iteration) -> its (n, 2) float64 points, in report order
    for name, by_iteration in sets.items():
        for it in sorted(by_iteration):
            arr = np.asarray(by_iteration[it], dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"{name} samples at iteration {it} are not 2-D points")
            if arr.shape[0] != labels.shape[0]:
                raise ValueError(f"{name} samples at iteration {it} disagree with label count")
            points[name, it] = arr

    if csv_path is not None:
        clusters = [int(c) for c in labels.tolist()]
        with open(csv_path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(("x", "y", "cluster", "set", "iteration"))
            for (name, it), arr in points.items():
                iteration = "" if name == "original" else it
                writer.writerows((repr(x), repr(y), c, name, iteration) for x, y, c
                                 in zip(arr[:, 0].tolist(), arr[:, 1].tolist(), clusters))

    if svg_path is not None:
        colors = [cluster_color(c) for c in labels.tolist()]
        grid = [[Panel(name if name == "original" else f"{name} @ {it}", arr, colors)
                 for (set_name, it), arr in points.items() if set_name == name]
                for name in sets]
        scatter_grid([row for row in grid if row], svg_path)
