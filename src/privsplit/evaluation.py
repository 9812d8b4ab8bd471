"""Attack protocol, PSNR, distribution separability, and comparison tables.

The attack is the supervised protocol (McPherson et al., arXiv 1609.00408):
a fresh MLP classifier is trained on the encrypted samples with their true
labels, and its held-out accuracy measures how much recognizable signal the
obfuscation leaks. The classifier never shares parameters with the trained
encryption model or its discriminator. :func:`compare_methods` reports each
accuracy with a Wilson 95 % interval over the held-out count.

Both probes, the attack classifier and the separability classifier, train
and predict in float32 (``CLASSIFIER_DTYPE``). They are instruments: each
reads one accuracy off a held-out split (80 images on the tiny-image set),
whose 95 % interval spans many samples, and float32 rounding is far below
that (every float32 accuracy measured against float64 was equal; CHANGES.md
keeps the table). Float32 halves the memory traffic of their Adam updates
and matmuls, which are most of an attack run. Their layers come from the
same float64 draws as before, rounded, and their inputs are cast once. The
encryption model, its discriminator and the perceptual net train in
float64, as do ``privsplit check`` and every bitwise test of training.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .autodiff import Tensor, backward, sigmoid, softmax_cross_entropy, tmean
from .datasets import LabeledDataset
from .models import _init_mlp, _mlp_forward
from .objectives import bce
from .optim import Adam
from .svgplot import Panel, cluster_color, scatter_grid


def psnr(a, b, peak: float) -> float:
    """10*log10(peak^2 / MSE) in dB; +inf for identical inputs."""
    a = np.asarray(getattr(a, "pixels", a), dtype=np.float64)
    b = np.asarray(getattr(b, "pixels", b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


# The dtype both probes train and predict in (see the module docstring).
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


def _train_classifier(features, labels, out_width, loss_kind, config: AttackConfig):
    """A fresh MLP trained on (`features`, `labels`) in the dtype of `features`."""
    rng = np.random.default_rng(config.seed)
    dtype = features.dtype
    widths = [features.shape[1], config.hidden_width, config.hidden_width, out_width]
    layers = _init_mlp(rng, widths, dtype=dtype)
    opt = Adam([t for layer in layers for t in (layer.w, layer.b)], alpha=config.alpha)
    n = features.shape[0]
    for _ in range(config.iterations):
        idx = rng.integers(0, n, size=config.batch_size)
        x = Tensor(features[idx])
        logits = _mlp_forward(layers, x)
        if loss_kind == "softmax":
            loss = softmax_cross_entropy(logits, labels[idx])
        else:
            probs = sigmoid(logits)
            rows = labels[idx].reshape(-1, 1)
            loss = tmean(bce(probs, 1) * Tensor(rows.astype(dtype))
                         + bce(probs, 0) * Tensor((1 - rows).astype(dtype)))
        backward(loss)
        opt.step()
    return layers


def attack_train_eval(encrypted: LabeledDataset, config: AttackConfig | None = None) -> float:
    """Train a fresh classifier on the encrypted train split; held-out accuracy."""
    config = config or AttackConfig()
    if encrypted.class_count < 2:
        raise ValueError("attack needs at least 2 classes")
    # cast straight from the row gather, so no float64 copy of the rows stays alive
    train_x = encrypted.features[encrypted.train_idx].astype(CLASSIFIER_DTYPE, copy=False)
    train_y = encrypted.labels[encrypted.train_idx]
    layers = _train_classifier(train_x, train_y, encrypted.class_count, "softmax", config)
    held = encrypted.features[encrypted.heldout_idx].astype(CLASSIFIER_DTYPE, copy=False)
    logits = _mlp_forward(layers, Tensor(held))
    predicted = logits.data.argmax(axis=1)
    return float((predicted == encrypted.labels[encrypted.heldout_idx]).mean())


def separability(recon_samples, encrypted_samples, config: AttackConfig | None = None) -> float:
    """Held-out accuracy of a fresh binary classifier on the two sample sets.

    0.5 means the sets are indistinguishable, 1.0 maximal discrepancy. The
    classifier is never the training-time discriminator.
    """
    config = config or AttackConfig()
    recon = np.asarray(recon_samples, dtype=CLASSIFIER_DTYPE)
    encrypted = np.asarray(encrypted_samples, dtype=CLASSIFIER_DTYPE)
    if recon.shape[0] == 0 or encrypted.shape[0] == 0:
        raise ValueError("separability needs two non-empty sample sets")
    x = np.concatenate([recon, encrypted])
    y = np.concatenate([np.ones(recon.shape[0], dtype=np.int64),
                        np.zeros(encrypted.shape[0], dtype=np.int64)])
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(x.shape[0])
    x, y = x[order], y[order]
    cut = max(1, x.shape[0] // 10)
    layers = _train_classifier(x[cut:], y[cut:], 1, "bce", config)
    probs = sigmoid(_mlp_forward(layers, Tensor(x[:cut]))).data[:, 0]
    return float(((probs > 0.5).astype(np.int64) == y[:cut]).mean())


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


def compare_methods(dataset: LabeledDataset, methods: list[ObfuscationMethod],
                    config: AttackConfig | None = None,
                    csv_path=None) -> list[AttackReport]:
    """One attack run per method plus Original and Random reference rows.

    PSNRs are computed on the held-out split against the original features,
    with the peak set to the original set's empirical value range. A failing
    method is reported with NaN accuracy and the error in its note; the
    remaining rows are still produced.
    """
    config = config or AttackConfig()
    chance = 1.0 / dataset.class_count
    held = dataset.heldout_idx
    original_held = dataset.features[held]
    peak = float(dataset.features.max() - dataset.features.min())
    seed_root = np.random.SeedSequence(config.seed)
    streams = seed_root.spawn(len(methods) + 1)

    original = attack_train_eval(dataset, _reseed(config, streams[0]))
    reports = [
        AttackReport("Original", original, chance, None, math.inf, None,
                     **_interval(original, held.size)),
        AttackReport("Random", chance, chance, None, None, None),
    ]
    for method, stream in zip(methods, streams[1:]):
        cfg = _reseed(config, stream)
        try:
            rng = np.random.default_rng(stream)
            encrypted = method.encrypt(dataset.features, rng)
            if encrypted.shape != dataset.features.shape:
                raise ValueError(f"method {method.name} changed the feature shape")
            accuracy = attack_train_eval(dataset.with_features(encrypted), cfg)
            psnr_enc = psnr(encrypted[held], original_held, peak)
            psnr_rec = None
            if method.reconstruct is not None:
                recon = method.reconstruct(dataset.features)
                psnr_rec = psnr(recon[held], original_held, peak)
            reports.append(AttackReport(method.name, accuracy, chance,
                                        psnr_rec, psnr_enc, method.proportion,
                                        **_interval(accuracy, held.size)))
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
        if isinstance(v, float) and math.isinf(v):
            return "inf"
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
                   csv_path=None, svg_path=None) -> list[tuple]:
    """Rows (x, y, cluster, set, iteration) plus an optional 3-row panel grid.

    Top row: the original samples. Middle: encrypted outputs per recorded
    iteration. Bottom: reconstructed outputs per recorded iteration.
    """
    original = np.asarray(original, dtype=np.float64)
    labels = np.asarray(labels)
    for name, sets in (("original", {0: original}),
                       ("encrypted", encrypted), ("reconstructed", reconstructed)):
        for it, arr in sets.items():
            arr = np.asarray(arr)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"{name} samples at iteration {it} are not 2-D points")
            if arr.shape[0] != labels.shape[0]:
                raise ValueError(f"{name} samples at iteration {it} disagree with label count")

    rows: list[tuple] = []
    for (x, y), c in zip(original, labels):
        rows.append((float(x), float(y), int(c), "original", ""))
    for set_name, sets in (("encrypted", encrypted), ("reconstructed", reconstructed)):
        for it in sorted(sets):
            for (x, y), c in zip(np.asarray(sets[it], dtype=np.float64), labels):
                rows.append((float(x), float(y), int(c), set_name, it))

    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(("x", "y", "cluster", "set", "iteration"))
            for row in rows:
                writer.writerow([repr(row[0]), repr(row[1]), row[2], row[3], row[4]])

    if svg_path is not None:
        def panel(title, pts):
            return Panel(title, [(float(x), float(y), cluster_color(int(c)))
                                 for (x, y), c in zip(pts, labels)])

        grid = [
            [panel("original", original)],
            [panel(f"encrypted @ {it}", np.asarray(encrypted[it])) for it in sorted(encrypted)],
            [panel(f"reconstructed @ {it}", np.asarray(reconstructed[it]))
             for it in sorted(reconstructed)],
        ]
        scatter_grid([row for row in grid if row], svg_path)
    return rows
