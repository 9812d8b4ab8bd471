"""Labeled datasets, one builder per source: 2-D clusters, gratings, image folders.

The toy clusters mirror the ten-blob setup used for the 2-D pipeline. Their
geometry is fixed, so that toy numbers compare across runs: the centres are
drawn uniformly from the square [-TOY_CENTER_BOX, TOY_CENTER_BOX]^2, each
point is its centre plus Gaussian noise of standard deviation
TOY_CLUSTER_STD, and then the whole set is normalized. Only the cluster
count, the points per cluster and the seed are set. The tiny-image generator
synthesizes class-distinct gratings (orientation plus a class-correlated
brightness offset) as a desk-scale stand-in for a labeled image corpus. A
folder of pixmaps fixes its classes, samples per class and image size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .image import Image, load_pixmap, to_u8


TOY_CENTER_BOX = 4.0
TOY_CLUSTER_STD = 0.25


@dataclass
class ClusterSpec:
    cluster_count: int = 10
    points_per_cluster: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.cluster_count < 2:
            raise ValueError(f"need at least 2 clusters, got {self.cluster_count}")
        if self.points_per_cluster < 1:
            raise ValueError("need at least one point per cluster")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class LabeledDataset:
    """Features plus labels with a seeded train/held-out split."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int
    class_count: int
    train_idx: np.ndarray
    heldout_idx: np.ndarray
    images: list[Image] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(f"labels must lie in [0, {self.class_count})")
        train = set(self.train_idx.tolist())
        held = set(self.heldout_idx.tolist())
        if not train or not held:
            raise ValueError("both splits must be non-empty")
        if train & held:
            raise ValueError("train and held-out indices overlap")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def with_features(self, features: np.ndarray) -> "LabeledDataset":
        """Same labels and split over transformed features."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != self.size:
            raise ValueError("replacement features must keep the sample count")
        return replace(self, features=features, images=None)


def _split_indices(n: int, rng: np.random.Generator, heldout_fraction: float = 0.1):
    order = rng.permutation(n)
    cut = max(1, int(round(n * heldout_fraction)))
    return np.sort(order[cut:]), np.sort(order[:cut])


def gen_toy_clusters(spec: ClusterSpec) -> LabeledDataset:
    """Seeded Gaussian blobs, normalized to zero mean and unit overall scale."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-TOY_CENTER_BOX, TOY_CENTER_BOX, size=(spec.cluster_count, 2))
    points = np.concatenate([
        c + TOY_CLUSTER_STD * rng.standard_normal((spec.points_per_cluster, 2))
        for c in centers
    ])
    mean = points.mean(axis=0)
    centered = points - mean
    scale = centered.std()
    labels = np.repeat(np.arange(spec.cluster_count), spec.points_per_cluster)
    features = centered / scale
    train_idx, heldout_idx = _split_indices(features.shape[0], rng)
    return LabeledDataset(
        features=features,
        labels=labels,
        class_count=spec.cluster_count,
        train_idx=train_idx,
        heldout_idx=heldout_idx,
        meta={
            "mean": mean,
            "scale": float(scale),
            "centers": (centers - mean) / scale,
            "cluster_std": TOY_CLUSTER_STD / float(scale),
        },
    )


# ---------------------------------------------------------------------------
# tiny images


def pixels_to_features(pixels: np.ndarray) -> np.ndarray:
    """Map 8-bit pixels to [-1, 1]: 0 -> -1 and 255 -> +1."""
    features = np.array(pixels, dtype=np.float64)  # a fresh copy, scaled in place
    features /= 127.5
    features -= 1.0
    return features


def features_to_pixels(features: np.ndarray) -> np.ndarray:
    return to_u8((np.asarray(features, dtype=np.float64) + 1.0) * 127.5)


def _grating_image(rng: np.random.Generator, size: int, theta: float,
                   brightness: float) -> Image:
    xs, ys = np.meshgrid(np.arange(size), np.arange(size))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amp = 0.35 + rng.uniform(-0.05, 0.05)
    period = 6.0
    wave = np.sin(2.0 * np.pi * (xs * np.cos(theta) + ys * np.sin(theta)) / period + phase)
    value = brightness + amp * wave + 0.06 * rng.standard_normal((size, size))
    return Image.from_array(to_u8((np.clip(value, -1.0, 1.0) + 1.0) * 127.5))


def make_tiny_image_dataset(size: int = 32, class_count: int = 10, per_class: int = 80,
                            seed: int = 0) -> LabeledDataset:
    """`per_class` size x size grey gratings per class, each class its own angle and brightness."""
    if size < 1:
        raise ValueError(f"image size must be at least 1, got {size}")
    if class_count < 2:
        raise ValueError(f"need at least 2 classes, got {class_count}")
    if per_class < 20:
        raise ValueError(f"need at least 20 samples per class, got {per_class}")
    rng = np.random.default_rng(seed)
    brightnesses = np.linspace(-0.45, 0.45, class_count)
    images = [_grating_image(rng, size, np.pi * c / class_count, brightnesses[c])
              for c in range(class_count) for _ in range(per_class)]
    return _image_dataset(images, np.repeat(np.arange(class_count), per_class), class_count, rng)


def load_image_folder(source_dir, seed: int = 0) -> LabeledDataset:
    """One class per subdirectory of `source_dir`, each of at least 20 pixmaps. The
    images must be square, and the first pixmap fixes their size and channel count."""
    class_dirs = sorted(p for p in Path(source_dir).iterdir() if p.is_dir())
    if len(class_dirs) < 2:
        raise ValueError(f"need at least 2 class directories under {source_dir}")
    images, labels, first = [], [], None
    for c, cdir in enumerate(class_dirs):
        files = sorted(cdir.glob("*.p[gp]m"))
        if len(files) < 20:
            raise ValueError(f"class {cdir.name} has {len(files)} samples, need >= 20")
        for f in files:
            img = load_pixmap(f)
            first = first or (f, img)
            if img.pixels.shape != (first[1].width, first[1].width, first[1].channels):
                raise ValueError(f"{f} is {img.width}x{img.height} in {img.channels} channel(s), "
                                 f"but the images must be square and match {first[0]}")
            images.append(img)
            labels.append(c)
    return _image_dataset(images, labels, len(class_dirs), np.random.default_rng(seed))


def _image_dataset(images: list[Image], labels, class_count: int,
                   rng: np.random.Generator) -> LabeledDataset:
    """Flattened [-1, 1] features of same-shaped `images`, split by `rng`."""
    features = pixels_to_features(np.stack([img.pixels.reshape(-1) for img in images]))
    return LabeledDataset(features, labels, class_count, *_split_indices(len(images), rng),
                          images=images)
