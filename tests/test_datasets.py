import hashlib
import inspect
from dataclasses import fields

import numpy as np
import pytest

from privsplit import datasets
from privsplit.datasets import (
    TOY_CENTER_BOX,
    TOY_CLUSTER_STD,
    ClusterSpec,
    LabeledDataset,
    features_to_pixels,
    gen_toy_clusters,
    load_image_folder,
    make_tiny_image_dataset,
    pixels_to_features,
)
from privsplit.image import Image, save_pixmap


class TestClusterSpec:
    def test_defaults(self):
        spec = ClusterSpec()
        assert spec.cluster_count == 10
        assert spec.points_per_cluster == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(cluster_count=1)

    def test_negative_seed_names_the_field(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ClusterSpec(seed=-1)

    def test_one_cluster_names_the_count(self):
        with pytest.raises(ValueError, match="^need at least 2 clusters, got 1$"):
            ClusterSpec(cluster_count=1)

    def test_only_the_count_the_points_and_the_seed_are_set(self):
        # the geometry is fixed, so a spec cannot carry a centre box or a spread
        assert [f.name for f in fields(ClusterSpec)] == ["cluster_count", "points_per_cluster",
                                                         "seed"]
        for name in ("center_box", "cluster_std"):
            with pytest.raises(TypeError, match=name):
                ClusterSpec(**{name: 1.0})


class TestGenToyClusters:
    def test_default_counts_and_classes(self):
        ds = gen_toy_clusters(ClusterSpec(seed=1))
        assert ds.class_count == 10
        assert ds.size == 5000
        assert np.array_equal(np.unique(ds.labels), np.arange(10))
        assert all(np.sum(ds.labels == c) == 500 for c in range(10))

    @pytest.mark.parametrize("spec, expected", [
        (ClusterSpec(seed=5),
         "08fb4e0bd2e64da76a091c76bdc04bf857906949beab703f252bdc488d1b3a4c"),
    ])
    def test_pinned(self, spec, expected):
        ds = gen_toy_clusters(spec)
        digest = hashlib.sha256()
        for array in (ds.features, ds.train_idx, ds.heldout_idx, ds.meta["centers"]):
            digest.update(array.tobytes())
        assert digest.hexdigest() == expected

    def test_seed_determinism(self):
        a = gen_toy_clusters(ClusterSpec(seed=2))
        b = gen_toy_clusters(ClusterSpec(seed=2))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_normalized_to_zero_mean_unit_scale(self):
        ds = gen_toy_clusters(ClusterSpec(seed=3))
        assert np.all(np.abs(ds.features.mean(axis=0)) < 1e-12)
        assert ds.features.std() == pytest.approx(1.0, abs=1e-12)

    def test_cluster_means_near_their_centers(self):
        ds = gen_toy_clusters(ClusterSpec(seed=4))
        centers = ds.meta["centers"]
        std = ds.meta["cluster_std"]
        n = 500
        for c in range(ds.class_count):
            sample_mean = ds.features[ds.labels == c].mean(axis=0)
            assert np.all(np.abs(sample_mean - centers[c]) < 3.0 * std / np.sqrt(n))

    def test_the_geometry_is_the_fixed_box_and_spread(self):
        spec = ClusterSpec(cluster_count=4, points_per_cluster=30, seed=6)
        ds = gen_toy_clusters(spec)
        rng = np.random.default_rng(spec.seed)
        raw_centers = rng.uniform(-TOY_CENTER_BOX, TOY_CENTER_BOX, size=(4, 2))
        raw_points = np.concatenate([c + TOY_CLUSTER_STD * rng.standard_normal((30, 2))
                                     for c in raw_centers])
        assert np.all(np.abs(raw_centers) <= TOY_CENTER_BOX)
        assert np.array_equal(ds.meta["mean"], raw_points.mean(axis=0))
        assert np.array_equal(ds.meta["centers"],
                              (raw_centers - ds.meta["mean"]) / ds.meta["scale"])
        assert ds.meta["cluster_std"] == TOY_CLUSTER_STD / ds.meta["scale"]

    def test_normalization_round_trip(self):
        ds = gen_toy_clusters(ClusterSpec(seed=5, points_per_cluster=50))
        raw = ds.features * ds.meta["scale"] + ds.meta["mean"]
        back = (raw - ds.meta["mean"]) / ds.meta["scale"]
        assert np.max(np.abs(back - ds.features)) < 1e-12

    def test_splits_disjoint_and_nonempty(self):
        ds = gen_toy_clusters(ClusterSpec(seed=6, points_per_cluster=30))
        assert len(set(ds.train_idx) & set(ds.heldout_idx)) == 0
        assert len(ds.train_idx) > 0 and len(ds.heldout_idx) > 0


class TestLabeledDatasetValidation:
    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), 3,
                           np.array([0, 1]), np.array([2, 3]))

    def test_overlapping_split(self):
        with pytest.raises(ValueError, match="overlap"):
            LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2,
                           np.array([0, 1, 2]), np.array([2, 3]))


class TestPixelScaling:
    def test_endpoints(self):
        assert pixels_to_features(np.array([0])) == pytest.approx(-1.0)
        assert pixels_to_features(np.array([255])) == pytest.approx(1.0)

    def test_pixel_round_trip_exact(self):
        pixels = np.arange(256, dtype=np.uint8)
        back = features_to_pixels(pixels_to_features(pixels))
        assert np.array_equal(back.reshape(-1), pixels)

    def test_feature_round_trip_within_one_gray_level(self):
        rng = np.random.default_rng(0)
        feats = rng.uniform(-1.0, 1.0, size=100)
        back = pixels_to_features(features_to_pixels(feats))
        assert np.max(np.abs(back - feats)) <= 1.0 / 127.5


class TestTinyImages:
    def test_builtin_generator_shapes(self):
        ds = make_tiny_image_dataset(class_count=4, per_class=20, seed=1)
        assert ds.size == 80
        assert ds.width == 32 * 32
        assert len(ds.images) == 80
        assert ds.features.min() >= -1.0 and ds.features.max() <= 1.0

    def test_determinism(self):
        a = make_tiny_image_dataset(class_count=3, per_class=20, seed=2)
        b = make_tiny_image_dataset(class_count=3, per_class=20, seed=2)
        assert np.array_equal(a.features, b.features)

    def test_builtin_features_pinned(self):
        # sha256 taken when the features were built by stacking per-image rows
        ds = make_tiny_image_dataset(seed=0)
        assert ds.features.dtype == np.float64 and ds.features.shape == (800, 1024)
        assert hashlib.sha256(ds.features.tobytes()).hexdigest() == (
            "448bd6802600d80352ba8a2b61201ab4b25fc1f99adc3d7614419798d3e60fd7")

    def test_features_match_images(self):
        ds = make_tiny_image_dataset(class_count=3, per_class=20, seed=3)
        flat = pixels_to_features(ds.images[0].pixels).reshape(-1)
        assert np.array_equal(ds.features[0], flat)

    def test_too_few_per_class_rejected(self):
        with pytest.raises(ValueError, match="20"):
            make_tiny_image_dataset(class_count=3, per_class=10, seed=4)

    @pytest.mark.parametrize("kwargs, message", [
        ({"class_count": 1}, "need at least 2 classes, got 1"),
        ({"class_count": 0}, "need at least 2 classes, got 0"),
        ({"class_count": -1}, "need at least 2 classes, got -1"),
        ({"size": 0}, "image size must be at least 1, got 0"),
        ({"size": -3}, "image size must be at least 1, got -3"),
        ({"per_class": 19}, "need at least 20 samples per class, got 19"),
    ])
    def test_bad_argument_names_the_value_before_any_image_is_drawn(self, monkeypatch, kwargs,
                                                                     message):
        drawn = []
        monkeypatch.setattr(datasets, "_grating_image", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_tiny_image_dataset(**kwargs)
        assert drawn == []


def write_folder(root, images, labels, suffix=".pgm"):
    """One subdirectory per label under `root`, pixmap i named by its index."""
    for i, (img, label) in enumerate(zip(images, labels)):
        cdir = root / f"class{label}"
        cdir.mkdir(parents=True, exist_ok=True)
        save_pixmap(img, cdir / f"{i:03d}{suffix}")


class TestImageFolder:
    def test_reads_only_a_folder_and_a_seed(self):
        # a folder fixes its classes, its samples per class and its image size
        assert list(inspect.signature(load_image_folder).parameters) == ["source_dir", "seed"]

    @pytest.mark.parametrize("size", [16, 8])
    def test_the_pixmaps_fix_the_image_size(self, tmp_path, size):
        base = make_tiny_image_dataset(class_count=2, per_class=20, seed=5, size=size)
        write_folder(tmp_path, base.images, base.labels)
        ds = load_image_folder(tmp_path, seed=3)
        assert (ds.class_count, ds.size, ds.width) == (2, 40, size * size)
        assert np.array_equal(ds.features, base.features)
        assert ds.meta == {}

    def test_small_class_rejected(self, tmp_path):
        base = make_tiny_image_dataset(class_count=2, per_class=20, seed=6, size=16)
        write_folder(tmp_path, base.images[:25], np.arange(25) % 2)
        with pytest.raises(ValueError, match="need >= 20"):
            load_image_folder(tmp_path)

    def test_non_square_pixmaps_rejected(self, tmp_path):
        images = [Image.from_array(np.zeros((6, 8, 1), dtype=np.uint8))] * 40
        write_folder(tmp_path, images, np.arange(40) // 20)
        with pytest.raises(ValueError, match=r"class0/000\.pgm is 8x6 in 1 channel\(s\), but the "
                                             r"images must be square and match .*class0/000\.pgm$"):
            load_image_folder(tmp_path)

    @pytest.mark.parametrize("odd, suffix, shape", [
        (np.zeros((6, 16, 1), dtype=np.uint8), ".pgm", "16x6 in 1"),
        (np.zeros((8, 8, 1), dtype=np.uint8), ".pgm", "8x8 in 1"),
        (np.zeros((16, 16, 3), dtype=np.uint8), ".ppm", "16x16 in 3"),
    ], ids=["non-square", "mixed-sizes", "mixed-channels"])
    def test_a_pixmap_unlike_the_first_names_both_files(self, tmp_path, odd, suffix, shape):
        base = make_tiny_image_dataset(class_count=2, per_class=20, seed=7, size=16)
        write_folder(tmp_path, base.images, base.labels)
        write_folder(tmp_path, [Image.from_array(odd)], [1], suffix)  # class1/000, after class0
        with pytest.raises(ValueError, match=f"class1/000\\{suffix} is {shape} channel\\(s\\), "
                                             r"but the images must be square and match "
                                             r".*class0/000\.pgm$"):
            load_image_folder(tmp_path)
