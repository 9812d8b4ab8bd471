import hashlib
from dataclasses import fields

import numpy as np
import pytest

from privsplit.datasets import (
    TOY_CENTER_BOX,
    TOY_CLUSTER_STD,
    ClusterSpec,
    LabeledDataset,
    features_to_pixels,
    gen_toy_clusters,
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
        ({"size": -3, "source_dir": "."}, "image size must be at least 1, got -3"),
    ])
    def test_bad_size_or_class_count_names_the_value(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_tiny_image_dataset(**kwargs)

    def test_directory_source(self, tmp_path):
        base = make_tiny_image_dataset(class_count=2, per_class=20, seed=5, size=16)
        for i, img in enumerate(base.images):
            cdir = tmp_path / f"class{base.labels[i]}"
            cdir.mkdir(exist_ok=True)
            save_pixmap(img, cdir / f"{i:03d}.pgm")
        ds = make_tiny_image_dataset(source_dir=tmp_path, size=16)
        assert ds.class_count == 2
        assert ds.size == 40

    def test_directory_with_small_class_rejected(self, tmp_path):
        base = make_tiny_image_dataset(class_count=2, per_class=20, seed=6, size=16)
        for i in range(25):
            cdir = tmp_path / f"class{i % 2}"
            cdir.mkdir(exist_ok=True)
            save_pixmap(base.images[i], cdir / f"{i:03d}.pgm")
        with pytest.raises(ValueError, match="need >= 20"):
            make_tiny_image_dataset(source_dir=tmp_path, size=16)

    def test_directory_mixing_grey_and_colour_names_the_file(self, tmp_path):
        base = make_tiny_image_dataset(class_count=2, per_class=20, seed=7, size=16)
        for i, img in enumerate(base.images):
            cdir = tmp_path / f"class{base.labels[i]}"
            cdir.mkdir(exist_ok=True)
            if i == 5:  # one colour pixmap among the grey ones
                save_pixmap(Image.from_array(np.repeat(img.pixels, 3, axis=2)),
                            cdir / f"{i:03d}.ppm")
            else:
                save_pixmap(img, cdir / f"{i:03d}.pgm")
        with pytest.raises(ValueError, match=r"005\.ppm has 3 channel\(s\), but .*000\.pgm has 1"):
            make_tiny_image_dataset(source_dir=tmp_path, size=16)
