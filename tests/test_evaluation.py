import hashlib
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from privsplit import evaluation
from privsplit.autodiff import Tensor
from privsplit.datasets import ClusterSpec, gen_toy_clusters, make_tiny_image_dataset
from privsplit.evaluation import (
    AttackConfig,
    ObfuscationMethod,
    attack_method,
    attack_train_eval,
    compare_methods,
    psnr,
    scatter_report,
    separability,
    wilson_interval,
    write_report_csv,
)
from privsplit.models import ModelConfig, build_models, reconstruct
from privsplit.svgplot import cluster_color

FAST = AttackConfig(iterations=400, seed=11)


def toy(seed=0, per=100):
    return gen_toy_clusters(ClusterSpec(seed=seed, points_per_cluster=per))


class TestPsnr:
    def test_identical_is_infinite(self):
        a = np.zeros((4, 4))
        assert psnr(a, a, peak=255) == math.inf

    def test_full_scale_offset_is_zero_db(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 255.0)
        assert psnr(a, b, peak=255) == pytest.approx(0.0, abs=1e-12)

    def test_offset_sixteen(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 16.0)
        assert psnr(a, b, peak=255) == pytest.approx(20 * math.log10(255 / 16), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((3, 3)), rng.random((3, 3))
        assert psnr(a, b, 1.0) == psnr(b, a, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)), 255)

    def test_peak_must_be_positive(self):
        with pytest.raises(ValueError, match="peak"):
            psnr(np.zeros(2), np.ones(2), 0.0)


class TestAttack:
    def test_separable_clusters_are_recognizable(self):
        acc = attack_train_eval(toy(), FAST)
        assert acc >= 0.95

    def test_shuffled_labels_score_at_chance(self):
        # default-sized toy set: the held-out slice is large enough that the
        # +-0.05 band around chance is a multi-sigma margin
        ds = toy(seed=1, per=500)
        rng = np.random.default_rng(5)
        shuffled = ds.with_features(ds.features)
        shuffled.labels = rng.permutation(ds.labels)
        acc = attack_train_eval(shuffled, FAST)
        assert abs(acc - 0.1) <= 0.05

    def test_constant_input_scores_at_majority_rate(self):
        ds = toy(seed=2, per=50)
        constant = ds.with_features(np.zeros_like(ds.features))
        acc = attack_train_eval(constant, FAST)
        held_labels = ds.labels[ds.heldout_idx]
        rates = np.bincount(held_labels, minlength=ds.class_count) / held_labels.size
        assert acc in rates  # the classifier locks onto one class

    def test_deterministic(self):
        ds = toy(seed=3, per=40)
        assert attack_train_eval(ds, FAST) == attack_train_eval(ds, FAST)

    def test_accuracy_in_unit_interval(self):
        acc = attack_train_eval(toy(seed=4, per=30), AttackConfig(iterations=50, seed=1))
        assert 0.0 <= acc <= 1.0

    def test_needs_two_classes(self):
        ds = toy(seed=5, per=30)
        ds.class_count = 1
        ds.labels = np.zeros_like(ds.labels)
        with pytest.raises(ValueError, match="classes"):
            attack_train_eval(ds, FAST)


class TestAttackConfig:
    def test_iterations_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="iterations"):
            AttackConfig(iterations=0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed"):
            AttackConfig(seed=-1)

    def test_only_the_budget_and_the_seed_are_settable(self):
        assert [f.name for f in fields(AttackConfig)] == ["iterations", "seed"]


def test_the_probe_is_one_fixed_instrument(monkeypatch):
    """Two tanh layers of 128 in float32, 64 rows a step, Adam at 1e-3, whatever the config."""
    widths, rows, alphas = [], [], []
    real_init, real_forward = evaluation._init_mlp, evaluation._mlp_forward

    def init(rng, layer_widths, **kwargs):
        layers = real_init(rng, layer_widths, **kwargs)
        widths.append((layer_widths, {layer.w.data.dtype for layer in layers}))
        return layers

    def forward(layers, x, *args):
        rows.append((x.data.shape[0], x.data.dtype, layers[0].w.requires_grad))
        return real_forward(layers, x, *args)

    class RecordingAdam(evaluation.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alphas.append(self.alpha)

    monkeypatch.setattr(evaluation, "_init_mlp", init)
    monkeypatch.setattr(evaluation, "_mlp_forward", forward)
    monkeypatch.setattr(evaluation, "Adam", RecordingAdam)
    ds = toy(seed=12, per=20)
    attack_train_eval(ds, AttackConfig(iterations=3, seed=2))
    assert widths == [([ds.width, 128, 128, ds.class_count], {np.dtype(np.float32)})]
    f32 = np.dtype(np.float32)
    assert rows == [(64, f32, True)] * 3 + [(ds.heldout_idx.size, f32, False)]
    assert alphas == [1e-3]


class TestProbeDtype:
    @pytest.fixture
    def step_dtypes(self, monkeypatch):
        """Per probe Adam step, the dtypes of the weights, gradients and Adam's
        buffers, read as it steps: the gradients die with the probe's optimizer."""
        steps = []

        class RecordingAdam(evaluation.Adam):
            def step(self):
                super().step()
                arrays = [self._flat, self.m, self.v, self._grad, self._tmp]
                for p in self.params:
                    arrays += [p.data, p.grad]
                steps.append({a.dtype for a in arrays})

        monkeypatch.setattr(evaluation, "Adam", RecordingAdam)
        return steps

    def test_one_attack_step_keeps_weights_gradients_and_adam_in_float32(self, step_dtypes):
        attack_train_eval(toy(seed=12, per=20), AttackConfig(iterations=1, seed=2))
        assert evaluation.CLASSIFIER_DTYPE == np.float32
        assert step_dtypes == [{np.dtype(np.float32)}]

    def test_one_separability_step_keeps_weights_gradients_and_adam_in_float32(self, step_dtypes):
        rng = np.random.default_rng(13)
        separability(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)),
                     AttackConfig(iterations=1, seed=2))
        assert evaluation.CLASSIFIER_DTYPE == np.float32
        assert step_dtypes == [{np.dtype(np.float32)}]

    def test_gradient_buffer_is_freed_once_the_classifier_is_trained(self, monkeypatch):
        # so the held-out pass of attack_train_eval runs without it
        buffers = []

        class WatchedAdam(evaluation.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                buffers.append(weakref.ref(self._grad))

        monkeypatch.setattr(evaluation, "Adam", WatchedAdam)
        ds = toy(seed=12, per=20)
        layers = evaluation._train_classifier(ds.features, ds.labels, ds.class_count,
                                              AttackConfig(iterations=2, seed=2))
        (buffer,) = buffers
        assert buffer() is None
        assert all(layer.w.grad is None for layer in layers)

    def test_trained_classifier_needs_no_gradient_and_records_no_graph(self):
        ds = toy(seed=12, per=20)
        layers = evaluation._train_classifier(ds.features, ds.labels, ds.class_count,
                                              AttackConfig(iterations=2, seed=2))
        assert not any(t.requires_grad for layer in layers for t in (layer.w, layer.b))
        logits = evaluation._mlp_forward(layers, Tensor(ds.features))
        assert logits._parents == () and not logits.requires_grad

    def test_float32_attack_agrees_with_float64_within_one_heldout_sample(self, monkeypatch):
        ds = toy(seed=14, per=40)
        acc32 = attack_train_eval(ds, FAST)
        monkeypatch.setattr(evaluation, "CLASSIFIER_DTYPE", np.float64)
        acc64 = attack_train_eval(ds, FAST)
        assert abs(acc32 - acc64) <= 1.0 / ds.heldout_idx.size


class TestWilsonInterval:
    def test_half_of_ten(self):
        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(0.2366, abs=1e-4)
        assert high == pytest.approx(0.7634, abs=1e-4)

    def test_all_correct_reaches_one(self):
        low, high = wilson_interval(80, 80)
        assert low == pytest.approx(80 / (80 + evaluation.WILSON_Z ** 2))
        assert high == 1.0

    def test_none_correct_starts_at_zero(self):
        low, high = wilson_interval(0, 80)
        assert low == 0.0 and 0.0 < high < 0.05

    @pytest.mark.parametrize("n", [1, 7, 40, 80, 200])
    def test_every_count_lies_inside_its_interval(self, n):
        for k in range(n + 1):
            low, high = wilson_interval(k, n)
            assert 0.0 <= low <= k / n <= high <= 1.0

    @pytest.mark.parametrize("successes, n", [(3, 0), (-1, 5), (6, 5)])
    def test_bad_counts_rejected(self, successes, n):
        with pytest.raises(ValueError, match="wilson"):
            wilson_interval(successes, n)


class TestSeparability:
    def test_same_distribution_is_chance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((400, 2))
        b = rng.standard_normal((400, 2))
        acc = separability(a, b, FAST)
        assert abs(acc - 0.5) <= 0.05

    def test_identical_arrays_not_separable(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((300, 2))
        assert separability(a, a.copy(), FAST) <= 0.55

    @pytest.mark.parametrize("seed", range(5))
    def test_paired_near_identical_inputs_read_chance_from_both_sides(self, seed):
        # a probe that memorizes scores below chance here when the two rows of
        # one source can land on opposite sides of the split
        rng = np.random.default_rng(0)
        a = rng.standard_normal((500, 2))
        b = a + 1e-6 * rng.standard_normal((500, 2))
        assert abs(separability(a, b, replace(FAST, seed=seed)) - 0.5) <= 0.05

    def test_identical_pairs_read_exactly_half(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((300, 2))
        assert separability(a, a.copy(), FAST) == 0.5

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            separability(np.zeros((1, 2)), np.ones((1, 2)), FAST)

    @pytest.mark.parametrize("shape", [(200, 2), (300, 3)])
    def test_unequal_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="equal shape"):
            separability(np.zeros((300, 2)), np.zeros(shape), FAST)

    def test_distant_clusters_fully_separable(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + 50.0
        assert separability(a, b, FAST) >= 0.99

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            separability(np.zeros((0, 2)), np.zeros((3, 2)), FAST)


class TestAttackMethod:
    def test_noise_comes_from_the_given_generator(self):
        ds = toy(seed=4, per=40)
        noisy = ObfuscationMethod("noisy", lambda f, rng: f + rng.normal(size=f.shape),
                                  proportion=0.25)
        cfg = AttackConfig(iterations=100, seed=2)
        report = attack_method(ds, noisy, cfg, np.random.default_rng(8))
        encrypted = noisy.encrypt(ds.features, np.random.default_rng(8))
        held = ds.heldout_idx
        peak = float(ds.features.max() - ds.features.min())
        assert report.method == "noisy" and report.proportion == 0.25
        assert report.accuracy == attack_train_eval(ds.with_features(encrypted), cfg)
        assert report.psnr_encrypted_db == psnr(encrypted[held], ds.features[held], peak)
        assert report.psnr_recon_db is None  # the method has no reconstruction
        assert report.chance == 1.0 / ds.class_count
        n = held.size
        assert (report.ci_low, report.ci_high) == wilson_interval(round(report.accuracy * n), n)

    def test_reconstruction_psnr_is_over_the_held_out_rows(self):
        ds = toy(seed=5, per=40)
        shifted = ObfuscationMethod("shifted", lambda f, rng: f.copy(),
                                    reconstruct=lambda f: f + 0.5)
        report = attack_method(ds, shifted, AttackConfig(iterations=50, seed=1),
                               np.random.default_rng(0))
        held = ds.heldout_idx
        peak = float(ds.features.max() - ds.features.min())
        assert report.psnr_encrypted_db == math.inf
        assert report.psnr_recon_db == psnr(ds.features[held] + 0.5, ds.features[held], peak)

    def test_reconstruct_sees_only_the_held_out_rows(self):
        ds = make_tiny_image_dataset(per_class=20, seed=4)
        bundle = build_models(ModelConfig(input_width=ds.width, feature_width=128,
                                          privacy_width=2, seed=3))
        seen = []

        def model_reconstruct(features):
            seen.append(features)
            return reconstruct(Tensor(features), bundle).data

        method = ObfuscationMethod("model", lambda f, rng: f.copy(), model_reconstruct)
        report = attack_method(ds, method, AttackConfig(iterations=20, seed=1),
                               np.random.default_rng(0))
        held = ds.heldout_idx
        assert len(seen) == 1 and np.array_equal(seen[0], ds.features[held])
        # bitwise the value of reconstructing the whole set and slicing the held-out rows
        full = reconstruct(Tensor(ds.features), bundle).data
        peak = float(ds.features.max() - ds.features.min())
        assert report.psnr_recon_db == psnr(full[held], ds.features[held], peak)

    def test_a_method_that_changes_the_feature_shape_raises(self):
        ds = toy(seed=6, per=20)
        dropped = ObfuscationMethod("dropped", lambda f, rng: f[:, :1])
        with pytest.raises(ValueError, match="method dropped changed the feature shape"):
            attack_method(ds, dropped, FAST, np.random.default_rng(0))

    def test_a_failing_original_row_raises_from_compare_methods(self, monkeypatch):
        def failing(dataset, config):
            raise RuntimeError("attack diverged")

        monkeypatch.setattr(evaluation, "attack_train_eval", failing)
        with pytest.raises(RuntimeError, match="attack diverged"):
            compare_methods(toy(seed=7, per=20),
                            [ObfuscationMethod("identity", lambda f, rng: f.copy())], FAST)


class TestCompareMethods:
    def test_rows_and_reference_values(self, tmp_path):
        ds = toy(seed=6, per=40)
        methods = [
            ObfuscationMethod("identity", lambda f, rng: f.copy()),
            ObfuscationMethod("zeroed", lambda f, rng: np.zeros_like(f),
                              reconstruct=lambda f: f.copy(), proportion=0.5),
        ]
        csv_path = tmp_path / "report.csv"
        reports = compare_methods(ds, methods, AttackConfig(iterations=200, seed=3),
                                  csv_path=csv_path)
        assert [r.method for r in reports] == ["Original", "Random", "identity", "zeroed"]
        assert reports[1].accuracy == pytest.approx(1.0 / ds.class_count)
        assert reports[0].psnr_encrypted_db == math.inf
        zeroed = reports[3]
        assert zeroed.psnr_recon_db == math.inf  # identity reconstruct
        assert zeroed.proportion == 0.5
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ("method,accuracy,chance,psnr_recon_db,psnr_encrypted_db,"
                            "proportion,ci_low,ci_high")
        assert len(lines) == 5
        assert lines[2].endswith(",,")  # Random trains no classifier, so has no interval
        n = ds.heldout_idx.size
        for r in (reports[0], *reports[2:]):
            assert (r.ci_low, r.ci_high) == wilson_interval(round(r.accuracy * n), n)
            assert r.ci_low <= r.accuracy <= r.ci_high
        assert reports[1].ci_low is None and reports[1].ci_high is None

    def test_failing_method_is_flagged_and_others_survive(self):
        ds = toy(seed=7, per=40)

        def broken(f, rng):
            raise ValueError("boom")

        reports = compare_methods(
            ds,
            [ObfuscationMethod("broken", broken),
             ObfuscationMethod("identity", lambda f, rng: f.copy())],
            AttackConfig(iterations=100, seed=4))
        broken_row = next(r for r in reports if r.method == "broken")
        assert math.isnan(broken_row.accuracy)
        assert "boom" in broken_row.note
        identity_row = next(r for r in reports if r.method == "identity")
        assert 0.0 <= identity_row.accuracy <= 1.0

    def test_original_row_matches_direct_attack(self):
        ds = toy(seed=9, per=40)
        cfg = AttackConfig(iterations=200, seed=6)
        reports = compare_methods(ds, [], cfg)
        assert len(reports) == 2
        assert 0.9 <= reports[0].accuracy <= 1.0


class TestScatterReport:
    def test_row_counts(self, tmp_path):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((50, 2))
        labels = rng.integers(0, 5, size=50)
        scatter_report(pts, labels,
                       encrypted={0: pts + 1, 100: pts + 2},
                       reconstructed={0: pts, 100: pts},
                       csv_path=tmp_path / "s.csv", svg_path=tmp_path / "s.svg")
        csv_lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "x,y,cluster,set,iteration"
        assert len(csv_lines) == 1 + 250
        svg = (tmp_path / "s.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 250

    def test_output_files_pinned(self, tmp_path):
        # train-toy's default panels: 10 clusters of 200 points, 3 recorded iterations
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((2000, 2))
        labels = np.repeat(np.arange(10), 200)
        marks = (0, 100, 500)
        encrypted = {it: rng.standard_normal((2000, 2)) for it in marks}
        reconstructed = {it: pts + 1e-3 * it * rng.standard_normal((2000, 2)) for it in marks}
        scatter_report(pts, labels, encrypted, reconstructed,
                       csv_path=tmp_path / "scatter.csv", svg_path=tmp_path / "scatter.svg")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("scatter.csv", "scatter.svg")}
        assert digests == {
            "scatter.csv": "4da2b5869a9336e541ff2b21d2ca7827a16b70652b72530d14cd9ae4e4d7663b",
            "scatter.svg": "7056c70e329c33c54c2611a77a79fe7d615c058b3688bfbef1d9616dccd2172d",
        }

    def test_traced_peak_stays_below_1_mib(self, tmp_path):
        # 0.47 MiB on the pinned input; 7.4 MiB while every row and circle
        # was built in memory before a file was written
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((2000, 2))
        labels = np.repeat(np.arange(10), 200)
        snaps = {it: pts + it for it in (0, 100, 500)}
        tracemalloc.start()
        try:
            scatter_report(pts, labels, snaps, snaps,
                           csv_path=tmp_path / "s.csv", svg_path=tmp_path / "s.svg")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_color_is_pure_function_of_cluster(self):
        assert cluster_color(3) == cluster_color(3)
        assert cluster_color(3) != cluster_color(4)
        assert all(cluster_color(i).startswith("#") and len(cluster_color(i)) == 7
                   for i in range(10))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            scatter_report(np.zeros((5, 3)), np.zeros(5, dtype=int), {}, {})

    def test_svg_deterministic(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((30, 2))
        labels = rng.integers(0, 3, size=30)
        for name in ("a.svg", "b.svg"):
            scatter_report(pts, labels, {1: pts}, {1: pts}, svg_path=tmp_path / name)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
