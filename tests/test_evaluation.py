import math

import numpy as np
import pytest

from privsplit import evaluation
from privsplit.datasets import ClusterSpec, gen_toy_clusters
from privsplit.evaluation import (
    AttackConfig,
    ObfuscationMethod,
    attack_train_eval,
    compare_methods,
    psnr,
    scatter_report,
    separability,
    wilson_interval,
    write_report_csv,
)
from privsplit.image import Image
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

    def test_accepts_images(self):
        img = Image.from_array(np.full((2, 2), 10, dtype=np.uint8))
        assert psnr(img, img, 255) == math.inf

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
    @pytest.mark.parametrize("field", ["hidden_width", "iterations", "batch_size"])
    def test_counts_must_be_at_least_one(self, field):
        with pytest.raises(ValueError, match=field):
            AttackConfig(**{field: 0})

    @pytest.mark.parametrize("alpha", [0.0, -1e-3, math.nan, math.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            AttackConfig(alpha=alpha)


class TestProbeDtype:
    @pytest.fixture
    def optimizers(self, monkeypatch):
        made = []

        class RecordingAdam(evaluation.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(evaluation, "Adam", RecordingAdam)
        return made

    @staticmethod
    def assert_all_float32(opt):
        assert evaluation.CLASSIFIER_DTYPE == np.float32
        arrays = [opt._flat, opt.m, opt.v, opt._grad, opt._tmp]
        for p in opt.params:
            arrays += [p.data, p.grad]
        assert all(a.dtype == np.float32 for a in arrays)

    def test_one_attack_step_keeps_weights_gradients_and_adam_in_float32(self, optimizers):
        attack_train_eval(toy(seed=12, per=20), AttackConfig(iterations=1, seed=2))
        (opt,) = optimizers
        assert opt.step_count == 1
        self.assert_all_float32(opt)

    def test_one_separability_step_keeps_weights_gradients_and_adam_in_float32(self, optimizers):
        rng = np.random.default_rng(13)
        separability(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)),
                     AttackConfig(iterations=1, seed=2))
        (opt,) = optimizers
        assert opt.step_count == 1
        self.assert_all_float32(opt)

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

    def test_distant_clusters_fully_separable(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + 50.0
        assert separability(a, b, FAST) >= 0.99

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            separability(np.zeros((0, 2)), np.zeros((3, 2)))


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
        rows = scatter_report(pts, labels,
                              encrypted={0: pts + 1, 100: pts + 2},
                              reconstructed={0: pts, 100: pts},
                              csv_path=tmp_path / "s.csv", svg_path=tmp_path / "s.svg")
        assert len(rows) == 50 * 5
        csv_lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "x,y,cluster,set,iteration"
        assert len(csv_lines) == 1 + 250
        svg = (tmp_path / "s.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 250

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
