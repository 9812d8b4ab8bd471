import gc
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from privsplit import training
from privsplit.autodiff import Tensor
from privsplit.datasets import ClusterSpec, gen_toy_clusters
from privsplit.evaluation import AttackConfig, attack_train_eval, separability
from privsplit.models import NoiseSpec, decode, encrypt, perceptual_features, reconstruct
from privsplit.objectives import msednet_loss, reconstruction_loss
from privsplit.training import (
    CheckpointVersionError,
    MalformedCheckpointError,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)


def small_blobs(seed=0, clusters=4, per=60):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(clusters, 2))
    pts = np.concatenate([c + 0.1 * rng.standard_normal((per, 2)) for c in centers])
    return pts


def quick_config(**overrides):
    base = dict(iterations=40, batch_size=16, seed=3, feature_width=32,
                privacy_proportion=Fraction(1, 16), input_width=2)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainBasics:
    def test_zero_iterations_returns_initial_models(self):
        data = small_blobs()
        bundle, history = train(data, quick_config(iterations=0))
        assert len(history) == 0
        fresh = train(data, quick_config(iterations=0))[0]
        for a, b in zip(bundle.all_parameters(), fresh.all_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_iteration_count_and_finite_history(self):
        _, history = train(small_blobs(), quick_config(iterations=25))
        assert len(history) == 25
        assert all(np.isfinite(v) for v in history.l_g_total)

    def test_bitwise_determinism(self):
        data = small_blobs()
        cfg = quick_config()
        b1, h1 = train(data, cfg)
        b2, h2 = train(data, cfg)
        for a, b in zip(b1.all_parameters(), b2.all_parameters()):
            assert np.array_equal(a.data, b.data)
        assert h1.l_g_total == h2.l_g_total
        assert h1.l_d == h2.l_d

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train(np.zeros((0, 2)), quick_config())

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input width"):
            train(np.zeros((10, 3)), quick_config())

    def test_recorded_discriminator_and_adversarial_losses_are_equal(self):
        _, history = train(small_blobs(), quick_config())
        assert history.l_d == history.l_g_ad
        assert all(v is not None for v in history.l_d)

    def test_each_optimizer_steps_once_per_iteration(self, monkeypatch):
        # both gradients come from one backward pass over disjoint parameter
        # sets, so the order of the two steps cannot be observed; their count can
        optimizers = []

        class CountingAdam(training.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(training, "Adam", CountingAdam)
        bundle, _ = train(small_blobs(), quick_config(iterations=5))
        assert [opt.step_count for opt in optimizers] == [5, 5]
        assert {id(p) for opt in optimizers for p in opt.params} == {
            id(p) for p in bundle.all_parameters()}

    def test_perceptual_params_never_change(self):
        data = small_blobs()
        cfg = quick_config(use_perceptual=True)
        bundle, _ = train(data, cfg)
        reference, _ = train(data, quick_config(use_perceptual=True, iterations=0))
        for trained, init in zip(bundle.perceptual, reference.perceptual):
            assert np.array_equal(trained.w.data, init.w.data)
            assert np.array_equal(trained.b.data, init.b.data)

    def test_snapshot_hook_fires_at_requested_iterations(self):
        seen = []
        train(small_blobs(), quick_config(iterations=10),
              snapshot_iters={0, 4, 10}, snapshot_fn=lambda i, b: seen.append(i))
        assert seen == [0, 4, 10]

    def test_non_finite_input_is_divergence(self):
        data = small_blobs()
        data[:, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="iteration 0"):
            train(data, quick_config(iterations=3))

    def test_divergence_reports_term_and_iteration(self):
        # a catastophic learning rate overflows the linear decoder quickly
        cfg = quick_config(ablation="no_collaborative", alpha=1e155, iterations=10)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match="iteration"):
            train(small_blobs(), cfg)


def cyclic_garbage_after(run) -> int:
    """Objects that only the cyclic collector could free after `run()`."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestGraphsFreedByRefcount:
    @pytest.mark.parametrize("ablation", ["full", "no_collaborative", "msednet"])
    def test_training_leaves_no_cyclic_garbage(self, ablation):
        cfg = quick_config(ablation=ablation, iterations=5, use_perceptual=True)
        assert cyclic_garbage_after(lambda: train(small_blobs(), cfg)) == 0

    def test_attack_and_separability_classifiers_leave_no_cyclic_garbage(self):
        cfg = AttackConfig(iterations=5, batch_size=16)
        toy = gen_toy_clusters(ClusterSpec(cluster_count=3, points_per_cluster=20))
        assert cyclic_garbage_after(lambda: attack_train_eval(toy, cfg)) == 0
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(40, 2)), rng.normal(1.0, 1.0, size=(40, 2))
        assert cyclic_garbage_after(lambda: separability(a, b, cfg)) == 0


class TestAblations:
    def test_no_collaborative_has_no_adversarial_record_and_frozen_d(self):
        data = small_blobs()
        cfg = quick_config(ablation="no_collaborative")
        bundle, history = train(data, cfg)
        assert all(v is None for v in history.l_d)
        assert all(v is None for v in history.l_g_ad)
        init, _ = train(data, quick_config(ablation="no_collaborative", iterations=0))
        for trained, fresh in zip(bundle.discriminator_parameters(),
                                  init.discriminator_parameters()):
            assert np.array_equal(trained.data, fresh.data)

    @pytest.mark.parametrize("ablation, calls", [
        ("full", 2), ("no_collaborative", 1), ("msednet", 2)])
    def test_encrypted_output_is_decoded_only_when_the_loss_reads_it(
            self, monkeypatch, ablation, calls):
        seen = []

        def counting_decode(features, bundle):
            seen.append(features.shape)
            return decode(features, bundle)

        monkeypatch.setattr(training, "decode", counting_decode)
        train(small_blobs(), quick_config(ablation=ablation, iterations=3))
        assert len(seen) == 3 * calls

    def test_no_collaborative_parameters_pinned(self):
        # sha256 of a run taken before the unused encrypted decode was skipped:
        # skipping it must not change a bit. The digest follows the BLAS
        # kernels' summation order (x86-64, OpenBLAS 0.3.31).
        bundle, _ = train(small_blobs(), quick_config(ablation="no_collaborative",
                                                      iterations=20))
        digest = hashlib.sha256()
        for t in bundle.all_parameters():
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == (
            "7033fc854efd0b9ab8f666ecb9be067347e5604dbfb06cc296f6cb41208a9bda")

    def test_msednet_grows_encrypted_feature_distance(self):
        data = small_blobs()
        cfg = quick_config(ablation="msednet", iterations=1600, batch_size=32)
        x = Tensor(data[:100])
        dists = {}

        def snap(i, bundle):
            phi = lambda t: perceptual_features(t, bundle).data
            x_e = encrypt(x, bundle, NoiseSpec(seed=5))
            dists[i] = float(np.mean((phi(x_e) - phi(x)) ** 2))

        _, history = train(data, cfg, snapshot_iters={0, 400, 800, 1200, 1600},
                           snapshot_fn=snap)
        # the maximized term climbs once the reconstruction transient settles
        assert dists[400] < dists[800] < dists[1200] < dists[1600]
        assert dists[1600] > dists[0]
        # and the minimized objective trends down
        first = np.mean(history.l_g_total[:10])
        last = np.mean(history.l_g_total[-10:])
        assert last < first

    def test_msednet_recorded_total_matches_loss_op(self):
        data = small_blobs()
        bundle, history = train(data, quick_config(ablation="msednet", iterations=1))
        assert len(history) == 1
        # recompute the op on the same state: cheap structural cross-check
        x = Tensor(data[:8])
        x_r = reconstruct(x, bundle)
        x_e = encrypt(x, bundle, NoiseSpec(seed=1))
        phi = lambda t: perceptual_features(t, bundle)
        _, _, combined = reconstruction_loss(x_r, x, phi)
        val = msednet_loss(combined, x, x_e, phi).item()
        assert np.isfinite(val)

    def test_msednet_determinism(self):
        data = small_blobs()
        cfg = quick_config(ablation="msednet")
        h1 = train(data, cfg)[1]
        h2 = train(data, cfg)[1]
        assert h1.l_g_total == h2.l_g_total


class TestTrainConfigValidation:
    def test_bad_ablation(self):
        with pytest.raises(ValueError, match="ablation"):
            TrainConfig(iterations=1, ablation="nope")

    def test_bad_batch(self):
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(iterations=1, batch_size=0)

    def test_bad_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            TrainConfig(iterations=1, lam=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("alpha", 0.0), ("alpha", -1e-3), ("alpha", math.inf), ("alpha", math.nan),
        ("epsilon", 0.0), ("epsilon", math.inf),
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", 1.8), ("beta2", 1.0), ("beta2", math.nan),
        ("noise_std", -1.0), ("noise_std", math.inf), ("noise_std", math.nan),
    ])
    def test_bad_optimizer_and_noise_settings(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(iterations=1, **{name: value})

    def test_edge_optimizer_and_noise_settings_are_accepted(self):
        TrainConfig(iterations=1, beta1=0.0, beta2=0.0, noise_std=0.0)

    def test_proportion_must_divide_feature_width(self):
        with pytest.raises(ValueError, match="positive integer"):
            TrainConfig(iterations=1, privacy_proportion=Fraction(1, 3), feature_width=128)

    def test_proportion_bounds(self):
        with pytest.raises(ValueError, match="privacy proportion"):
            TrainConfig(iterations=1, privacy_proportion=Fraction(3, 2))


def saved_checkpoint(tmp_path, name="model.ckpt"):
    bundle, history = train(small_blobs(), quick_config(iterations=2))
    path = tmp_path / name
    save_checkpoint(bundle, history, path)
    return path


def rewrite_checkpoint(path, edit):
    """Let `edit(header, arrays)` change a saved checkpoint in place."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays["header"].tobytes())
    edit(header, arrays)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestCheckpoints:
    def test_round_trip_reproduces_forward_outputs_bitwise(self, tmp_path):
        data = small_blobs()
        bundle, history = train(data, quick_config(iterations=10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, history, path)
        loaded, loaded_history = load_checkpoint(path)
        x = Tensor(data[:20])
        assert np.array_equal(reconstruct(x, bundle).data, reconstruct(x, loaded).data)
        noise = NoiseSpec(seed=9)
        assert np.array_equal(encrypt(x, bundle, noise).data, encrypt(x, loaded, noise).data)
        assert loaded_history.l_g_total == history.l_g_total
        assert loaded_history.l_d == history.l_d

    def test_truncated_file_is_malformed(self, tmp_path):
        data = small_blobs()
        bundle, history = train(data, quick_config(iterations=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, history, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(MalformedCheckpointError):
            load_checkpoint(path)

    def test_version_bump_is_distinct_error(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header.update(version=999))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_wrong_magic_is_malformed(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header.update(magic="something-else"))
        with pytest.raises(MalformedCheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_1_json_names_its_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"magic": "privsplit-checkpoint", "version": 1, "networks": {}}')
        with pytest.raises(CheckpointVersionError, match="version 1"):
            load_checkpoint(path)

    def test_non_checkpoint_text_is_malformed(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a checkpoint")
        with pytest.raises(MalformedCheckpointError):
            load_checkpoint(path)

    def test_missing_array_is_malformed(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: arrays.pop("decoder.1.b"))
        with pytest.raises(MalformedCheckpointError, match="decoder.1.b"):
            load_checkpoint(path)

    def test_non_finite_weight_is_malformed(self, tmp_path):
        path = saved_checkpoint(tmp_path)

        def poison(header, arrays):
            arrays["encoder.0.w"] = arrays["encoder.0.w"].copy()
            arrays["encoder.0.w"][0, 0] = np.nan

        rewrite_checkpoint(path, poison)
        with pytest.raises(MalformedCheckpointError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, name", [
        ("input_width", 3, "encoder.0.w"),
        ("feature_width", 64, "encoder.0.w"),
        ("disc_hidden", 16, "discriminator.0.w"),
        ("perceptual_width", 8, "perceptual.0.w"),
    ])
    def test_layer_shape_must_match_model_config(self, tmp_path, field, value, name):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["model_config"].update(
            {field: value}))
        with pytest.raises(MalformedCheckpointError, match=name):
            load_checkpoint(path)

    def test_decoder_output_width_checked(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: arrays.update(
            {"decoder.1.w": arrays["decoder.1.w"][:, :1].copy()}))
        with pytest.raises(MalformedCheckpointError, match="decoder.1.w"):
            load_checkpoint(path)

    def test_layer_count_must_match_model_config(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["model_config"].update(
            disc_layers=4))
        with pytest.raises(MalformedCheckpointError, match="discriminator"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("input_width", 2.0),
        ("feature_width", True),
        ("disc_layers", 5.0),
        ("perceptual_width", "8"),
        ("seed", 3.0),
        ("seed", False),
    ])
    def test_integer_config_fields_must_be_int(self, tmp_path, field, value):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["model_config"].update(
            {field: value}))
        with pytest.raises(MalformedCheckpointError, match=f"{field} is .*expected int"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_use_perceptual_must_be_bool(self, tmp_path, value):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["model_config"].update(
            use_perceptual=value))
        with pytest.raises(MalformedCheckpointError, match="use_perceptual is .*expected bool"):
            load_checkpoint(path)

    def test_hidden_activation_must_be_known(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["model_config"].update(
            hidden_activation="bogus"))
        with pytest.raises(MalformedCheckpointError, match="bogus"):
            load_checkpoint(path)

    def test_header_layer_count_must_be_int(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["layers"].update(encoder=2.0))
        with pytest.raises(MalformedCheckpointError, match="encoder"):
            load_checkpoint(path)

    def test_forged_history_values_are_malformed(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["history"].update(
            l_g_total=["x", {"a": 1}], iterations=[0, "one"]))
        with pytest.raises(MalformedCheckpointError, match="history"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["ab", {"a": 1, "b": 2}, 2, None])
    def test_history_column_must_be_a_list(self, tmp_path, value):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["history"].update(
            l_recon_mse=value))
        with pytest.raises(MalformedCheckpointError, match="l_recon_mse"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["1", 1.0, True, None])
    def test_history_iteration_must_be_int(self, tmp_path, value):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["history"].update(
            iterations=[0, value]))
        with pytest.raises(MalformedCheckpointError, match="iterations holds"):
            load_checkpoint(path)

    @pytest.mark.parametrize("column", ["l_d", "l_g_ad", "l_recon_mse", "l_perceptual",
                                        "l_g_total"])
    @pytest.mark.parametrize("value", ["0.5", [0.5], False])
    def test_history_loss_must_be_a_number(self, tmp_path, column, value):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["history"][column].__setitem__(
            1, value))
        with pytest.raises(MalformedCheckpointError, match=f"{column} holds"):
            load_checkpoint(path)

    @pytest.mark.parametrize("column", ["l_recon_mse", "l_perceptual", "l_g_total"])
    def test_history_gap_only_in_adversarial_terms(self, tmp_path, column):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: header["history"][column].__setitem__(
            0, None))
        with pytest.raises(MalformedCheckpointError, match=f"{column} holds None"):
            load_checkpoint(path)

    def test_history_accepts_ints_and_adversarial_gaps(self, tmp_path):
        path = saved_checkpoint(tmp_path)

        def edit(header, arrays):
            header["history"].update(l_d=[None, None], l_g_ad=[None, 1], l_g_total=[1, 2.5])

        rewrite_checkpoint(path, edit)
        _, history = load_checkpoint(path)
        assert history.l_d == [None, None] and history.l_g_ad == [None, 1]
        write_history_csv(history, tmp_path / "history.csv")

    def test_save_load_save_gives_identical_arrays(self, tmp_path):
        first = saved_checkpoint(tmp_path)
        second = tmp_path / "again.ckpt"
        save_checkpoint(*load_checkpoint(first), second)
        with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].dtype == b[name].dtype
                assert np.array_equal(a[name], b[name])

    def test_file_lands_at_the_given_path(self, tmp_path):
        path = saved_checkpoint(tmp_path, name="checkpoint.json")
        assert path.is_file()
        assert not (tmp_path / "checkpoint.json.npz").exists()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")


class TestHistoryCsv:
    def test_columns_and_empty_cells(self, tmp_path):
        data = small_blobs()
        _, history = train(data, quick_config(ablation="no_collaborative", iterations=3))
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,l_D,l_G_ad,l_recon_mse,l_perceptual,l_G_total"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[1] == "" and first[2] == ""

    def test_csv_is_deterministic(self, tmp_path):
        data = small_blobs()
        cfg = quick_config(iterations=5)
        for name in ("a.csv", "b.csv"):
            _, history = train(data, cfg)
            write_history_csv(history, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
