import errno
import gc
import hashlib
import json
import math
import struct
import tempfile
import tracemalloc
import weakref
import zipfile
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsplit import training
from privsplit.autodiff import Graph, Tensor, backward, grad_check
from privsplit.datasets import ClusterSpec, gen_toy_clusters, make_tiny_image_dataset
from privsplit.evaluation import AttackConfig, attack_train_eval, separability
from privsplit.models import (
    ModelConfig,
    NoiseSpec,
    build_models,
    decode,
    discriminate,
    encrypt,
    perceptual_features,
    reconstruct,
)
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


@pytest.fixture
def recorded_optimizers(monkeypatch):
    """Every Adam that `training` constructs while the test runs."""
    optimizers = []

    class RecordingAdam(training.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(training, "Adam", RecordingAdam)
    return optimizers


class TestTrainBasics:
    def test_zero_iterations_returns_initial_models(self):
        data = small_blobs()
        bundle, history = train(data, quick_config(iterations=0))
        assert len(history.iterations) == 0
        fresh = train(data, quick_config(iterations=0))[0]
        for a, b in zip(bundle.all_parameters(), fresh.all_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_iteration_count_and_finite_history(self):
        _, history = train(small_blobs(), quick_config(iterations=25))
        assert len(history.iterations) == 25
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

    @pytest.mark.parametrize("ablation", ["full", "no_collaborative", "msednet"])
    def test_one_optimizer_steps_once_per_iteration(self, recorded_optimizers, ablation):
        # Adam is elementwise, so one optimizer over the encoder, decoder and
        # discriminator equals one per network bitwise (TestBitwisePins holds)
        bundle, _ = train(small_blobs(), quick_config(ablation=ablation, iterations=5))
        (opt,) = recorded_optimizers
        assert opt.step_count == 5
        trained = (bundle.all_parameters() if ablation == "full"
                   else bundle.generator_parameters())  # only full trains D
        # the returned models hold the very weight arrays the optimizer stepped
        assert [id(p.data) for p in opt.params] == [id(p.data) for p in trained]

    @pytest.mark.parametrize("ablation", ["full", "no_collaborative", "msednet"])
    def test_trained_gradients_live_in_the_optimizers_buffer(self, recorded_optimizers,
                                                               ablation):
        # read after each step, since they die with the optimizer when train returns
        in_buffer = []

        def check(done, bundle):
            (opt,) = recorded_optimizers
            in_buffer.append(all(p.grad is p.grad_buffer and np.shares_memory(p.grad, opt._grad)
                                 for p in opt.params))

        bundle, _ = train(small_blobs(), quick_config(ablation=ablation, iterations=2),
                          snapshot_iters={1, 2}, snapshot_fn=check)
        assert in_buffer == [True, True]
        assert all(p.grad is None and p.grad_buffer is None for p in bundle.all_parameters())

    @pytest.mark.parametrize("ablation", ["full", "no_collaborative", "msednet"])
    def test_snapshots_see_the_trained_weights_and_record_no_graph(self, recorded_optimizers,
                                                                   ablation):
        x = Tensor(small_blobs()[:8])
        seen = []

        def check(done, view):
            (opt,) = recorded_optimizers
            trained = (view.all_parameters() if ablation == "full"
                       else view.generator_parameters())
            seen.append((all(np.shares_memory(v.data, p.data)
                             for v, p in zip(trained, opt.params, strict=True)),
                         reconstruct(x, view).requires_grad))

        train(small_blobs(), quick_config(ablation=ablation, iterations=2),
              snapshot_iters={1, 2}, snapshot_fn=check)
        assert seen == [(True, False), (True, False)]

    @pytest.mark.parametrize("ablation", ["full", "no_collaborative", "msednet"])
    def test_gradient_buffer_is_freed_when_train_returns(self, monkeypatch, ablation):
        buffers = []

        class WatchedAdam(training.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                buffers.append(weakref.ref(self._grad))

        monkeypatch.setattr(training, "Adam", WatchedAdam)
        # the bundle is held, so its weights alone must not keep the buffer alive
        bundle, _ = train(small_blobs(), quick_config(ablation=ablation, iterations=2))
        (buffer,) = buffers
        assert buffer() is None

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
        cfg = AttackConfig(iterations=5)
        toy = gen_toy_clusters(ClusterSpec(cluster_count=3, points_per_cluster=20))
        assert cyclic_garbage_after(lambda: attack_train_eval(toy, cfg)) == 0
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(40, 2)), rng.normal(1.0, 1.0, size=(40, 2))
        assert cyclic_garbage_after(lambda: separability(a, b, cfg)) == 0


class TestMemory:
    """tracemalloc counts numpy's buffers too, and reads the same figures on
    every run of 30 image-train iterations (seed 901, perceptual term on)."""

    @pytest.fixture(scope="class")
    def traced_image_training(self):
        """(bytes still traced while the trained bundle is held, traced peak)."""
        ds = make_tiny_image_dataset(seed=901)
        features = ds.features[ds.train_idx]
        cfg = TrainConfig(iterations=30, seed=901, input_width=ds.width, use_perceptual=True)
        tracemalloc.start()
        try:
            trained = train(features, cfg)  # held while the retained bytes are read
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return retained, peak

    def test_image_training_traced_peak_stays_below_24_mib(self, traced_image_training):
        # 29.6 MiB while each gradient was a fresh array copied into Adam's
        # buffer and spent graphs lived into the next step, 21.9 MiB once they
        # were not, 21.4 MiB with one optimizer, 20.3 MiB once each MSE term
        # kept neither its difference nor its square
        _, peak = traced_image_training
        assert peak < 24 * 2**20

    def test_trained_bundle_retains_only_its_weights(self, traced_image_training):
        # 4.2 MiB: the weights and their history; 7.8 MiB while the trained
        # tensors' gradient views kept Adam's flat gradient buffer alive
        retained, _ = traced_image_training
        assert retained < 5 * 2**20


class TestSnapshotMemory:
    def test_2000_row_panel_traced_peak_stays_below_8_mib(self):
        # train-toy's panel: reconstruct and encrypt 2000 rows at width 128.
        # 4.2 MiB now that they skip the split (the tighter pin is
        # test_models.py::TestInferenceMemory), 6.1 MiB while they copied it,
        # 10.1 MiB while every activation stayed in a graph
        ds = gen_toy_clusters(ClusterSpec(seed=2, points_per_cluster=200))
        plot_x = Tensor(ds.features[:2000])
        peaks = []

        def panel(done, view):
            tracemalloc.start()
            try:
                reconstruct(plot_x, view)
                encrypt(plot_x, view, NoiseSpec(std=1.0, seed=3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        train(ds.features[ds.train_idx], TrainConfig(iterations=2, seed=2),
              snapshot_iters={0, 2}, snapshot_fn=panel)
        assert len(peaks) == 2
        assert max(peaks) < 8 * 2**20


class TestReturnedModels:
    @pytest.mark.parametrize("ablation", training.ABLATIONS)
    def test_trained_models_need_no_gradient_and_record_no_graph(self, ablation):
        bundle, _ = train(small_blobs(), quick_config(ablation=ablation, iterations=2))
        assert not any(p.requires_grad for p in bundle.all_parameters())
        x = Tensor(small_blobs()[:8])
        for out in (reconstruct(x, bundle), encrypt(x, bundle, NoiseSpec(std=1.0, seed=1))):
            assert out._parents == () and not out.requires_grad

    def test_trained_discriminator_and_features_record_no_graph(self):
        bundle, _ = train(small_blobs(), quick_config(iterations=2))
        x = Tensor(small_blobs()[:8])
        for out in (discriminate(x, bundle), perceptual_features(x, bundle)):
            assert out._parents == () and not out.requires_grad

    def test_snapshots_see_the_weights_as_they_stand_then(self):
        x = Tensor(small_blobs()[:8])
        seen = {}

        def panel(done, view):
            seen[done] = reconstruct(x, view).data.copy()

        bundle, _ = train(small_blobs(), quick_config(iterations=3), snapshot_iters={0, 3},
                          snapshot_fn=panel)
        assert not np.array_equal(seen[0], seen[3])
        assert np.array_equal(seen[3], reconstruct(x, bundle).data)

    def test_whole_image_set_reconstruct_stays_below_10_mib(self):
        # the CLI's whole-dataset pass on what train returns: 800 x 1024 rows.
        # 9.38 MiB on frozen weights, 10.94 MiB while the returned weights
        # required grad and the pass recorded a graph
        ds = make_tiny_image_dataset(seed=3)
        cfg = TrainConfig(iterations=2, seed=3, input_width=ds.width, use_perceptual=True)
        bundle, _ = train(ds.features[ds.train_idx], cfg)
        x = Tensor(ds.features)
        tracemalloc.start()
        try:
            reconstruct(x, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


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
            x_e = encrypt(x, bundle, NoiseSpec(std=1.0, seed=5))
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
        assert len(history.iterations) == 1
        # recompute the op on the same state: cheap structural cross-check
        x = Tensor(data[:8])
        x_r = reconstruct(x, bundle)
        x_e = encrypt(x, bundle, NoiseSpec(std=1.0, seed=1))
        phi = lambda t: perceptual_features(t, bundle)
        _, _, combined = reconstruction_loss(x_r, x, phi, 0.01)
        val = msednet_loss(combined, x, x_e, phi).item()
        assert np.isfinite(val)

    def test_msednet_determinism(self):
        data = small_blobs()
        cfg = quick_config(ablation="msednet")
        h1 = train(data, cfg)[1]
        h2 = train(data, cfg)[1]
        assert h1.l_g_total == h2.l_g_total


def graph_nodes_per_step(monkeypatch, features, config) -> int:
    """The graph size of one training step's loss, as a traced run counts it."""
    sizes = []

    def counting_backward(loss):
        sizes.append(len(Graph(loss)))
        backward(loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    train(features, replace(config, iterations=1, batch_size=64))
    return sizes[0]


class TestGraphNodesPerStep:
    """One node per layer and per loss: the shared BCE is two nodes, one per target."""

    @pytest.mark.parametrize("ablation, nodes", [
        ("full", 48), ("no_collaborative", 17), ("msednet", 31)])
    def test_toy(self, monkeypatch, ablation, nodes):
        config = quick_config(ablation=ablation)
        assert graph_nodes_per_step(monkeypatch, small_blobs(), config) == nodes

    @pytest.mark.parametrize("ablation, nodes", [
        ("full", 59), ("no_collaborative", 28), ("msednet", 38)])
    def test_image_with_the_perceptual_term(self, monkeypatch, ablation, nodes):
        ds = make_tiny_image_dataset(size=8, class_count=2, per_class=40)
        config = TrainConfig(input_width=ds.width, use_perceptual=True, ablation=ablation)
        assert graph_nodes_per_step(monkeypatch, ds.features, config) == nodes


@pytest.mark.parametrize("ablation", ["full", "no_collaborative", "msednet"])
def test_objective_gradients_match_central_differences(ablation):
    # the bundle `privsplit check` uses
    rng = np.random.default_rng(11)
    bundle = build_models(ModelConfig(input_width=2, feature_width=8, privacy_width=2,
                                      disc_hidden=6, perceptual_width=6, seed=12))
    x = Tensor(rng.standard_normal((3, 2)))
    config = TrainConfig(use_perceptual=True, ablation=ablation)
    noise = None if ablation == "no_collaborative" else NoiseSpec(std=1.0, seed=13)
    err = grad_check(lambda: training.objective(x, bundle, config, noise)[0],
                     bundle.all_parameters(), eps=1e-5)
    assert err < 1e-4


@pytest.mark.parametrize("ablation", training.ABLATIONS)
def test_trained_parameters_are_the_ones_the_objective_reaches(ablation):
    # so `privsplit check`, which grad-checks only these, misses no gradient train applies
    bundle = build_models(ModelConfig(input_width=2, feature_width=8, privacy_width=2,
                                      disc_hidden=6, perceptual_width=6, seed=12))
    x = Tensor(np.random.default_rng(11).standard_normal((3, 2)))
    config = TrainConfig(use_perceptual=True, ablation=ablation)
    backward(training.objective(x, bundle, config, NoiseSpec(std=1.0, seed=13))[0])
    reached = [p for p in bundle.all_parameters() if p.grad is not None]
    assert [id(p) for p in training.trained_parameters(bundle, ablation)] == list(map(id, reached))


def run_digest(bundle, history) -> str:
    """sha256 of a run's history (as JSON, so floats by their exact repr) and final parameters."""
    digest = hashlib.sha256(json.dumps(asdict(history)).encode())
    for t in bundle.all_parameters():
        digest.update(t.data.tobytes())
    return digest.hexdigest()


class TestBitwisePins:
    """Digests taken before gradients moved into Adam's flat buffer and spent
    gradients were freed early: neither may change a bit. Like the pin above,
    they follow the BLAS kernels' summation order (x86-64, OpenBLAS 0.3.31)."""

    @pytest.mark.parametrize("ablation, expected", [
        ("full", "c43c6dd9cb0f8e2166698731858e233d27ea787bb3b38cde551b138c434c85eb"),
        ("no_collaborative", "add33518b134cee01ecc2aab9e0197ff567554c6989c730854479064010f6c82"),
        ("msednet", "269699fe170018c09bfa33e39cf11ac2311a19cdd048a910a860489214bf0737"),
    ])
    def test_toy_run_pinned(self, ablation, expected):
        run = train(small_blobs(), quick_config(ablation=ablation, iterations=30))
        assert run_digest(*run) == expected

    def test_snapshot_panels_pinned(self):
        # what train-toy's scatter panels read at iteration 0 and mid-run
        plot_x = Tensor(small_blobs(seed=1))
        digest = hashlib.sha256()

        def panel(done, bundle):
            digest.update(reconstruct(plot_x, bundle).data.tobytes())
            digest.update(encrypt(plot_x, bundle, NoiseSpec(std=1.0, seed=7)).data.tobytes())

        train(small_blobs(), quick_config(iterations=12), snapshot_iters={0, 6, 12},
              snapshot_fn=panel)
        assert digest.hexdigest() == (
            "ad898823a6e453dc24d7b7a82af0367a10a2ea2b9d8b9e21209f65a39d16205c")

    def test_image_run_with_perceptual_term_pinned(self):
        ds = make_tiny_image_dataset(seed=0)
        cfg = TrainConfig(iterations=10, seed=5, input_width=ds.width, use_perceptual=True)
        run = train(ds.features[ds.train_idx], cfg)
        assert run_digest(*run) == (
            "91df8df24c752f362c25befc8a87a93ae98158c77c5bad35eecda24c666959f4")


class TestTrainConfigValidation:
    def test_bad_ablation(self):
        with pytest.raises(ValueError, match="ablation"):
            TrainConfig(iterations=1, ablation="nope")

    def test_bad_batch(self):
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(iterations=1, batch_size=0)

    @pytest.mark.parametrize("name, value", [
        ("lam", -0.1), ("lam", math.inf), ("lam", -math.inf), ("lam", math.nan),
        ("alpha", 0.0), ("alpha", -1e-3), ("alpha", math.inf), ("alpha", math.nan),
        ("noise_std", -1.0), ("noise_std", math.inf), ("noise_std", math.nan),
    ])
    def test_bad_optimizer_and_noise_settings(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(iterations=1, **{name: value})

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            TrainConfig(iterations=1, seed=-1)

    def test_edge_optimizer_and_noise_settings_are_accepted(self):
        TrainConfig(iterations=1, alpha=5e-324, noise_std=0.0, lam=0.0)

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


def as_version_2(header, arrays):
    """Turn a version-3 header into a version-2 one, with the keys that version held."""
    header["version"] = 2
    header["model_config"].update(disc_layers=5, hidden_activation="tanh", use_perceptual=False)


class TestCheckpoints:
    def test_round_trip_reproduces_forward_outputs_bitwise(self, tmp_path):
        data = small_blobs()
        bundle, history = train(data, quick_config(iterations=10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, history, path)
        loaded, loaded_history = load_checkpoint(path)
        x = Tensor(data[:20])
        assert np.array_equal(reconstruct(x, bundle).data, reconstruct(x, loaded).data)
        noise = NoiseSpec(std=1.0, seed=9)
        assert np.array_equal(encrypt(x, bundle, noise).data, encrypt(x, loaded, noise).data)
        assert loaded_history.l_g_total == history.l_g_total
        assert loaded_history.l_d == history.l_d

    def test_loaded_bundle_records_no_graph(self, tmp_path):
        loaded, _ = load_checkpoint(saved_checkpoint(tmp_path))
        out = encrypt(Tensor(small_blobs()[:5]), loaded, NoiseSpec(std=1.0, seed=1))
        assert out._parents == () and not out.requires_grad

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

    def test_version_2_is_a_version_error(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, as_version_2)
        with pytest.raises(CheckpointVersionError, match="version 2, expected 3"):
            load_checkpoint(path)

    def test_saved_file_pinned(self, tmp_path):
        # sha256 of the whole file: a change to the header or the layout must
        # come with a new CHECKPOINT_VERSION and a new pin. Untrained weights
        # come from numpy's generator alone, so no BLAS kernel enters the digest.
        bundle, history = train(small_blobs(), quick_config(iterations=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, history, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "de53c01cd002e1ea674560227e88e3b890e37330f0ffb835ae4a693478ef98b5")

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
        rewrite_checkpoint(path, lambda header, arrays: header["layers"].update(discriminator=4))
        with pytest.raises(MalformedCheckpointError, match="discriminator has 4 layers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("input_width", 2.0),
        ("feature_width", True),
        ("disc_hidden", 16.0),
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

    def test_model_config_keys_are_the_fields(self, tmp_path):
        with np.load(saved_checkpoint(tmp_path), allow_pickle=False) as archive:
            header = json.loads(archive["header"].tobytes())
        assert list(header["model_config"]) == [f.name for f in fields(ModelConfig)]

    @pytest.mark.parametrize("edit", [
        lambda config: config.update(hidden_activation="tanh"),
        lambda config: config.pop("seed"),
    ], ids=["extra-key", "missing-key"])
    def test_model_config_must_hold_exactly_the_fields(self, tmp_path, edit):
        path = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda header, arrays: edit(header["model_config"]))
        with pytest.raises(MalformedCheckpointError, match="header is invalid"):
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

    def test_member_offset_before_file_start_is_malformed(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        path.write_bytes(offsets_before_file_start(path.read_bytes()))
        with pytest.raises(MalformedCheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_garbled_member_dtype_is_malformed(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        # same length, so the header stays aligned; numpy's dtype parser
        # raises SyntaxError on the unclosed comma form
        members["encoder.0.w.npy"] = members["encoder.0.w.npy"].replace(
            b"'<f8', ", b"'f8,(',", 1)
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        with pytest.raises(MalformedCheckpointError, match="encoder.0.w"):
            load_checkpoint(path)

    def test_a_read_error_stays_an_oserror(self, tmp_path, monkeypatch):
        path = saved_checkpoint(tmp_path)

        def failing_open(self, *args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(zipfile.ZipFile, "open", failing_open)
        with pytest.raises(OSError) as info:
            load_checkpoint(path)
        assert info.value.errno == errno.EIO


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


def offsets_before_file_start(blob: bytes) -> bytes:
    """`blob` with its central directory offset raised past the file size.

    zipfile takes the difference as a prefix of the archive and moves every
    member's offset back by it, so the first member read seeks before byte 0.
    """
    out = bytearray(blob)
    end = out.rfind(b"PK\x05\x06") + 16
    (offset,) = struct.unpack_from("<I", out, end)
    struct.pack_into("<I", out, end, offset + len(out))
    return bytes(out)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    """A saved checkpoint's bytes, and where its zip and .npy headers start."""
    blob = saved_checkpoint(tmp_path_factory.mktemp("fuzz")).read_bytes()
    directory = struct.unpack_from("<I", blob, blob.rfind(b"PK\x05\x06") + 16)[0]
    members = [i for i in range(directory) if blob.startswith(b"PK\x03\x04", i)]
    return blob, directory, members


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_byte_flipped_checkpoint_loads_or_raises_a_checkpoint_error(checkpoint_blob, data):
    blob, directory, members = checkpoint_blob
    blob = bytearray(blob)
    # most bytes are weights; aim two of three flips at the zip and .npy headers
    position = st.one_of(
        st.integers(0, len(blob) - 1),
        st.integers(directory, len(blob) - 1),
        st.builds(lambda start, k: start + k, st.sampled_from(members), st.integers(0, 160)))
    for pos, mask in data.draw(st.lists(st.tuples(position, st.integers(1, 255)),
                                        min_size=1, max_size=3)):
        blob[pos] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.npz"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except (MalformedCheckpointError, CheckpointVersionError):
            pass
