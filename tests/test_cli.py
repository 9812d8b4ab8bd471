import numpy as np
import pytest

from privsplit import cli
from privsplit.autodiff import Tensor
from privsplit.datasets import features_to_pixels, make_tiny_image_dataset, pixels_to_features
from privsplit.image import load_pixmap, save_pixmap
from privsplit.models import NoiseSpec, encrypt
from privsplit.training import TrainingDivergedError, load_checkpoint


def test_diverged_training_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise TrainingDivergedError("loss term l_g_total is non-finite at iteration 7")

    monkeypatch.setattr(cli, "train", diverge)
    assert cli.main(["train-toy", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "error: training diverged: loss term l_g_total is non-finite at iteration 7"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """`train-image` at 2 iterations on a small grating set, plus one input pixmap."""
    root = tmp_path_factory.mktemp("request")
    config = root / "run.ini"
    config.write_text("[data]\nper_class = 20\n\n[train]\niterations = 2\n")
    assert cli.main(["--seed", "3", "train-image", "--config", str(config),
                     "--out", str(root / "run")]) == 0
    image = make_tiny_image_dataset(per_class=20, seed=9).images[0]
    save_pixmap(image, root / "in.pgm")
    return root


def obfuscate(root, checkpoint):
    return cli.main(["--seed", "5", "obfuscate", "--method", "model",
                     "--input", str(root / "in.pgm"), "--output", str(root / "out.pgm"),
                     "--checkpoint", str(checkpoint)])


def test_train_image_writes_npz_checkpoint(trained_run):
    assert (trained_run / "run" / "checkpoint.npz").is_file()
    assert not (trained_run / "run" / "checkpoint.json").exists()


def test_obfuscate_with_model_matches_encrypt_bitwise(trained_run):
    ckpt = trained_run / "run" / "checkpoint.npz"
    assert obfuscate(trained_run, ckpt) == 0
    image = load_pixmap(trained_run / "in.pgm")
    bundle, _ = load_checkpoint(ckpt)
    features = pixels_to_features(image.pixels).reshape(1, -1)
    expected = features_to_pixels(encrypt(Tensor(features), bundle, NoiseSpec(1.0, 5)).data)
    assert np.array_equal(load_pixmap(trained_run / "out.pgm").pixels,
                          expected.reshape(image.pixels.shape))


def test_obfuscate_on_truncated_checkpoint_exits_1(trained_run, capsys):
    blob = (trained_run / "run" / "checkpoint.npz").read_bytes()
    broken = trained_run / "truncated.npz"
    broken.write_bytes(blob[: len(blob) // 2])
    assert obfuscate(trained_run, broken) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_obfuscate_on_version_1_checkpoint_exits_1(trained_run, capsys):
    old = trained_run / "old.json"
    old.write_text('{"magic": "privsplit-checkpoint", "version": 1}')
    assert obfuscate(trained_run, old) == 1
    assert "version 1" in capsys.readouterr().err


def test_sweep_with_invalid_proportion_exits_1_before_any_run(tmp_path, capsys):
    # 3/256 of the feature width 128 is 1.5 privacy features; the valid 1/64
    # before it must not train first
    config = tmp_path / "sweep.ini"
    config.write_text("[sweep]\nproportions = 1/64, 3/256\n")
    assert cli.main(["sweep-proportion", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "3/256" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not (tmp_path / "run").exists()
