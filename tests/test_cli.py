import argparse
import csv
import errno
import hashlib
import inspect
import json
import os
import struct
import tempfile
import zipfile
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsplit import cli
from privsplit.autodiff import Tensor
from privsplit.datasets import (
    ClusterSpec,
    features_to_pixels,
    gen_toy_clusters,
    load_image_folder,
    make_tiny_image_dataset,
    pixels_to_features,
)
from privsplit.evaluation import REPORT_COLUMNS, AttackConfig, attack_train_eval, psnr
from privsplit.image import Image, load_pixmap, save_pixmap
from privsplit.obfuscation import gaussian_blur, pixelate
from privsplit.models import NoiseSpec, encrypt, reconstruct
from privsplit.p3 import p3_encode, serialize_secret
from privsplit.training import (
    ABLATIONS,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    train,
)


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


def test_obfuscate_on_member_offset_before_file_start_exits_1(trained_run, capsys):
    # raising the central directory's offset past the file size moves every
    # member's offset before byte 0; the seek there fails with EINVAL
    blob = bytearray((trained_run / "run" / "checkpoint.npz").read_bytes())
    end = blob.rfind(b"PK\x05\x06") + 16
    (offset,) = struct.unpack_from("<I", blob, end)
    struct.pack_into("<I", blob, end, offset + len(blob))
    broken = trained_run / "offsets.npz"
    broken.write_bytes(bytes(blob))
    assert obfuscate(trained_run, broken) == 1
    assert capsys.readouterr().err.startswith("error: checkpoint array")


def test_obfuscate_on_checkpoint_read_error_exits_3(trained_run, monkeypatch, capsys):
    def failing_open(self, *args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(zipfile.ZipFile, "open", failing_open)
    assert obfuscate(trained_run, trained_run / "run" / "checkpoint.npz") == 3
    assert "Input/output error" in capsys.readouterr().err


def test_obfuscate_on_version_1_checkpoint_exits_1(trained_run, capsys):
    old = trained_run / "old.json"
    old.write_text('{"magic": "privsplit-checkpoint", "version": 1}')
    assert obfuscate(trained_run, old) == 1
    assert "version 1" in capsys.readouterr().err


def test_obfuscate_on_version_2_checkpoint_exits_1(trained_run, capsys):
    with np.load(trained_run / "run" / "checkpoint.npz", allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays["header"].tobytes())
    header["version"] = 2
    header["model_config"].update(disc_layers=5, hidden_activation="tanh", use_perceptual=True)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    old = trained_run / "v2.npz"
    with open(old, "wb") as fh:
        np.savez(fh, **arrays)
    assert obfuscate(trained_run, old) == 1
    assert capsys.readouterr().err.strip() == "error: checkpoint version 2, expected 3"


@pytest.mark.parametrize("std", ["nan", "inf"])
def test_obfuscate_with_non_finite_noise_std_exits_1_naming_it(trained_run, capsys, std):
    out = trained_run / f"noise-{std}.pgm"
    assert cli.main(["obfuscate", "--method", "model", "--input", str(trained_run / "in.pgm"),
                     "--output", str(out), "--checkpoint",
                     str(trained_run / "run" / "checkpoint.npz"), "--noise-std", std]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: noise std must be finite and non-negative, got {std}")
    assert not out.exists()


def checkpoint_width_message(checkpoint, data_width):
    width = load_checkpoint(checkpoint)[0].config.input_width
    return (f"error: checkpoint {checkpoint} expects input width {width}, "
            f"the data has width {data_width}")


def test_obfuscate_with_a_checkpoint_of_another_width_exits_2_and_writes_nothing(
        trained_run, tmp_path, capsys):
    ckpt = trained_run / "run" / "checkpoint.npz"
    save_pixmap(Image.from_array(np.zeros((4, 5), dtype=np.uint8)), tmp_path / "small.pgm")
    assert cli.main(["obfuscate", "--method", "model", "--input", str(tmp_path / "small.pgm"),
                     "--output", str(tmp_path / "out.pgm"), "--checkpoint", str(ckpt),
                     "--recon-out", str(tmp_path / "recon.pgm")]) == 2
    assert capsys.readouterr().err.splitlines() == [checkpoint_width_message(ckpt, 20)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.pgm"]


def test_attack_with_a_checkpoint_of_another_width_exits_2_and_writes_nothing(
        trained_run, tmp_path, capsys):
    ckpt = trained_run / "run" / "checkpoint.npz"
    config = tmp_path / "attack.ini"
    config.write_text(f"[attack]\nmethods = model\nmodel_checkpoint = {ckpt}\niterations = 5\n")
    assert cli.main(["attack", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [checkpoint_width_message(ckpt, 2)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["attack.ini"]


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


# sha256 of the float64 bytes each image baseline encrypts make_tiny_image_dataset(seed=0)
# into. Pixelation and blur were taken from the per-image code the stack code
# replaced. P3 was taken from the matmul DCT, whose 8x8 products follow the BLAS
# kernel's summation order (here x86-64, numpy 2.4, OpenBLAS 0.3.31); it differs
# from the einsum codec only at rounding ties, which test_p3.TestEinsumOracle bounds
BASELINE_DIGESTS = {
    "Pixelation(20)": "b4b48d721d7433251a3f707959e201659b951697459a69f82fd4a680fe92b9b9",
    "Blurring(16)": "80b6fc1c6c456909296236ea49e204eef03fb8d1e9fded06aec055b6f3e391ce",
    "P3(1)": "2faf896f82fde2b15ef2e406c568646fd094c5f412f722c410ec60db87081a87",
}


def test_image_baselines_are_pinned():
    dataset = make_tiny_image_dataset(seed=0)
    methods = cli.build_methods({"attack": {"methods": "pixelate,blur,p3"}}, dataset, 1.0)
    digests = {}
    for method in methods:
        out = method.encrypt(dataset.features, np.random.default_rng(0))
        assert out.dtype == np.float64 and out.shape == dataset.features.shape
        digests[method.name] = hashlib.sha256(out.tobytes()).hexdigest()
    assert digests == BASELINE_DIGESTS


def test_check_exits_0_and_passes_every_line(capsys):
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS gradient-check", "PASS divergence-identity", "PASS optimal-discriminator-recovery",
        "PASS probe-gradient-check"]


def check_verdicts(capsys):
    """`privsplit check`'s exit code and its PASS/FAIL word per check name."""
    code = cli.main(["check"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, dict(reversed(line.split(":")[0].split(" ")) for line in lines)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_check_fails_on_a_wrong_objective_gradient_under_any_ablation(monkeypatch, capsys,
                                                                     ablation):
    real_objective = cli.objective

    def objective(x, bundle, config, noise):
        total, *rest = real_objective(x, bundle, config, noise)
        if config.ablation == ablation:  # a term central differences see and backward does not
            total = total + Tensor(bundle.encoder[0].w.data.sum())
        return (total, *rest)

    monkeypatch.setattr(cli, "objective", objective)
    assert check_verdicts(capsys) == (1, {
        "gradient-check": "FAIL", "divergence-identity": "PASS",
        "optimal-discriminator-recovery": "PASS", "probe-gradient-check": "PASS"})


def test_check_fails_on_a_wrong_probe_loss_gradient(monkeypatch, capsys):
    real_loss = cli.softmax_cross_entropy

    def softmax_cross_entropy(logits, labels):
        return real_loss(logits, labels) + Tensor(logits.data.sum())

    monkeypatch.setattr(cli, "softmax_cross_entropy", softmax_cross_entropy)
    assert check_verdicts(capsys) == (1, {
        "gradient-check": "PASS", "divergence-identity": "PASS",
        "optimal-discriminator-recovery": "PASS", "probe-gradient-check": "FAIL"})


def test_attack_reports_every_baseline(tmp_path):
    config = tmp_path / "attack.ini"
    config.write_text("[data]\nkind = tiny\nper_class = 20\n\n"
                      "[attack]\nmethods = pixelate,blur,p3\niterations = 5\n")
    assert cli.main(["attack", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "report.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == [
        "Original", "Random", "Pixelation(20)", "Blurring(16)", "P3(1)"]


@pytest.mark.parametrize("method, flag, library", [
    ("pixelate", ["--factor", "5"], lambda img: pixelate(img, 5)),
    ("blur", ["--radius", "3"], lambda img: gaussian_blur(img, 3)),
    ("p3", ["--threshold", "2"], lambda img: p3_encode(img, 2).public_image),
])
def test_obfuscate_baseline_matches_library(tmp_path, method, flag, library):
    image = make_tiny_image_dataset(per_class=20, seed=4).images[7]
    save_pixmap(image, tmp_path / "in.pgm")
    out = tmp_path / "out.pgm"
    assert cli.main(["obfuscate", "--method", method, "--input", str(tmp_path / "in.pgm"),
                     "--output", str(out)] + flag) == 0
    assert np.array_equal(load_pixmap(out).pixels, library(image).pixels)
    secret = tmp_path / "out.pgm.secret"
    assert secret.exists() == (method == "p3")
    if method == "p3":
        assert secret.read_bytes() == serialize_secret(p3_encode(image, 2))


def test_obfuscate_p3_threshold_beyond_u16_exits_1_and_writes_nothing(tmp_path, capsys):
    save_pixmap(make_tiny_image_dataset(per_class=20, seed=4).images[0], tmp_path / "in.pgm")
    out = tmp_path / "out.pgm"
    assert cli.main(["obfuscate", "--method", "p3", "--input", str(tmp_path / "in.pgm"),
                     "--output", str(out), "--threshold", "70000"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "70000" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


# each obfuscate flag that only one method reads: that method and a valid value
METHOD_FLAGS = {"--factor": ("pixelate", "3"), "--radius": ("blur", "3"),
                "--threshold": ("p3", "2"), "--secret-out": ("p3", "s.bin"),
                "--checkpoint": ("model", "c.npz"), "--noise-std": ("model", "0.5"),
                "--recon-out": ("model", "r.pgm")}


@pytest.mark.parametrize("method, flags", [
    (method, [flag]) for method in (*cli.BASELINES, "model")
    for flag, (owner, _) in METHOD_FLAGS.items() if owner != method
] + [("p3", ["--factor", "--recon-out"])])
def test_obfuscate_flag_of_another_method_exits_2_before_reading_the_input(
        tmp_path, monkeypatch, capsys, method, flags):
    monkeypatch.chdir(tmp_path)  # the flags' relative paths would land here
    argv = ["obfuscate", "--method", method, "--input", "missing.pgm", "--output", "out.pgm"]
    for flag in flags:
        argv += [flag, METHOD_FLAGS[flag][1]]
    assert cli.main(argv) == 2  # a read of the missing input would exit 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: --method {method} does not read {', '.join(flags)}"]
    assert list(tmp_path.iterdir()) == []


def test_attack_p3_threshold_beyond_u16_exits_1_and_writes_nothing(tmp_path, capsys):
    config = tmp_path / "attack.ini"
    config.write_text("[data]\nkind = tiny\nper_class = 20\n\n"
                      "[attack]\nmethods = p3\np3_threshold = 70000\niterations = 5\n")
    assert cli.main(["attack", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "70000" in err[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section", ["train", "data"])
@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
@pytest.mark.parametrize("also", ["alone", "other-seed", "seed-flag"])
def test_bad_seed_in_config_exits_2(tmp_path, capsys, section, value, also):
    # checked even where another seed is the one the run would use
    text = f"[{section}]\nseed = {value}\n"
    if also == "other-seed":
        text += f"\n[{'data' if section == 'train' else 'train'}]\nseed = 3\n"
    flags = ["--seed", "5"] if also == "seed-flag" else []
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert cli.main([*flags, "train-toy", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad value for {section}.seed: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, message", [
    (["--seed", "-1"], "error: --seed must be non-negative, got -1"),
], ids=["flag"])
def test_negative_run_seed_exits_2_naming_its_source(tmp_path, capsys, flag, message):
    assert cli.main([*flag, "train-toy", "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""
    assert not (tmp_path / "run").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[train]\niterationz = 5\n")
    assert cli.main(["train-toy", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.strip() == "error: unknown key 'iterationz' in section [train]"
    assert not (tmp_path / "run").exists()


def test_obfuscate_missing_input_exits_3(tmp_path, capsys):
    assert cli.main(["obfuscate", "--method", "blur", "--input", str(tmp_path / "absent.pgm"),
                     "--output", str(tmp_path / "out.pgm")]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("input_exists", [True, False], ids=["input", "no-input"])
def test_obfuscate_model_without_checkpoint_exits_2_whether_or_not_the_input_exists(
        tmp_path, capsys, input_exists):
    if input_exists:
        save_pixmap(Image.from_array(np.zeros((4, 5), dtype=np.uint8)), tmp_path / "in.pgm")
    assert cli.main(["obfuscate", "--method", "model", "--input", str(tmp_path / "in.pgm"),
                     "--output", str(tmp_path / "out.pgm")]) == 2
    assert capsys.readouterr().err.strip() == "error: --checkpoint is required for method=model"
    assert not (tmp_path / "out.pgm").exists()


def test_report_summarises_a_finished_train_toy_run(tmp_path, capsys):
    config = tmp_path / "toy.ini"
    config.write_text("[data]\npoints_per_cluster = 20\n\n[train]\niterations = 3\n\n"
                      "[attack]\niterations = 5\n")
    run = tmp_path / "run"
    assert cli.main(["train-toy", "--config", str(config), "--out", str(run)]) == 0
    with open(run / "history.csv", newline="", encoding="ascii") as fh:
        header, first, *_, last = list(csv.reader(fh))
    capsys.readouterr()
    assert cli.main(["report", "--run", str(run)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "== history.csv (3 rows)"  # one row per iteration
    assert lines[1:] == [f"  {col}: first {a or '-'} last {b or '-'}"
                         for col, a, b in zip(header[1:], first[1:], last[1:])]


@pytest.mark.parametrize("name", ["history.csv", "report.csv", "sweep.csv"])
def test_report_counts_an_empty_file_as_0_rows(tmp_path, capsys, name):
    (tmp_path / name).write_bytes(b"")
    assert cli.main(["report", "--run", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"== {name} (0 rows)"]


def test_report_skips_blank_lines(tmp_path, capsys):
    (tmp_path / "sweep.csv").write_text("proportion,accuracy\n1/64,0.5\n\n", encoding="ascii")
    assert cli.main(["report", "--run", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["== sweep.csv (1 rows)", "  1/64, 0.5"]


def test_report_skips_blank_lines_in_the_history_summary(tmp_path, capsys):
    (tmp_path / "history.csv").write_text("iteration,l_D\n0,1.0\n\n1,0.5\n\n",
                                          encoding="ascii")
    assert cli.main(["report", "--run", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "== history.csv (2 rows)", "  l_D: first 1.0 last 0.5"]


def test_report_on_a_file_that_is_not_ascii_names_it_and_exits_1(tmp_path, capsys):
    path = tmp_path / "history.csv"
    path.write_bytes(b"iteration,l_D\n0,1.\xff\n")
    assert cli.main(["report", "--run", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {path} is not an ASCII run file"
    assert captured.out == ""


def test_report_on_a_field_over_the_csv_limit_names_the_file_and_exits_1(tmp_path, capsys):
    path = tmp_path / "report.csv"
    path.write_text("method,note\nOurs," + "x" * (csv.field_size_limit() + 1) + "\n",
                    encoding="ascii")
    assert cli.main(["report", "--run", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {path} is not a readable CSV run file: "
        f"field larger than field limit ({csv.field_size_limit()})"]
    assert captured.out == ""


@pytest.mark.parametrize("make_dir", [True, False], ids=["empty", "absent"])
def test_report_without_run_artifacts_exits_3(tmp_path, capsys, make_dir):
    run = tmp_path / "run"
    if make_dir:
        run.mkdir()
    assert cli.main(["report", "--run", str(run)]) == 3
    assert capsys.readouterr().err.strip() == f"error: no run artifacts found in {run}"


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_stdout_closed_early_exits_141_quietly_with_stdout_on_devnull(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "history.csv").write_text("iteration,l_D\n0,1.0\n", encoding="ascii")
    with open(tmp_path / "stdout", "wb") as stdout:
        monkeypatch.setattr("sys.stdout", ClosedPipe(stdout.fileno()))
        assert cli.main(["report", "--run", str(tmp_path)]) == 141
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_other_write_errors_still_exit_3(tmp_path, monkeypatch, capsys):
    (tmp_path / "history.csv").write_text("iteration,l_D\n0,1.0\n", encoding="ascii")

    class FullDisk(ClosedPipe):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("sys.stdout", FullDisk(-1))
    assert cli.main(["report", "--run", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("i/o error: [Errno 28]")


def test_sweep_proportion_on_toy_data_writes_one_row_per_proportion(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text("[data]\npoints_per_cluster = 20\n\n[train]\niterations = 2\n\n"
                      "[attack]\niterations = 5\n\n[sweep]\nproportions = 1/64, 1/4\n")
    run = tmp_path / "run"
    assert cli.main(["sweep-proportion", "--config", str(config), "--out", str(run)]) == 0
    with open(run / "sweep.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == REPORT_COLUMNS
    assert [row[0] for row in rows[1:]] == ["Ours(1/64)", "Ours(1/4)"]


def test_sweep_rows_equal_a_train_encrypt_attack_loop_bitwise(tmp_path):
    # each proportion trains, then encrypts the whole set with a noise seed
    # drawn from default_rng(seed + 31337) and attacks it with the run's
    # attack config; the PSNRs are the held-out rows' against the originals
    seed, proportions = 4, (Fraction(1, 64), Fraction(1, 4))
    config = tmp_path / "sweep.ini"
    config.write_text("[data]\npoints_per_cluster = 20\n\n[train]\niterations = 3\n\n"
                      "[attack]\niterations = 20\n\n[sweep]\nproportions = 1/64, 1/4\n")
    run = tmp_path / "run"
    assert cli.main(["--seed", str(seed), "sweep-proportion", "--config", str(config),
                     "--out", str(run)]) == 0
    with open(run / "sweep.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))

    dataset = gen_toy_clusters(ClusterSpec(points_per_cluster=20, seed=seed))
    acfg = AttackConfig(iterations=20, seed=seed + 1)
    features, held = dataset.features, dataset.heldout_idx
    peak = float(features.max() - features.min())
    assert [row["method"] for row in rows] == [f"Ours({p})" for p in proportions]
    for row, proportion in zip(rows, proportions):
        tcfg = TrainConfig(iterations=3, seed=seed, input_width=2, privacy_proportion=proportion)
        bundle, _ = train(features[dataset.train_idx], tcfg)
        recon = reconstruct(Tensor(features), bundle).data
        rng = np.random.default_rng(seed + 31337)
        noise = NoiseSpec(std=tcfg.noise_std, seed=int(rng.integers(2**62)))
        encrypted = encrypt(Tensor(features), bundle, noise).data
        expected = (attack_train_eval(dataset.with_features(encrypted), acfg),
                    psnr(recon[held], features[held], peak),
                    psnr(encrypted[held], features[held], peak))
        got = tuple(float(row[k]) for k in ("accuracy", "psnr_recon_db", "psnr_encrypted_db"))
        assert got == expected


# ---------------------------------------------------------------------------
# the INI loader and the configs it builds


def run_with_config(tmp_path, text, command="train-toy"):
    config = tmp_path / "run.ini"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    return cli.main([command, "--config", str(config), "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("command, text, message", [
    ("train-toy", "[train]\nalpha = 5%\n", "error: bad value for train.alpha: '5%'"),
    ("train-toy", b"[train]\niterations = \xff\n", "error: cannot parse config "),
    ("train-toy", "[DEFAULT]\niterationz = 1\n", "error: config keys must sit in a named section"),
    ("train-toy", "[sweep]\niterations = 3\n",
     "error: unknown key 'iterations' in section [sweep]"),
    ("sweep-proportion", "[sweep]\nproportions = 1/64, 1/0\n",
     "error: bad value for sweep.proportions: '1/64, 1/0'"),
    ("sweep-proportion", "[sweep]\nproportions = abc\n",
     "error: bad value for sweep.proportions: 'abc'"),
    ("train-toy", "[train]\nbeta1 = 0.9\n", "error: unknown key 'beta1' in section [train]"),
    ("train-toy", "[train]\nbeta2 = 0.999\n", "error: unknown key 'beta2' in section [train]"),
    ("train-toy", "[train]\nepsilon = 1e-8\n", "error: unknown key 'epsilon' in section [train]"),
    ("train-toy", "[attack]\nhidden_width = 64\n",
     "error: unknown key 'hidden_width' in section [attack]"),
    ("train-toy", "[attack]\nbatch_size = 0\n", "error: unknown key 'batch_size' in section [attack]"),
    ("train-toy", "[attack]\nalpha = nan\n", "error: unknown key 'alpha' in section [attack]"),
    ("train-toy", "[data]\nper_class = 5\nsize = 8\n",
     "error: the toy data source does not read [data] per_class, size"),
    ("train-toy", "[data]\nkind = tiny\n", "error: this command needs data.kind = toy, got 'tiny'"),
    ("train-image", "[data]\nkind = toy\ncluster_count = 3\n",
     "error: this command needs data.kind = tiny, got 'toy'"),
    ("train-image", "[data]\ncluster_count = 3\n",
     "error: the tiny data source does not read [data] cluster_count"),
    ("attack", "[data]\nkind = tiny\ncluster_count = 3\n",
     "error: the tiny data source does not read [data] cluster_count"),
    ("train-image", "[data]\nsource_dir = never-read\nsize = 8\n",
     "error: the folder data source does not read [data] size"),
    ("train-toy", "[data]\ncenter_box = 4.0\n", "error: unknown key 'center_box' in section [data]"),
    ("train-toy", "[data]\ncluster_std = 0.25\n",
     "error: unknown key 'cluster_std' in section [data]"),
    ("train-toy", "[plot]\npoints_per_cluster = 200\n", "error: unknown config section [plot]"),
], ids=["percent", "not-utf8", "default-section", "sweep-iterations", "sweep-zero-denominator",
        "sweep-not-a-fraction", "beta1", "beta2", "epsilon", "attack-hidden-width",
        "attack-batch-size", "attack-alpha", "toy-with-tiny-keys", "toy-told-tiny",
        "image-told-toy", "image-with-toy-key", "attack-tiny-with-toy-key", "folder-with-size",
        "center-box",
        "cluster-std", "plot-section"])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, command, text, message):
    assert run_with_config(tmp_path, text, command) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


TINY_ATTACK = "[data]\nkind = tiny\nper_class = 20\n\n[attack]\niterations = 5\n"


@pytest.mark.parametrize("command, text, message", [
    ("sweep-proportion", "[attack]\niterations = 0\n", "error: attack iterations must be at least 1"),
    ("train-toy", "[train]\nnoise_std = -1\n", "error: noise_std must be finite and non-negative"),
    ("train-toy", "[attack]\nseed = -1\n", "error: attack seed must be non-negative"),
    ("attack", TINY_ATTACK + "methods = pixelate\npixelate_factor = 0\n",
     "error: attack.pixelate_factor: pixelation factor must be >= 1, got 0"),
    ("attack", TINY_ATTACK + "methods = blur\nblur_radius = -1\n",
     "error: attack.blur_radius: blur radius must be >= 0, got -1"),
    ("sweep-proportion", "[sweep]\nproportions =\n", "error: sweep.proportions names no proportion"),
    ("attack", TINY_ATTACK + "methods = pixelate\n\n[train]\nnoise_std = -1\n",
     "error: noise_std must be finite and non-negative, got -1"),
    ("attack", TINY_ATTACK + "methods = pixelate\n\n[train]\nnoise_std = nan\n",
     "error: noise_std must be finite and non-negative, got nan"),
    ("attack", TINY_ATTACK + "methods = pixelate\n\n[train]\nnoise_std = inf\n",
     "error: noise_std must be finite and non-negative, got inf"),
    ("train-image", "[data]\nclass_count = 0\n", "error: need at least 2 classes, got 0"),
    ("train-image", "[data]\nclass_count = -1\n", "error: need at least 2 classes, got -1"),
    ("train-image", "[data]\nsize = -3\n", "error: image size must be at least 1, got -3"),
    ("attack", "[data]\nkind = tiny\nclass_count = 1\n\n[attack]\nmethods = pixelate\n",
     "error: need at least 2 classes, got 1"),
    ("train-toy", "[data]\npoints_per_cluster = 1\n",
     "error: the held-out split has 1 row and separability needs 2: "
     "raise [data] cluster_count or points_per_cluster"),
    ("train-toy", "[train]\nlambda = nan\n", "error: lam must be finite and non-negative, got nan"),
    ("train-toy", "[train]\nlambda = inf\n", "error: lam must be finite and non-negative, got inf"),
    ("train-image", "[data]\nper_class = 20\n\n[train]\nlambda = nan\niterations = 2\n",
     "error: lam must be finite and non-negative, got nan"),
], ids=["sweep-attack-iterations", "noise-std",
        "attack-seed", "pixelate-factor", "blur-radius", "sweep-no-proportions",
        "attack-noise-std-negative", "attack-noise-std-nan", "attack-noise-std-inf",
        "image-no-classes", "image-negative-classes", "image-negative-size", "attack-one-class",
        "toy-one-held-out-row", "toy-lambda-nan", "toy-lambda-inf", "image-lambda-nan"])
def test_invalid_run_config_exits_1_before_writing_anything(tmp_path, capsys, command, text,
                                                            message):
    assert run_with_config(tmp_path, text, command) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert captured.out == ""
    assert not (tmp_path / "run").exists()  # so no resolved.ini or run_meta.json


@pytest.fixture(scope="module")
def pixmap_folders(tmp_path_factory):
    """Two `source_dir` folders of 8x8 pixmaps: 3 classes of 20 as ``folder``, 2 as ``other``."""
    root = tmp_path_factory.mktemp("pixmaps")
    folders = {}
    for name, classes in (("folder", 3), ("other", 2)):
        dataset = make_tiny_image_dataset(size=8, class_count=classes, per_class=20, seed=classes)
        for i, (image, label) in enumerate(zip(dataset.images, dataset.labels)):
            class_dir = root / name / f"class{label}"
            class_dir.mkdir(parents=True, exist_ok=True)
            save_pixmap(image, class_dir / f"{i:03d}.pgm")
        folders[name] = str(root / name)
    return folders


def test_each_data_source_reads_exactly_its_builders_parameters():
    # a builder parameter the table does not list would be a setting no INI can reach
    assert {source: set(keys) for source, (_, keys) in cli.DATA_SOURCES.items()} == {
        "toy": {f.name for f in fields(ClusterSpec)},
        "tiny": set(inspect.signature(make_tiny_image_dataset).parameters),
        "folder": set(inspect.signature(load_image_folder).parameters)}
    assert cli.DATA_SOURCES["tiny"][0] is make_tiny_image_dataset
    assert cli.DATA_SOURCES["folder"][0] is load_image_folder


# Each cli.DATA_SOURCES source: the command that builds it, a base [data]
# section and, for each key the source reads and for kind, a valid value other
# than the base's or the default. "{folder}" and "{other}" name the pixmap folders.
SOURCE_RUNS = {
    "toy": ("train-toy", {},
            {"kind": "tiny", "seed": "3", "cluster_count": "3", "points_per_cluster": "20"}),
    "tiny": ("train-image", {"kind": "tiny", "per_class": "20", "size": "8"},
             {"kind": "toy", "seed": "3", "size": "6", "class_count": "3", "per_class": "21"}),
    "folder": ("train-image", {"kind": "tiny", "source_dir": "{folder}"},
               {"kind": "toy", "seed": "3", "source_dir": "{other}"}),
}


@pytest.mark.parametrize("source, keys", [
    (source, [key]) for source, (_, read) in cli.DATA_SOURCES.items()
    for key in sorted(cli.KNOWN_KEYS["data"] - read.keys() - {"kind", "source_dir"})
] + [("toy", ["source_dir"]), ("folder", ["class_count", "per_class"])])
def test_dataset_from_rejects_each_key_its_source_does_not_read(pixmap_folders, source, keys):
    # source_dir beside kind = tiny selects the folder source, so only toy rejects it
    data = {**{k: v.format(**pixmap_folders) for k, v in SOURCE_RUNS[source][1].items()},
            **dict.fromkeys(keys, "3")}
    with pytest.raises(cli.CliError, match=f"^the {source} data source does not read "
                                           f"\\[data\\] {', '.join(keys)}$") as excinfo:
        cli.dataset_from({"data": data}, seed=0)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("points_per_cluster, taken", [(500, 200), (20, 20)],
                         ids=["capped", "every-point"])
def test_the_toy_panel_takes_200_points_of_each_cluster(points_per_cluster, taken):
    dataset = gen_toy_clusters(ClusterSpec(cluster_count=3, points_per_cluster=points_per_cluster,
                                           seed=2))
    idx = cli._toy_snapshot_indices(dataset, seed=2)
    assert np.array_equal(idx, np.unique(idx))
    assert np.array_equal(np.bincount(dataset.labels[idx]), [taken] * 3)
    assert np.array_equal(idx, cli._toy_snapshot_indices(dataset, seed=2))


def test_dataset_from_reads_the_fixed_kind_when_the_file_names_none():
    dataset = cli.dataset_from({"data": {"per_class": "20", "size": "8"}}, seed=5, kind="tiny")
    expected = make_tiny_image_dataset(size=8, per_class=20, seed=5)
    assert np.array_equal(dataset.features, expected.features)
    assert np.array_equal(dataset.labels, expected.labels)


def built_dataset(tmp_path, monkeypatch, command, data):
    """The set `command` trains on for the `[data]` values `data`, or None when
    the run stops first, which it must do with a non-zero exit and no file written."""
    built = []

    def record(*args, **kwargs):
        built.append(real_dataset_from(*args, **kwargs))
        return built[-1]

    def train_only(features, config, **kwargs):
        raise CapturedTrain

    real_dataset_from = cli.dataset_from
    monkeypatch.setattr(cli, "dataset_from", record)
    monkeypatch.setattr(cli, "train", train_only)
    tmp_path.mkdir()
    config, out = tmp_path / "run.ini", tmp_path / "run"
    config.write_text("[data]\n" + "".join(f"{key} = {value}\n" for key, value in data.items()))
    try:
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    except CapturedTrain:
        return built[-1]
    assert code != 0 and not out.exists()
    return None


@pytest.mark.parametrize("source, key", [
    (source, key) for source in cli.DATA_SOURCES for key in sorted(cli.KNOWN_KEYS["data"])])
def test_no_data_key_is_silently_ignored(tmp_path, monkeypatch, pixmap_folders, source, key):
    # a key the source reads changes the set it builds; any other [data] key stops the run
    command, base, others = SOURCE_RUNS[source]

    def built(name, data):
        data = {k: v.format(**pixmap_folders) for k, v in data.items()}
        return built_dataset(tmp_path / name, monkeypatch, command, data)

    before, after = built("base", base), built("changed", {**base, key: others.get(key, "3")})
    if key in cli.DATA_SOURCES[source][1]:
        assert not all(np.array_equal(getattr(before, name), getattr(after, name))
                       for name in ("features", "labels", "train_idx", "heldout_idx"))
    else:
        assert after is None


def test_percent_in_a_value_round_trips_through_resolved_ini(tmp_path):
    config = {"attack": {"model_checkpoint": "runs/100%/checkpoint.npz"}}
    cli.write_run_files(tmp_path, "attack", config, seed=3)
    assert cli.load_config(tmp_path / "resolved.ini") == {
        "attack": {"model_checkpoint": "runs/100%/checkpoint.npz"}, "train": {"seed": "3"}}


INI_LINES = ["[train]", "[data]", "[sweep]", "[DEFAULT]", "[nope]", "iterations = 3",
             "alpha = 5%", "lambda: %(x)s", "  continued", "= 1", "[", "seed", "kind = tiny"]


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.lists(st.one_of(st.sampled_from(INI_LINES), st.text(max_size=20)), max_size=8)
    .map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
    st.binary(max_size=64)))
def test_load_config_returns_a_dict_or_a_usage_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_bytes(blob)
        try:
            config = cli.load_config(path)
        except cli.CliError as exc:
            assert exc.exit_code == 2
        else:
            assert isinstance(config, dict)


RUN_SEED = 7


class CapturedTrain(Exception):
    pass


def built_configs(tmp_path, monkeypatch, text, flags=("--seed", str(RUN_SEED)),
                  command="train-toy"):
    """The TrainConfig, and the toy ClusterSpec and AttackConfig if it builds them,
    that `command` builds from INI `text` before it trains."""
    seen = {}

    def spec_only(spec):
        seen["data"] = spec
        return real_gen(spec)

    def attack_from(config, seed):
        seen["attack"] = real_attack(config, seed)
        return seen["attack"]

    def train_only(features, config, **kwargs):
        seen["train"] = config
        raise CapturedTrain

    real_gen, real_attack = cli.gen_toy_clusters, cli.attack_config_from
    monkeypatch.setattr(cli, "gen_toy_clusters", spec_only)
    monkeypatch.setattr(cli, "attack_config_from", attack_from)
    monkeypatch.setattr(cli, "train", train_only)
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(CapturedTrain):
        cli.main([*flags, command, "--config", str(path), "--out", str(tmp_path / "run")])
    return seen


DEFAULTS = {"data": ClusterSpec(seed=RUN_SEED),
            "train": TrainConfig(seed=RUN_SEED, input_width=2),
            "attack": AttackConfig(seed=RUN_SEED + 1)}
INI_KEY = {"lam": "lambda"}


def test_empty_ini_builds_the_dataclass_defaults_with_the_run_seed(tmp_path, monkeypatch):
    assert built_configs(tmp_path, monkeypatch, "") == DEFAULTS


def other_value(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return "msednet"  # the only str field, TrainConfig.ablation
    if isinstance(value, float):
        return value / 2  # no default is 0
    return value * 2  # 2/64 of any feature width still divides


# the run seeds, [data] and [train] seed, have their own test below
@pytest.mark.parametrize("section, name", [
    (section, f.name) for section, config in DEFAULTS.items() for f in fields(config)
    if f.name != "input_width" and (section, f.name) not in {("data", "seed"), ("train", "seed")}])
def test_one_ini_key_changes_exactly_its_field(tmp_path, monkeypatch, section, name):
    value = other_value(getattr(DEFAULTS[section], name))
    built = built_configs(tmp_path, monkeypatch,
                          f"[{section}]\n{INI_KEY.get(name, name)} = {value}\n")
    assert getattr(built[section], name) == value
    changed = {(s, key) for s in DEFAULTS
               for key, v in asdict(built[s]).items() if v != asdict(DEFAULTS[s])[key]}
    assert changed == {(section, name)}


BOTH_SEEDS = "[data]\nseed = 9\n\n[train]\nseed = 3\n"


@pytest.mark.parametrize("flags, text, data, train, attack", [
    (("--seed", "5"), BOTH_SEEDS, 5, 5, 6),
    (("--seed", "5"), BOTH_SEEDS + "\n[attack]\nseed = 11\n", 5, 5, 11),
    ((), BOTH_SEEDS, 9, 3, 4),
    ((), "[data]\nseed = 9\n", 9, 9, 10),
], ids=["flag-over-both", "flag-and-attack-seed", "train-over-data", "data-alone"])
def test_run_seed_precedence(tmp_path, monkeypatch, flags, text, data, train, attack):
    # --seed, else [train] seed, else [data] seed; --seed replaces both file
    # seeds, and resolved.ini records the seeds the run used
    built = built_configs(tmp_path, monkeypatch, text, flags)
    assert (built["data"].seed, built["train"].seed, built["attack"].seed) == (data, train, attack)
    resolved = cli.load_config(tmp_path / "run" / "resolved.ini")
    assert (resolved["data"]["seed"], resolved["train"]["seed"]) == (str(data), str(train))


TINY_DATA = "[data]\nkind = tiny\nper_class = 20\n"


@pytest.mark.parametrize("command, data, default", [
    ("train-toy", "", False),
    ("train-image", TINY_DATA, True),
    ("sweep-proportion", TINY_DATA, True),
])
@pytest.mark.parametrize("override", [False, True], ids=["default", "override"])
def test_perceptual_term_is_on_for_images_unless_the_ini_says_otherwise(
        tmp_path, monkeypatch, command, data, default, override):
    text = data + (f"\n[train]\nuse_perceptual = {not default}\n" if override else "")
    built = built_configs(tmp_path, monkeypatch, text, command=command)
    assert built["train"].use_perceptual == (default != override)


def test_ini_keys_are_the_field_names_plus_the_documented_extras():
    def names(cls):
        return {INI_KEY.get(f.name, f.name) for f in fields(cls)}

    assert cli.KNOWN_KEYS == {
        "data": names(ClusterSpec) | {"kind", "source_dir", "size", "class_count", "per_class"},
        "train": names(TrainConfig) - {"input_width"},
        "attack": names(AttackConfig) | {"methods", "model_checkpoint", "msednet_checkpoint",
                                         "pixelate_factor", "blur_radius", "p3_threshold"},
        "sweep": {"proportions"},
    }


# Every setting a run can be given: each INI key by section, and each distinct
# command-line flag. A knob added or removed fails here until this list changes too.
SETTINGS = {
    "data": {"kind", "seed", "cluster_count", "points_per_cluster", "source_dir", "size",
             "class_count", "per_class"},
    "train": {"iterations", "batch_size", "lambda", "alpha", "noise_std", "seed", "ablation",
              "feature_width", "privacy_proportion", "use_perceptual"},
    "attack": {"iterations", "seed", "methods", "model_checkpoint", "msednet_checkpoint",
               "pixelate_factor", "blur_radius", "p3_threshold"},
    "sweep": {"proportions"},
    "flags": {"--seed", "--config", "--out", "--method", "--input", "--output", "--factor",
              "--radius", "--threshold", "--checkpoint", "--secret-out", "--recon-out",
              "--noise-std", "--run"},
}


def test_every_setting_is_listed():
    flags = {flag for parser in [cli.build_parser(), *subcommands().values()]
             for action in parser._actions if not isinstance(action, argparse._HelpAction)
             for flag in action.option_strings}
    assert {**cli.KNOWN_KEYS, "flags": flags} == SETTINGS
    assert sum(map(len, SETTINGS.values())) == 41


# the arguments each subcommand requires
COMMAND_ARGS = {
    "check": [],
    "train-toy": ["--out", "run"],
    "train-image": ["--out", "run"],
    "attack": ["--out", "run"],
    "sweep-proportion": ["--out", "run"],
    "obfuscate": ["--method", "blur", "--input", "in.pgm", "--output", "out.pgm"],
    "report": ["--run", "run"],
}


def subcommands() -> dict:
    """`build_parser()`'s subcommand name -> its parser."""
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_is_exercised_below():
    assert set(subcommands()) == set(COMMAND_ARGS)


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_each_subcommand_dispatches_to_its_own_handler(monkeypatch, command):
    calls = []

    def recorder(name):
        def handler(args, config, seed):
            calls.append((name, args.command, seed))
            return 7
        return handler

    handlers = {c: "cmd_" + c.replace("-", "_") for c in COMMAND_ARGS}
    for name in handlers.values():
        monkeypatch.setattr(cli, name, recorder(name))
    assert cli.main(["--seed", "4", command, *COMMAND_ARGS[command]]) == 7
    assert calls == [(handlers[command], command, 4)]


def test_obfuscate_flags_and_attack_keys_agree_with_the_baselines_table():
    flags = {"pixelate": "factor", "blur": "radius", "p3": "threshold"}
    assert {name: (key, default) for name, (_, key, default, _) in cli.BASELINES.items()} == {
        "pixelate": ("pixelate_factor", 20), "blur": ("blur_radius", 16),
        "p3": ("p3_threshold", 1)}
    args = cli.build_parser().parse_args(["obfuscate", "--method", "p3", "--input", "i",
                                          "--output", "o"])
    assert {name: getattr(args, flags[name]) for name in cli.BASELINES} == {
        name: default for name, (_, _, default, _) in cli.BASELINES.items()}
    (method,) = [a for a in subcommands()["obfuscate"]._actions if a.dest == "method"]
    assert list(method.choices) == [*cli.BASELINES, "model"]
    assert {key for _, key, _, _ in cli.BASELINES.values()} <= cli.KNOWN_KEYS["attack"]
