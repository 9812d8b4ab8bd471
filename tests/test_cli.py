import csv
import hashlib
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsplit import cli
from privsplit.autodiff import Tensor
from privsplit.datasets import (
    ClusterSpec,
    features_to_pixels,
    make_tiny_image_dataset,
    pixels_to_features,
)
from privsplit.evaluation import AttackConfig
from privsplit.image import load_pixmap, save_pixmap
from privsplit.obfuscation import gaussian_blur, pixelate
from privsplit.models import NoiseSpec, encrypt
from privsplit.p3 import p3_encode, serialize_secret
from privsplit.training import TrainConfig, TrainingDivergedError, load_checkpoint


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
    assert lines and all(line.startswith("PASS ") for line in lines)


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


def test_attack_p3_threshold_beyond_u16_exits_1_and_writes_nothing(tmp_path, capsys):
    config = tmp_path / "attack.ini"
    config.write_text("[data]\nkind = tiny\nper_class = 20\n\n"
                      "[attack]\nmethods = p3\np3_threshold = 70000\niterations = 5\n")
    assert cli.main(["attack", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "70000" in err[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section", ["train", "data"])
@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_bad_seed_in_config_exits_2(tmp_path, capsys, section, value):
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\nseed = {value}\n")
    assert cli.main(["train-toy", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad value for {section}.seed: ")
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


def test_report_summarises_a_finished_train_toy_run(tmp_path, capsys):
    config = tmp_path / "toy.ini"
    config.write_text("[data]\npoints_per_cluster = 20\n\n[train]\niterations = 3\n\n"
                      "[attack]\niterations = 5\n\n[plot]\npoints_per_cluster = 5\n")
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


@pytest.mark.parametrize("make_dir", [True, False], ids=["empty", "absent"])
def test_report_without_run_artifacts_exits_3(tmp_path, capsys, make_dir):
    run = tmp_path / "run"
    if make_dir:
        run.mkdir()
    assert cli.main(["report", "--run", str(run)]) == 3
    assert capsys.readouterr().err.strip() == f"error: no run artifacts found in {run}"


def test_sweep_proportion_on_toy_data_writes_one_row_per_proportion(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text("[data]\npoints_per_cluster = 20\n\n[train]\niterations = 2\n\n"
                      "[attack]\niterations = 5\n\n[sweep]\nproportions = 1/64, 1/4\n")
    run = tmp_path / "run"
    assert cli.main(["sweep-proportion", "--config", str(config), "--out", str(run)]) == 0
    with open(run / "sweep.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["proportion", "psnr_recon_db", "psnr_encrypted_db", "accuracy"]
    assert [row[0] for row in rows[1:]] == ["1/64", "1/4"]


# ---------------------------------------------------------------------------
# the INI loader and the configs it builds


def run_with_config(tmp_path, text, command="train-toy"):
    config = tmp_path / "run.ini"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    return cli.main([command, "--config", str(config), "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("text, message", [
    ("[train]\nalpha = 5%\n", "error: bad value for train.alpha: '5%'"),
    (b"[train]\niterations = \xff\n", "error: cannot parse config "),
    ("[DEFAULT]\niterationz = 1\n", "error: config keys must sit in a named section"),
    ("[sweep]\niterations = 3\n", "error: unknown key 'iterations' in section [sweep]"),
], ids=["percent", "not-utf8", "default-section", "sweep-iterations"])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, text, message):
    assert run_with_config(tmp_path, text) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, text, message", [
    ("train-toy", "[attack]\nbatch_size = 0\n", "error: attack batch_size must be at least 1"),
    ("sweep-proportion", "[attack]\niterations = 0\n", "error: attack iterations must be at least 1"),
    ("train-toy", "[attack]\nalpha = nan\n", "error: attack alpha must be finite and positive"),
    ("train-toy", "[train]\nbeta1 = 1.8\n", "error: beta1 must be in [0, 1)"),
    ("train-toy", "[train]\nnoise_std = -1\n", "error: noise_std must be finite and non-negative"),
], ids=["attack-batch-size", "sweep-attack-iterations", "attack-alpha", "beta1", "noise-std"])
def test_invalid_run_config_exits_1_before_writing_anything(tmp_path, capsys, command, text,
                                                            message):
    assert run_with_config(tmp_path, text, command) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert captured.out == ""
    assert not (tmp_path / "run").exists()  # so no resolved.ini or run_meta.json


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


def built_configs(tmp_path, monkeypatch, text):
    """The TrainConfig, ClusterSpec and AttackConfig `train-toy` builds from INI `text`."""
    seen = {}

    def spec_only(spec):
        seen["data"] = spec
        return real_gen(spec)

    def train_only(features, config, **kwargs):
        seen["train"] = config
        raise CapturedTrain

    real_gen = cli.gen_toy_clusters
    monkeypatch.setattr(cli, "gen_toy_clusters", spec_only)
    monkeypatch.setattr(cli, "train", train_only)
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(CapturedTrain):
        cli.main(["--seed", str(RUN_SEED), "train-toy", "--config", str(path),
                  "--out", str(tmp_path / "run")])
    seen["attack"] = cli.attack_config_from(cli.load_config(path), RUN_SEED)
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
        return value / 2  # no default is 0, and halving keeps beta1 and beta2 below 1
    return value * 2  # 2/64 of any feature width still divides


@pytest.mark.parametrize("section, name", [
    (section, f.name) for section, config in DEFAULTS.items() for f in fields(config)
    if f.name != "input_width"])
def test_one_ini_key_changes_exactly_its_field(tmp_path, monkeypatch, section, name):
    value = other_value(getattr(DEFAULTS[section], name))
    built = built_configs(tmp_path, monkeypatch,
                          f"[{section}]\n{INI_KEY.get(name, name)} = {value}\n")
    assert getattr(built[section], name) == value
    changed = {(s, key) for s in DEFAULTS
               for key, v in asdict(built[s]).items() if v != asdict(DEFAULTS[s])[key]}
    assert changed == {(section, name)}


def test_ini_keys_are_the_field_names_plus_the_documented_extras():
    def names(cls):
        return {INI_KEY.get(f.name, f.name) for f in fields(cls)}

    assert cli.KNOWN_KEYS == {
        "data": names(ClusterSpec) | {"kind", "source_dir", "size", "class_count", "per_class"},
        "train": names(TrainConfig) - {"input_width"},
        "attack": names(AttackConfig) | {"methods", "model_checkpoint", "msednet_checkpoint",
                                         "pixelate_factor", "blur_radius", "p3_threshold"},
        "sweep": {"proportions"},
        "plot": {"points_per_cluster"},
    }
