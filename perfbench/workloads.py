"""The benchmark workloads: a set-up plus an episode that can repeat.

Each episode mirrors one ``privsplit`` command through the public API, on
inputs generated from the workload seed, and returns its wall time, the
durations of its unit operations and the quality values it computed. The
correctness gate lives here too: every check is one operation in the
run's ledger.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchstats import Ledger
from privsplit import cli, datasets, evaluation, image, models, training
from privsplit.autodiff import Tensor, grad_check
from privsplit.objectives import generator_adversarial_loss, reconstruction_loss

# Bound before a traced run wraps the module attributes, so that the
# reference computations of the correctness gate record no spans.
_encrypt = models.encrypt
_load_checkpoint = training.load_checkpoint
_load_pixmap = image.load_pixmap

TOY_ITERATIONS = 500
IMAGE_ITERATIONS = 150
VICTIM_ITERATIONS = 40
ATTACK_METHODS = "pixelate,blur,p3,model"
ATTACK_ITERATIONS = 200  # classifier iterations per method; the command's default is 800
ORIGINAL_MARGIN = 0.3  # the Original attack must beat chance by this much
REQUESTS_PER_EPISODE = 4  # obfuscate requests after each attack table
REQUEST_INPUTS = 100  # distinct pixmaps written at set-up
GRAD_CHECK_LIMIT = 1e-4  # the criterion `privsplit check` uses


@dataclass
class Episode:
    wall_s: float
    ops_ms: list[float]
    values: dict[str, float] = field(default_factory=dict)


class StepClock:
    """`snapshot_fn` for `training.train` that timestamps every iteration.

    A step's duration runs from the end of one callback to the start of the
    next, so the command's own panel snapshots (taken at `marks`) stay out
    of the step times.
    """

    def __init__(self, marks=(), panel=None):
        self.marks = set(marks)
        self.panel = panel
        self.enter: list[float] = []
        self.exit: list[float] = []

    def tick(self, iteration, bundle) -> None:
        self.enter.append(time.perf_counter())
        if self.panel is not None and iteration in self.marks:
            self.panel(iteration, bundle)
        self.exit.append(time.perf_counter())

    @property
    def completed(self) -> int:
        return max(0, len(self.enter) - 1)

    def step_ms(self) -> list[float]:
        return [1e3 * (self.enter[i + 1] - self.exit[i]) for i in range(self.completed)]


def _timed_train(ledger: Ledger, features, tcfg, clock: StepClock):
    """`training.train` with every iteration timed and counted in the ledger."""
    try:
        bundle, history = training.train(features, tcfg,
                                         snapshot_iters=range(tcfg.iterations + 1),
                                         snapshot_fn=clock.tick)
    except training.TrainingDivergedError:
        ledger.steps(tcfg.iterations, clock.completed)
        ledger.check("losses-finite", False, "training diverged")
        raise
    ledger.steps(tcfg.iterations, clock.completed)
    terms = [v for series in (history.l_d, history.l_g_ad, history.l_recon_mse,
                              history.l_perceptual, history.l_g_total)
             for v in series if v is not None]
    ledger.check("losses-finite", all(math.isfinite(v) for v in terms))
    return bundle, history


def _check_round_trip(ledger: Ledger, path, held: np.ndarray, recon: np.ndarray) -> None:
    """A saved checkpoint must reload into a bundle that reconstructs bitwise alike."""
    loaded, _ = _load_checkpoint(path)
    again = models.reconstruct(Tensor(held), loaded).data
    ledger.check("checkpoint-round-trip", np.array_equal(again, recon))


def _file_bytes(path) -> float:
    return float(Path(path).stat().st_size)


class Workload:
    name = ""
    scope_root: str | None = None  # span whose backward passes count as steps

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def episode(self, state, ledger: Ledger) -> Episode:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# toy-train: `privsplit train-toy` at its defaults, with a shorter run


@dataclass
class ToyState:
    seed: int
    outdir: Path
    dataset: object
    plot_idx: np.ndarray


def _toy_snapshot_indices(dataset, per_cluster: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        picks.append(rng.choice(members, size=min(per_cluster, members.size), replace=False))
    return np.sort(np.concatenate(picks))


class ToyTrain(Workload):
    name = "toy-train"
    scope_root = "training.train"

    def setup(self, seed, workdir):
        dataset = datasets.gen_toy_clusters(datasets.ClusterSpec(seed=seed))
        return ToyState(seed, workdir, dataset, _toy_snapshot_indices(dataset, 200, seed))

    def episode(self, st: ToyState, ledger: Ledger) -> Episode:
        t0 = time.perf_counter()
        ds = st.dataset
        tcfg = training.TrainConfig(iterations=TOY_ITERATIONS, seed=st.seed, input_width=2)
        plot_x = Tensor(ds.features[st.plot_idx])
        panel_noise = models.NoiseSpec(std=tcfg.noise_std, seed=tcfg.seed + 104729)
        snaps_enc, snaps_rec = {}, {}

        def panel(iteration, bundle):
            snaps_rec[iteration] = models.reconstruct(plot_x, bundle).data
            snaps_enc[iteration] = models.encrypt(plot_x, bundle, panel_noise).data

        clock = StepClock(marks={0, 100, 500, tcfg.iterations}, panel=panel)
        bundle, history = _timed_train(ledger, ds.features[ds.train_idx], tcfg, clock)
        ckpt = st.outdir / "checkpoint.json"
        training.save_checkpoint(bundle, history, ckpt)
        training.write_history_csv(history, st.outdir / "history.csv")
        evaluation.scatter_report(plot_x.data, ds.labels[st.plot_idx], snaps_enc, snaps_rec,
                                  csv_path=st.outdir / "scatter.csv",
                                  svg_path=st.outdir / "scatter.svg")
        held = ds.features[ds.heldout_idx]
        recon = models.reconstruct(Tensor(held), bundle).data
        encrypted = models.encrypt(Tensor(held), bundle, models.NoiseSpec(
            std=tcfg.noise_std, seed=tcfg.seed + 7919)).data
        sep = evaluation.separability(recon, encrypted, cli.attack_config_from({}, tcfg.seed))
        mse = float(np.mean((recon - held) ** 2))
        wall = time.perf_counter() - t0

        _check_round_trip(ledger, ckpt, held, recon)
        return Episode(wall, clock.step_ms(), {
            "evaluation.recon_mse": mse,
            "evaluation.separability": sep,
            "training.checkpoint_bytes": _file_bytes(ckpt),
        })


# ---------------------------------------------------------------------------
# image-train: `privsplit train-image` at its defaults, with a shorter run


@dataclass
class ImageState:
    seed: int
    outdir: Path
    dataset: object


class ImageTrain(Workload):
    name = "image-train"
    scope_root = "training.train"

    def setup(self, seed, workdir):
        return ImageState(seed, workdir, datasets.make_tiny_image_dataset(seed=seed))

    def episode(self, st: ImageState, ledger: Ledger) -> Episode:
        t0 = time.perf_counter()
        ds = st.dataset
        tcfg = training.TrainConfig(iterations=IMAGE_ITERATIONS, seed=st.seed,
                                    input_width=ds.width, use_perceptual=True)
        clock = StepClock()
        bundle, history = _timed_train(ledger, ds.features[ds.train_idx], tcfg, clock)
        ckpt = st.outdir / "checkpoint.json"
        training.save_checkpoint(bundle, history, ckpt)
        training.write_history_csv(history, st.outdir / "history.csv")
        held = ds.features[ds.heldout_idx]
        peak = float(ds.features.max() - ds.features.min())
        recon = models.reconstruct(Tensor(held), bundle).data
        recon_db = evaluation.psnr(recon, held, peak)
        enc = models.encrypt(Tensor(held), bundle, models.NoiseSpec(
            std=tcfg.noise_std, seed=tcfg.seed + 7919)).data
        enc_db = evaluation.psnr(enc, held, peak)
        wall = time.perf_counter() - t0

        _check_round_trip(ledger, ckpt, held, recon)
        return Episode(wall, clock.step_ms(), {
            "evaluation.psnr_recon_db": recon_db,
            "evaluation.psnr_encrypted_db": enc_db,
            "training.checkpoint_bytes": _file_bytes(ckpt),
        })


# ---------------------------------------------------------------------------
# image-attack: `privsplit attack` with pixelate, blur, p3 and a short-trained
# model, then a few `privsplit obfuscate --method model` requests with that model


@dataclass
class AttackState:
    seed: int
    outdir: Path
    dataset: object
    config: dict
    victim: object  # the bundle saved at `checkpoint`
    checkpoint: Path
    checkpoint_bytes: float
    inputs: list[Path]
    request_seeds: np.ndarray
    sent: int = 0


ACC_KEYS = {"Original": "original", "Pixelation": "pixelation", "Blurring": "blurring",
            "P3": "p3", "Ours": "ours"}


class ImageAttack(Workload):
    name = "image-attack"
    scope_root = "evaluation.attack_train_eval"

    def setup(self, seed, workdir):
        ds = datasets.make_tiny_image_dataset(seed=seed)
        tcfg = training.TrainConfig(iterations=VICTIM_ITERATIONS, seed=seed,
                                    input_width=ds.width, use_perceptual=True)
        victim, history = training.train(ds.features[ds.train_idx], tcfg)
        ckpt = workdir / "victim.json"
        training.save_checkpoint(victim, history, ckpt)
        config = {"attack": {"methods": ATTACK_METHODS, "model_checkpoint": str(ckpt),
                             "iterations": str(ATTACK_ITERATIONS)}}
        indir = workdir / "in"
        indir.mkdir()
        (workdir / "out").mkdir()
        inputs = []
        for i, img in enumerate(ds.images[:REQUEST_INPUTS]):
            path = indir / f"{i:04d}.pgm"
            image.save_pixmap(img, path)
            inputs.append(path)
        seeds = np.random.default_rng(seed).integers(1, 2**31, size=len(inputs))
        return AttackState(seed, workdir, ds, config, victim, ckpt, _file_bytes(ckpt),
                           inputs, seeds)

    def episode(self, st: AttackState, ledger: Ledger) -> Episode:
        t0 = time.perf_counter()
        methods = cli.build_methods(st.config, st.dataset, noise_std=1.0)
        starts: list[float] = []
        for method in methods:
            method.encrypt = _stamped(method.encrypt, starts)
        acfg = cli.attack_config_from(st.config, st.seed)
        t_compare = time.perf_counter()
        reports = evaluation.compare_methods(st.dataset, methods, acfg,
                                             csv_path=st.outdir / "report.csv")
        t_end = time.perf_counter()
        requests = [self._request(st) for _ in range(REQUESTS_PER_EPISODE)]
        wall = time.perf_counter() - t0
        bounds = [t_compare] + starts + [t_end]
        ops = [1e3 * (b - a) for a, b in zip(bounds[:-1], bounds[1:])]

        values = {"training.checkpoint_bytes": st.checkpoint_bytes}
        for r in reports:
            if r.method == "Random":
                continue
            ledger.check(f"attack {r.method}", not math.isnan(r.accuracy), r.note)
            key = ACC_KEYS.get(r.method.split("(")[0])
            if key is not None:
                values[f"evaluation.attack_acc.{key}"] = r.accuracy
            if r.method == "Ours" and r.psnr_recon_db is not None:
                values["evaluation.psnr_recon_db"] = r.psnr_recon_db
                values["evaluation.psnr_encrypted_db"] = r.psnr_encrypted_db
        original = reports[0]
        ledger.check("original-above-chance",
                     original.accuracy >= original.chance + ORIGINAL_MARGIN,
                     f"accuracy {original.accuracy} vs chance {original.chance}")
        for k, i, noise_seed, out, code in requests:
            ledger.request(f"request {k}", code,
                           code == 0 and self._matches(st, i, noise_seed, out))
        return Episode(wall, ops, values)

    @staticmethod
    def _request(st: AttackState):
        """One in-process `obfuscate --method model` call on a distinct input."""
        k = st.sent
        st.sent += 1
        i = k % len(st.inputs)
        noise_seed = int(st.request_seeds[i]) + k // len(st.inputs)
        out = st.outdir / "out" / f"{k:05d}.pgm"
        argv = ["--seed", str(noise_seed), "obfuscate", "--method", "model",
                "--input", str(st.inputs[i]), "--output", str(out),
                "--checkpoint", str(st.checkpoint)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = _exit_code(argv)
        return k, i, noise_seed, out, code

    @staticmethod
    def _matches(st: AttackState, i: int, noise_seed: int, out: Path) -> bool:
        img = st.dataset.images[i]
        features = st.dataset.features[i].reshape(1, -1)
        expected = datasets.features_to_pixels(_encrypt(
            Tensor(features), st.victim, models.NoiseSpec(1.0, noise_seed)).data)
        try:
            got = _load_pixmap(out)
        except (OSError, ValueError):
            return False
        return np.array_equal(got.pixels, expected.reshape(img.pixels.shape))


def _stamped(fn, starts: list[float]):
    def encrypt(features, rng):
        starts.append(time.perf_counter())
        return fn(features, rng)

    return encrypt


def _exit_code(argv) -> int:
    """`privsplit.cli.main` as a process would see it; a traceback is exit 1."""
    try:
        return int(cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaping exception is a failed request, not a crash
        return 1


# ---------------------------------------------------------------------------


def gradient_check(seed: int) -> float:
    """`privsplit check`'s gradient check on one small bundle."""
    rng = np.random.default_rng(seed)
    cfg = models.ModelConfig(input_width=2, feature_width=8, privacy_width=2,
                             disc_hidden=6, perceptual_width=6,
                             seed=int(rng.integers(2**31)))
    bundle = models.build_models(cfg)
    x = Tensor(rng.standard_normal((3, 2)))
    noise = models.NoiseSpec(std=1.0, seed=int(rng.integers(2**31)))

    def full_loss():
        x_r = models.reconstruct(x, bundle)
        x_e = _encrypt(x, bundle, noise)
        l_ad = generator_adversarial_loss(models.discriminate(x_r, bundle),
                                          models.discriminate(x_e, bundle))
        _, _, recon = reconstruction_loss(
            x_r, x, phi=lambda t: models.perceptual_features(t, bundle), lam=0.01)
        return l_ad + recon

    return grad_check(full_loss, bundle.all_parameters(), eps=1e-5)


WORKLOADS = {w.name: w for w in (ToyTrain, ImageTrain, ImageAttack)}
