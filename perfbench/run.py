"""Benchmark harness for privsplit: one workload per process.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a run whose
episodes alternate untraced and traced. The line before it is a JSON record
of the environment, sample counts, quality values and any failures; the same
record goes to ``.perfbench_out/``. See README.md beside this file.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from benchstats import Ledger, median, percentile, samples_beyond, tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("toy-train", "image-train", "image-attack")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "peak_rss_mb": "MB"}
QUALITY_VALUES = {
    "evaluation.recon_mse": "mse",
    "evaluation.separability": "ratio",
    "evaluation.psnr_recon_db": "dB",
    "evaluation.psnr_encrypted_db": "dB",
    "evaluation.attack_acc.original": "ratio",
    "evaluation.attack_acc.pixelation": "ratio",
    "evaluation.attack_acc.blurring": "ratio",
    "evaluation.attack_acc.p3": "ratio",
    "evaluation.attack_acc.ours": "ratio",
    "training.checkpoint_bytes": "B",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """The OpenBLAS thread count in effect, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_revision": git_revision(),
    }


def run(args) -> tuple[dict | None, dict]:
    import workloads  # imports privsplit

    import_s = time.perf_counter() - PROCESS_START
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    wl = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    ledger = Ledger()
    try:
        fixture_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            fixture_s.append(time.perf_counter() - t)
        setup_s = import_s + median(fixture_s)

        # traced runs alternate untraced and traced episodes, starting untraced
        episodes, traced = [], []
        min_episodes = 2 if tr else 1
        t_measure = time.perf_counter()
        spent = []
        while True:
            tracing = tr is not None and len(episodes) % 2 == 1
            if tracing:
                tr.install()
            elif tr is not None:
                tr.uninstall()
            t = time.perf_counter()
            try:
                ep = wl.episode(state, ledger)
            except Exception as exc:  # reported as a failed run, not a crash
                ledger.check("episode", False, f"{type(exc).__name__}: {exc}")
                break
            spent.append(time.perf_counter() - t)
            episodes.append(ep)
            traced.append(tracing)
            elapsed = time.perf_counter() - t_measure
            if len(episodes) >= min_episodes and elapsed + median(spent) > args.seconds:
                break
        if tr is not None:
            tr.uninstall()
        values = episodes[0].values if episodes else {}
        for ep in episodes[1:]:
            ledger.check("deterministic-quality", ep.values == values,
                         f"{ep.values} != {values}")
        ledger.check("gradient-check",
                     (err := workloads.gradient_check(args.seed)) < workloads.GRAD_CHECK_LIMIT,
                     f"max relative error {err:.3e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [ep for ep, t in zip(episodes, traced) if not t]
    ops = [x for ep in plain for x in ep.ops_ms]
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "episodes": len(episodes),
        "traced_episodes": sum(traced),
        "op_samples": len(ops),
        "op_tail_percentile": tail_percentile(len(ops)),
        "op_samples_beyond_p90": samples_beyond(len(ops), 90.0),
        "import_s": import_s,
        "fixture_s": fixture_s,
        "wall_s": [ep.wall_s for ep in episodes],
        "values": values,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.error_rate,
        "failures": ledger.failures[:20],
    }
    if not episodes:
        metrics = None  # nothing was measured; the record says why
    elif tr is None:
        values_e2e = {
            "setup_s": setup_s,
            "wall_s": median([ep.wall_s for ep in plain]),
            "op_ms_p50": percentile(ops, 50.0),
            "op_ms_p90": percentile(ops, 90.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values_e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = traced_metrics(tr, wl.scope_root, episodes, traced, values)
        record["missing_targets"] = tr.missing
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    return metrics, record


def traced_metrics(tr, scope_root, episodes, traced, values) -> dict:
    """Per-layer metrics, quality values and the tracer's own overhead."""
    from tracer import layer_report

    metrics = layer_report(tr, scope_root)
    for name, unit in QUALITY_VALUES.items():
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    base = [ep for ep, t in zip(episodes, traced) if not t]
    hot = [ep for ep, t in zip(episodes, traced) if t]
    if not base or not hot:  # a failed episode left nothing to compare
        return metrics

    def mean_op(eps):
        ops = [x for ep in eps for x in ep.ops_ms]
        return sum(ops) / len(ops)

    base_wall = median([ep.wall_s for ep in base])
    hot_wall = median([ep.wall_s for ep in hot])
    metrics["trace.baseline_wall_s"] = {"value": base_wall, "unit": "s"}
    metrics["trace.wall_s"] = {"value": hot_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": hot_wall - base_wall, "unit": "s"}
    metrics["trace.baseline_op_ms"] = {"value": mean_op(base), "unit": "ms"}
    metrics["trace.op_ms"] = {"value": mean_op(hot), "unit": "ms"}
    metrics["trace.overhead_ms_per_op"] = {"value": mean_op(hot) - mean_op(base), "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "privsplit" / "__init__.py").is_file():
        print(f"error: no privsplit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        metrics, record = run(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    print(json.dumps(record))
    if metrics is None:
        print("error: no episode completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
