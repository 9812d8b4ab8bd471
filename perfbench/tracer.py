"""Span tracer that wraps the program's public functions from outside.

Only traced runs import this module. It replaces each target function with
a wrapper at the place its caller looks it up (callers use
``from .x import y``, so ``backward`` is wrapped both as
``privsplit.training.backward`` and as ``privsplit.evaluation.backward``),
records one span per call (name, start, end, parent span) in memory, and
restores the originals on ``uninstall``. A target that no longer exists is
skipped and the metrics that need it are left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

from benchstats import self_times

SNAPSHOT_SPAN = "bench.snapshot"
COUNT_SPAN = "trace.count"


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # may be dotted, as in "Adam.step"
    count: str | None = None  # name of a count taken before each call


def _graph_nodes(loss, *args, **kwargs) -> int:
    from privsplit.autodiff import Graph

    return len(Graph(loss))


COUNTERS: dict[str, Callable[..., float]] = {"graph_nodes": _graph_nodes}

TARGETS = (
    Target("training.train", "privsplit.training", "train"),
    Target("models.build_models", "privsplit.training", "build_models"),
    Target("models.encode", "privsplit.training", "encode"),
    Target("models.decode", "privsplit.training", "decode"),
    Target("models.merge", "privsplit.training", "merge"),
    Target("models.fake_privacy", "privsplit.training", "fake_privacy"),
    Target("models.discriminate", "privsplit.training", "discriminate"),
    Target("models.perceptual_features", "privsplit.training", "perceptual_features"),
    Target("models.encrypt", "privsplit.models", "encrypt"),
    Target("models.encrypt", "privsplit.cli", "encrypt"),
    Target("objectives.reconstruction_loss", "privsplit.training", "reconstruction_loss"),
    Target("objectives.generator_adversarial_loss", "privsplit.training",
           "generator_adversarial_loss"),
    Target("autodiff.backward", "privsplit.training", "backward", count="graph_nodes"),
    Target("autodiff.backward", "privsplit.evaluation", "backward", count="graph_nodes"),
    Target("optim.Adam.step", "privsplit.optim", "Adam.step"),
    Target("training.save_checkpoint", "privsplit.training", "save_checkpoint"),
    Target("training.load_checkpoint", "privsplit.cli", "load_checkpoint"),
    Target("evaluation.attack_train_eval", "privsplit.evaluation", "attack_train_eval"),
    Target("evaluation.separability", "privsplit.evaluation", "separability"),
    Target("obfuscation.pixelate", "privsplit.cli", "pixelate"),
    Target("obfuscation.gaussian_blur", "privsplit.cli", "gaussian_blur"),
    Target("p3.p3_encode", "privsplit.cli", "p3_encode"),
    Target("image.load_pixmap", "privsplit.cli", "load_pixmap"),
    Target("image.save_pixmap", "privsplit.cli", "save_pixmap"),
    Target("datasets.gen_toy_clusters", "privsplit.datasets", "gen_toy_clusters"),
    Target("datasets.make_tiny_image_dataset", "privsplit.datasets", "make_tiny_image_dataset"),
    Target("cli.main", "privsplit.cli", "main"),
    Target(SNAPSHOT_SPAN, "workloads", "StepClock.tick"),
)


class Tracer:
    """In-memory spans in parallel lists; span i's parent has a lower index."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, list[tuple[int, float]]] = {}
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _count(self, count: str, args, kwargs) -> None:
        """Take a count in its own span, so its cost leaves the parent's self time."""
        i = self._open(COUNT_SPAN)
        try:
            value = COUNTERS[count](*args, **kwargs)
        except Exception as exc:  # a renamed program API must not stop the run
            self.missing.setdefault(count, f"{type(exc).__name__}: {exc}")
            value = None
        finally:
            self._close(i)
        if value is not None:
            self.counts.setdefault(count, []).append((len(self.names), float(value)))

    def wrap(self, name: str, fn, count: str | None = None):
        def traced(*args, **kwargs):
            if count is not None:
                self._count(count, args, kwargs)
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        if self._installed:
            return
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *path, last = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(target.span, f"{target.module}.{target.attr}: {exc}")
                continue
            setattr(owner, last, self.wrap(target.span, original, target.count))
            self._installed.append((owner, last, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, last, original = self._installed.pop()
            setattr(owner, last, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i]}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics

OUTSIDE, ROOT, INSIDE, BLOCKED = range(4)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    kind: str  # step_ms, step_self_ms, root_self_ms, step_calls, call_ms, call_s, call_self_ms, step_count
    span: str


LAYER_METRICS = (
    LayerMetric("autodiff.backward.ms_per_step", "ms", "step_ms", "autodiff.backward"),
    LayerMetric("autodiff.graph_nodes_per_step", "count", "step_count", "graph_nodes"),
    LayerMetric("models.encode.ms_per_step", "ms", "step_ms", "models.encode"),
    LayerMetric("models.decode.ms_per_step", "ms", "step_ms", "models.decode"),
    LayerMetric("models.decode.calls_per_step", "count", "step_calls", "models.decode"),
    LayerMetric("models.discriminate.ms_per_step", "ms", "step_ms", "models.discriminate"),
    LayerMetric("models.discriminate.calls_per_step", "count", "step_calls", "models.discriminate"),
    LayerMetric("models.merge.ms_per_step", "ms", "step_ms", "models.merge"),
    LayerMetric("models.fake_privacy.ms_per_step", "ms", "step_ms", "models.fake_privacy"),
    LayerMetric("models.perceptual_features.ms_per_step", "ms", "step_ms",
                "models.perceptual_features"),
    LayerMetric("models.encrypt.ms_per_call", "ms", "call_ms", "models.encrypt"),
    LayerMetric("objectives.reconstruction_loss.self_ms_per_step", "ms", "step_self_ms",
                "objectives.reconstruction_loss"),
    LayerMetric("objectives.generator_adversarial_loss.ms_per_step", "ms", "step_ms",
                "objectives.generator_adversarial_loss"),
    LayerMetric("optim.Adam.step.ms_per_call", "ms", "call_ms", "optim.Adam.step"),
    LayerMetric("optim.Adam.step.calls_per_step", "count", "step_calls", "optim.Adam.step"),
    LayerMetric("training.train.self_ms_per_step", "ms", "root_self_ms", "training.train"),
    LayerMetric("training.save_checkpoint.s", "s", "call_s", "training.save_checkpoint"),
    LayerMetric("training.load_checkpoint.s", "s", "call_s", "training.load_checkpoint"),
    LayerMetric("evaluation.attack_train_eval.s_per_call", "s", "call_s",
                "evaluation.attack_train_eval"),
    LayerMetric("evaluation.separability.s", "s", "call_s", "evaluation.separability"),
    LayerMetric("obfuscation.pixelate.ms_per_image", "ms", "call_ms", "obfuscation.pixelate"),
    LayerMetric("obfuscation.gaussian_blur.ms_per_image", "ms", "call_ms",
                "obfuscation.gaussian_blur"),
    LayerMetric("p3.p3_encode.ms_per_image", "ms", "call_ms", "p3.p3_encode"),
    LayerMetric("image.load_pixmap.ms_per_call", "ms", "call_ms", "image.load_pixmap"),
    LayerMetric("image.save_pixmap.ms_per_call", "ms", "call_ms", "image.save_pixmap"),
    LayerMetric("datasets.gen_toy_clusters.s", "s", "call_s", "datasets.gen_toy_clusters"),
    LayerMetric("datasets.make_tiny_image_dataset.s", "s", "call_s",
                "datasets.make_tiny_image_dataset"),
    LayerMetric("cli.main.self_ms", "ms", "call_self_ms", "cli.main"),
)


def _scope_states(names: list[str], parents: list[int], scope_root: str | None) -> list[int]:
    """Mark each span as the step scope's root, inside it, or outside it.

    Work inside the benchmark's own snapshot callback is never part of a
    step, nor is anything it calls.
    """
    states = []
    for name, p in zip(names, parents):
        up = states[p] if p >= 0 else OUTSIDE
        if up == BLOCKED or name == SNAPSHOT_SPAN:
            states.append(BLOCKED)
        elif up in (ROOT, INSIDE):
            states.append(INSIDE)
        elif name == scope_root:
            states.append(ROOT)
        else:
            states.append(OUTSIDE)
    return states


def layer_report(tr: Tracer, scope_root: str | None) -> dict:
    """Per-layer metrics from the spans recorded so far.

    A step is one backward pass inside the scope root (`training.train`
    for the training workloads, `evaluation.attack_train_eval` for the
    attack). Layers a workload does not run report 0; metrics whose target
    could not be wrapped are left out.
    """
    own = self_times(tr.parents, tr.starts, tr.ends)
    states = _scope_states(tr.names, tr.parents, scope_root)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    total_self: dict[str, float] = {}
    step_calls: dict[str, int] = {}
    step_total: dict[str, float] = {}
    step_self: dict[str, float] = {}
    root_self: dict[str, float] = {}
    for i, name in enumerate(tr.names):
        dur = tr.ends[i] - tr.starts[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        total_self[name] = total_self.get(name, 0.0) + own[i]
        if states[i] == INSIDE:
            step_calls[name] = step_calls.get(name, 0) + 1
            step_total[name] = step_total.get(name, 0.0) + dur
            step_self[name] = step_self.get(name, 0.0) + own[i]
        elif states[i] == ROOT:
            root_self[name] = root_self.get(name, 0.0) + own[i]
    steps = step_calls.get("autodiff.backward", 0)
    step_counts = [v for i, v in tr.counts.get("graph_nodes", [])
                   if i < len(states) and states[i] == INSIDE]

    def per(x: float, n: int) -> float:
        return x / n if n else 0.0

    metrics = {}
    for m in LAYER_METRICS:
        if m.span in tr.missing:
            continue
        if m.kind == "step_ms":
            value = 1e3 * per(step_total.get(m.span, 0.0), steps)
        elif m.kind == "step_self_ms":
            value = 1e3 * per(step_self.get(m.span, 0.0), steps)
        elif m.kind == "root_self_ms":
            value = 1e3 * per(root_self.get(m.span, 0.0), steps)
        elif m.kind == "step_calls":
            value = per(step_calls.get(m.span, 0), steps)
        elif m.kind == "step_count":
            value = per(sum(step_counts), len(step_counts))
        elif m.kind == "call_ms":
            value = 1e3 * per(total.get(m.span, 0.0), calls.get(m.span, 0))
        elif m.kind == "call_s":
            value = per(total.get(m.span, 0.0), calls.get(m.span, 0))
        elif m.kind == "call_self_ms":
            value = 1e3 * per(total_self.get(m.span, 0.0), calls.get(m.span, 0))
        else:
            raise ValueError(f"unknown metric kind {m.kind!r}")
        metrics[m.name] = {"value": value, "unit": m.unit}

    excluded = {"models.build_models", SNAPSHOT_SPAN}
    in_steps = sum(own[i] for i, s in enumerate(states)
                   if (s == ROOT or (s == INSIDE and tr.names[i] not in excluded)))
    metrics["trace.self_sum_ms_per_step"] = {"value": 1e3 * per(in_steps, steps), "unit": "ms"}
    metrics["trace.steps"] = {"value": steps, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tr.names), "unit": "count"}
    return metrics
