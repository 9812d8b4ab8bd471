"""The benchmark's tracer finds every function it wraps, and its gradient gate passes.

A wrap target that no longer resolves drops its layer's metrics from a
traced benchmark run (``perfbench/run.py --trace 1``), so a rename or a
deletion in ``src`` that would do so fails here first. A failed gradient
gate fails every benchmark run, so it is run here too.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.missing == {}
    finally:
        tr.uninstall()


def test_uninstall_puts_every_original_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def resolve(target):
        *path, last = target.attr.split(".")
        owner = importlib.import_module(target.module)
        for part in path:
            owner = getattr(owner, part)
        return owner, last

    targets = [resolve(t) for t in tracer.TARGETS]
    originals = [getattr(owner, last) for owner, last in targets]
    tr = tracer.Tracer()
    try:
        tr.install()
        assert all(getattr(owner, last) is not fn
                   for (owner, last), fn in zip(targets, originals))
    finally:
        tr.uninstall()
    assert all(getattr(owner, last) is fn for (owner, last), fn in zip(targets, originals))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_gradient_gate_passes(monkeypatch, seed):
    """The benchmark's gate grad-checks `reconstruct` and `encrypt` on a trainable bundle."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.gradient_check(seed) < workloads.GRAD_CHECK_LIMIT
