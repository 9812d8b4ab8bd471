"""Tests for the benchmark's own helpers; they run no workload."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchstats import (  # noqa: E402
    Ledger,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)
import run  # noqa: E402
import tracer  # noqa: E402


class TestPercentiles:
    def test_linear_interpolation_matches_numpy_default(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 90) == pytest.approx(4.6)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(91, 90) == 9

    def test_tail_keeps_ten_samples_beyond(self):
        assert tail_percentile(1000) == 99.0
        assert tail_percentile(902) == 99.0
        assert tail_percentile(901) == 90.0
        assert tail_percentile(100) == 90.0
        assert tail_percentile(92) == 90.0
        assert tail_percentile(91) == 75.0
        assert tail_percentile(20) == 50.0
        assert tail_percentile(19) is None
        for n in (5, 40, 100, 250, 10_000, 20_000):
            q = tail_percentile(n)
            if q is not None:
                assert samples_beyond(n, q) >= 10

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSelfTimes:
    def test_children_are_subtracted_once(self):
        # root 0..10 with children 1..3 and 4..8; the second has a child 5..6
        parents = [-1, 0, 0, 2]
        starts = [0.0, 1.0, 4.0, 5.0]
        ends = [10.0, 3.0, 8.0, 6.0]
        assert self_times(parents, starts, ends) == [4.0, 2.0, 3.0, 1.0]

    def test_self_times_sum_to_root_duration(self):
        parents = [-1, 0, 1, 1, 0]
        starts = [0.0, 0.5, 0.6, 1.0, 2.0]
        ends = [3.0, 1.8, 0.9, 1.5, 2.5]
        assert sum(self_times(parents, starts, ends)) == pytest.approx(3.0)


class TestLedger:
    def test_divergence_fails_its_step_and_every_later_one(self):
        ledger = Ledger()
        ledger.steps(planned=100, completed=40)
        ledger.check("losses-finite", False, "training diverged")
        assert ledger.attempted == 101
        assert ledger.failed == 61
        assert ledger.error_rate == pytest.approx(61 / 101)

    def test_clean_run_has_no_failures(self):
        ledger = Ledger()
        ledger.steps(planned=500, completed=500)
        ledger.check("checkpoint-round-trip", True)
        assert (ledger.attempted, ledger.failed, ledger.error_rate) == (501, 0, 0.0)

    def test_request_fails_on_nonzero_exit_or_wrong_output(self):
        ledger = Ledger()
        ledger.request("a", 0, True)
        ledger.request("b", 3, True)
        ledger.request("c", 0, False)
        ledger.request("d", 1, False)
        assert (ledger.attempted, ledger.failed) == (4, 3)
        assert ledger.failures[0] == "b: exit code 3"

    def test_completed_outside_plan_is_rejected(self):
        with pytest.raises(ValueError):
            Ledger().steps(planned=10, completed=11)


def _fake_tracer(spans):
    """A Tracer holding (name, start, end, parent) spans recorded elsewhere."""
    tr = tracer.Tracer(targets=())
    for name, start, end, parent in spans:
        tr.names.append(name)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.parents.append(parent)
    return tr


class TestLayerReport:
    def test_step_scope_excludes_snapshots_and_outside_work(self):
        tr = _fake_tracer([
            ("training.train", 0.0, 10.0, -1),
            ("models.decode", 1.0, 2.0, 0),
            ("autodiff.backward", 2.0, 4.0, 0),
            ("bench.snapshot", 4.0, 6.0, 0),
            ("models.decode", 4.5, 5.5, 3),  # inside the snapshot: not a step's
            ("models.decode", 6.0, 7.0, 0),
            ("autodiff.backward", 7.0, 9.0, 0),
            ("models.decode", 11.0, 12.0, -1),  # after training
        ])
        m = tracer.layer_report(tr, "training.train")
        assert m["trace.steps"]["value"] == 2
        assert m["models.decode.calls_per_step"]["value"] == 1.0
        assert m["models.decode.ms_per_step"]["value"] == pytest.approx(1000.0)
        assert m["autodiff.backward.ms_per_step"]["value"] == pytest.approx(2000.0)
        # train's self time: 10 - (1 + 2 + 2 + 1 + 2) = 2 s over 2 steps
        assert m["training.train.self_ms_per_step"]["value"] == pytest.approx(1000.0)
        assert m["models.encode.ms_per_step"]["value"] == 0.0
        assert m["trace.self_sum_ms_per_step"]["value"] == pytest.approx(4000.0)

    def test_missing_target_is_absent_not_fatal(self):
        tr = tracer.Tracer(targets=(
            tracer.Target("models.encode", "benchstats", "no_such_function"),
            tracer.Target("optim.Adam.step", "no_such_module_xyz", "Adam.step"),
            tracer.Target("cli.main", "benchstats", "median"),
        ))
        tr.install()
        try:
            assert set(tr.missing) == {"models.encode", "optim.Adam.step"}
            import benchstats

            assert benchstats.median([1.0, 3.0]) == 2.0
            assert tr.names == ["cli.main"]
        finally:
            tr.uninstall()
        assert benchstats.median.__name__ == "median"
        assert not hasattr(benchstats.median, "__wrapped__")
        m = tracer.layer_report(tr, None)
        assert "models.encode.ms_per_step" not in m
        assert "optim.Adam.step.ms_per_call" not in m
        assert "cli.main.self_ms" in m


def test_benchmark_json_names_every_metric_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    episode = SimpleNamespace(wall_s=1.0, ops_ms=[1.0, 2.0])
    traced = run.traced_metrics(tracer.Tracer(targets=()), "training.train",
                                [episode, episode], [False, True], {})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in traced.items()}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
