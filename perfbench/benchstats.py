"""Small statistics and bookkeeping helpers shared by the benchmark harness.

Pure Python with no dependency on the program under test, so the tests in
this directory exercise them without running a workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Tail percentiles tried from the highest down; see tail_percentile.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks.

    Matches numpy's default method: rank q/100 * (n - 1) over the sorted
    values.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples lie strictly above the q-th percentile."""
    if n < 1:
        return 0
    rank = q / 100.0 * (n - 1)
    return n - 1 - math.floor(rank)


def tail_percentile(n: int, min_beyond: int = 10,
                    candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile with at least `min_beyond` samples beyond it.

    None when even the lowest candidate has too few samples above it, i.e.
    the run is too short to say anything about its tail.
    """
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def median(values) -> float:
    return percentile(values, 50.0)


def self_times(parents: list[int], starts: list[float], ends: list[float]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    `parents[i]` is the index of span i's parent, or -1 for a root. Spans
    come from one thread, so the children of one span never overlap and
    their durations can simply be summed.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


@dataclass
class Ledger:
    """Attempted and failed operations of one run.

    An operation is one training step, one attacked method, one obfuscate
    request, or one correctness check.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def steps(self, planned: int, completed: int, what: str = "training") -> None:
        """Count a training run of `planned` steps that got through `completed`.

        A divergence fails the step it happened in and every step that never
        ran, so all `planned - completed` count as failed.
        """
        if not 0 <= completed <= planned:
            raise ValueError(f"completed {completed} outside [0, {planned}]")
        self.attempted += planned
        if completed < planned:
            self.failed += planned - completed
            self.failures.append(f"{what}: {planned - completed} of {planned} steps did not complete")

    def request(self, name: str, exit_code: int, output_matches: bool) -> bool:
        """One request: it fails on a non-zero exit or a wrong output."""
        if exit_code != 0:
            return self.check(name, False, f"exit code {exit_code}")
        return self.check(name, output_matches, "output differs from the reference")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
