"""What every workload of the benchmark shares: statistics and the outcome.

Medians, the tail rule, round throughput, spreads and interval unions
over plain floats, the resident-set readings, and :class:`Outcome`, the
record a workload run fills.  Nothing here imports ``repro``, so the
tests in ``perfbench/tests`` exercise it without building anything.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Sequence

#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` sorted
    samples the tail is the order statistic at 0-based index
    ``n - 1 - TAIL_BEYOND``; its percentile is the share of samples at or
    below it.  With too few samples for that rule the maximum is
    returned at percentile 100, so the count shows the tail is thin.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n


def round_throughput(items_per_round: int,
                     round_walls: Sequence[float]) -> float:
    """Items of one round divided by the median round wall time."""
    if items_per_round < 1:
        raise ValueError("a round must hold at least one item")
    return items_per_round / median(round_walls)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median: the run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Resident-set high-water mark (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """This process's high-water mark plus its largest finished child's.

    The children are the pool workers a study started; the benchmark
    spawns nothing else before it reads this.
    """
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return vm_hwm_mb() + child_kb / 1024


def union_length(intervals: Sequence[tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    covered = 0.0
    cursor = lo
    for start, end in clipped:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


class Outcome:
    """What one workload run reports: metrics, counts and notes.

    ``metrics`` maps a metric name to ``(value, unit)``; ``notes`` are
    the human-readable lines (sample counts, percentiles, intervals)
    printed above the result.
    """

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        #: Per-layer metrics of a traced run, and the tracer to write out.
        self.layers: dict[str, float] = {}
        self.tracer: Any = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, count: int, problem: str) -> None:
        """Count ``count`` failed items and remember why (first few only)."""
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(problem)
