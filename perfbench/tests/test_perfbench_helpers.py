"""Tests of the benchmark's own helpers (not of the repro package).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import detect  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import servemix  # noqa: E402
import spread  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = measure.tail([float(x) for x in range(100, 0, -1)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = measure.tail([float(x) for x in range(1, 12)])
    assert (value, n) == (1.0, 11)
    assert sum(x > value for x in range(1, 12)) == measure.TAIL_BEYOND


def test_tail_of_too_few_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_round_throughput_uses_the_median_round():
    assert measure.round_throughput(16, [1.0, 2.0, 100.0]) == 8.0
    with pytest.raises(ValueError):
        measure.round_throughput(16, [])


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_worsening_follows_the_better_direction():
    assert spread.worsening(10.0, 12.0, "lower") == pytest.approx(0.2)
    assert spread.worsening(10.0, 12.0, "higher") == pytest.approx(-0.2)
    assert spread.worsening(10.0, 8.0, "higher") == pytest.approx(0.2)


def test_union_length_merges_overlaps_and_clips():
    assert measure.union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert measure.union_length([], 0, 10) == 0


def _span(sid, layer, start, end, parent=None, fn="f", pid=1):
    return Span(sid, layer, fn, start, end, parent, pid)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", "experiments.scheduler", 0.0, 10.0),
        _span("b", "sim.detection_world", 1.0, 4.0, parent="a"),
        _span("c", "sim.detection_world", 3.0, 6.0, parent="a"),
        _span("d", "sim.netpool", 2.0, 3.0, parent="b"),
    ]
    own = tracing.self_times(spans)
    assert own == {"a": 5.0, "b": 2.0, "c": 3.0, "d": 1.0}
    layers = tracing.layer_metrics(spans, wall_s=10.0, lanes=1)
    assert layers["sim.detection_world.busy_s"] == 5.0
    assert layers["sim.detection_world.calls"] == 2
    assert layers["sim.netpool.share"] == pytest.approx(0.1)


def test_nested_calls_within_a_layer_count_once():
    spans = [
        _span("a", "core.offload", 0.0, 4.0),
        _span("b", "core.offload", 1.0, 2.0, parent="a"),
    ]
    layers = tracing.layer_metrics(spans, wall_s=4.0, lanes=2)
    assert layers["core.offload.calls"] == 1
    assert layers["core.offload.busy_s"] == 4.0
    assert layers["core.offload.share"] == 0.5


def test_scheduler_self_time_and_first_result():
    spans = [
        _span("s", "experiments.scheduler", 0.0, 10.0, fn="execute_study"),
        _span("g1", "experiments.scheduler", 1.0, 6.0, parent="s",
              fn="_run_group", pid=2),
        _span("g2", "experiments.scheduler", 2.0, 8.0, parent="s",
              fn="_run_group", pid=3),
    ]
    layers = tracing.layer_metrics(spans, wall_s=10.0, lanes=2)
    assert layers["experiments.scheduler.self_s"] == 3.0
    assert layers["experiments.scheduler.first_result_s"] == 6.0


def test_client_sequence_is_seeded_and_one_new_request_per_block():
    def first(seed, client, n=60):
        return list(itertools.islice(servemix.client_sequence(seed, client),
                                     n))

    assert first(3, 0) == first(3, 0)
    assert first(3, 0) != first(4, 0)
    assert servemix.request_pool(3) == servemix.request_pool(3)
    assert servemix.request_pool(3) != servemix.request_pool(4)
    seen: set[int] = set()
    sequence = first(3, 1)
    for block in range(0, len(sequence), servemix.BLOCK):
        new = {i for i in sequence[block:block + servemix.BLOCK]
               if i not in seen}
        assert len(new) == 1
        seen.update(new)
    # The two clients never share a request, so no hit waits on the other.
    assert not set(first(3, 0)) & set(first(3, 1))


def test_pool_requests_are_distinct_and_pin_the_engine():
    pool = servemix.request_pool(0)
    offsets = [request["config"]["seeds"]["offset"] for request in pool]
    assert len(set(offsets)) == len(pool)
    for request in pool[:8]:
        assert request["config"]["workers"] == 1
        assert request["config"]["trial_batch"] == servemix.SEEDS_PER_REQUEST
    warm = servemix.WARMUP_REQUEST["config"]["seeds"]["offset"]
    assert warm > max(offsets) + servemix.SEEDS_PER_REQUEST


def test_seed_stream_never_repeats_a_seed():
    stream = detect.SeedStream("detect_fresh", 5)
    drawn = stream.take(50) + stream.take(50)
    assert len(set(drawn)) == 100
    assert detect.SeedStream("detect_fresh", 5).take(100) == drawn
    assert detect.SeedStream("detect_fresh", 6).take(100) != drawn


def test_wrappers_come_off_completely(tmp_path):
    import repro.experiments.ensemble as ensemble

    original = ensemble.build_detection_world
    installation = tracing.install(tracing.Tracer(tmp_path))
    try:
        assert ensemble.build_detection_world is not original
        assert tracing.installed_wrappers()
    finally:
        installation.remove()
    assert ensemble.build_detection_world is original
    assert tracing.installed_wrappers() == []


def test_seeds_change_inputs_not_metric_names(monkeypatch):
    """Two seeds of a shrunken detect_fresh: both correct, same names."""
    monkeypatch.setitem(detect.WORKLOADS, "detect_fresh", detect.Workload(
        "mini3", seeds_per_round=2, workers=1, trial_batch=2))
    monkeypatch.setattr(detect, "SETUP_REPEATS", 1)
    monkeypatch.setattr(detect, "HIT_REPLAYS", 1)
    monkeypatch.setattr(detect, "MIN_ROUNDS", 1)
    monkeypatch.setattr(detect, "CHECK_SAMPLE", 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]
    results = [run.run_workload("detect_fresh", seed, 0.0, False)[0]
               for seed in (1, 2)]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (detect.SeedStream("detect_fresh", 1).take(2)
            != detect.SeedStream("detect_fresh", 2).take(2))
