"""One probe campaign per world across a remoteness-threshold grid.

The threshold only re-classifies what the campaign measured, so trials
that share a world object and differ only in
``campaign.remoteness_threshold_ms`` share one collect → filter → result
pass (``repro.experiments.ensemble._detection_pass``).  These tests pin:

* the saving — a 4-point threshold grid over one world collects,
  filters and assembles its result exactly once;
* the key — another world, or any other campaign knob (rounds, filters,
  faults), still gets its own pass, and a joint study's offload variants share one;
* the rows — every shared-pass row equals the standalone
  :func:`~repro.experiments.ensemble.run_trial` row, timings aside;
* the safety — concurrent in-process studies (``repro serve --threads``)
  read consistent entries, and the memo never keeps a world alive.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from dataclasses import asdict

import pytest

import repro.experiments.ensemble as ensemble
from repro.core.detection.campaign import CampaignConfig, ProbeCampaign
from repro.core.detection.filters import FilterPipeline
from repro.experiments import (
    DetectionStudy,
    JointStudy,
    JointVariant,
    grid_variants,
    run_joint_trial,
    run_trial,
)
from repro.experiments.engine import StudyConfig, expand_trials, run_study
from repro.faults.schedule import FaultConfig
from repro.sim.detection_world import (
    DetectionWorldConfig,
    build_detection_world,
)
from repro.sim.scenarios import detection_preset_specs
from tests.engine_equivalence import tiny_offload_config

THRESHOLDS_MS = (5.0, 10.0, 20.0, 40.0)
TIMING_FIELDS = ("build_s", "collect_s", "filter_s")


def mini3_study(axes, campaign=None) -> DetectionStudy:
    return DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(specs=detection_preset_specs("mini3")),
        campaign=campaign,
        axes=axes,
    ))


def untimed(result) -> dict:
    row = asdict(result)
    for key in TIMING_FIELDS:
        row.pop(key, None)
    return row


def run_inline(study, seeds):
    result = run_study(study, StudyConfig(seeds=seeds, workers=1,
                                          trial_batch=1))
    assert not result.failures
    return result


@pytest.fixture
def calls(monkeypatch):
    """Calls into each stage of the threshold-free pass."""
    counts = {"collect": 0, "filter": 0, "result": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ProbeCampaign, "collect",
                        counting("collect", ProbeCampaign.collect))
    monkeypatch.setattr(FilterPipeline, "run",
                        counting("filter", FilterPipeline.run))
    monkeypatch.setattr(ensemble, "build_result",
                        counting("result", ensemble.build_result))
    return counts


def assert_rows_match_run_trial(study, result, seeds):
    specs = expand_trials(study, seeds)
    assert [t.trial_id for t in result.trials] == [s.trial_id for s in specs]
    for spec, trial in zip(specs, result.trials):
        assert untimed(trial) == untimed(run_trial(spec))


class TestThresholdGrid:
    def test_one_pass_per_world(self, calls):
        study = mini3_study({"campaign.remoteness_threshold_ms": THRESHOLDS_MS})
        result = run_inline(study, (3,))
        assert len(result.trials) == len(THRESHOLDS_MS)
        assert calls == {"collect": 1, "filter": 1, "result": 1}
        # Each trial classified at its own threshold: remote calls can
        # only fall as the threshold rises.
        called = [t.true_positives + t.false_positives for t in result.trials]
        assert called == sorted(called, reverse=True) and called[0] > called[-1]
        # Trials reusing the pass report the shared pass's timings.
        assert len({(t.collect_s, t.filter_s) for t in result.trials}) == 1

    def test_rows_equal_run_trial(self):
        study = mini3_study({"campaign.remoteness_threshold_ms": THRESHOLDS_MS})
        assert_rows_match_run_trial(study, run_inline(study, (3,)), (3,))


class TestKeyIsComplete:
    @pytest.mark.parametrize("axes", [
        {"campaign.pch_rounds": (11, 6)},
        {"filters.min_replies_per_lg": (8, 12)},
        # Same seed and campaign, two worlds: the world is in the key.
        {"world.second_interface_fraction": (0.05, 0.2)},
    ], ids=["pch_rounds", "min_replies_per_lg", "world"])
    def test_other_knobs_get_their_own_pass(self, calls, axes):
        study = mini3_study(axes)
        result = run_inline(study, (3,))
        assert calls["collect"] == 2
        assert_rows_match_run_trial(study, result, (3,))

    def test_joint_variants_share_one_pass(self, calls):
        variants = tuple(
            JointVariant(
                name=f"group={group}",
                detection_world=DetectionWorldConfig(
                    specs=detection_preset_specs("mini3")),
                offload_world=tiny_offload_config(),
                group=group,
            )
            for group in (3, 4)
        )
        study = JointStudy(variants=variants)
        result = run_inline(study, (3,))
        assert calls["collect"] == 1
        for spec, trial in zip(expand_trials(study, (3,)), result.trials):
            again = asdict(run_joint_trial(spec))
            shared = asdict(trial)
            for row in (again, shared):
                row.pop("build_s")
                row.pop("study_s", None)
            assert shared == again


class TestFaultedThresholdGrid:
    """The chaos path: faulted campaigns share the pass like clean ones."""

    def test_one_faulted_pass_per_world_and_rows_equal(self, calls):
        study = mini3_study(
            {"campaign.remoteness_threshold_ms": THRESHOLDS_MS},
            campaign=CampaignConfig(faults=FaultConfig(intensity=2.0)),
        )
        result = run_inline(study, (3,))
        assert calls["collect"] == 1
        assert_rows_match_run_trial(study, result, (3,))

    def test_faults_stay_in_the_key(self, calls):
        world = build_detection_world(DetectionWorldConfig(
            seed=3, specs=detection_preset_specs("mini3")))
        faulted = ensemble._detection_pass(
            world, CampaignConfig(seed=9, faults=FaultConfig(intensity=2.0)))
        clean = ensemble._detection_pass(world, CampaignConfig(seed=9))
        assert calls["collect"] == 2
        # The faults really reached the measurements the pass kept.
        assert (sum(i.reply_count for i in faulted.result.analyzed)
                < sum(i.reply_count for i in clean.result.analyzed))


class TestMemoSafety:
    def test_concurrent_studies_match_sequential_runs(self):
        """Scheduler-style threads (``repro serve --threads``), each running
        a threshold grid on its own seeds, swap the one-entry memo back and
        forth mid-study; a short switch interval makes them interleave
        inside the pass."""
        axes = {"campaign.remoteness_threshold_ms": THRESHOLDS_MS}
        seed_sets = ((3, 4), (5, 6), (7, 8))
        sequential = [
            [untimed(t) for t in run_inline(mini3_study(axes), seeds).trials]
            for seeds in seed_sets
        ]
        rows: dict[int, list[dict]] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(len(seed_sets))

        def job(index: int, seeds: tuple[int, ...]) -> None:
            try:
                barrier.wait(timeout=60)
                result = run_inline(mini3_study(axes), seeds)
                rows[index] = [untimed(t) for t in result.trials]
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=job, args=(i, seeds))
                   for i, seeds in enumerate(seed_sets)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert [rows[i] for i in range(len(seed_sets))] == sequential

    def test_no_world_outlives_its_study(self, monkeypatch):
        built: list[weakref.ref] = []
        build = ensemble.build_detection_world

        def recording(config):
            world = build(config)
            built.append(weakref.ref(world))
            return world

        monkeypatch.setattr(ensemble, "build_detection_world", recording)
        study = mini3_study({"campaign.remoteness_threshold_ms": (5.0, 20.0)})
        result = run_inline(study, (3, 4))
        assert len(result.trials) == 4 and len(built) == 2
        del result
        gc.collect()
        assert [ref() for ref in built] == [None, None]
        # The memo outlives the world, but only as a dead reference.
        entry = ensemble._last_pass
        assert entry is not None and entry.world() is None
