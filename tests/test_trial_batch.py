"""Trial-axis batching (``StudyConfig.trial_batch``): the bit-exactness,
resume, and fallback contracts.

The batched engines realize whole seed batches as one array program
(:mod:`repro.sim.offload_batch`) or as a GC-suspended group loop
(detection), and the contract that makes them safe to enable anywhere is
*per-seed bit-identity*: a batched run must produce exactly the results
of k independent single-trial runs, modulo the timing fields.  These
suites pin that contract for all three world-view studies, the engine's
mid-batch resume behaviour, and the per-trial fallback accounting.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ConfigVariant,
    DetectionStudy,
    EconomicsStudy,
    EconomicsVariant,
    OffloadStudy,
    OffloadVariant,
    StudyConfig,
    run_study,
)
from repro.experiments.engine import _artifact_path
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.scenarios import rediris_small_config

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

#: Fuzz-loop iterations when hypothesis is unavailable.
FUZZ_CASES = 20

#: Per-trial wall-clock measurements: the only fields allowed to differ
#: between a batched run and the equivalent single-trial runs.
TIMING_FIELDS = ("build_s", "study_s", "collect_s", "filter_s")


def stripped(result) -> dict:
    payload = asdict(result)
    for field in TIMING_FIELDS:
        payload.pop(field, None)
    return payload


def _detection_study() -> DetectionStudy:
    # One small IXP keeps the campaign fast while exercising the whole
    # build → collect → filter → validate pipeline per seed.
    return DetectionStudy(variants=(
        ConfigVariant(
            name="torix",
            world=DetectionWorldConfig(specs=(spec_by_acronym("TorIX"),)),
        ),
    ))


def _offload_study() -> OffloadStudy:
    return OffloadStudy(variants=(
        OffloadVariant(name="small", world=rediris_small_config(),
                       max_ixps=4),
    ))


def _economics_study() -> EconomicsStudy:
    return EconomicsStudy(variants=(
        EconomicsVariant(name="small", world=rediris_small_config()),
    ))


class TestBatchBitExactness:
    """A batched run equals k single-trial runs, field for field."""

    @pytest.mark.parametrize("k", (1, 2, 5))
    @pytest.mark.parametrize(
        "make_study", (_detection_study, _offload_study, _economics_study),
        ids=("detection", "offload", "economics"),
    )
    def test_batched_equals_pertrial(self, make_study, k):
        seeds = tuple(range(3, 3 + k))
        batched = run_study(
            make_study(),
            StudyConfig(seeds=seeds, workers=1, trial_batch=k),
        )
        pertrial = run_study(
            make_study(), StudyConfig(seeds=seeds, workers=1)
        )
        assert batched.batch_fallbacks == 0
        assert not batched.failures and not pertrial.failures
        assert [stripped(t) for t in batched.trials] == [
            stripped(t) for t in pertrial.trials
        ]

    def test_batch_larger_than_seed_list_is_one_chunk(self):
        result = run_study(
            _offload_study(),
            StudyConfig(seeds=(0, 1), workers=1, trial_batch=16),
        )
        assert len(result.trials) == 2
        assert result.batch_fallbacks == 0

    def test_trial_batch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(0,), trial_batch=0)


class TestMidBatchResume:
    """Killing a batched run mid-batch resumes without recomputing
    completed trials or changing any result."""

    def test_kill_inside_second_batch_resumes_identically(self):
        study = _offload_study()
        seeds = tuple(range(5))
        with tempfile.TemporaryDirectory() as out_dir:
            config = StudyConfig(
                seeds=seeds, workers=1, trial_batch=2, out_dir=out_dir
            )
            full = run_study(study, config)
            path = _artifact_path(study, out_dir)
            lines = path.read_text().splitlines(keepends=True)
            # Header + 3 trial rows: the cut lands inside the second
            # 2-seed batch, the state a mid-batch kill leaves behind.
            path.write_text("".join(lines[:4]))

            resumed = run_study(study, config)
            assert resumed.resumed == 3
            assert [stripped(t) for t in resumed.trials] == [
                stripped(t) for t in full.trials
            ]
            # The healed artifact carries every trial exactly once.
            trial_ids = sorted(
                json.loads(line)["trial_id"]
                for line in path.read_text().splitlines()
                if line and "trial_id" in json.loads(line)
            )
            assert trial_ids == [t.trial_id for t in full.trials]


# -- engine-level properties on a cheap batchable toy study --------------------


@dataclass(frozen=True, slots=True)
class _Spec:
    trial_id: int
    variant: str
    seed: int
    scale: float


@dataclass(frozen=True, slots=True)
class _Result:
    trial_id: int
    variant: str
    seed: int
    value: float


@dataclass(frozen=True, slots=True)
class BatchToyStudy:
    """value = scale·seed² — deterministic in the spec, trivially cheap.

    ``fail_batches`` makes ``run_batch`` raise, exercising the engine's
    per-trial fallback path.
    """

    scales: tuple[tuple[str, float], ...] = (("a", 1.0), ("b", 2.0))
    fail_batches: bool = False

    name = "batchtoy"

    def variant_names(self):
        return tuple(name for name, _ in self.scales)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed,
                     scale=dict(self.scales)[variant])

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed}

    def measure(self, spec, world, build_s):
        assert world["seed"] == spec.seed
        return _Result(trial_id=spec.trial_id, variant=spec.variant,
                       seed=spec.seed, value=spec.scale * spec.seed**2)

    def run_batch(self, specs):
        if self.fail_batches:
            raise RuntimeError("batch engine down")
        return [self.measure(spec, self.build(spec), 0.0) for spec in specs]

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


def check_batched_aggregates_match(seeds: list[int], k: int) -> None:
    study = BatchToyStudy()
    batched = run_study(
        study, StudyConfig(seeds=tuple(seeds), workers=1, trial_batch=k)
    )
    pertrial = run_study(study, StudyConfig(seeds=tuple(seeds), workers=1))
    assert batched.batch_fallbacks == 0
    assert [asdict(t) for t in batched.trials] == [
        asdict(t) for t in pertrial.trials
    ]
    assert batched.streaming.keys() == pertrial.streaming.keys()
    for variant, metrics in pertrial.streaming.items():
        for metric, snap in metrics.items():
            redone = batched.streaming[variant][metric]
            assert redone.n == snap.n
            assert redone.mean == pytest.approx(snap.mean)
            assert redone.half_width == pytest.approx(snap.half_width)


class TestBatchFallbackAccounting:
    def test_failing_batches_fall_back_per_trial(self):
        study = BatchToyStudy(fail_batches=True)
        result = run_study(
            study, StudyConfig(seeds=(0, 1, 2, 3, 4), workers=1,
                               trial_batch=2)
        )
        pertrial = run_study(
            BatchToyStudy(), StudyConfig(seeds=(0, 1, 2, 3, 4), workers=1)
        )
        assert [asdict(t) for t in result.trials] == [
            asdict(t) for t in pertrial.trials
        ]
        # Chunks of 2-2-1 per variant: the singleton chunks never call
        # run_batch, so only the four two-seed chunks fall back.
        assert result.batch_fallbacks == 8
        note = result.coverage_note()
        assert note is not None and "fell back" in note
        assert "quarantined" not in note

    def test_clean_batched_run_has_no_note(self):
        result = run_study(
            BatchToyStudy(), StudyConfig(seeds=(0, 1), workers=1,
                                         trial_batch=2)
        )
        assert result.batch_fallbacks == 0
        assert result.coverage_note() is None


def _artifact_rows(out_dir: str, study_name: str) -> int:
    """Complete trial rows written so far to a study's artifact."""
    return sum(
        path.read_text().count("\n") - 1
        for path in Path(out_dir).glob(f"{study_name}_*_trials.jsonl")
    )


@dataclass(frozen=True, slots=True)
class BatchKillerStudy(BatchToyStudy):
    """A batchable toy whose last seed chunk hard-kills its worker once.

    Every ``run_batch`` call appends its chunk to ``<marker_dir>/chunks``.
    Before dying, the poisoned chunk (``b:4-7``) waits until the rows of
    every other chunk are in the artifact (written under ``marker_dir``),
    so the kill leaves exactly one chunk unrecorded.
    """

    marker_dir: str = ""

    name = "batchkiller"

    def run_batch(self, specs):
        chunk = f"{specs[0].variant}:{specs[0].seed}-{specs[-1].seed}"
        with open(os.path.join(self.marker_dir, "chunks"), "a") as fh:
            fh.write(chunk + "\n")
        marker = os.path.join(self.marker_dir, "killed")
        if chunk == "b:4-7" and not os.path.exists(marker):
            deadline = time.monotonic() + 30.0
            while (_artifact_rows(self.marker_dir, self.name) < 12
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            with open(marker, "w") as fh:
                fh.write("1")
            os._exit(1)  # simulate an OOM-killed worker, no traceback
        return BatchToyStudy.run_batch(self, specs)


@pytest.mark.slow
class TestPooledBatchRestart:
    def test_killed_worker_resubmits_only_unfinished_chunks(self, tmp_path):
        study = BatchKillerStudy(marker_dir=str(tmp_path))
        config = StudyConfig(seeds=tuple(range(8)), workers=2,
                             trial_batch=4, out_dir=str(tmp_path))
        result = run_study(study, config)
        assert result.pool_restarts == 1
        assert result.failures == []
        assert result.batch_fallbacks == 0
        # Only the killed chunk ran twice; the three chunks recorded
        # before the kill were not resubmitted.
        runs = Counter((tmp_path / "chunks").read_text().split())
        assert runs == {"a:0-3": 1, "a:4-7": 1, "b:0-3": 1, "b:4-7": 2}
        inline = run_study(BatchToyStudy(),
                           StudyConfig(seeds=tuple(range(8)), workers=1))
        assert [asdict(t) for t in result.trials] == [
            asdict(t) for t in inline.trials
        ]
        # Every trial is on disk exactly once: a rerun resumes them all.
        assert _artifact_rows(str(tmp_path), study.name) == 16
        assert run_study(study, config).resumed == 16


if HAVE_HYPOTHESIS:

    class TestBatchedAggregateProperty:
        @given(
            seeds=st.lists(st.integers(min_value=0, max_value=10_000),
                           unique=True, min_size=1, max_size=12),
            k=st.integers(min_value=1, max_value=6),
        )
        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def test_any_seed_list_any_batch_size(self, seeds, k):
            check_batched_aggregates_match(seeds, k)

else:  # pragma: no cover - exercised on minimal images

    class TestBatchedAggregateProperty:
        @pytest.mark.parametrize("case", range(FUZZ_CASES))
        def test_any_seed_list_any_batch_size(self, case):
            import numpy as np

            rng = np.random.default_rng(20_260_808 + case)
            size = int(rng.integers(1, 13))
            seeds = rng.choice(10_001, size=size, replace=False).tolist()
            check_batched_aggregates_match(
                [int(s) for s in seeds], int(rng.integers(1, 7))
            )
