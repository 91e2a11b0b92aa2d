"""The generic study engine: expansion, caching, resume, streaming."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ConfigVariant,
    DetectionStudy,
    EnsembleConfig,
    StreamingMeanCI,
    StudyConfig,
    expand_trials,
    mean_ci,
    run_ensemble,
    run_study,
)
from repro.experiments.engine import _artifact_path, study_fingerprint
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig

TORIX = (spec_by_acronym("TorIX"),)


@dataclass(frozen=True, slots=True)
class _ToySpec:
    trial_id: int
    variant: str
    seed: int
    scale: float


@dataclass(frozen=True, slots=True)
class _ToyResult:
    trial_id: int
    variant: str
    seed: int
    value: float
    world_id: int  # id() of the built world — exposes build sharing


@dataclass(frozen=True, slots=True)
class ToyStudy:
    """A trivially-cheap study: value = scale * seed, world = per-seed dict."""

    scales: tuple[tuple[str, float], ...] = (("a", 1.0), ("b", 2.0))

    name = "toy"

    def variant_names(self):
        return tuple(name for name, _ in self.scales)

    def resolve(self, variant, seed, trial_id):
        scale = dict(self.scales)[variant]
        return _ToySpec(trial_id=trial_id, variant=variant, seed=seed,
                        scale=scale)

    def world_key(self, spec):
        return spec.seed  # all variants share one "world" per seed

    def build(self, spec):
        return {"seed": spec.seed}

    def measure(self, spec, world, build_s):
        assert world["seed"] == spec.seed
        return _ToyResult(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=spec.scale * spec.seed, world_id=id(world),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _ToyResult(**payload)


class TestExpansion:
    def test_variant_major_stable_ids(self):
        specs = expand_trials(ToyStudy(), (3, 4))
        assert [(s.variant, s.seed) for s in specs] == [
            ("a", 3), ("a", 4), ("b", 3), ("b", 4),
        ]
        assert [s.trial_id for s in specs] == [0, 1, 2, 3]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=())
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1, 1))
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1,), workers=-1)


class TestWorldCache:
    def test_shared_world_per_key(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(1, 2, 3), workers=1))
        # 2 variants x 3 seeds = 6 trials over 3 worlds.
        assert result.world_builds == 3
        assert result.world_reuses == 3
        by_seed: dict[int, set[int]] = {}
        for trial in result.trials:
            by_seed.setdefault(trial.seed, set()).add(trial.world_id)
        # Both variants of one seed saw the *same* world object.  (Across
        # seeds the ids are not comparable — a freed group's world can be
        # reallocated at the same address.)
        assert all(len(ids) == 1 for ids in by_seed.values())

    def test_results_in_trial_order(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(5, 6), workers=1))
        assert [t.trial_id for t in result.trials] == [0, 1, 2, 3]
        assert [t.value for t in result.trials] == [5.0, 6.0, 10.0, 12.0]

    @pytest.mark.slow
    def test_parallel_matches_inline(self):
        inline = run_study(ToyStudy(), StudyConfig(seeds=(1, 2), workers=1))
        pooled = run_study(ToyStudy(), StudyConfig(seeds=(1, 2), workers=2))
        assert [t.value for t in pooled.trials] == [
            t.value for t in inline.trials
        ]
        assert pooled.world_builds == 2 and pooled.world_reuses == 2


class TestStreaming:
    def test_streaming_matches_mean_ci(self):
        values = [1.0, 4.0, 2.5, 9.0, 3.0]
        acc = StreamingMeanCI()
        for v in values:
            acc.add(v)
        snap = acc.snapshot()
        direct = mean_ci(values)
        assert snap.mean == pytest.approx(direct.mean, abs=1e-12)
        assert snap.half_width == pytest.approx(direct.half_width, abs=1e-12)
        assert snap.n == direct.n == 5

    def test_single_sample_zero_width(self):
        acc = StreamingMeanCI()
        acc.add(7.0)
        snap = acc.snapshot()
        assert snap.mean == 7.0 and snap.half_width == 0.0 and snap.n == 1

    def test_engine_streams_per_variant(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(1, 2, 3), workers=1))
        assert set(result.streaming) == {"a", "b"}
        a = result.streaming["a"]["value"]
        direct = mean_ci([1.0, 2.0, 3.0])
        assert a.mean == pytest.approx(direct.mean)
        assert a.half_width == pytest.approx(direct.half_width)


class TestResume:
    def test_kill_and_rerun_identical(self, tmp_path):
        study = ToyStudy()
        config = StudyConfig(seeds=(1, 2, 3), workers=1,
                             out_dir=str(tmp_path))
        full = run_study(study, config)
        path = _artifact_path(study, str(tmp_path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 6  # header + one line per trial

        # Simulate a kill after the first group (plus a truncated partial
        # line).  Artifacts land in group order, so the first two lines
        # are seed 1's trials across both variants.
        path.write_text("".join(lines[:3]) + '{"trial_id": 2, "vari')
        resumed = run_study(study, config)
        assert resumed.resumed == 2
        assert resumed.world_builds == 2  # seed 1 done; seeds 2,3 rebuilt
        assert [t.value for t in resumed.trials] == [
            t.value for t in full.trials
        ]
        # Streaming aggregates absorb resumed trials too.
        assert resumed.streaming["a"]["value"].n == 3

        # A third run finds everything done and executes nothing.
        again = run_study(study, config)
        assert again.resumed == 6
        assert again.world_builds == 0 and again.world_reuses == 0
        assert [t.value for t in again.trials] == [
            t.value for t in full.trials
        ]

    def test_different_configs_coexist_per_fingerprint(self, tmp_path):
        # Artifacts are content-addressed, so two configurations of the
        # same study share one out_dir without colliding — and each
        # resumes from its own file.
        study = ToyStudy()
        small = StudyConfig(seeds=(1,), workers=1, out_dir=str(tmp_path))
        large = StudyConfig(seeds=(1, 2), workers=1, out_dir=str(tmp_path))
        run_study(study, small)
        first = run_study(study, large)
        assert first.resumed == 0  # distinct fingerprint: a fresh artifact
        fp_small = study_fingerprint(study, small.seeds)
        fp_large = study_fingerprint(study, large.seeds)
        assert fp_small != fp_large
        assert _artifact_path(study, str(tmp_path), fp_small).exists()
        assert _artifact_path(study, str(tmp_path), fp_large).exists()
        # Reruns of either configuration are pure store hits.
        assert run_study(study, small).resumed == 2
        assert run_study(study, large).resumed == 4

    def test_legacy_artifact_resumed_in_place(self, tmp_path):
        # A pre-content-addressing artifact (no fingerprint in the name)
        # whose header matches the configuration keeps working as-is.
        study = ToyStudy()
        config = StudyConfig(seeds=(1, 2), workers=1, out_dir=str(tmp_path))
        run_study(study, config)
        fingerprint = study_fingerprint(study, config.seeds)
        modern = _artifact_path(study, str(tmp_path), fingerprint)
        legacy = tmp_path / f"{study.name}_trials.jsonl"
        modern.rename(legacy)
        resumed = run_study(study, config)
        assert resumed.resumed == 4
        assert not modern.exists()  # appends stay on the legacy file
        # A different configuration ignores the mismatched legacy file
        # and starts its own content-addressed artifact beside it.
        other = run_study(
            study, StudyConfig(seeds=(3,), workers=1, out_dir=str(tmp_path))
        )
        assert other.resumed == 0
        assert legacy.exists()

    def test_non_artifact_file_rejected(self, tmp_path):
        study = ToyStudy()
        _artifact_path(study, str(tmp_path)).write_text("not json\n")
        with pytest.raises(ConfigurationError):
            run_study(study, StudyConfig(seeds=(1,), workers=1,
                                         out_dir=str(tmp_path)))

    @pytest.mark.parametrize("header, message", [
        ("not json", "is not a study artifact file"),
        ("[1, 2]", "has schema None"),
        ('{"schema": "other/1"}', "has schema 'other/1'"),
    ])
    def test_foreign_header_on_the_resume_path_rejected(
        self, tmp_path, header, message
    ):
        # The content-addressed artifact is read by the resume loader,
        # which validates its header exactly like the legacy probe.
        study = ToyStudy()
        path = _artifact_path(study, str(tmp_path),
                              study_fingerprint(study, (1,)))
        path.write_text(header + "\n")
        with pytest.raises(ConfigurationError, match=message):
            run_study(study, StudyConfig(seeds=(1,), workers=1,
                                         out_dir=str(tmp_path)))


class TestDetectionOnEngine:
    """The ported detection study: same numbers through every front end."""

    def _config(self, **kwargs):
        return EnsembleConfig(
            seeds=(0, 1),
            variants=(
                ConfigVariant(
                    name="tiny", world=DetectionWorldConfig(specs=TORIX)
                ),
            ),
            workers=1,
            **kwargs,
        )

    def test_run_ensemble_reports_cache_stats(self):
        result = run_ensemble(self._config())
        # One variant: every seed's world is built exactly once.
        assert result.world_builds == 2 and result.world_reuses == 0

    def test_threshold_grid_shares_worlds(self):
        from repro.experiments import grid_variants

        config = EnsembleConfig(
            seeds=(0, 1),
            variants=grid_variants(
                world=DetectionWorldConfig(specs=TORIX),
                axes={"campaign.remoteness_threshold_ms": (5.0, 10.0)},
            ),
            workers=1,
        )
        result = run_ensemble(config)
        # 2 variants x 2 seeds = 4 trials over 2 worlds.
        assert result.world_builds == 2 and result.world_reuses == 2
        # Shared-world trials still match the standalone trial runner.
        from repro.experiments import run_trial

        spec = config.trials()[0]
        standalone = run_trial(spec)
        engine_trial = result.trials[0]
        assert engine_trial.analyzed_count == standalone.analyzed_count
        assert engine_trial.discard_counts == standalone.discard_counts
        assert engine_trial.precision == standalone.precision

    def test_detection_resume_identical_aggregates(self, tmp_path):
        config = self._config()
        full = run_ensemble(config, out_dir=str(tmp_path))
        path = _artifact_path(DetectionStudy(variants=config.variants),
                              str(tmp_path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # keep header + first trial
        resumed = run_ensemble(config, out_dir=str(tmp_path))
        assert resumed.resumed == 1
        (a,) = full.summaries()
        (b,) = resumed.summaries()
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert a.analyzed == b.analyzed
        assert a.discards == b.discards
