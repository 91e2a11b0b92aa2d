"""The zero-copy shared-memory world transport and its study-engine path.

Three layers of contract: the segment primitive (aligned packing,
attach-side views, refcounted unlink), the engine integration (shm and
pickle transports produce identical trials; export failures fall back
and are counted), and crash hygiene (a hard-killed worker must not leak
a single segment in ``/dev/shm``).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.engine import StudyConfig, run_study
from repro.experiments.mega import MegaStudy, MegaVariant
from repro.experiments.transport import (
    SegmentManager,
    attach_columns,
    segment_exists,
)
from repro.sim.megatopo import MegaWorldConfig


def sample_columns() -> dict[str, np.ndarray]:
    return {
        "asn": np.arange(10, dtype=np.int64) + 10_000,
        "propensity": np.linspace(0.1, 1.0, 7),
        "grid": np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8),
    }


def shm_snapshot() -> set[str]:
    return set(os.listdir("/dev/shm"))


class TestSegmentLifecycle:
    def test_round_trip_preserves_every_column(self):
        manager = SegmentManager()
        columns = sample_columns()
        try:
            descriptor = manager.create(columns)
            attached = attach_columns(descriptor)
            try:
                assert attached.arrays.keys() == columns.keys()
                for name, want in columns.items():
                    got = attached.arrays[name]
                    assert np.array_equal(got, want), name
                    assert got.dtype == want.dtype
                    assert not got.flags.writeable
            finally:
                attached.close()
        finally:
            manager.close_all()

    def test_columns_are_64_byte_aligned(self):
        manager = SegmentManager()
        try:
            descriptor = manager.create(sample_columns())
            for spec in descriptor.columns:
                assert spec.offset % 64 == 0, spec.name
        finally:
            manager.close_all()

    def test_object_columns_are_rejected(self):
        manager = SegmentManager()
        try:
            with pytest.raises(ConfigurationError):
                manager.create({"bad": np.array(["x", None], dtype=object)})
        finally:
            manager.close_all()

    def test_refcount_unlinks_at_zero(self):
        manager = SegmentManager()
        descriptor = manager.create(sample_columns(), refs=2)
        name = descriptor.segment
        assert segment_exists(name)
        manager.release(name)
        assert segment_exists(name)  # one reference still out
        manager.release(name)
        assert not segment_exists(name)
        assert manager.live_segments() == ()

    def test_add_refs_extends_the_lifetime(self):
        manager = SegmentManager()
        descriptor = manager.create(sample_columns(), refs=1)
        manager.add_refs(descriptor.segment, 1)
        manager.release(descriptor.segment)
        assert segment_exists(descriptor.segment)
        manager.release(descriptor.segment)
        assert not segment_exists(descriptor.segment)

    def test_bookkeeping_edge_cases(self):
        manager = SegmentManager()
        with pytest.raises(ConfigurationError):
            manager.create(sample_columns(), refs=0)
        with pytest.raises(ConfigurationError):
            manager.add_refs("no-such-segment", 1)
        manager.release("no-such-segment")  # double release: a no-op
        manager.close_all()

    def test_close_all_force_unlinks_regardless_of_refs(self):
        manager = SegmentManager()
        descriptor = manager.create(sample_columns(), refs=5)
        manager.close_all()
        assert not segment_exists(descriptor.segment)
        assert manager.live_segments() == ()


# --- engine-integration stub studies (module level: picklable) ---------------


@dataclass(frozen=True, slots=True)
class _Spec:
    trial_id: int
    variant: str
    seed: int


@dataclass(frozen=True, slots=True)
class _Result:
    trial_id: int
    variant: str
    seed: int
    value: float


@dataclass(frozen=True, slots=True)
class ExportBombStudy:
    """A study whose ``export_world`` always raises: every trial must
    fall back to the pickle path, counted, with results unaffected.
    ``build_log`` (a file path) gets one line per ``build`` call."""

    build_log: str = ""

    name = "exportbomb"

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        if self.build_log:
            with open(self.build_log, "a") as fh:
                fh.write(f"{spec.seed}\n")
        return {"seed": spec.seed}

    def export_world(self, world):
        raise RuntimeError("these columns never leave the parent")

    def attach_world(self, meta, columns):
        raise AssertionError("a fallback group must never attach")

    def measure(self, spec, world, build_s):
        return _Result(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=float(world["seed"]),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


@dataclass(frozen=True, slots=True)
class ShmKillerStudy:
    """A well-behaved shm study whose seed-2 trial hard-kills its worker
    once (marker-gated) — the pool restart must not leak a segment."""

    marker_dir: str = ""

    name = "shmkiller"

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed, "values": np.full(64, float(spec.seed))}

    def export_world(self, world):
        return world["seed"], {"values": world["values"]}

    def attach_world(self, meta, columns):
        return {"seed": meta, "values": columns["values"]}

    def measure(self, spec, world, build_s):
        if spec.seed == 2:
            marker = os.path.join(self.marker_dir, "killed")
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write("1")
                os._exit(1)  # simulate an OOM-killed worker, no traceback
        return _Result(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=float(world["values"].sum()),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


@dataclass(frozen=True, slots=True)
class PidShmStudy:
    """Four variants sharing one world per seed; each trial sleeps briefly
    and reports the pid of the process that measured it."""

    name = "pidshm"

    def variant_names(self):
        return ("a", "b", "c", "d")

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed, "values": np.full(8, float(spec.seed))}

    def export_world(self, world):
        return world["seed"], {"values": world["values"]}

    def attach_world(self, meta, columns):
        return {"seed": meta, "values": columns["values"]}

    def measure(self, spec, world, build_s):
        time.sleep(0.2)
        return _Result(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=float(os.getpid()),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


def tiny_mega_study() -> MegaStudy:
    return MegaStudy(
        variants=(
            MegaVariant(
                name="tiny",
                world=MegaWorldConfig(size=4_000, seed=0),
                max_ixps=6,
            ),
        )
    )


class TestStudyTransport:
    def test_shm_and_pickle_transports_agree_trial_for_trial(self):
        before = shm_snapshot()
        results = {
            transport: run_study(
                tiny_mega_study(),
                StudyConfig(seeds=(0, 1), workers=1, transport=transport),
            )
            for transport in ("shm", "pickle")
        }
        assert results["shm"].transport_fallbacks == 0
        assert results["pickle"].transport_fallbacks == 0
        for shm_trial, pickle_trial in zip(
            results["shm"].trials, results["pickle"].trials
        ):
            assert shm_trial.trial_id == pickle_trial.trial_id
            assert shm_trial.seed == pickle_trial.seed
            assert shm_trial.expansion == pickle_trial.expansion
            assert shm_trial.covered_fraction == pickle_trial.covered_fraction
            assert shm_trial.covered_networks == pickle_trial.covered_networks
            assert shm_trial.five_ixp_share == pickle_trial.five_ixp_share
        assert not (shm_snapshot() - before), "leaked shared-memory segment"

    def test_export_failure_falls_back_and_is_counted(self, tmp_path):
        before = shm_snapshot()
        log = tmp_path / "builds"
        result = run_study(
            ExportBombStudy(build_log=str(log)),
            StudyConfig(seeds=(1, 2, 3), workers=1, transport="shm"),
        )
        assert result.transport_fallbacks == 3
        # Each world is built in the parent, fails to export, and is
        # built again on the pickle path: world_builds counts both.
        assert sorted(log.read_text().split()) == ["1", "1", "2", "2", "3", "3"]
        assert result.world_builds == 6
        assert result.world_reuses == 0
        assert not result.failures
        assert [t.value for t in result.trials] == [1.0, 2.0, 3.0]
        note = result.coverage_note()
        assert note is not None and "fell back" in note
        assert not (shm_snapshot() - before), "leaked shared-memory segment"

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="auto workers need two cores to fan out")
    def test_auto_workers_fan_shared_world_trials_out(self):
        """``workers=0`` is capped by dispatch items, not world-key groups:
        four variants sharing one world are four shm items, so the
        trials run in pool workers, not inline in the parent."""
        before = shm_snapshot()
        result = run_study(
            PidShmStudy(),
            StudyConfig(seeds=(0,), workers=0, transport="shm"),
        )
        pids = {int(trial.value) for trial in result.trials}
        assert len(result.trials) == 4
        assert os.getpid() not in pids
        assert len(pids) >= 2
        assert result.transport_fallbacks == 0
        assert (result.world_builds, result.world_reuses) == (1, 3)
        assert not (shm_snapshot() - before), "leaked shared-memory segment"

    def test_killed_worker_leaks_no_segments(self, tmp_path):
        before = shm_snapshot()
        result = run_study(
            ShmKillerStudy(marker_dir=str(tmp_path)),
            StudyConfig(seeds=(1, 2, 3), workers=2, transport="shm"),
        )
        assert result.pool_restarts == 1
        assert not result.failures
        assert sorted(t.seed for t in result.trials) == [1, 2, 3]
        assert result.transport_fallbacks == 0
        assert not (shm_snapshot() - before), "leaked shared-memory segment"
