"""The probing campaign: four months of LG queries across the studied IXPs.

Reproduces Section 3.1's measurement discipline:

* vantage points are the PCH / RIPE LG servers *inside* each IXP;
* one HTML query per minute per LG server, at most;
* each target is swept in multiple rounds placed at different days and
  times of day, so transient congestion cannot poison the minimum;
* PCH queries fire 5 pings, RIPE queries 3 — with 11 PCH and 7 RIPE
  rounds the per-interface reply maxima land at 55/21, matching the
  paper's reported 54/21 up to response loss.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from dataclasses import dataclass

from repro.core.detection.filters import FilterConfig, FilterPipeline, FilterReport
from repro.core.detection.measurements import InterfaceMeasurement
from repro.core.detection.results import CampaignResult, build_result
from repro.errors import ConfigurationError
from repro.faults.retry import plan_retries
from repro.faults.schedule import FaultConfig, FaultSchedule, build_fault_schedule
from repro.lg.batch import (
    compile_probe_plan,
    compile_sweep_faults,
    run_sweeps,
    sweep_query_times,
)
from repro.lg.client import LookingGlassClient
from repro.rand import child_rng
from repro.sim.detection_world import DetectionWorld
from repro.units import MINUTE


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Campaign-level knobs (filter knobs live in :class:`FilterConfig`).

    ``engine`` selects how sweeps are realized: ``"batch"`` (default)
    compiles each (LG server x target list) pair into a numpy probe plan
    and draws every stochastic component as arrays — ~10x faster and the
    path every large run should take; ``"scalar"`` replays the one-probe-
    per-call reference implementation.  Both consume the same per-(seed,
    ixp, operator) RNG streams; draw order differs, so the two engines
    agree statistically (not bit-for-bit) — see ``tests`` for the
    equivalence suite.
    """

    seed: int = 7
    pch_rounds: int = 11
    ripe_rounds: int = 7
    remoteness_threshold_ms: float = 10.0
    filters: FilterConfig = FilterConfig()
    engine: str = "batch"
    #: Optional deterministic chaos: a fault schedule is materialized per
    #: campaign from the ``(seed, "faults", ...)`` streams and threaded
    #: through both probe engines (``None`` or zero intensity: byte-
    #: identical to a fault-free campaign).
    faults: FaultConfig | None = None

    def __post_init__(self) -> None:
        if self.pch_rounds <= 0 or self.ripe_rounds <= 0:
            raise ConfigurationError("round counts must be positive")
        threshold = self.remoteness_threshold_ms
        # bool is an int, and NaN compares false with everything: a NaN
        # threshold would quietly call every interface direct.
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, Real)
            or not math.isfinite(threshold)
            or threshold <= 0
        ):
            raise ConfigurationError(
                "threshold must be a positive finite number, "
                f"not {threshold!r}"
            )
        if self.engine not in ("batch", "scalar"):
            raise ConfigurationError(f"unknown probe engine {self.engine!r}")

    def rounds_for(self, operator: str) -> int:
        """Probe rounds for one LG operator."""
        return self.pch_rounds if operator == "PCH" else self.ripe_rounds


class ProbeCampaign:
    """Runs the full measurement study over a detection world."""

    def __init__(self, world: DetectionWorld, config: CampaignConfig | None = None):
        self.world = world
        self.config = config or CampaignConfig()
        self.client = LookingGlassClient()
        self._fault_schedule: FaultSchedule | None = None

    def fault_schedule(self) -> FaultSchedule | None:
        """The campaign's materialized chaos, or None when faults are off.

        Built lazily once per campaign from the dedicated fault streams —
        never stored on the world, which stays shareable across trials.
        """
        if self.config.faults is None or not self.config.faults.active:
            return None
        if self._fault_schedule is None:
            self._fault_schedule = build_fault_schedule(
                self.config.faults, self.config.seed, self.world
            )
        return self._fault_schedule

    def _reset_client(self) -> None:
        # Each collection run replays the same simulated four months, so it
        # needs a clean rate-limit ledger.
        self.client = LookingGlassClient()

    def run(self) -> CampaignResult:
        """Probe every published target at every IXP, filter, aggregate."""
        measurements = self.collect()
        pipeline = FilterPipeline(self.config.filters)
        report = pipeline.run(measurements)
        return build_result(
            measurements=measurements,
            report=report,
            threshold_ms=self.config.remoteness_threshold_ms,
        )

    # -- collection -----------------------------------------------------------

    def collect(self) -> list[InterfaceMeasurement]:
        """Raw measurements for every (IXP, published target) pair."""
        self._reset_client()
        collected: list[InterfaceMeasurement] = []
        for acronym in sorted(self.world.ixps):
            collected.extend(self._collect_ixp(acronym))
        return collected

    def collect_ixp(self, acronym: str) -> list[InterfaceMeasurement]:
        """Probe one IXP's target list from each of its LG servers."""
        self._reset_client()
        return self._collect_ixp(acronym)

    def _collect_ixp(self, acronym: str) -> list[InterfaceMeasurement]:
        targets = self.world.directory.targets_for(acronym)
        servers = self.world.lg_servers.get(acronym, [])
        if not targets or not servers:
            return []
        measurements = {
            record.address.value: InterfaceMeasurement(
                ixp_acronym=acronym, address=record.address
            )
            for record in targets
        }
        sweep = (
            self._sweep_server_batch
            if self.config.engine == "batch"
            else self._sweep_server_scalar
        )
        for server in servers:
            rounds = self.config.rounds_for(server.operator)
            sweep(acronym, server, targets, rounds, measurements)
        self._identify(acronym, measurements)
        return [measurements[r.address.value] for r in targets]

    def _round_starts(self, acronym, server, targets, rounds, rng):
        # One query per target per round; queries are spaced one minute
        # apart, so a round spans len(targets) minutes plus the ping burst.
        round_span_s = len(targets) * MINUTE + server.pings_per_query + 1
        return self.world.window.round_start_times(rounds, rng, round_span_s)

    def _retry_plan(self, acronym, server, query_times, schedule):
        """Plan one sweep's retries from the dedicated backoff stream.

        Both engines call this with the *identical* planned grid and the
        same stream, so their retry plans (and therefore retry counts,
        served masks, and effective send times) agree bit-for-bit.
        """
        retry_rng = child_rng(
            self.config.seed, "faults", "backoff", acronym, server.operator
        )
        plan = plan_retries(
            query_times.ravel(),
            schedule.server_down_fn(server.name),
            schedule.config.retry,
            retry_rng,
        )
        self.client.record_retries(server.name, plan)
        shape = query_times.shape
        return plan.effective_s.reshape(shape), plan.served.reshape(shape)

    def _sweep_server_batch(self, acronym, server, targets, rounds, measurements) -> None:
        """The vectorized engine: one probe plan, all rounds as array draws."""
        rng = child_rng(self.config.seed, "campaign", acronym, server.operator)
        starts = self._round_starts(acronym, server, targets, rounds, rng)
        plan = compile_probe_plan(server, [r.address for r in targets])
        query_times = sweep_query_times(plan, np.asarray(starts))
        # Validate the whole schedule against the ledger before realizing a
        # single probe, mirroring the scalar path's per-query enforcement.
        # Politeness is enforced on the *planned* grid; retry backoff is
        # bounded to stay within each one-minute slot.
        self.client.record_sweep(server.name, query_times)
        schedule = self.fault_schedule()
        if schedule is None:
            batches = run_sweeps(plan, np.asarray(starts), rng, query_times)
        else:
            effective, served = self._retry_plan(
                acronym, server, query_times, schedule
            )
            sweep_faults = compile_sweep_faults(
                plan, schedule.probe_faults(acronym)
            )
            batches = run_sweeps(
                plan, np.asarray(starts), rng, effective,
                served=served, faults=sweep_faults,
            )
        for record, batch in zip(targets, batches):
            # Empty batches are recorded too: an operator that probed but
            # got nothing back must still appear, so the sample-size filter
            # sees the same evidence the scalar engine produces.
            measurements[record.address.value].add_batch(server.operator, batch)

    def _sweep_server_scalar(self, acronym, server, targets, rounds, measurements) -> None:
        """The reference engine: one client query per (round, target)."""
        rng = child_rng(self.config.seed, "campaign", acronym, server.operator)
        starts = self._round_starts(acronym, server, targets, rounds, rng)
        schedule = self.fault_schedule()
        effective = served = probe_faults = None
        if schedule is not None:
            # The identical planned grid the batch engine validates, so
            # the shared-stream retry plan is bit-identical across engines.
            query_times = np.asarray(starts, dtype=float)[:, None] + (
                np.arange(len(targets), dtype=float)[None, :] * MINUTE
            )
            effective, served = self._retry_plan(
                acronym, server, query_times, schedule
            )
            probe_faults = schedule.probe_faults(acronym)
        for r, start in enumerate(starts):
            for index, record in enumerate(targets):
                query_time = start + index * MINUTE
                if schedule is None:
                    result = self.client.submit(
                        server, record.address, query_time, rng
                    )
                else:
                    result = self.client.submit(
                        server, record.address, query_time, rng,
                        effective_s=float(effective[r, index]),
                        served=bool(served[r, index]),
                        faults=probe_faults,
                    )
                slot = measurements[record.address.value]
                replies = slot.replies_by_operator.setdefault(server.operator, [])
                replies.extend(result.replies)

    def _identify(self, acronym: str, measurements) -> None:
        pipeline = self.world.identification
        start_s = 0.0
        end_s = self.world.window.duration_s
        for slot in measurements.values():
            # One span query per slot: the sources resolve each registry
            # record once and reuse the (time-independent) coverage draw
            # for both endpoints — bit-identical to two identify() calls.
            first, last = pipeline.identify_span(
                acronym, slot.address, start_s, end_s
            )
            slot.asn_at_start = first.asn
            slot.asn_at_end = last.asn
            slot.identification_source = first.source or last.source
