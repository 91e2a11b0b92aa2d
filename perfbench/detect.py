"""The two detection workloads: ``detect_fresh`` and ``detect_grid``.

A round runs one ``run_study(DetectionStudy)`` over seeds no earlier
round used (the *cold* study, timed), then replays the identical study
``HIT_REPLAYS`` times against the artifact the cold run wrote (the
*hits*: every trial answered from the engine's store, none recomputed).

``detect_fresh``
    The ``mini3`` preset, 16 seeds per round, in-process
    (``workers=1``) through the batched trial path (``trial_batch=16``):
    every trial builds its own world, so world building dominates.
``detect_grid``
    The full 22-IXP world, 4 seeds per round times a 4-point
    ``campaign.remoteness_threshold_ms`` grid, on a 2-process pool: each
    world is built once and shared by its 4 trials, so the probe
    campaign and the filters dominate and pool dispatch is exercised.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import measure
from measure import Outcome

#: Store replays of each cold study per round.
HIT_REPLAYS = 16
#: Cold trials per run re-run through the per-trial path and compared.
CHECK_SAMPLE = 2
#: Fields that hold timings, not results; the output check ignores them.
TIMING_FIELDS = ("build_s", "collect_s", "filter_s")
#: Fresh interpreters started per run to time set-up.
SETUP_REPEATS = 5
#: At least this many measured rounds of each kind, however long they
#: take; ``peak_rss_mb`` is read once this many rounds are done.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    preset: str
    seeds_per_round: int
    workers: int
    trial_batch: int
    thresholds_ms: tuple[float, ...] = ()


WORKLOADS = {
    "detect_fresh": Workload("mini3", seeds_per_round=16, workers=1,
                             trial_batch=16),
    "detect_grid": Workload("paper22", seeds_per_round=4, workers=2,
                            trial_batch=1,
                            thresholds_ms=(5.0, 10.0, 20.0, 40.0)),
}


def make_study(name: str) -> Any:
    """The workload's study object (imports the pipeline on first use)."""
    from repro.experiments import DetectionStudy, grid_variants
    from repro.sim.detection_world import DetectionWorldConfig
    from repro.sim.scenarios import detection_preset_specs

    workload = WORKLOADS[name]
    axes = {}
    if workload.thresholds_ms:
        axes["campaign.remoteness_threshold_ms"] = workload.thresholds_ms
    return DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(
            specs=detection_preset_specs(workload.preset)),
        axes=axes,
    ))


def make_config(name: str, seeds: tuple[int, ...], out_dir: str) -> Any:
    from repro.experiments.engine import StudyConfig

    workload = WORKLOADS[name]
    return StudyConfig(seeds=seeds, workers=workload.workers,
                       trial_batch=workload.trial_batch, out_dir=out_dir)


class SeedStream:
    """Distinct trial seeds, drawn in order from the workload seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = random.Random(f"{workload}:{seed}")
        self._used: set[int] = set()

    def take(self, count: int) -> tuple[int, ...]:
        seeds = []
        while len(seeds) < count:
            candidate = self._rng.randrange(1, 1 << 30)
            if candidate not in self._used:
                self._used.add(candidate)
                seeds.append(candidate)
        return tuple(seeds)


def setup_seconds(root: Path, name: str, env: dict[str, str]) -> list[float]:
    """Spawn-to-ready times of fresh interpreters that set the study up."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), name], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True,
        ) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed ({code})")
        times.append(ready)
    return times


@dataclass
class Round:
    """One round's timings, its cold trials and its studies' counters."""

    traced: bool
    cold_s: float
    trials: list[Any]
    hit_s: list[float] = field(default_factory=list)
    resumed: int = 0
    executed: int = 0
    batch_fallbacks: int = 0
    retries: int = 0

    @property
    def total_s(self) -> float:
        return self.cold_s + sum(self.hit_s)

    def count(self, result: Any) -> None:
        self.resumed += result.resumed
        self.executed += (len(result.trials) + len(result.failures)
                          - result.resumed)
        self.batch_fallbacks += result.batch_fallbacks
        self.retries += result.pool_restarts + sum(
            f.attempts - 1 for f in result.failures)


def _run_round(study: Any, name: str, seeds: tuple[int, ...], store: Path,
               traced: bool, out: Outcome) -> Round:
    """Time the cold study and its replays, checking each as it returns.

    Every trial must be computed once and every replay must be a full
    store hit with the cold rows.  Only the cold trials and counters are
    kept, so memory does not grow with the number of rounds a run fits.
    """
    from repro.experiments.engine import run_study

    config = make_config(name, seeds, str(store))
    start = time.perf_counter()
    cold = run_study(study, config)
    round_ = Round(traced, time.perf_counter() - start, cold.trials)
    round_.count(cold)
    total = len(seeds) * len(study.variants)
    out.attempted += total
    if cold.failures or cold.resumed:
        out.fail(len(cold.failures) + cold.resumed,
                 f"cold study: {len(cold.failures)} quarantined, "
                 f"{cold.resumed} resumed")
    rows = [study.encode(t) for t in cold.trials]
    for _ in range(HIT_REPLAYS):
        start = time.perf_counter()
        hit = run_study(study, config)
        round_.hit_s.append(time.perf_counter() - start)
        round_.count(hit)
        out.attempted += total
        if hit.resumed != total or hit.failures:
            out.fail(total - hit.resumed + len(hit.failures),
                     f"replay resumed {hit.resumed} of {total} trials")
        elif [study.encode(t) for t in hit.trials] != rows:
            out.fail(total, "replayed rows differ from the cold rows")
    shutil.rmtree(store)
    return round_


def _check_per_trial(study: Any, rounds: list[Round], rng: random.Random,
                     out: Outcome) -> None:
    """A seeded sample of cold trials equals the per-trial path's rows."""
    from repro.experiments.ensemble import run_trial

    trials = [t for r in rounds for t in r.trials]
    for trial in rng.sample(trials, min(CHECK_SAMPLE, len(trials))):
        spec = study.resolve(trial.variant, trial.seed, trial.trial_id)
        again = asdict(run_trial(spec))
        batched = asdict(trial)
        for key in TIMING_FIELDS:
            again.pop(key)
            batched.pop(key)
        out.attempted += 1
        if again != batched:
            out.fail(1, f"trial seed={trial.seed} variant={trial.variant} "
                        "differs from run_trial")


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        work: Path, env: dict[str, str]) -> Outcome:
    """Measure one detection workload (and trace it when ``trace``)."""
    out = Outcome()

    import tracing

    study = make_study(name)
    workload = WORKLOADS[name]
    seeds = SeedStream(name, seed)
    tracer = tracing.Tracer(work) if trace else None
    _run_round(study, name, seeds.take(workload.seeds_per_round),
               work / "warmup", False, out)

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        untraced = [r for r in rounds if not r.traced]
        traced = [r for r in rounds if r.traced]
        if (time.perf_counter() - start >= seconds
                and len(untraced) >= MIN_ROUNDS
                and (not trace or len(traced) >= MIN_ROUNDS)):
            break
        tracing_now = trace and len(rounds) % 2 == 1
        installation = tracing.install(tracer) if tracing_now else None
        try:
            round_ = _run_round(study, name,
                                seeds.take(workload.seeds_per_round),
                                work / f"round{len(rounds)}", tracing_now,
                                out)
        finally:
            if installation is not None:
                installation.remove()
        if not tracing_now and tracing.installed_wrappers():
            raise RuntimeError("a wrapper survived into an untraced round")
        rounds.append(round_)
        if len(rounds) == MIN_ROUNDS:
            # A fixed amount of work, not the run's length: the program's
            # bounded memos keep filling over later rounds, so a faster
            # program would otherwise report a higher peak.
            peak_mb = measure.peak_rss_mb()
    _check_per_trial(study, rounds, random.Random(f"check:{name}:{seed}"),
                     out)
    # Spawned only now, so that no set-up probe counts in ``peak_mb``.
    setups = setup_seconds(root, name, env)

    untraced = [r for r in rounds if not r.traced]
    trials = workload.seeds_per_round * len(study.variants)
    cold = [r.cold_s for r in untraced]
    hits = [h for r in untraced for h in r.hit_s]
    tail_ms, tail_pct, tail_n = measure.tail(hits)
    out.put("setup_s", measure.median(setups), "s")
    out.put("trials_per_s", measure.round_throughput(trials, cold), "1/s")
    out.put("jobs_per_s", measure.round_throughput(
        1 + HIT_REPLAYS, [r.total_s for r in untraced]), "1/s")
    out.put("cold_p50_s", measure.median(cold), "s")
    out.put("hit_p50_ms", 1000 * measure.median(hits), "ms")
    out.put("hit_tail_ms", 1000 * tail_ms, "ms")
    out.put("peak_rss_mb", peak_mb, "MB")
    out.notes += [
        f"rounds: {len(untraced)} untraced of {trials} trials "
        f"({workload.seeds_per_round} seeds), each with {HIT_REPLAYS} "
        "store replays",
        f"setup_s: median of {len(setups)} interpreter spawns",
        f"hit_tail_ms: p{tail_pct:.1f} of {tail_n} replays",
    ]
    if not trace:
        return out

    traced = [r for r in rounds if r.traced]
    spans = tracer.collect()
    wall = sum(r.total_s for r in traced)
    layers = tracing.layer_metrics(spans, wall, workload.workers)
    hits_n = sum(r.resumed for r in traced)
    misses_n = sum(r.executed for r in traced)
    layers.update({
        "experiments.scheduler.batch_fallbacks": float(
            sum(r.batch_fallbacks for r in traced)),
        "experiments.scheduler.retries": float(
            sum(r.retries for r in traced)),
        "experiments.scheduler.queue_wait_p50_s": 0.0,
        "experiments.engine.trial_hits": float(hits_n),
        "experiments.engine.trial_misses": float(misses_n),
        "experiments.engine.hit_ratio": hits_n / (hits_n + misses_n),
        "serve.submit_rtt_p50_ms": 0.0,
        "serve.result_fetch_p50_ms": 0.0,
        "serve.overhead_p50_ms": 0.0,
        "serve.polls_per_job": 0.0,
        "trace.overhead_frac": 1.0 - (
            measure.median(cold) / measure.median([r.cold_s for r in traced])),
    })
    out.notes.append(f"traced rounds: {len(traced)}, {len(spans)} spans")
    out.layers, out.tracer = layers, tracer
    return out
