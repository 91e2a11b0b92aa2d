"""Multi-seed, multi-configuration studies on one pluggable engine.

Every headline number in the reproduction — precision/recall (Section 3),
offload fractions (Section 4), bill savings and the equation 14 verdict
(Section 5) — is a distribution over seeds, not a point estimate.  This
package runs those distributions through a single *study engine*:

``engine``
    The :class:`~repro.experiments.engine.Study` protocol (``build → run
    → measure`` per trial, typed ``TrialResult`` payloads) plus the data
    model and artifact format: :class:`StudyConfig`, :class:`StudyResult`,
    content-addressed JSONL artifacts
    (``<study>_<fingerprint>_trials.jsonl`` — see
    :func:`~repro.experiments.engine.study_fingerprint`) and
    :func:`~repro.experiments.engine.run_study`, a blocking front end
    over the scheduler's execution core.

``scheduler``
    The execution machinery, split out of ``run_study``:
    :func:`~repro.experiments.scheduler.execute_study` plans the pending
    trials of the seed × grid expansion into work items (world-key
    groups that share one build, seed batches, or shm trials) and runs
    them through one runner — inline, or on one ``ProcessPoolExecutor``
    with a single restart — with resumable execution (skip-completed on
    rerun), streaming mean ± 95% CI aggregation, thread-safe per-trial
    deadlines and the ``on_trial`` / ``cancel`` hooks; and
    :class:`~repro.experiments.scheduler.StudyScheduler` is a resumable
    priority job queue over it (the engine room of ``repro serve`` — see
    the data-flow section below).

``ensemble`` / ``offload`` / ``economics`` / ``joint`` / ``failover``
    The five studies: :class:`DetectionStudy` (Section 3 pipeline:
    world → campaign → filters → ground-truth validation),
    :class:`OffloadStudy` (Section 4: exclusions → estimator → greedy
    expansion, with the Section 4.2 exclusion rules switchable per
    variant), :class:`EconomicsStudy` (Sections 3+4+5 end-to-end:
    measured offload curve → decay fit → 95th-percentile billing →
    eq. 14 viability), :class:`JointStudy` (below) and
    :class:`FailoverStudy` (offload savings eroded by pseudowire dark
    windows), each with its grid builder and a config/result pair.
    ``run_ensemble`` / ``run_offload_ensemble`` /
    ``run_economics_ensemble`` / ``run_joint_ensemble`` /
    ``run_failover_ensemble`` are thin front ends over ``run_study``.

``mega`` / ``transport``
    The mega-scale tier: :class:`MegaStudy` runs the greedy Euro-IX
    expansion over 10⁵+-network :class:`~repro.sim.megatopo.MegaWorld`
    worlds (columnar pool, CAIDA-style hierarchy, no per-network
    objects), and :mod:`~repro.experiments.transport` is the zero-copy
    shared-memory world transport those worlds ride to worker processes
    (see the lifecycle section below).  CLI: ``repro study mega``.

``scenarios``
    The scenario library: named, parameterized grids over these studies
    (``behavior-stress``, ``exclusion-ablation``, ``price-plane``,
    ``joint``, ``failover``, ``churned-detection``) resolved from preset
    names into runnable study + :class:`StudyConfig` pairs — the CLI
    front end is ``repro scenarios list|run``.

The fault data flow (chaos schedule → probes → billing)
-------------------------------------------------------
Fault injection is deterministic and *opt-in*: setting a
:class:`~repro.faults.schedule.FaultConfig` on a
:class:`~repro.core.detection.campaign.CampaignConfig` (or a
:class:`FailoverVariant`) materializes a
:class:`~repro.faults.schedule.FaultSchedule` once per campaign from
dedicated, named child streams of the campaign seed — never from the
streams the clean simulation consumes, so ``faults=None`` and zero
intensity are byte-identical to a fault-free run.  The streams:

* ``(seed, "faults", "pseudowire-dark", ixp, address)`` — remote-peer
  dark windows (failover RTT shifts; transit fallback in the failover
  study);
* ``(seed, "faults", "port-flap", ixp, address)`` — IXP port flaps
  (probes unanswered while flapping);
* ``(seed, "faults", "lg-outage", server)`` and ``(seed, "faults",
  "rate-limit-storm", server)`` — LG unavailability windows, merged
  into one per-server downtime function;
* ``(seed, "faults", "probe-loss", ixp)`` — loss bursts scaling every
  response probability down by the configured severity;
* ``(seed, "faults", "backoff", ixp, operator)`` — retry jitter.  Both
  probe engines plan retries on the *identical* planned query grid with
  this one stream, so retry counts, served masks and effective send
  times agree bit-for-bit across ``batch`` and ``scalar``.

The trial-batch data flow (seed groups → one array program)
-----------------------------------------------------------
``StudyConfig.trial_batch = k`` (CLI: ``--trial-batch``) changes only
the plan step of ``execute_study``: after grid expansion and resume
filtering, the pending trials of **each variant** are chunked into work
items of up to k seeds instead of world-key groups, and the runner
hands every multi-trial item to the study's ``run_batch(specs)`` hook
(through ``_run_batch_group``) instead of looping ``build → measure``
per trial — inline or on the process pool, exactly like any other
item.  The batched studies realize the whole group as one array
program — :func:`repro.sim.offload_batch.build_offload_views` stacks k
seeds' worlds along one extra leading trial axis over shared
struct-of-arrays static tables (one per variant, since statics depend
only on the variant's config), then splits per-seed views back out for
measurement.  Batching is strictly a **performance path**: per-seed
child streams are drawn in the same fixed order the
``draw-engine-parity`` lint rule verifies, so a ``trial_batch=k`` run
is bit-identical (modulo timing fields) to k independent single-trial
runs — ``tests/test_trial_batch.py`` pins this for the detection,
offload and economics studies.  Everything downstream is unchanged:
results fan into the same JSONL artifacts, resume skips completed
trials at per-trial granularity (a run killed mid-batch re-executes
only the unwritten trials; a worker killed mid-batch restarts the pool
once over the chunks not yet recorded), and a chunk whose ``run_batch``
raises (anything but :class:`~repro.errors.ConfigurationError`) or
returns the wrong number of results falls back to per-trial execution —
counted in ``StudyResult.batch_fallbacks`` and surfaced by
``coverage_note()`` — so batching can never lose a trial or change a
number.

The shared-memory world transport (build once → attach everywhere)
-------------------------------------------------------------------
``StudyConfig.transport = "shm"`` (CLI: ``--transport shm``) turns on
the zero-copy dispatch path for studies exposing the two transport
hooks — ``export_world(world) -> (meta, columns)`` returning plain
numeric numpy arrays, and ``attach_world(meta, columns) -> world``
rebuilding a view-backed world.  The lifecycle, end to end:

1. **Build + publish (plan step, parent).**  For each world-key group
   the parent builds the world once — through the same
   build-under-deadline helper the workers use, so a failed build
   quarantines the group — exports its columns and packs them into one
   ``multiprocessing.shared_memory`` segment via
   :class:`~repro.experiments.transport.SegmentManager`, created with
   one reference per trial in the group.  Each trial becomes its own
   work item, so ``workers=0`` sizes the pool by trials, not groups.
2. **Dispatch (tiny pickles).**  Each item ships only a
   :class:`~repro.experiments.transport.SegmentDescriptor` (segment
   name + per-column dtype/shape/offset) — bytes, not megabytes —
   through the runner, inline or pooled like every other item.
3. **Attach (worker).**  ``_run_group`` attaches instead of building,
   drops the duplicate ``resource_tracker`` registration (the parent
   owns the lifetime), rebuilds read-only numpy views over the shared
   pages and measures the trial; its ``finally`` closes the mapping.
4. **Release + unlink (parent).**  As each item completes (success,
   failure or retry exhaustion) the runner releases one reference;
   the segment is unlinked at zero.  ``close_all()`` runs
   in the engine's ``finally`` so quarantined groups, pool restarts,
   and interrupted runs all converge on the same sweep — a killed
   study never leaks ``/dev/shm`` segments.

A world that cannot cross the transport (export raises, or a column
holds Python objects) falls back to the pickle path for that group —
counted in ``StudyResult.transport_fallbacks`` and surfaced by
``coverage_note()``; results are unaffected.  Its world is then built a
second time by the worker, and ``world_builds`` counts both builds.  Raw ``SharedMemory``
construction outside :mod:`repro.experiments.transport` is a lint
error (``pool-raw-shm``), keeping every segment inside the refcounted
lifecycle above.

The trial-quarantine lifecycle
------------------------------
:func:`run_study` hardens every trial against worker failure.  A trial
that raises (or exceeds ``StudyConfig.trial_timeout_s``) is retried up
to ``trial_retries`` times, then — with ``quarantine=True``, the
default — recorded as a :class:`~repro.experiments.engine.TrialFailure`
instead of aborting the study: the group's remaining trials still run,
aggregates cover the survivors, and
:meth:`~repro.experiments.engine.StudyResult.coverage_note` reports the
degradation.  With ``out_dir`` set, a quarantined trial appends a
``failed`` JSONL row::

    {"trial_id": N, "variant": "...", "seed": S,
     "status": "failed", "error": "ExcType: message", "attempts": K}

Failed rows are fingerprint-compatible with success rows and resume-safe
(a rerun skips them like completed trials).
:class:`~repro.errors.ConfigurationError` is never quarantined — a
malformed grid should abort loudly.  A ``BrokenProcessPool`` (a worker
died mid-item) restarts the executor once over the work items not yet
recorded before surfacing.

The serve data flow (HTTP request → job queue → content-addressed store)
-------------------------------------------------------------------------
``repro serve`` (package :mod:`repro.serve`) fronts the scheduler over
stdlib-only asyncio HTTP.  One submission flows:

1. **Resolve.**  ``POST /studies`` carries a declarative JSON request
   (``{"study": "detection", "config": {...}}``);
   :func:`repro.serve.jobs.resolve_request` turns it into a live
   ``(Study, StudyConfig)`` pair — and the scheduler journals the JSON
   verbatim to ``<store>/jobs.jsonl``, so a killed service re-enqueues
   the job on restart (:meth:`StudyScheduler.recover`).
2. **Queue.**  The job enters the priority queue (higher ``priority``
   first, FIFO ties) with ``out_dir`` redirected into the scheduler's
   store directory, making every artifact content-addressed by the
   configuration fingerprint.
3. **Execute or answer from the store.**  A scheduler thread runs
   :func:`execute_study` under a per-fingerprint lock: trials already
   in the artifact resume without executing (counted as *trial hits*),
   and a submission whose fingerprint has every trial on disk completes
   as a *full cache hit* without running anything — duplicate
   submissions can never compute the same trial twice.  Per-trial
   deadlines hold on these non-main threads via the reaped helper
   (SIGALRM stays the main-thread fast path).
4. **Observe.**  ``GET /studies/{id}`` snapshots progress (``?watch=1``
   streams it as chunked JSON lines), ``DELETE`` cancels (queued jobs
   immediately; running jobs at the next dispatch step, sweeping shm
   segments), ``GET /results/{fingerprint}`` replays artifact rows, and
   ``GET /metrics`` exposes the hit/miss counters.

``experiments`` never imports ``serve`` — the resolver is injected — so
the engine stays usable without the service.  CLI: ``repro serve``
(``--smoke`` runs the end-to-end gate behind ``make serve-smoke``).

The joint data flow (detected set → offload → billing)
------------------------------------------------------
:class:`JointStudy` is the one study whose trials cross the Section 3/4
boundary.  Per seed it builds a *world family* — one detection world and
one offload world on the same trial seed — and chains them:

1. the detection campaign runs and is validated against ground truth,
   yielding the trial's measured confusion (precision, recall,
   false-positive rate) and the ground-truth remote fraction;
2. the offload world's candidate members are assigned oracle remoteness
   at that measured fraction, and the confusion is replayed over them:
   remote peers are *detected* with probability ``recall``, direct
   members are falsely called with the measured false-positive rate;
3. the **detected** set — not the oracle — is fed through
   :meth:`~repro.core.offload.PeerGroups.restrict` into the
   :class:`~repro.core.offload.OffloadEstimator`, giving the offload
   fraction an operator would estimate from its own peer map, alongside
   the oracle and realized (detected ∩ oracle) fractions;
4. all three peer maps are billed under the Section 2.1 95th-percentile
   scheme on one consistent component decomposition of the transit
   series, yielding the realized savings and the forecast (believed −
   realized) billing error.

Usage — 16 seeds × three thresholds of the 3-IXP detection world::

    from repro.experiments import EnsembleConfig, grid_variants, run_ensemble
    from repro.reporting import render_ensemble_report
    from repro.sim.detection_world import DetectionWorldConfig
    from repro.sim.scenarios import mini_specs

    config = EnsembleConfig(
        seeds=tuple(range(16)),
        variants=grid_variants(
            world=DetectionWorldConfig(specs=mini_specs()),
            axes={"campaign.remoteness_threshold_ms": (5.0, 10.0, 20.0)},
        ),
        workers=0,          # 0 = one process per core (capped at #items)
    )
    result = run_ensemble(config)          # builds + probes each world ONCE
    print(render_ensemble_report(result))  # mean ± 95% CI per variant

A threshold grid only re-classifies: the trials of one world share a
single probe campaign, filter run and result, and each trial applies its
own ``remoteness_threshold_ms`` to it (see
:func:`repro.experiments.ensemble.measure_detection_trial`).

Grids sweep any config field via dotted axes (``world.<field>``,
``campaign.<field>``, ``filters.<field>``); each trial's campaign seed is
derived from its world seed via :func:`repro.rand.derive_seed`, so
ensembles are fully reproducible and adding variants never perturbs
existing trials.  Passing ``out_dir`` to any runner makes the run
resumable: kill it after N trials, rerun with the same config, and only
the remaining trials execute.  The CLI front end is ``repro study
detection|offload|economics`` (``repro ensemble`` and ``repro
offload-ensemble`` remain as aliases); ``examples/ensemble_study.py`` and
``examples/economics_study.py`` are worked examples.
"""

from repro.experiments.aggregate import (
    MeanCI,
    StreamingMeanCI,
    VariantSummary,
    mean_ci,
)
from repro.experiments.engine import (
    Study,
    StudyConfig,
    StudyResult,
    expand_trials,
    run_study,
    study_fingerprint,
)
from repro.experiments.scheduler import (
    JobState,
    StudyCancelled,
    StudyJob,
    StudyScheduler,
    execute_study,
)
from repro.experiments.ensemble import (
    ConfigVariant,
    DetectionStudy,
    EnsembleConfig,
    EnsembleResult,
    TrialResult,
    TrialSpec,
    grid_variants,
    run_ensemble,
    run_trial,
)
from repro.experiments.offload import (
    OffloadEnsembleConfig,
    OffloadEnsembleResult,
    OffloadStudy,
    OffloadTrialResult,
    OffloadTrialSpec,
    OffloadVariant,
    OffloadVariantSummary,
    RankConsensus,
    offload_grid_variants,
    run_offload_ensemble,
    run_offload_trial,
)
from repro.experiments.economics import (
    EconomicsEnsembleConfig,
    EconomicsEnsembleResult,
    EconomicsStudy,
    EconomicsTrialResult,
    EconomicsTrialSpec,
    EconomicsVariant,
    EconomicsVariantSummary,
    economics_grid_variants,
    run_economics_ensemble,
    run_economics_trial,
)
from repro.experiments.joint import (
    JointEnsembleConfig,
    JointEnsembleResult,
    JointStudy,
    JointTrialResult,
    JointTrialSpec,
    JointVariant,
    JointVariantSummary,
    run_joint_ensemble,
    run_joint_trial,
)
from repro.experiments.failover import (
    FailoverEnsembleConfig,
    FailoverEnsembleResult,
    FailoverStudy,
    FailoverTrialResult,
    FailoverTrialSpec,
    FailoverVariant,
    FailoverVariantSummary,
    measure_failover_trial,
    run_failover_ensemble,
)
from repro.experiments.mega import (
    MegaStudy,
    MegaTrialResult,
    MegaTrialSpec,
    MegaVariant,
    measure_mega_trial,
)
from repro.experiments.transport import (
    AttachedColumns,
    ColumnSpec,
    SegmentDescriptor,
    SegmentManager,
    attach_columns,
)
from repro.experiments.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioRun,
    get_scenario,
    scenario_names,
)
from repro.experiments.report import (
    render_economics_ensemble_report,
    render_ensemble_report,
    render_failover_ensemble_report,
    render_joint_ensemble_report,
    render_offload_ensemble_report,
)

__all__ = [
    "AttachedColumns",
    "ColumnSpec",
    "ConfigVariant",
    "DetectionStudy",
    "EconomicsEnsembleConfig",
    "EconomicsEnsembleResult",
    "EconomicsStudy",
    "EconomicsTrialResult",
    "EconomicsTrialSpec",
    "EconomicsVariant",
    "EconomicsVariantSummary",
    "EnsembleConfig",
    "EnsembleResult",
    "FailoverEnsembleConfig",
    "FailoverEnsembleResult",
    "FailoverStudy",
    "FailoverTrialResult",
    "FailoverTrialSpec",
    "FailoverVariant",
    "FailoverVariantSummary",
    "JointEnsembleConfig",
    "JointEnsembleResult",
    "JointStudy",
    "JointTrialResult",
    "JobState",
    "JointTrialSpec",
    "JointVariant",
    "JointVariantSummary",
    "MeanCI",
    "MegaStudy",
    "MegaTrialResult",
    "MegaTrialSpec",
    "MegaVariant",
    "OffloadEnsembleConfig",
    "OffloadEnsembleResult",
    "OffloadStudy",
    "OffloadTrialResult",
    "OffloadTrialSpec",
    "OffloadVariant",
    "OffloadVariantSummary",
    "RankConsensus",
    "SCENARIOS",
    "Scenario",
    "ScenarioRun",
    "SegmentDescriptor",
    "SegmentManager",
    "StreamingMeanCI",
    "Study",
    "StudyCancelled",
    "StudyConfig",
    "StudyJob",
    "StudyResult",
    "StudyScheduler",
    "TrialResult",
    "TrialSpec",
    "VariantSummary",
    "attach_columns",
    "economics_grid_variants",
    "execute_study",
    "expand_trials",
    "get_scenario",
    "grid_variants",
    "mean_ci",
    "measure_failover_trial",
    "measure_mega_trial",
    "offload_grid_variants",
    "render_economics_ensemble_report",
    "render_ensemble_report",
    "render_failover_ensemble_report",
    "render_joint_ensemble_report",
    "render_offload_ensemble_report",
    "run_economics_ensemble",
    "run_economics_trial",
    "run_ensemble",
    "run_failover_ensemble",
    "run_joint_ensemble",
    "run_joint_trial",
    "run_offload_ensemble",
    "run_offload_trial",
    "run_study",
    "run_trial",
    "scenario_names",
    "study_fingerprint",
]
