"""The study scheduler: execution machinery + a resumable job queue.

Two layers:

:func:`execute_study`
    The trial execution core, in two steps.  The **plan** turns the
    pending trials (the seed × grid expansion minus what the artifact
    already holds) into work items, in trial order: one per world-key
    group, so the group's trials share one world build; one per
    same-variant chunk of up to ``trial_batch`` seeds, realized as one
    array program by the study's ``run_batch``; or, over the
    shared-memory transport, one per trial, after the parent has built
    each group's world (under the trial deadline, quarantining the group
    if the build fails) and published its columns.  The **runner**
    executes the items inline when there is one worker or one item, and
    otherwise on one ``ProcessPoolExecutor`` sized by the item count,
    recording results in completion order and restarting a broken pool
    once over the items not yet recorded.  Every item reaches one of the
    two trial bodies, :func:`_run_group` (which builds or attaches the
    world) and :func:`_run_batch_group` (which falls back to per-trial
    ``_run_group`` calls), through :func:`_run_item`; both apply the
    per-trial deadline, bounded retry and quarantine.  Two optional
    hooks: ``on_trial`` (a progress callback fired for every recorded
    trial, resumed or executed) and ``cancel`` (a
    :class:`threading.Event` polled between dispatch steps; a set event
    abandons the remaining work, raises :class:`StudyCancelled`, and
    still sweeps every shared-memory segment and closes the artifact on
    the way out).  :func:`repro.experiments.engine.run_study` is a thin
    front end over this function with no hooks attached.

:class:`StudyScheduler`
    A long-running priority job queue over ``execute_study`` — the
    engine room of ``repro serve``.  Jobs are submitted as (study,
    config) pairs or as JSON request payloads resolved through an
    injected resolver, run on a small pool of scheduler threads,
    journaled to ``<store>/jobs.jsonl`` so a killed service re-enqueues
    its unfinished jobs on restart, and answered from the
    content-addressed artifact store whenever a submission's
    fingerprint already has every trial on disk — a repeated
    ``(study, variant, seed)`` submission never recomputes, and cache
    hit/miss counts are first-class metrics.

Per-trial deadlines are thread-safe: on a main thread the historical
``SIGALRM`` itimer fast path is kept (it interrupts even C-level sleeps),
while on any other thread — exactly where scheduler jobs run — the trial
body executes on a reaped helper thread: the scheduler waits out the
budget, injects :class:`_TrialTimeout` into the straggler (delivered at
its next bytecode boundary) and quarantines the trial without waiting
for it.  ``trial_timeout_s`` is therefore never a silent no-op.
"""

from __future__ import annotations

import ctypes
import heapq
import json
import os
import signal
import threading
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator

from repro.errors import ConfigurationError, ReproError
from repro.experiments import transport
from repro.experiments.aggregate import StreamingMeanCI
from repro.experiments.engine import (
    Study,
    StudyConfig,
    StudyResult,
    TrialFailure,
    _ArtifactWriter,
    _fingerprint,
    _load_artifacts,
    _resolve_artifact_path,
    expand_trials,
)


class StudyCancelled(ReproError):
    """A study run was cancelled before every trial completed."""


class _TrialTimeout(Exception):
    """A trial blew its wall-clock budget (internal control flow)."""

    def __init__(
        self, message: str = "trial exceeded its wall-clock deadline"
    ) -> None:
        super().__init__(message)


@contextmanager
def _sigalrm_deadline(timeout_s: float) -> Iterator[None]:
    """Main-thread deadline: raise :class:`_TrialTimeout` via SIGALRM.

    The fast path — a real-time itimer interrupts even C-level blocking
    (``time.sleep``, a hung syscall).  Only valid on a main thread with
    SIGALRM available; :func:`_call_with_deadline` routes here.
    """

    def _on_alarm(signum: int, frame: Any) -> None:
        raise _TrialTimeout(f"trial exceeded its {timeout_s:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _reap_deadline_call(timeout_s: float, fn: Callable[[], Any]) -> Any:
    """Off-main-thread deadline: run ``fn`` on a reaped helper thread.

    SIGALRM only works in a main thread, so scheduler threads enforce the
    budget by waiting it out: the body runs on a daemon helper, and when
    the wait expires the caller injects :class:`_TrialTimeout` into the
    helper (raised at its next bytecode boundary — best-effort cleanup; a
    helper blocked in C code finishes its call first and then dies) and
    raises the timeout immediately without waiting for the straggler.
    """
    box: dict[str, Any] = {}
    done = threading.Event()

    def _runner() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:  # reraised in the caller
            box["error"] = error
        finally:
            done.set()

    helper = threading.Thread(
        target=_runner, daemon=True, name="repro-trial-body"
    )
    helper.start()
    if not done.wait(timeout_s):
        if helper.ident is not None:
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(helper.ident), ctypes.py_object(_TrialTimeout)
            )
        raise _TrialTimeout(
            f"trial exceeded its {timeout_s:g}s deadline "
            "(reaped from a non-main thread)"
        )
    if "error" in box:
        raise box["error"]
    return box.get("result")


def _call_with_deadline(timeout_s: float | None, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` under the per-trial deadline, wherever the caller runs.

    ``None``/non-positive budgets run the body directly.  A main thread
    gets the SIGALRM itimer; any other thread gets the helper-thread
    reap, so ``trial_timeout_s`` is enforced from the ``repro serve``
    scheduler threads too (the historical SIGALRM-only implementation
    silently disabled itself there).
    """
    if timeout_s is None or timeout_s <= 0:
        return fn()
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        with _sigalrm_deadline(timeout_s):
            return fn()
    return _reap_deadline_call(timeout_s, fn)


def _failure(spec: Any, error: BaseException, attempts: int) -> TrialFailure:
    return TrialFailure(
        trial_id=spec.trial_id,
        variant=spec.variant,
        seed=spec.seed,
        error=f"{type(error).__name__}: {error}",
        attempts=attempts,
    )


def _group_world(
    specs: list[Any],
    make: Callable[[], Any],
    timeout_s: float | None,
    quarantine: bool,
) -> tuple[Any, float, list[TrialFailure]]:
    """``(world, build_s, [])`` from ``make()`` under the trial deadline.

    With quarantine on, a failed build fails every trial of the group:
    ``(None, 0.0, failures)``.  :class:`ConfigurationError` always
    propagates — a misconfigured study is a bug, not chaos to absorb.
    """
    start = time.perf_counter()
    try:
        world = _call_with_deadline(timeout_s, make)
    except ConfigurationError:
        raise
    except (_TrialTimeout, Exception) as error:
        if not quarantine:
            raise
        return None, 0.0, [_failure(spec, error, attempts=1) for spec in specs]
    return world, time.perf_counter() - start, []


def _run_group(
    study: Study,
    specs: list[Any],
    timeout_s: float | None = None,
    retries: int = 0,
    quarantine: bool = True,
    attach: tuple[Any, Any, float] | None = None,
) -> list[Any]:
    """Build (or ``attach``) the group's world once, then measure each trial.

    ``attach`` is ``(descriptor, meta, build_s)`` of a world the parent
    published to shared memory.  Each trial is retried up to ``retries``
    times under the deadline, then quarantined as a :class:`TrialFailure`
    so that one poison trial never loses its group.
    """
    box: dict[str, Any] = {}

    def _attach() -> Any:
        descriptor, meta, _ = attach  # type: ignore[misc]
        box["mapping"] = mapping = transport.attach_columns(descriptor)
        return study.attach_world(meta, mapping.arrays)  # type: ignore[attr-defined]

    try:
        world, build_s, failed = _group_world(
            specs, _attach if attach else lambda: study.build(specs[0]),
            timeout_s, quarantine,
        )
        if failed:
            return failed
        build_s = attach[2] if attach else build_s
        results: list[Any] = []
        for spec in specs:
            for _ in range(1 + retries):
                try:
                    results.append(_call_with_deadline(
                        timeout_s, lambda: study.measure(spec, world, build_s)
                    ))
                    break
                except ConfigurationError:
                    raise
                except (_TrialTimeout, Exception) as error:
                    if not quarantine:
                        raise
                    last_error = error
            else:
                results.append(_failure(spec, last_error, attempts=1 + retries))
        return results
    finally:
        world = None  # drop the views before unmapping them
        if "mapping" in box:
            box["mapping"].close()


def _run_batch_group(
    study: Study,
    specs: list[Any],
    timeout_s: float | None = None,
    retries: int = 0,
    quarantine: bool = True,
) -> tuple[list[Any], int]:
    """Realize one same-variant seed chunk via the study's ``run_batch``.

    Returns ``(results, fallback_count)``.  A failed batch call (or a
    result-count mismatch, which would mis-assign trials) re-runs every
    trial through :func:`_run_group`, with its per-trial deadline, retry
    and quarantine.  :class:`ConfigurationError` propagates.
    """
    if len(specs) > 1:
        try:
            results = _call_with_deadline(
                timeout_s,
                lambda: list(study.run_batch(specs)),  # type: ignore[attr-defined]
            )
            if len(results) == len(specs):
                return results, 0
        except ConfigurationError:
            raise
        except (_TrialTimeout, Exception):
            pass
    results = []
    for spec in specs:
        results.extend(_run_group(study, [spec], timeout_s, retries, quarantine))
    return results, len(specs) if len(specs) > 1 else 0


@dataclass(frozen=True, slots=True)
class _WorkItem:
    """The specs of one worker call; ``attach`` is shm attach info whose
    segment is released when the item completes."""

    specs: list[Any]
    batched: bool = False
    attach: tuple[Any, Any, float] | None = None


def _run_item(
    study: Study, item: _WorkItem, config: StudyConfig
) -> tuple[list[Any], int]:
    """``(results, batch fallbacks)`` of one work item, inline or pooled.

    The trial bodies are looked up as module globals on every call, so
    wrappers installed around them by name (the benchmark's trial-body
    spans) see every item.
    """
    args = (config.trial_timeout_s, config.trial_retries, config.quarantine)
    if item.batched:
        return _run_batch_group(study, item.specs, *args)
    return _run_group(study, item.specs, *args, attach=item.attach), 0


def execute_study(
    study: Study,
    config: StudyConfig,
    *,
    on_trial: Callable[[Any, int, int], None] | None = None,
    cancel: threading.Event | None = None,
) -> StudyResult:
    """Run every not-yet-completed trial of ``study`` under ``config``.

    Results come back in trial order regardless of completion order.
    ``on_trial(result, done, total)`` fires once per recorded trial —
    resumed trials first (in trial order), then executed ones as they
    complete.  ``cancel`` is polled between dispatch steps; once set,
    still-queued pool futures are cancelled and :class:`StudyCancelled`
    is raised after the artifact is closed and every shared-memory
    segment swept, so a cancelled study resumes where it stopped.
    """
    t0 = time.perf_counter()
    specs = expand_trials(study, config.seeds)
    total = len(specs)
    fingerprint = _fingerprint(study, specs)

    completed: dict[int, Any] = {}
    if config.out_dir is not None:
        completed = _load_artifacts(
            study,
            _resolve_artifact_path(study, config.out_dir, fingerprint),
            fingerprint,
            trial_count=total,
        )
    resumed = len(completed)
    pending = [spec for spec in specs if spec.trial_id not in completed]
    streams: dict[str, dict[str, StreamingMeanCI]] = {}

    def absorb(result: Any) -> None:
        if isinstance(result, TrialFailure):
            return  # survivors only: failures carry no metrics
        per_variant = streams.setdefault(result.variant, {})
        for metric, value in study.metrics(result).items():
            per_variant.setdefault(metric, StreamingMeanCI()).add(value)

    def record(result: Any) -> None:
        completed[result.trial_id] = result
        writer.append(result)
        absorb(result)
        if on_trial is not None:
            on_trial(result, len(completed), total)

    for done, trial_id in enumerate(sorted(completed), 1):
        absorb(completed[trial_id])
        if on_trial is not None:
            on_trial(completed[trial_id], done, total)

    use_batches = (
        config.trial_batch > 1
        and getattr(study, "run_batch", None) is not None
    )
    manager = transport.SegmentManager() if (
        config.transport == "shm"
        and not use_batches
        and getattr(study, "export_world", None) is not None
        and getattr(study, "attach_world", None) is not None
    ) else None
    worlds = rebuilds = 0
    pool_restarts = batch_fallbacks = transport_fallbacks = 0

    def halt_if_cancelled(futures: Any = ()) -> None:
        if cancel is not None and cancel.is_set():
            for future in futures:  # the ones the pool has not started
                future.cancel()
            raise StudyCancelled(
                f"study {study.name!r} cancelled with "
                f"{len(completed)}/{total} trials recorded"
            )

    def plan() -> list[_WorkItem]:  # see the module docstring
        nonlocal worlds, rebuilds, transport_fallbacks
        groups: dict[Hashable, list[Any]] = {}
        for spec in pending:
            key = spec.variant if use_batches else study.world_key(spec)
            groups.setdefault(key, []).append(spec)
        if use_batches:
            worlds, k = len(pending), config.trial_batch
            return [_WorkItem(group[i:i + k], batched=True)
                    for group in groups.values()
                    for i in range(0, len(group), k)]
        worlds = len(groups)
        if manager is None:
            return [_WorkItem(group) for group in groups.values()]
        items: list[_WorkItem] = []
        for group in groups.values():
            halt_if_cancelled()
            world, build_s, failed = _group_world(
                group, lambda: study.build(group[0]),
                config.trial_timeout_s, config.quarantine,
            )
            for failure in failed:
                record(failure)
            if failed:
                continue
            try:
                meta, columns = study.export_world(world)  # type: ignore[attr-defined]
                descriptor = manager.create(columns, refs=len(group))
            except ConfigurationError:
                raise
            except Exception:  # pickle path: the worker builds it again
                transport_fallbacks += len(group)
                rebuilds += 1
                items.append(_WorkItem(group))
                continue
            items.extend(_WorkItem([spec], attach=(descriptor, meta, build_s))
                         for spec in group)
        return items

    def finish(item: _WorkItem, results: list[Any], fell_back: int) -> None:
        nonlocal batch_fallbacks
        batch_fallbacks += fell_back
        for result in results:
            record(result)
        if item.attach is not None:
            manager.release(item.attach[0].segment)

    def run(items: list[_WorkItem]) -> None:
        nonlocal pool_restarts
        workers = config.workers or min(os.cpu_count() or 1, len(items))
        if workers <= 1 or len(items) <= 1:
            for item in items:
                halt_if_cancelled()
                finish(item, *_run_item(study, item, config))
            return
        # A crashed worker (OOM kill, segfault, os._exit) breaks the whole
        # pool; one restart resubmits the items not yet recorded.  Results
        # are recorded in completion order, so a slow head-of-line item
        # cannot hold the others' trials hostage to a mid-run kill.
        for attempt in (0, 1):
            try:
                with ProcessPoolExecutor(min(workers, len(items))) as pool:
                    futures = {pool.submit(_run_item, study, item, config):
                               item for item in items}
                    waiting = set(futures)
                    while waiting:
                        halt_if_cancelled(waiting)
                        done, waiting = wait(waiting, 0.2, FIRST_COMPLETED)
                        for future in done:
                            finish(futures[future], *future.result())
                return
            except BrokenProcessPool:
                items = [
                    replace(item, specs=left) for item in items
                    if (left := [s for s in item.specs
                                 if s.trial_id not in completed])
                ]
                if attempt == 1 or not items:
                    raise
                pool_restarts += 1

    writer = _ArtifactWriter(study, config.out_dir, fingerprint)
    try:
        halt_if_cancelled()
        run(plan())
    finally:
        writer.close()
        if manager is not None:
            manager.close_all()  # whatever the refcounts left, on any exit

    ordered = [completed[i] for i in range(total)]
    return StudyResult(
        study=study.name,
        config=config,
        trials=[r for r in ordered if not isinstance(r, TrialFailure)],
        wall_s=time.perf_counter() - t0,
        world_builds=worlds + rebuilds,
        world_reuses=len(pending) - worlds,
        resumed=resumed,
        streaming={
            variant: {m: s.snapshot() for m, s in metrics.items()}
            for variant, metrics in streams.items()
        },
        failures=[r for r in ordered if isinstance(r, TrialFailure)],
        pool_restarts=pool_restarts,
        batch_fallbacks=batch_fallbacks,
        transport_fallbacks=transport_fallbacks,
    )


# --------------------------------------------------------------------------
# The job queue: priorities, cancellation, journaled recovery, store hits.
# --------------------------------------------------------------------------


class JobState(str, Enum):
    """Lifecycle of one scheduled study job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class StudyJob:
    """One scheduled study: identity, request, live progress, outcome.

    Mutable fields are only written under the scheduler's lock;
    :meth:`snapshot` returns a plain-dict copy safe to serve from other
    threads (the HTTP handlers never touch the live object).
    """

    job_id: str
    name: str
    study: Study
    config: StudyConfig
    priority: int = 0
    request: dict[str, Any] | None = None
    state: JobState = JobState.QUEUED
    fingerprint: str = ""
    trials_total: int = 0
    trials_done: int = 0
    trials_resumed: int = 0
    trials_failed: int = 0
    cache_hit: bool = False
    error: str | None = None
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    wall_s: float = 0.0
    result: StudyResult | None = None
    failure_notes: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, dict[str, dict[str, float]]] = field(
        default_factory=dict
    )
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of the job's externally visible state."""
        return {
            "id": self.job_id,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "trials": {
                "total": self.trials_total,
                "done": self.trials_done,
                "resumed": self.trials_resumed,
                "failed": self.trials_failed,
            },
            "cache_hit": self.cache_hit,
            "error": self.error,
            "failures": list(self.failure_notes),
            "metrics": self.metrics,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "wall_s": self.wall_s,
        }


#: A request resolver: JSON payload -> (display name, study, config).
RequestResolver = Callable[[dict[str, Any]], tuple[str, Study, StudyConfig]]


class StudyScheduler:
    """A resumable priority queue of study jobs over :func:`execute_study`.

    * **Priorities** — higher ``priority`` runs first; ties run in
      submission order.
    * **Concurrency** — ``threads`` scheduler threads run that many
      studies at once; each study may itself fan trials out over a
      process pool (its ``StudyConfig.workers``).
    * **Content addressing** — every job executes with ``out_dir``
      pointed at the scheduler's store directory, so artifacts are
      keyed by configuration fingerprint.  A submission whose
      fingerprint already has all its trials on disk completes without
      executing anything (``cache_hit``), identical in-flight
      submissions serialize on a per-fingerprint lock so duplicate
      work can never run twice, and per-trial hit/miss counters are
      exposed by :meth:`metrics_snapshot`.
    * **Recovery** — submissions and terminal states are journaled to
      ``<store>/jobs.jsonl``; :meth:`recover` re-enqueues every job the
      journal shows as submitted but not finished (their completed
      trials resume from the artifacts).  Only jobs submitted as JSON
      requests are recoverable — a live ``Study`` object cannot be
      rebuilt from a journal line.
    * **Cancellation** — queued jobs cancel immediately; running jobs
      get their event set and stop at the next dispatch step, sweeping
      shared-memory segments on the way out.
    """

    def __init__(
        self,
        store_dir: str,
        *,
        threads: int = 2,
        resolver: RequestResolver | None = None,
        journal: bool = True,
    ) -> None:
        if threads < 1:
            raise ConfigurationError("scheduler needs at least one thread")
        self._store_dir = Path(store_dir)
        self._store_dir.mkdir(parents=True, exist_ok=True)
        self._resolver = resolver
        self._journal_path = (
            self._store_dir / "jobs.jsonl" if journal else None
        )
        self._threads_wanted = threads
        self._threads: list[threading.Thread] = []
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._jobs: dict[str, StudyJob] = {}
        self._fingerprint_locks: dict[str, threading.Lock] = {}
        self._stopping = False
        self._trial_hits = 0    # trials answered from the store
        self._trial_misses = 0  # trials actually executed

    # -- lifecycle ---------------------------------------------------------

    @property
    def store_dir(self) -> Path:
        """The content-addressed artifact directory jobs write into."""
        return self._store_dir

    def start(self) -> None:
        """Spawn the scheduler threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            for index in range(self._threads_wanted):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-scheduler-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def shutdown(self, wait_s: float | None = None) -> None:
        """Stop pulling new jobs and join the scheduler threads.

        In-flight jobs finish (their artifacts make the work resumable);
        queued jobs stay queued — a later :meth:`recover` on the same
        store picks them back up.
        """
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=wait_s)
        with self._lock:
            self._threads = []

    # -- submission & control ---------------------------------------------

    def submit(
        self,
        *,
        request: dict[str, Any] | None = None,
        study: Study | None = None,
        config: StudyConfig | None = None,
        name: str | None = None,
        priority: int | None = None,
        job_id: str | None = None,
    ) -> StudyJob:
        """Queue one study; returns the live job record.

        Either a JSON ``request`` (resolved through the injected
        resolver; journaled, hence recoverable) or an explicit
        ``study`` + ``config`` pair.  ``config.out_dir`` is always
        redirected into the scheduler's store so results are content
        addressed.
        """
        if study is None:
            if request is None:
                raise ConfigurationError(
                    "submit needs a request payload or a study+config pair"
                )
            if self._resolver is None:
                raise ConfigurationError(
                    "scheduler has no request resolver; submit study+config"
                )
            name_, study, config = self._resolver(request)
            name = name or name_
        if config is None:
            raise ConfigurationError("submit needs a StudyConfig")
        if priority is None:
            priority = int((request or {}).get("priority", 0))
        config = replace(config, out_dir=str(self._store_dir))
        specs = expand_trials(study, config.seeds)
        fingerprint = _fingerprint(study, specs)
        job = StudyJob(
            job_id=job_id or f"job-{uuid.uuid4().hex[:12]}",
            name=name or study.name,
            study=study,
            config=config,
            priority=priority,
            request=request,
            fingerprint=fingerprint,
            trials_total=len(specs),
            submitted_s=time.time(),
        )
        with self._wake:
            if job.job_id in self._jobs:
                raise ConfigurationError(
                    f"job id {job.job_id!r} already submitted"
                )
            self._jobs[job.job_id] = job
            heapq.heappush(self._queue, (-priority, self._seq, job.job_id))
            self._seq += 1
            self._journal({
                "event": "submit",
                "job_id": job.job_id,
                "name": job.name,
                "priority": job.priority,
                "fingerprint": job.fingerprint,
                "trials_total": job.trials_total,
                "request": request,
            })
            self._wake.notify()
        return job

    def cancel(self, job_id: str) -> StudyJob:
        """Cancel one job; terminal jobs are returned unchanged."""
        with self._lock:
            job = self._require(job_id)
            if job.state in TERMINAL_STATES:
                return job
            job.cancel_event.set()
            if job.state is JobState.QUEUED:
                self._finish(job, JobState.CANCELLED,
                             error="cancelled while queued")
        return job

    def get(self, job_id: str) -> StudyJob:
        """The live job record (raises ConfigurationError when unknown)."""
        with self._lock:
            return self._require(job_id)

    def jobs(self) -> list[StudyJob]:
        """Every known job, newest submission first."""
        with self._lock:
            return sorted(
                self._jobs.values(),
                key=lambda job: job.submitted_s,
                reverse=True,
            )

    def metrics_snapshot(self) -> dict[str, Any]:
        """Queue depth, per-state counts and the store hit/miss counters."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            full_hits = sum(1 for j in self._jobs.values() if j.cache_hit)
            return {
                "jobs": states,
                "queue_depth": sum(
                    1 for j in self._jobs.values()
                    if j.state is JobState.QUEUED
                ),
                "store": {
                    "trial_hits": self._trial_hits,
                    "trial_misses": self._trial_misses,
                    "full_hits": full_hits,
                },
            }

    # -- recovery ----------------------------------------------------------

    def recover(self) -> int:
        """Re-enqueue journaled jobs that never reached a terminal state.

        Returns the number of jobs re-submitted.  Completed trials are
        not re-run — the jobs resume from their content-addressed
        artifacts exactly like a killed ``run_study``.
        """
        if self._journal_path is None or not self._journal_path.exists():
            return 0
        submitted: dict[str, dict[str, Any]] = {}
        finished: set[str] = set()
        with self._journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # partial write from a killed service
                job_id = event.get("job_id")
                if not isinstance(job_id, str):
                    continue
                if event.get("event") == "submit":
                    submitted[job_id] = event
                elif event.get("event") == "terminal":
                    finished.add(job_id)
        recovered = 0
        for job_id, event in submitted.items():
            if job_id in finished or job_id in self._jobs:
                continue
            request = event.get("request")
            if not isinstance(request, dict) or self._resolver is None:
                continue  # live-object submissions cannot be rebuilt
            try:
                self.submit(
                    request=request,
                    priority=int(event.get("priority", 0)),
                    job_id=job_id,
                )
            except ConfigurationError:
                continue  # a request the current registry cannot resolve
            recovered += 1
        return recovered

    # -- internals ---------------------------------------------------------

    def _require(self, job_id: str) -> StudyJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job {job_id!r}")
        return job

    def _journal(self, event: dict[str, Any]) -> None:
        if self._journal_path is None:
            return
        try:
            encoded = json.dumps(event)
        except TypeError:
            event = {k: v for k, v in event.items() if k != "request"}
            event["request"] = None
            encoded = json.dumps(event)
        with self._journal_path.open("a", encoding="utf-8") as handle:
            handle.write(encoded + "\n")
            handle.flush()

    def _finish(
        self, job: StudyJob, state: JobState, error: str | None = None
    ) -> None:
        """Terminal transition + journal line (caller holds the lock)."""
        job.state = state
        job.error = error
        job.finished_s = time.time()
        self._journal({
            "event": "terminal",
            "job_id": job.job_id,
            "state": state.value,
            "error": error,
        })

    def _next_job(self) -> StudyJob | None:
        """Pop the highest-priority queued job (caller holds the lock)."""
        while self._queue:
            _, _, job_id = heapq.heappop(self._queue)
            job = self._jobs.get(job_id)
            if job is not None and job.state is JobState.QUEUED:
                return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                job = self._next_job()
                while job is None and not self._stopping:
                    self._wake.wait(timeout=0.5)
                    job = self._next_job()
                if job is None:
                    return  # stopping, queue drained
                job.state = JobState.RUNNING
                job.started_s = time.time()
            self._run_job(job)

    def _run_job(self, job: StudyJob) -> None:
        """Execute one job; identical fingerprints serialize on a lock."""
        with self._lock:
            flock = self._fingerprint_locks.setdefault(
                job.fingerprint, threading.Lock()
            )

        def on_trial(result: Any, done: int, total: int) -> None:
            with self._lock:
                job.trials_done = done
                if isinstance(result, TrialFailure):
                    job.trials_failed += 1
                    if len(job.failure_notes) < 8:
                        job.failure_notes.append({
                            "trial_id": result.trial_id,
                            "variant": result.variant,
                            "seed": result.seed,
                            "error": result.error,
                        })

        try:
            with flock:
                if job.cancel_event.is_set():
                    raise StudyCancelled("cancelled before execution")
                result = execute_study(
                    job.study, job.config,
                    on_trial=on_trial, cancel=job.cancel_event,
                )
        except StudyCancelled as error:
            with self._lock:
                self._finish(job, JobState.CANCELLED, error=str(error))
            return
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            with self._lock:
                self._finish(
                    job, JobState.FAILED,
                    error=f"{type(error).__name__}: {error}",
                )
            return
        with self._lock:
            job.result = result
            job.trials_resumed = result.resumed
            job.trials_done = len(result.trials) + len(result.failures)
            job.trials_failed = len(result.failures)
            job.wall_s = result.wall_s
            job.cache_hit = (
                result.resumed == job.trials_total and job.trials_total > 0
            )
            job.metrics = {
                variant: {
                    metric: {
                        "mean": ci.mean,
                        "half_width": ci.half_width,
                        "n": ci.n,
                    }
                    for metric, ci in metrics.items()
                }
                for variant, metrics in result.streaming.items()
            }
            self._trial_hits += result.resumed
            self._trial_misses += job.trials_total - result.resumed
            self._finish(job, JobState.DONE)
