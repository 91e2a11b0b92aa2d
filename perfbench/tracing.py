"""Spans around the public entry points of each layer, from outside ``src/``.

:class:`Tracer` keeps spans in memory — name, start, end, parent span and
the trial or job they belong to — and writes them out when the run ends.
:func:`install` wraps every entry point in :data:`ENTRY_POINTS` (module
functions in every ``repro`` module that imported them, methods on their
class) and returns an :class:`Installation` whose ``remove`` restores the
originals, so an untraced round never runs through a wrapper.

Pool workers are forked from the traced process and inherit the
wrappers; a worker writes its spans to ``spans-<pid>.jsonl`` in the
tracer's directory after each trial group, and :meth:`Tracer.collect`
merges them back.  ``time.perf_counter`` is the system-wide monotonic
clock on Linux, so span times from different processes compare directly.

:func:`layer_metrics` turns the spans into the per-layer numbers: calls
into the layer, busy (self) time, share of the traced wall time, plus the
counters some entry points report.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from measure import median, union_length

#: Counter hook: (args, kwargs, result) -> {counter: value}.
Counter = Callable[[tuple, dict, Any], dict[str, float]]


def _networks(args: tuple, kwargs: dict, pool: Any) -> dict[str, float]:
    return {"networks": len(pool)}


def _interfaces(args: tuple, kwargs: dict, world: Any) -> dict[str, float]:
    return {"interfaces": world.candidate_count()}


def _replies(args: tuple, kwargs: dict, measurements: Any) -> dict[str, float]:
    return {"replies": sum(
        len(replies)
        for m in measurements
        for replies in m.replies_by_operator.values()
    )}


def _filtered(args: tuple, kwargs: dict, report: Any) -> dict[str, float]:
    candidates = args[1] if len(args) > 1 else kwargs["measurements"]
    return {"candidates": len(candidates), "analyzed": len(report.passed)}


def _seeds(args: tuple, kwargs: dict, views: Any) -> dict[str, float]:
    return {"seeds": len(views)}


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``target`` is ``name`` or ``Class.method``."""

    layer: str
    module: str
    target: str
    count: Counter | None = None
    #: A trial body: pool workers flush their spans after it returns.
    trial_body: bool = False
    #: The call's first argument carries a ``trial_id``: label spans with it.
    per_trial: bool = False


#: Layers in pipeline order.  ``experiments.study`` holds the study
#: adapters (the build/measure glue of each study) so their time is not
#: charged to the scheduler that calls them.
LAYERS = (
    "sim.netpool",
    "sim.detection_world",
    "core.detection.campaign",
    "core.detection.filters",
    "core.detection.results",
    "sim.offload_batch",
    "core.offload",
    "netflow",
    "core.economics",
    "experiments.study",
    "experiments.scheduler",
    "experiments.engine",
    "serve",
)

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("sim.netpool", "repro.sim.netpool", "generate_network_pool",
               _networks),
    EntryPoint("sim.detection_world", "repro.sim.detection_world",
               "build_detection_world", _interfaces),
    EntryPoint("core.detection.campaign", "repro.core.detection.campaign",
               "ProbeCampaign.collect", _replies),
    EntryPoint("core.detection.filters", "repro.core.detection.filters",
               "FilterPipeline.run", _filtered),
    EntryPoint("core.detection.results", "repro.core.detection.results",
               "build_result"),
    EntryPoint("core.detection.results", "repro.core.detection.validation",
               "validate_against_truth"),
    EntryPoint("sim.offload_batch", "repro.sim.offload_batch",
               "build_offload_views", _seeds),
    EntryPoint("core.offload", "repro.core.offload.peergroups",
               "PeerGroups.build"),
    EntryPoint("core.offload", "repro.core.offload.potential",
               "OffloadEstimator.__init__"),
    EntryPoint("core.offload", "repro.core.offload.potential",
               "OffloadEstimator.reachable_ixps"),
    EntryPoint("core.offload", "repro.core.offload.potential",
               "OffloadEstimator.offload_fractions"),
    EntryPoint("core.offload", "repro.core.offload.potential",
               "OffloadEstimator.mask_for"),
    EntryPoint("core.offload", "repro.core.offload.greedy",
               "remaining_traffic_series"),
    EntryPoint("netflow", "repro.netflow.collector",
               "FlowCollector.aggregate_series"),
    EntryPoint("netflow", "repro.netflow.billing", "offload_billing_report"),
    EntryPoint("core.economics", "repro.core.economics.fitting",
               "fit_exponential_decay"),
    EntryPoint("core.economics", "repro.core.economics.viability",
               "viability_condition"),
    EntryPoint("experiments.study", "repro.experiments.ensemble",
               "DetectionStudy.build", per_trial=True),
    EntryPoint("experiments.study", "repro.experiments.ensemble",
               "DetectionStudy.measure", per_trial=True),
    EntryPoint("experiments.study", "repro.experiments.ensemble",
               "DetectionStudy.run_batch"),
    EntryPoint("experiments.study", "repro.experiments.economics",
               "EconomicsStudy.build", per_trial=True),
    EntryPoint("experiments.study", "repro.experiments.economics",
               "EconomicsStudy.measure", per_trial=True),
    EntryPoint("experiments.study", "repro.experiments.economics",
               "EconomicsStudy.run_batch"),
    EntryPoint("experiments.scheduler", "repro.experiments.scheduler",
               "execute_study"),
    EntryPoint("experiments.scheduler", "repro.experiments.scheduler",
               "_run_group", trial_body=True),
    EntryPoint("experiments.scheduler", "repro.experiments.scheduler",
               "_run_batch_group", trial_body=True),
    EntryPoint("experiments.scheduler", "repro.experiments.scheduler",
               "StudyScheduler.submit"),
    # The engine exposes its artifact store to the scheduler through these
    # two module-private calls: the store read and the store write.
    EntryPoint("experiments.engine", "repro.experiments.engine",
               "_load_artifacts"),
    EntryPoint("experiments.engine", "repro.experiments.engine",
               "_ArtifactWriter.append", per_trial=True),
    EntryPoint("serve", "repro.serve.jobs", "resolve_request"),
    EntryPoint("serve", "repro.serve.app", "StudyService.submit"),
    EntryPoint("serve", "repro.serve.app", "StudyService.job"),
    EntryPoint("serve", "repro.serve.app", "StudyService.metrics"),
    EntryPoint("serve", "repro.serve.app", "StudyService.result_status"),
    EntryPoint("serve", "repro.serve.app", "StudyService.result_rows"),
)

#: Stands in for the result of a call that raised.
_FAILED = object()

#: The scheduler call that runs one whole study (the round or job span).
STUDY_SPAN = "execute_study"
#: Wrapped only to label the spans of one serve job with its id.
JOB_RUNNER = ("repro.experiments.scheduler", "StudyScheduler._run_job")


@dataclass
class Span:
    sid: str
    layer: str
    fn: str
    start: float
    end: float
    parent: str | None
    pid: int
    #: The serve job and the trial the span worked for, when known.
    job: str | None = None
    trial: int | None = None
    counts: dict[str, float] | None = None

    def to_json(self) -> dict[str, Any]:
        return dict(vars(self))


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _reset_after_fork(self) -> None:
        # A forked worker starts with a copy of the parent's spans; only
        # the spans it records itself are its to write out.
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, entry: EntryPoint,
             func: Callable[..., Any]) -> Callable[..., Any]:
        tracer, local = self, self._local

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer._reset_after_fork()
            stack = tracer._stack()
            sid = f"{tracer.pid}.{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            outer_trial = getattr(local, "trial", None)
            trial = args[1].trial_id if entry.per_trial else outer_trial
            local.trial = trial
            stack.append(sid)
            result = _FAILED
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                # Counting runs after the span ends, so it is not charged
                # to the layer it counts.
                end = time.perf_counter()
                stack.pop()
                local.trial = outer_trial
                counts = None
                if entry.count is not None and result is not _FAILED:
                    counts = entry.count(args, kwargs, result)
                tracer.spans.append(Span(
                    sid, entry.layer, entry.target, start, end, parent,
                    tracer.pid, getattr(local, "job", None), trial, counts))
                if entry.trial_body and tracer.pid != tracer.owner:
                    tracer._spill()

        wrapper.__perfbench_original__ = func  # type: ignore[attr-defined]
        return wrapper

    def wrap_job_runner(self, func: Callable[..., Any]) -> Callable[..., Any]:
        """Label every span a scheduler thread records with its job id."""
        tracer = self

        @functools.wraps(func)
        def wrapper(scheduler: Any, job: Any) -> Any:
            tracer._local.job = job.job_id
            try:
                return func(scheduler, job)
            finally:
                tracer._local.job = None

        wrapper.__perfbench_original__ = func  # type: ignore[attr-defined]
        return wrapper

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Own spans plus every pool worker's spilled spans.

        A worker span with no parent recorded in its own process belongs
        to the owner's study span that encloses it in time.
        """
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with path.open("r", encoding="utf-8") as handle:
                spans.extend(Span(**json.loads(line)) for line in handle)
            path.unlink()
        self.spans = spans
        studies = [s for s in spans
                   if s.pid == self.owner and s.fn == STUDY_SPAN]
        local_ids: dict[int, set[str]] = defaultdict(set)
        for span in spans:
            local_ids[span.pid].add(span.sid)
        for span in spans:
            if span.pid == self.owner or span.parent in local_ids[span.pid]:
                continue
            span.parent = next(
                (s.sid for s in studies if s.start <= span.start <= s.end),
                None,
            )
        return spans

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def _resolve(module_name: str, target: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, raw attribute) of an entry point."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = target.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
    return owner, attr, raw


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Installation:
    """The wrappers one :func:`install` put in place, and their removal."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def installed_wrappers() -> list[str]:
    """Every ``repro`` attribute currently bound to a benchmark wrapper."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if hasattr(func, "__perfbench_original__"):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point; the caller must ``remove()`` the result."""
    installation = Installation()
    for entry in ENTRY_POINTS:
        owner, attr, raw = _resolve(entry.module, entry.target)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(tracer.wrap(entry, raw.__func__))
            else:
                wrapped = tracer.wrap(entry, raw)
            installation.patch(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(entry, raw)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is raw:
                    installation.patch(module, name, wrapped)
    owner, attr, raw = _resolve(*JOB_RUNNER)
    installation.patch(owner, attr, tracer.wrap_job_runner(raw))
    return installation


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Span duration minus the part of it covered by its child spans."""
    spans = list(spans)
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - union_length(children[span.sid], span.start, span.end)
        for span in spans
    }


def layer_metrics(spans: list[Span], wall_s: float,
                  lanes: int) -> dict[str, float]:
    """calls / busy_s / share per layer, the counters, and scheduler times.

    ``share`` is busy time over ``wall_s * lanes``: the part of the traced
    wall time, across the parallel workers or threads, the layer held.
    """
    by_id = {span.sid: span for span in spans}
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        entered = [s for s in mine
                   if s.parent not in by_id or by_id[s.parent].layer != layer]
        busy = sum(own[s.sid] for s in mine)
        out[f"{layer}.calls"] = float(len(entered))
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.share"] = busy / (wall_s * lanes) if wall_s else 0.0

    def total(fn: str, counter: str) -> float:
        return sum((s.counts or {}).get(counter, 0.0)
                   for s in spans if s.fn == fn)

    out["sim.netpool.networks"] = total("generate_network_pool", "networks")
    out["sim.detection_world.interfaces"] = total("build_detection_world",
                                                  "interfaces")
    replies = total("ProbeCampaign.collect", "replies")
    campaign_busy = out["core.detection.campaign.busy_s"]
    out["core.detection.campaign.replies"] = replies
    out["core.detection.campaign.replies_per_s"] = (
        replies / campaign_busy if campaign_busy else 0.0)
    candidates = total("FilterPipeline.run", "candidates")
    out["core.detection.filters.pass_ratio"] = (
        total("FilterPipeline.run", "analyzed") / candidates
        if candidates else 0.0)
    view_calls = out["sim.offload_batch.calls"]
    out["sim.offload_batch.seeds_per_call"] = (
        total("build_offload_views", "seeds") / view_calls
        if view_calls else 0.0)

    # Scheduler self time: each study's wall minus its trial bodies, and
    # the wait until the first trial body hands back a result.
    bodies: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.fn in ("_run_group", "_run_batch_group") and span.parent:
            bodies[span.parent].append(span)
    studies = [s for s in spans if s.fn == STUDY_SPAN]
    out["experiments.scheduler.self_s"] = sum(
        (s.end - s.start) - union_length(
            [(b.start, b.end) for b in bodies[s.sid]], s.start, s.end)
        for s in studies
    )
    firsts = [min(b.end for b in bodies[s.sid]) - s.start
              for s in studies if bodies[s.sid]]
    out["experiments.scheduler.first_result_s"] = (
        median(firsts) if firsts else 0.0)
    return out
