"""The ``serve_mix`` workload: ``repro serve`` under a closed loop of clients.

The service runs as its own process (``python -m repro serve --threads 2``)
over a fresh store.  ``CLIENTS`` client threads in this process each send
their own seeded sequence of ``economics`` requests (``paper65``, 8 seeds,
``workers: 1``, ``trial_batch: 8``) drawn from a pool of distinct
requests, one at a time: submit, poll ``GET /studies/{id}`` every
``POLL_S`` until the job is terminal, fetch ``GET /results/{fingerprint}``.
A client's sequence comes in blocks of ``BLOCK`` requests: one request it
never sent before (a *cold* job that computes and writes the store) and
``BLOCK - 1`` repeats of requests it already completed (full store *hits*
that only read it).  Clients draw from disjoint halves of the pool, so a
repeat never waits on another client's computation, and the cold/hit mix
of every stretch of the run is fixed by the seed.

A traced run hosts the service in this process instead, so the wrappers
see the layer calls: half the time untraced, then half traced, each over
its own fresh store, and the throughput ratio gives the tracing overhead.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator

import measure
from measure import Outcome

CLIENTS = 2
#: Scheduler threads of the service (the in-process host of the traced
#: run, ``repro.serve.smoke._ServerThread``, also runs 2).
THREADS = 2
#: Requests per block of a client's sequence: one cold, the rest hits.
#: One cold job in five is the mix measured on the service before this
#: benchmark existed: 2 closed-loop clients completed 7.3-7.6 jobs/s with
#: a cold p50 of 1.35-1.40 s and a hit p50 of 10-12 ms, so a client's
#: mean job took 0.26-0.27 s and 18-20% of its jobs were cold.
BLOCK = 5
#: Fixed interval between status polls of one job.
POLL_S = 0.002
#: Distinct requests in the pool (far more than a run can reach).
POOL_SIZE = 4096
SEEDS_PER_REQUEST = 8
#: Server spawns per run timed for ``setup_s``; the last one is measured.
SETUP_REPEATS = 3
TIMING_FIELDS = ("build_s", "study_s")
#: Untimed job that lets the service finish its lazy set-up (imports,
#: first-use caches) before the loop; its seeds lie outside the pool's.
WARMUP_REQUEST: dict[str, Any] = {
    "study": "economics",
    "config": {"preset": "paper65",
               "seeds": {"count": SEEDS_PER_REQUEST, "offset": 1 << 24},
               "workers": 1, "trial_batch": SEEDS_PER_REQUEST},
}
TERMINAL = ("done", "failed", "cancelled")


def request_pool(seed: int) -> list[dict[str, Any]]:
    """The run's distinct requests: disjoint 8-seed ranges per request."""
    rng = random.Random(f"serve_mix:{seed}")
    return [
        {
            "study": "economics",
            "config": {
                "preset": "paper65",
                "seeds": {"count": SEEDS_PER_REQUEST,
                          "offset": block * SEEDS_PER_REQUEST},
                "workers": 1,
                "trial_batch": SEEDS_PER_REQUEST,
            },
        }
        for block in rng.sample(range(1 << 20), POOL_SIZE)
    ]


def client_sequence(seed: int, client: int) -> Iterator[int]:
    """Pool indices one client sends, in order (an endless sequence).

    Each block of ``BLOCK`` holds one index the client has not sent yet
    (first in the very first block) and repeats drawn from those it has.
    """
    rng = random.Random(f"serve_mix:{seed}:client{client}")
    fresh = iter(range(client, POOL_SIZE, CLIENTS))
    seen: list[int] = []
    while True:
        new_at = rng.randrange(BLOCK) if seen else 0
        for slot in range(BLOCK):
            index = next(fresh, None) if slot == new_at else None
            if index is None:
                index = rng.choice(seen)
            else:
                seen.append(index)
            yield index


@dataclass
class Record:
    """One request as the client saw it."""

    client: int
    index: int
    cold: bool
    latency_s: float = 0.0
    submit_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    done_at: float = 0.0
    job: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None


def _call(port: int, method: str, path: str,
          payload: Any = None) -> tuple[int, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _one(port: int, client: int, index: int, cold: bool,
         payload: dict[str, Any]) -> Record:
    record = Record(client, index, cold)
    start = time.perf_counter()
    status, job = _call(port, "POST", "/studies", payload)
    record.submit_s = time.perf_counter() - start
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {job}")
    while True:
        status, job = _call(port, "GET", f"/studies/{job['id']}")
        record.polls += 1
        if status != 200:
            raise RuntimeError(f"status poll answered {status}: {job}")
        if job["state"] in TERMINAL:
            break
        time.sleep(POLL_S)
    fetch = time.perf_counter()
    status, result = _call(port, "GET", f"/results/{job['fingerprint']}")
    record.done_at = time.perf_counter()
    record.fetch_s = record.done_at - fetch
    record.latency_s = record.done_at - start
    if status != 200:
        raise RuntimeError(f"result fetch answered {status}: {result}")
    record.job, record.rows = job, result["rows"]
    return record


def drive(port: int, seed: int, seconds: float) -> list[list[Record]]:
    """The closed loop: each client sends whole blocks for ``seconds``.

    A client starts no block after the deadline and always finishes the
    block it is in, so every client's records are complete blocks, each
    holding exactly one cold job.  Returns the records per client.
    """
    pool = request_pool(seed)
    records: list[list[Record]] = [[] for _ in range(CLIENTS)]
    deadline = time.perf_counter() + seconds

    def loop(client: int) -> None:
        sent: set[int] = set()
        sequence = client_sequence(seed, client)
        while time.perf_counter() < deadline:
            for index in itertools.islice(sequence, BLOCK):
                cold = index not in sent
                sent.add(index)
                try:
                    records[client].append(
                        _one(port, client, index, cold, pool[index]))
                except Exception as error:  # noqa: BLE001 - counted as failed
                    records[client].append(Record(
                        client, index, cold,
                        error=f"{type(error).__name__}: {error}"))
                    return

    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 170)
        if thread.is_alive():
            raise RuntimeError("a client did not finish")
    return records


def check_records(records: list[Record], out: Outcome) -> dict[int, list]:
    """Job states and cold/hit flags as expected; hits replay cold rows.

    Returns the cold rows by pool index.
    """
    cold_rows: dict[int, list] = {}
    for record in records:
        out.attempted += 1
        if record.error is not None:
            out.fail(1, f"request {record.index}: {record.error}")
            continue
        job = record.job
        trials = job["trials"]
        expected = (trials["resumed"] == 0 and not job["cache_hit"]
                    if record.cold else
                    trials["resumed"] == SEEDS_PER_REQUEST
                    and job["cache_hit"])
        if (job["state"] != "done" or trials["failed"] or not expected
                or trials["total"] != SEEDS_PER_REQUEST
                or len(record.rows) != SEEDS_PER_REQUEST
                or any("result" not in row for row in record.rows)):
            kind = "cold" if record.cold else "hit"
            out.fail(1, f"request {record.index} ({kind}): "
                        f"state {job['state']}, trials {trials}, "
                        f"cache_hit {job['cache_hit']}")
            continue
        if record.cold:
            cold_rows[record.index] = record.rows
        elif record.rows != cold_rows.get(record.index):
            out.fail(1, f"request {record.index}: hit rows differ from "
                        "its cold rows")
    return cold_rows


def _without_timings(row: dict[str, Any]) -> dict[str, Any]:
    result = {k: v for k, v in row["result"].items()
              if k not in TIMING_FIELDS}
    return {**row, "result": result}


def check_in_process(seed: int, cold_rows: dict[int, list],
                     out: Outcome) -> None:
    """One fingerprint's served rows equal an in-process ``run_study``."""
    from repro.experiments.engine import run_study
    from repro.serve.jobs import resolve_request

    if not cold_rows:
        return
    index = random.Random(f"check:serve_mix:{seed}").choice(sorted(cold_rows))
    _, study, config = resolve_request(request_pool(seed)[index])
    result = run_study(study, replace(config, out_dir=None))
    local = [
        {"trial_id": t.trial_id, "variant": t.variant, "seed": t.seed,
         "result": study.encode(t)}
        for t in result.trials
    ]
    local = json.loads(json.dumps(local))
    out.attempted += 1
    if ([_without_timings(r) for r in local]
            != [_without_timings(r) for r in cold_rows[index]]):
        out.fail(1, f"request {index}: served rows differ from run_study")


def check_store_counters(store: dict[str, int], records: list[Record],
                         out: Outcome) -> None:
    """The loop's ``/metrics`` store counters match what clients saw."""
    served = [r for r in records if r.error is None]
    hits = sum(not r.cold for r in served)
    expected = {
        "trial_hits": SEEDS_PER_REQUEST * hits,
        "trial_misses": SEEDS_PER_REQUEST * (len(served) - hits),
        "full_hits": hits,
    }
    if store != expected:
        out.fail(1, f"/metrics store counters {store}, expected {expected}")


def _health(port: int) -> int | None:
    try:
        return _call(port, "GET", "/healthz")[0]
    except ConnectionError:
        return None


class Server:
    """``repro serve`` as a child process on an ephemeral port."""

    def __init__(self, root: Path, store: Path, env: dict[str, str]) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store), "--threads", str(THREADS)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert self.process.stdout is not None
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.split("listening on http://")[1]
                            .split()[0].rsplit(":", 1)[1])
            while _health(self.port) != 200:
                if time.perf_counter() - start > 60:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return measure.vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def _latencies(records: list[Record], cold: bool) -> list[float]:
    return [r.latency_s for r in records if r.error is None and r.cold == cold]


def _store_counters(port: int) -> dict[str, int]:
    status, metrics = _call(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}: {metrics}")
    return metrics["store"]


@dataclass
class Phase:
    """One closed loop against one service, and what it checked."""

    by_client: list[list[Record]]
    #: The loop's own change of the ``/metrics`` store counters.
    store: dict[str, int]

    @property
    def records(self) -> list[Record]:
        return [r for records in self.by_client for r in records]

    def rate(self, cold_only: bool = False) -> float:
        """Jobs (or cold jobs) per second, summed over the clients.

        Each client's rate is its jobs over the span from its first
        submit to its last fetch: whole blocks, so the cold/hit mix of
        every client's span is the same.
        """
        total = 0.0
        for records in self.by_client:
            served = [r for r in records if r.error is None]
            if served:
                span = served[-1].done_at - (served[0].done_at
                                             - served[0].latency_s)
                total += sum(r.cold or not cold_only for r in served) / span
        return total


def measured_loop(port: int, seed: int, seconds: float, warm: bool,
                  out: Outcome) -> Phase:
    """Optionally one untimed warm-up job, then the loop and its checks."""
    if warm:
        _one(port, -1, -1, True, WARMUP_REQUEST)
    before = _store_counters(port)
    by_client = drive(port, seed, seconds)
    after = _store_counters(port)
    phase = Phase(by_client,
                  {key: after[key] - before[key] for key in before})
    cold_rows = check_records(phase.records, out)
    check_store_counters(phase.store, phase.records, out)
    check_in_process(seed, cold_rows, out)
    return phase


def run(seed: int, seconds: float, trace: bool, root: Path, work: Path,
        env: dict[str, str]) -> Outcome:
    out = Outcome()
    if trace:
        return _run_traced(seed, seconds, work, out)
    servers = []
    try:
        for attempt in range(SETUP_REPEATS):
            servers.append(Server(root, work / f"store{attempt}", env))
            if attempt < SETUP_REPEATS - 1:
                servers[-1].stop()
        phase = measured_loop(servers[-1].port, seed, seconds, True, out)
        peak = servers[-1].peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    cold = _latencies(phase.records, cold=True)
    hits = _latencies(phase.records, cold=False)
    if not cold or not hits:
        raise RuntimeError(f"serve_mix finished {len(cold)} cold and "
                           f"{len(hits)} hit jobs; both are needed")
    tail_s, tail_pct, tail_n = measure.tail(hits)
    out.put("setup_s", measure.median([s.ready_s for s in servers]), "s")
    out.put("trials_per_s", SEEDS_PER_REQUEST * phase.rate(cold_only=True),
            "1/s")
    out.put("jobs_per_s", phase.rate(), "1/s")
    out.put("cold_p50_s", measure.median(cold), "s")
    out.put("hit_p50_ms", 1000 * measure.median(hits), "ms")
    out.put("hit_tail_ms", 1000 * tail_s, "ms")
    out.put("peak_rss_mb", peak, "MB")
    out.notes += [
        f"closed loop: {CLIENTS} clients, {THREADS} scheduler threads, "
        f"status poll every {POLL_S * 1000:g} ms, blocks of {BLOCK}",
        f"jobs: {len(cold)} cold, {len(hits)} hits",
        f"setup_s: median of {len(servers)} server spawns",
        f"hit_tail_ms: p{tail_pct:.1f} of {tail_n} hits",
    ]
    return out


def _run_traced(seed: int, seconds: float, work: Path,
                out: Outcome) -> Outcome:
    import tracing

    from repro.serve.smoke import _ServerThread as InProcessServer

    half = seconds / 2
    server = InProcessServer(str(work / "untraced"))
    try:
        untraced = measured_loop(server.port, seed, half, True, out)
    finally:
        server.stop()

    tracer = tracing.Tracer(work)
    installation = tracing.install(tracer)
    try:
        server = InProcessServer(str(work / "traced"))
        try:
            traced = measured_loop(server.port, seed, half, False, out)
            jobs = server.service.scheduler.jobs()
        finally:
            server.stop()
    finally:
        installation.remove()

    spans = tracer.collect()
    served = [r for r in traced.records if r.error is None]
    traced_s = max(r.done_at for r in served) - min(
        r.done_at - r.latency_s for r in served)
    layers = tracing.layer_metrics(spans, traced_s, THREADS)
    results = [job.result for job in jobs if job.result is not None]
    store = traced.store
    layers.update({
        "experiments.scheduler.batch_fallbacks": float(
            sum(r.batch_fallbacks for r in results)),
        "experiments.scheduler.retries": float(sum(
            r.pool_restarts + sum(f.attempts - 1 for f in r.failures)
            for r in results)),
        "experiments.scheduler.queue_wait_p50_s": measure.median(
            [r.job["started_s"] - r.job["submitted_s"] for r in served]),
        "experiments.engine.trial_hits": float(store["trial_hits"]),
        "experiments.engine.trial_misses": float(store["trial_misses"]),
        "experiments.engine.hit_ratio": store["trial_hits"]
        / (store["trial_hits"] + store["trial_misses"]),
        "serve.submit_rtt_p50_ms": 1000 * measure.median(
            [r.submit_s for r in served]),
        "serve.result_fetch_p50_ms": 1000 * measure.median(
            [r.fetch_s for r in served]),
        "serve.overhead_p50_ms": 1000 * measure.median([
            r.latency_s - (r.job["finished_s"] - r.job["started_s"])
            for r in served]),
        "serve.polls_per_job": sum(r.polls for r in served) / len(served),
        "trace.overhead_frac": 1.0 - traced.rate() / untraced.rate(),
    })
    out.notes += [
        f"in-process service: {untraced.rate():.3g} jobs/s untraced, "
        f"{traced.rate():.3g} traced",
        f"{len(spans)} spans",
    ]
    out.layers, out.tracer = layers, tracer
    return out
