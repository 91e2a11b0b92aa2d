# Developer entry points.  Everything runs from the repo root with the
# in-tree package on the path; no installation required.
#
#   make test        full tier-1 suite (what CI holds the repo to)
#   make smoke       quick gate: fast tests + perf regression guard
#   make lint        static analysis: repro lint (+ ruff/mypy when installed)
#   make chaos       fault-injection gate: chaos suites + a small failover run
#   make mega-smoke  mega-scale gate: 20k-world study over shm transport
#   make serve-smoke service gate: HTTP submit → cache hit → thread deadline
#   make bench       retime every stage and rewrite BENCH_speed.json
#   make regression  full perf guard against the committed baseline

PY := PYTHONPATH=src python

.PHONY: test smoke lint chaos mega-smoke serve-smoke bench regression

test:
	$(PY) -m pytest -x -q

smoke:
	$(PY) -m pytest -m "not slow" -q
	$(PY) benchmarks/check_regression.py --quick
	$(PY) -m repro study offload --scenario small --seeds 8 \
		--trial-batch 8 --workers 1 --max-ixps 4
	$(PY) -m repro study economics --scenario small --seeds 8 \
		--trial-batch 8 --workers 1

# The determinism & draw-stream static analysis (always available), plus
# ruff and the strict-ish mypy profile for the typed surfaces
# (src/repro/devtools/ and the study engine) when those tools are
# installed — the repo itself has no third-party dev dependencies.
lint:
	$(PY) -m repro lint
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check .; \
	else \
		echo "ruff not installed; skipping (python -m pip install ruff)"; \
	fi
	@if $(PY) -m mypy --version >/dev/null 2>&1; then \
		$(PY) -m mypy; \
	else \
		echo "mypy not installed; skipping (python -m pip install mypy)"; \
	fi

# The robustness gate: fault/retry determinism, trial quarantine (incl.
# the kill-one-worker pool-restart study and its resume), the same
# kill on pooled seed batches (only the unfinished chunk is resubmitted),
# a mid-run cancel of a pooled study and its resume, a faulted threshold
# grid sharing one probe campaign per world, and one small end-to-end
# failover scenario run.
chaos:
	$(PY) -m pytest -q tests/test_faults.py tests/test_campaign_faults.py \
		tests/test_engine_quarantine.py tests/test_failover_scenario.py \
		tests/test_threshold_sharing.py::TestFaultedThresholdGrid \
		tests/test_trial_batch.py::TestPooledBatchRestart \
		tests/test_scheduler.py::TestCancellation::test_mid_run_pickle_pool_cancel_resumes
	$(PY) -m repro scenarios run failover --preset small --seeds 2 --workers 1

# The mega-scale gate: the ~20k-network smoke world through the study
# engine over the zero-copy shared-memory transport.  --strict-transport
# fails the target if any trial fell back to pickling, so the shm path
# cannot silently rot.
mega-smoke:
	$(PY) -m pytest -q tests/test_megatopo.py tests/test_transport.py
	$(PY) -m repro study mega --scenario mega-smoke --seeds 4 \
		--strict-transport

# The service gate: the scheduler and HTTP suites, then the end-to-end
# smoke — the real asyncio server on an ephemeral port, driven over HTTP
# through a cold run, a byte-identical resubmission that must be a 100%
# store hit (0 trials recomputed), and a timing-out study whose trials
# must be quarantined by the thread-safe deadline from a scheduler
# (non-main) thread.  The memo-safety tests run two threshold-grid studies
# on concurrent threads, as `repro serve --threads 2` does.
serve-smoke:
	$(PY) -m pytest -q tests/test_scheduler.py tests/test_serve.py \
		tests/test_threshold_sharing.py::TestMemoSafety
	$(PY) -m repro serve --smoke

bench:
	$(PY) benchmarks/bench_speed.py

regression:
	$(PY) benchmarks/check_regression.py
