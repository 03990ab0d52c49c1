# Convenience targets for the GHRP reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-fault lint loc check check-flow bench bench-quick bench-smoke bench-diff examples figures clean

# The fault-injection / robustness suite: the supervised worker pool
# (driven through the scheduler), deterministic fault harness, cell-cache
# durability, corrupted-input guards, the crash-safe sweep scheduler
# (incl. the SIGKILL kill-resume smoke test, which asserts bit-identical
# resumption from the journal), and the sentinel suites that inject
# KernelFaults into the fast engine's batch loop.
# pytest-timeout (when installed, as in CI) backstops a regressed hang.
FAULT_TESTS = tests/test_faults.py tests/test_supervisor.py \
              tests/test_store_durability.py tests/test_failure_injection.py \
              tests/test_scheduler.py tests/test_service.py \
              tests/test_service_daemon.py tests/test_sentinel.py \
              tests/test_telemetry_differential.py

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; compileall only"; \
	fi

# Lines of src/**/*.py: ROADMAP tracks this size of the package.
loc:
	@echo "src/**/*.py: $$(find src -name '*.py' -exec cat {} + | wc -l) lines"

# Simulator-invariant static analysis, both tiers: the syntactic rules
# (determinism, bit-width/storage budget, policy contracts) and the
# dataflow proofs (width escapes, Table I, digest coverage, crash-safety
# protocol ordering).  See docs/static-analysis.md.
check:
	PYTHONPATH=src $(PYTHON) -m repro.cli check src/repro

# Flow tier only: CFG + abstract-interpretation rules (flow-*).  Slower
# than the syntactic tier; split out so editors can run it on demand.
check-flow:
	PYTHONPATH=src $(PYTHON) -m repro.cli check src/repro --tier flow

test-fast:
	$(PYTHON) -m pytest tests/ --ignore=tests/test_integration.py

test-fault:
	@if $(PYTHON) -c "import pytest_timeout" 2>/dev/null; then \
		$(PYTHON) -m pytest $(FAULT_TESTS) -q --timeout=300; \
	else \
		echo "pytest-timeout not installed; running without a hang backstop"; \
		$(PYTHON) -m pytest $(FAULT_TESTS) -q; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_PROFILE=quick $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast-path kernel microbenchmark on a tiny workload: times the batched
# engine against the reference engine and writes BENCH_PERF.json at the
# repo root (the perf trajectory future PRs measure against).
bench-smoke:
	REPRO_BENCH_PROFILE=quick $(PYTHON) -m pytest benchmarks/test_kernel_throughput.py -q -s

# Compare the newest BENCH_HISTORY.jsonl entry to the committed baseline
# (exit 1 past 15% throughput regression).  CI runs this gating.
bench-diff:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench-diff --tolerance 0.15 --annotate github

figures: bench
	@echo "rendered figures: benchmarks/results/figures.txt (+ .pgm/.svg)"

examples:
	$(PYTHON) examples/quickstart.py --fast
	$(PYTHON) examples/workload_characterization.py --branches 5000

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
