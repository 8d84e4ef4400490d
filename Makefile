PYTHON ?= python

.PHONY: install test verify import-report chaos crash guard serve-drill bench bench-ab bench-kernel bench-obs bench-perf bench-perf-selftest bench-serve bench-verbose examples results clean

results: bench
	$(PYTHON) tools/collect_results.py

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# the tier-1 gate: exactly what CI runs (tests + the kill -9 and
# request-plane drills); leaves `git status` clean — smoke benchmarks
# write benchmarks/out/ only, a full-mode run (`make bench`, or a gate
# without MNEMO_BENCH_SMOKE) is what refreshes a root BENCH_*.json
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(MAKE) crash
	$(MAKE) serve-drill

# what a cold `import repro.cli` costs, by package and by module
# (informational; tests/test_import_surface.py is the gate)
import-report:
	PYTHONPATH=src $(PYTHON) tools/import_report.py

# chaos smoke: fault injection, experiment strikes, store-row corruption
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/faults -x -q

# request-plane drills: slowloris, flood past the admission queue,
# mid-request SIGKILL of the supervised daemon child, unparseable
# lines, the I/O-thread properties (TestIOThreads: no thread and no
# store connection per request, stalled clients delay nobody, idle
# threads retire, prompt stop), concurrent clients with bit-identity
# vs the one-shot CLI path
serve-drill:
	PYTHONPATH=src $(PYTHON) -m pytest tests/service/test_chaos_requests.py \
		tests/service/test_serve_concurrency.py -x -q

# kill -9 drills: SIGKILL a writer / the sweep coordinator, reopen the
# store, prove zero corruption and bit-identical resume; plus the
# SIGTERM end-to-end on a live `mnemo serve`
crash:
	PYTHONPATH=src $(PYTHON) -m pytest tests/store/test_crash.py \
		tests/service/test_serve.py -x -q

# SLO guardrails: drift detection, recommendation validation, fallback
# re-planning — includes the end-to-end validate-reject-fallback scenario,
# and a clean pass run twice on one scratch store: the warm rerun recalls
# the replayed results and must print the same bytes
guard:
	PYTHONPATH=src $(PYTHON) -m pytest tests/guard \
		tests/property/test_prop_guard_drift.py -x -q
	PYTHONPATH=src $(PYTHON) -m repro guard --workload trending \
		--downsample 8 --repeats 1 --seed 3; test $$? -eq 0
	PYTHONPATH=src $(PYTHON) -m repro guard --workload trending \
		--downsample 8 --repeats 1 --seed 3 --live-rotate 3000; \
		test $$? -eq 3
	dir=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro guard --workload trending \
		--downsample 8 --repeats 1 --seed 3 --store $$dir/guard.db \
		> $$dir/cold.txt && \
	PYTHONPATH=src $(PYTHON) -m repro guard --workload trending \
		--downsample 8 --repeats 1 --seed 3 --store $$dir/guard.db \
		> $$dir/warm.txt && \
	cmp $$dir/cold.txt $$dir/warm.txt; \
	rc=$$?; rm -rf $$dir; test $$rc -eq 0

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# kernel smoke: downsized sweep, fails when the LLC frontier pass is
# under 2x the access loop under eviction or slower than it on the
# cyclic worst case, and outside the analytic error envelope (smoke runs
# never touch the committed BENCH_kernel.json; only a full-mode run
# refreshes it)
bench-kernel:
	MNEMO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_kernel_speedup.py --benchmark-only -s

# request-plane smoke: warm `size` p50/p99 over the socket and the
# shed rate under flood; fails over the p99 ceiling or on any
# transport failure (BENCH_serve.json: full-mode runs only)
bench-serve:
	MNEMO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_serve.py --benchmark-only -s

# telemetry overhead smoke: sweeps with a session on vs off must be
# bit-identical and within the ceiling (BENCH_obs.json: full-mode runs
# only)
bench-obs:
	MNEMO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_obs_overhead.py --benchmark-only -s

# the repo's own benchmark (BENCHMARK.json, benchmarks/perf/README.md):
# one workload for the driver's 20 s, last stdout line = the metrics;
# W is any workload name, e.g. `make bench-perf W=cli_profile`
W ?= sweep_cold
SEED ?= 1
bench-perf:
	python3 benchmarks/perf/run.py --workload $(W) --seed $(SEED) \
		--seconds 20 --trace 0

# the A/B behind a perf claim: PAIRS alternating runs of workload W at
# PARENT (git archive, temp dir) and in this tree; prints medians,
# quartiles, wins and the verdict per end-to-end metric, e.g.
# `make bench-ab PARENT=HEAD~1 W=profile_cold [LAYERS=1]`
PAIRS ?= 10
SECONDS ?= 20
bench-ab:
	$(PYTHON) tools/ab_bench.py --parent $(PARENT) --workload $(W) \
		--pairs $(PAIRS) --seconds $(SECONDS) $(if $(LAYERS),--layers)

# the harness's own tests (~4 s): contract line, layer table, probes
bench-perf-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/perf -q

bench-verbose:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/capacity_planning.py
	$(PYTHON) examples/tiering_comparison.py
	$(PYTHON) examples/custom_workload.py
	$(PYTHON) examples/multitier_sizing.py
	$(PYTHON) examples/slo_guardrails.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks mnemo.db*
	find . -name __pycache__ -type d -exec rm -rf {} +
