# Developer entry points.  The tier-1 gate is `make test`.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench-sim bench-serve native serve-smoke trace-demo analyze-demo figures clean-cache

# Tier-1: the unit/integration/property suite;
# -p no:cacheprovider avoids .pytest_cache churn in CI.
test:
	$(PYTHON) -m pytest -x -q -p no:cacheprovider

# Lint ratchet (see [tool.ruff] in pyproject.toml): full ruleset over
# src/repro/harness/, grandfathered ignores elsewhere.
lint:
	$(PYTHON) -m ruff check src tests benchmarks

# Every simulation scenario of the bench table (engine, soft) at CI's
# sizes: regenerates the committed BENCH_sim.json; compare against it
# to catch perf regressions.  Add --check to apply the floor table.
bench-sim:
	$(PYTHON) -m repro bench --scenario all --refs 100000 --repeat 2 \
		--out BENCH_sim.json

# Force-build the native compiled kernels and print the cached .so
# path (a no-op beyond the print when the cache is already warm).
native:
	$(PYTHON) -m repro.sim.native

# Serving-layer closed-loop benchmark (p50/p99 latency, hit-serving
# throughput at a ~95% hit mix).  Writes BENCH_serve.json — its own
# artifact, separate from BENCH_sim.json.  See docs/serve.md.
bench-serve:
	$(PYTHON) -m repro bench --scenario serve --out BENCH_serve.json

# End-to-end self-test of `repro serve`: start a server, submit a
# small sweep twice, assert the second pass is all hot/disk hits with
# zero re-simulations.
serve-smoke:
	$(PYTHON) -m repro serve --smoke

# External-trace pipeline end to end: import the bundled dinero sample
# into a chunked v2 store (with dynamic tag annotation), inspect it,
# and simulate it out-of-core on the standard and soft configurations.
# See docs/traces.md.
trace-demo:
	$(PYTHON) -m repro trace import examples/sample.din \
		--out /tmp/repro-sample.store --annotate --chunk-refs 256
	$(PYTHON) -m repro trace info /tmp/repro-sample.store
	$(PYTHON) -m repro simulate --trace /tmp/repro-sample.store \
		--config standard --cross-validate
	$(PYTHON) -m repro simulate --trace /tmp/repro-sample.store \
		--config soft --cross-validate
	rm -rf /tmp/repro-sample.store

# Telemetry pipeline end to end on the bundled dinero sample: ingest
# (implicit, with annotated tags), probe, classify and export.  See
# docs/telemetry.md.
analyze-demo:
	$(PYTHON) -m repro analyze --trace examples/sample.din \
		--config soft --window 256 --out /tmp/repro-analyze
	ls /tmp/repro-analyze
	rm -rf /tmp/repro-analyze

figures:
	$(PYTHON) -m repro run all

clean-cache:
	$(PYTHON) -m repro cache clear
