PYTHON ?= python
export PYTHONPATH := src

.PHONY: help test smoke lint deepcheck bench bench-json bench-fleet bench-fleet-sim perf-selftest kv-smoke trace-smoke dashboard-smoke fleet-smoke doctest docs docs-check

help:       ## list targets with their one-line descriptions
	@awk -F':.*##' '/^[a-z-]+:.*##/ {printf "  %-12s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

test:       ## full test suite
	$(PYTHON) -m pytest -q

smoke:      ## quick CI gate: everything but the full campaign runs
	$(PYTHON) -m pytest -q -m "not slow"

lint:       ## generic checker (ruff/pyflakes/syntax) + deepcheck
	$(PYTHON) tools/lint.py

deepcheck:  ## repo-specific invariant linter (docs/STATIC_ANALYSIS.md)
	$(PYTHON) tools/deepcheck
	$(PYTHON) tools/deepcheck --self-test

doctest:    ## run the docstring examples (units, SPL algebra, error taxonomy)
	$(PYTHON) -m pytest -q --doctest-modules src/repro/units.py src/repro/acoustics/spl.py src/repro/errors.py

docs:       ## regenerate docs/CLI.md from the argparse tree
	$(PYTHON) tools/gen_cli_docs.py

docs-check: ## CI gate: fail if docs/CLI.md is stale
	$(PYTHON) tools/gen_cli_docs.py --check

bench:      ## paper-scale benchmarks (writes results/*.txt)
	$(PYTHON) -m pytest -q benchmarks

bench-json: ## machine-readable perf trajectory (writes BENCH_PR10.json)
	$(PYTHON) tools/bench_json.py --out BENCH_PR10.json

bench-fleet: ## batched rack sweep vs scalar loop only (writes BENCH_FLEET.json)
	$(PYTHON) tools/bench_json.py --quick --only fleet --out BENCH_FLEET.json

bench-fleet-sim: ## event-loop fleet campaign gate only (writes BENCH_FLEETSIM.json)
	$(PYTHON) tools/bench_json.py --quick --only fleetsim --out BENCH_FLEETSIM.json

perf-selftest: ## benchmark self-test: every workload at tiny size, probe boundaries intact
	$(PYTHON) perfbench/selftest.py

kv-smoke:   ## table2 --duration 0.7 --seed 1 stdout must match its perfbench/golden.json digest
	$(PYTHON) -m repro.cli table2 --duration 0.7 --seed 1 > kv-smoke.txt
	$(PYTHON) -c 'import hashlib, json, sys; \
	want = json.load(open("perfbench/golden.json"))["entries"]["table2 --duration 0.7"]["1"]["sha256"]; \
	got = hashlib.sha256(open("kv-smoke.txt", "rb").read()).hexdigest(); \
	print("kv-smoke: table2 stdout sha256", got); \
	sys.exit(got != want and f"kv-smoke: expected {want} (perfbench/golden.json)")'

trace-smoke: ## tiny traced sweep + trace schema validation
	$(PYTHON) -m repro.cli figure2 --runtime 0.2 --seed 7 \
		--trace trace.json --metrics-out metrics.prom > /dev/null
	$(PYTHON) tools/validate_trace.py trace.json

dashboard-smoke: ## tiny attacked YCSB run + series/dashboard validation
	$(PYTHON) -m repro.cli ycsb --warmup 1 --attack 1.5 --recovery 1 \
		--records 150 --slo 'p99<25ms,avail>=99.9' \
		--series-out series.jsonl --dashboard-out dashboard.html > /dev/null
	$(PYTHON) tools/validate_trace.py series.jsonl dashboard.html

fleet-smoke: ## small sharded fleet campaign + series validation
	$(PYTHON) -m repro.cli fleet --racks 2 --towers 5 --duration 12 \
		--rate 40 --workers 2 --series-out fleet-series.jsonl > /dev/null
	$(PYTHON) tools/validate_trace.py fleet-series.jsonl
